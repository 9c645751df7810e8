#ifndef HATT_MAPPING_MAPPER_HPP
#define HATT_MAPPING_MAPPER_HPP

/**
 * @file
 * The unified mapper API: every fermion-to-qubit construction in the
 * library — and any future one (device-grown Bonsai trees,
 * architecture-aware Treespilation variants, ...) — is requested through
 * one surface:
 *
 *   MappingRequest req;
 *   req.kind = "hatt";
 *   req.poly = &poly;                    // Hamiltonian-adaptive kinds
 *   StatusOr<MappingResult> built = MapperRegistry::instance().build(req);
 *
 * A `Mapper` is a polymorphic strategy: it names itself, declares its
 * capabilities (needs-Hamiltonian vs. modes-only, produces a tree,
 * vacuum-preserving, device-aware), and builds a `MappingResult` from a
 * `MappingRequest`. Every mapper is deterministic and cacheable. The
 * process-wide `MapperRegistry` owns one instance per kind,
 * self-registers the built-ins, dispatches by (case-insensitive) kind
 * string, and layers content-addressed caching over every mapper
 * through the `MappingStore` hook — so the compiler driver, the batch
 * service and the benchmarks all share one construction, validation
 * and caching path.
 *
 * Errors are Status/StatusOr values (common/status.hpp, included here),
 * not exceptions: an unknown kind, a missing Hamiltonian, or a bad
 * option bag comes back as a descriptive non-ok Status that travels
 * unchanged through the compile driver and the CompilationService to
 * the CLI exit code, the wire frame or the batch report row.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/status.hpp"
#include "fermion/majorana.hpp"
#include "mapping/mapping.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt {

// ---------------------------------------------------------------- request

/**
 * A uniform construction request. Modes-only mappers (JW, BK, BTT) need
 * only numModes (or derive it from poly when given); Hamiltonian-adaptive
 * mappers (HATT family) require poly. The option bag carries per-kind
 * string options (e.g. btt's "assignment" = "paired" | "natural");
 * mappers reject unknown keys so typos fail loudly.
 */
struct MappingRequest
{
    std::string kind;        //!< registry key, e.g. "hatt", "jw"
    uint32_t numModes = 0;   //!< 0 = derive from poly
    const MajoranaPolynomial *poly = nullptr; //!< borrowed, not owned

    /** Per-kind option bag; unknown keys are InvalidArgument. */
    std::map<std::string, std::string> options;

    /**
     * Content hash of the canonical Majorana form (io::majoranaContentHash)
     * — the cache key. Without it a MappingStore is never consulted.
     */
    std::optional<uint64_t> contentHash;

    /**
     * Cooperative run budget (deadline + cancel token), checked at
     * chunk boundaries inside the builds. On expiry build() returns
     * Status::DeadlineExceeded / Status::Cancelled; an already-expired
     * budget is rejected before any construction work.
     */
    RunLimits limits;
};

/** Construction provenance and statistics. */
struct MappingMetrics
{
    double seconds = 0.0;    //!< wall clock of the build (0 on cache hit)
    /**
     * Wall clock of the MappingStore lookup (hit or miss; 0 when no
     * store was consulted). Kept apart from `seconds` so a cache hit
     * reports its real lookup cost instead of silently claiming the
     * build was free.
     */
    double cacheSeconds = 0.0;
    bool cacheHit = false;   //!< result came from a MappingStore
    /** The store tier that served the hit ("memory", "disk"; empty when
        !cacheHit or the store doesn't distinguish tiers). cacheSeconds
        is the lookup cost of exactly this tier's path. */
    std::string cacheTier;
    std::optional<uint64_t> candidates; //!< candidates evaluated (HATT kinds)

    /** Mapper-specific extras (e.g. HATT's "predicted_weight"). */
    std::map<std::string, uint64_t> counters;
};

/** A built mapping plus its provenance. */
struct MappingResult
{
    FermionQubitMapping mapping;
    std::optional<TernaryTree> tree; //!< tree-based kinds only
    MappingMetrics metrics;
};

// ----------------------------------------------------------------- mapper

/** What a mapper requires and guarantees. */
struct MapperCapabilities
{
    bool needsHamiltonian = false; //!< requires MappingRequest::poly
    bool producesTree = false;     //!< MappingResult::tree is populated
    bool vacuumPreserving = true;  //!< a_j|0...0> = 0 for every mode
    /** Consumes the "device" option (a DeviceRegistry name): the tree
        is shaped by the device coupling graph, so the option is part of
        the cache identity (the registry folds the option bag into the
        content hash). */
    bool deviceAware = false;
    std::string summary;           //!< one line for `hattc mappings`
};

/** A fermion-to-qubit construction strategy. */
class Mapper
{
  public:
    virtual ~Mapper() = default;

    /** Canonical registry key (lowercase, e.g. "hatt-unopt"). */
    virtual const std::string &name() const = 0;

    virtual const MapperCapabilities &capabilities() const = 0;

    /**
     * Build a mapping. The registry has already validated the generic
     * request shape (kind resolves here, poly present when required,
     * modes consistent); implementations validate their own option bag
     * and return InvalidArgument for unknown keys/values.
     */
    virtual StatusOr<MappingResult> build(const MappingRequest &req) const = 0;
};

// ------------------------------------------------------------------ store

/**
 * Content-addressed persistence hook: implemented by io::MappingCache,
 * or by tests with an in-memory map. The registry consults it whenever
 * the request carries a content hash, so every mapper gets caching for
 * free.
 */
class MappingStore
{
  public:
    /** A stored entry: the mapping, and for tree kinds its tree plus the
        candidates witness so hits report the original determinism data. */
    struct Entry
    {
        FermionQubitMapping mapping;
        std::optional<TernaryTree> tree;
        std::optional<uint64_t> candidates;

        /** Which tier served this entry, set by load() implementations
            ("memory", "disk", ...; empty = unspecified). Transient
            provenance for metrics — never persisted. */
        std::string tier;
    };

    virtual ~MappingStore() = default;

    /** Fetch (contentHash, kind); nullopt = miss (including corrupt). */
    virtual std::optional<Entry> load(uint64_t content_hash,
                                      const std::string &kind) = 0;

    /** Persist (contentHash, kind) -> entry; best effort. */
    virtual void save(uint64_t content_hash, const std::string &kind,
                      const Entry &entry) = 0;
};

// --------------------------------------------------------------- registry

/**
 * Kind-string -> Mapper dispatch. `instance()` is the process-wide
 * registry pre-loaded with the built-ins; tests construct private empty
 * registries to exercise extension and collision rules in isolation.
 * Lookup is case-insensitive ("HATT-unopt" finds "hatt-unopt"), so the
 * benchmark display labels resolve without a parallel dispatch table.
 */
class MapperRegistry
{
  public:
    MapperRegistry() = default;
    MapperRegistry(const MapperRegistry &) = delete;
    MapperRegistry &operator=(const MapperRegistry &) = delete;

    /** The process-wide registry with the built-ins registered. */
    static MapperRegistry &instance();

    /** Register @p mapper under its name(); AlreadyExists on collision. */
    Status add(std::unique_ptr<Mapper> mapper);

    /** Find by kind, case-insensitively; nullptr when absent. */
    const Mapper *find(const std::string &kind) const;

    /** Ok when @p kind resolves; otherwise the canonical NotFound
        status naming every registered kind — the one diagnostic the
        CLI, manifests and build() all surface. */
    Status checkKind(const std::string &kind) const;

    /** Canonical kind names, sorted. */
    std::vector<std::string> kinds() const;

    /**
     * Validate @p req, dispatch to the mapper, and (when @p cache is
     * given and the request carries a content hash) consult/populate
     * the store. Metrics carry wall clock and
     * cache provenance. Never throws: construction failures surface as
     * non-ok Status.
     */
    StatusOr<MappingResult> build(const MappingRequest &req,
                                  MappingStore *cache = nullptr) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Mapper>> mappers_;
};

} // namespace hatt

#endif // HATT_MAPPING_MAPPER_HPP
