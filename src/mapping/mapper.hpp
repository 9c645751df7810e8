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
 *   req.poly = &poly;                    // every kind
 *   req.options["device"] = "montreal";  // read by device-aware kinds
 *   StatusOr<MappingResult> built = MapperRegistry::instance().build(req);
 *
 * A `Mapper` is one row: a name, its capabilities (reads the
 * Hamiltonian's terms or only its mode count, produces a tree,
 * vacuum-preserving, device-aware) and a function that builds a
 * `MappingResult` from a `MappingRequest`. The capabilities hold for
 * every request. Every mapper is deterministic and cacheable. The
 * built-in kinds are one table in mapper.cpp; the process-wide
 * `MapperRegistry` holds one row per kind, is pre-loaded with that
 * table, dispatches by (case-insensitive) kind string, and layers
 * content-addressed caching over every mapper through the
 * `MappingStore` hook — so the compiler driver, the batch service and
 * the benchmarks all share one construction, validation and caching
 * path.
 *
 * Errors are Status/StatusOr values (common/status.hpp, included here),
 * not exceptions: an unknown kind, a missing Hamiltonian, or an option
 * other than "device" comes back as a descriptive non-ok Status that
 * travels unchanged through the compile driver and the
 * CompilationService to the CLI exit code, the wire frame or the batch
 * report row.
 */

#include <cstdint>
#include <map>
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
 * A uniform construction request: the Hamiltonian (required for every
 * kind; modes-only kinds read just its mode count) and an option bag
 * whose one key is "device" (a DeviceRegistry name). Device-aware kinds
 * require it; every other kind ignores it. Any other key is
 * InvalidArgument, so typos fail loudly.
 */
struct MappingRequest
{
    std::string kind;        //!< registry key, e.g. "hatt", "jw"
    const MajoranaPolynomial *poly = nullptr; //!< borrowed, not owned

    /** Option bag: "device" only. */
    std::map<std::string, std::string> options;

    /**
     * Content hash of the canonical Majorana form (io::majoranaContentHash)
     * — the cache key. Without it a MappingStore is never consulted.
     */
    std::optional<uint64_t> contentHash;

    /**
     * Run budget, checked at chunk boundaries inside the builds. On
     * expiry build() returns Status::DeadlineExceeded; an already-
     * expired deadline is rejected before any construction work.
     */
    Deadline deadline;
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
    bool needsHamiltonian = false; //!< reads the terms, not just the modes
    bool producesTree = false;     //!< MappingResult::tree is populated
    bool vacuumPreserving = true;  //!< a_j|0...0> = 0 for every mode
    /** Consumes the "device" option (a DeviceRegistry name): the tree
        is shaped by the device coupling graph, so the device is part of
        the cache identity (the registry folds it into the content
        hash). Other kinds never see the device in their key. */
    bool deviceAware = false;
    std::string summary;           //!< one line for `hattc mappings`
};

/**
 * A fermion-to-qubit construction: a registry row of name, declared
 * capabilities and build function. The function sees a request the
 * registry has already validated (kind resolves here, poly present
 * with at least one mode, no option but "device"); device-aware kinds
 * validate the device value.
 */
class Mapper
{
  public:
    using BuildFn = StatusOr<MappingResult> (*)(const MappingRequest &);

    Mapper(std::string name, MapperCapabilities caps, BuildFn build)
        : name_(std::move(name)), caps_(std::move(caps)), build_(build)
    {
    }

    /** Canonical registry key (lowercase, e.g. "hatt-unopt"). */
    const std::string &name() const { return name_; }

    const MapperCapabilities &capabilities() const { return caps_; }

    StatusOr<MappingResult> build(const MappingRequest &req) const
    {
        return build_(req);
    }

  private:
    std::string name_;
    MapperCapabilities caps_;
    BuildFn build_;
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

/** The key a MappingStore is asked with: the request's content hash
    (with the device folded in for device-aware kinds) and the mapper's
    canonical name. */
struct StoreKey
{
    uint64_t contentHash = 0;
    std::string kind;
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
    Status add(Mapper mapper);

    /** Find by kind, case-insensitively; nullptr when absent. */
    const Mapper *find(const std::string &kind) const;

    /** Ok when @p kind resolves; otherwise the canonical NotFound
        status naming every registered kind — the one diagnostic the
        CLI, manifests and build() all surface. */
    Status checkKind(const std::string &kind) const;

    /** Canonical kind names, sorted. */
    std::vector<std::string> kinds() const;

    /** The key build() consults a store with for @p req (so "HATT"
        and "hatt" are one key, bonsai on two devices are two, and jw
        with or without a device is one); nullopt when @p req carries no
        content hash or names no registered kind. */
    std::optional<StoreKey> storeKey(const MappingRequest &req) const;

    /**
     * Validate @p req (an option other than "device" is
     * InvalidArgument naming it), dispatch to the mapper, and (when
     * @p cache is given and the request carries a content hash)
     * consult/populate the store. Metrics carry wall clock and cache
     * provenance. Never throws: construction failures surface as non-ok
     * Status.
     */
    StatusOr<MappingResult> build(const MappingRequest &req,
                                  MappingStore *cache = nullptr) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Mapper> mappers_;
};

} // namespace hatt

#endif // HATT_MAPPING_MAPPER_HPP
