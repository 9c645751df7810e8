#ifndef HATT_IO_SERVICE_HPP
#define HATT_IO_SERVICE_HPP

/**
 * @file
 * The transport-agnostic compilation core: a `CompilationService` owns
 * the shared store stack (in-memory TieredMappingStore over the on-disk
 * MappingCache), runs the one compile pipeline, and speaks versioned,
 * JSON-round-trippable request/response structs — the `hattd` wire
 * protocol v1. `hattc compile`/`map`, every hattd compile frame and
 * every `hattc batch` item run through compile(); nothing here reads
 * argv or writes diagnostics.
 *
 *   CompilationService service({.cacheDir = "cache"});
 *   CompileRequest req;
 *   req.path = "h2.ops";
 *   StatusOr<CompileResponse> resp = service.compile(req);
 *
 * A long-lived service keeps the memory tier warm across calls: a
 * repeated batch over the same corpus serves 100% memory hits while
 * staying byte-identical to the cold run (the tier memoizes exactly
 * what the build would produce).
 *
 * Errors are Status values, never exceptions: compile() turns every
 * failure into one Status, the CLI maps it to sysexits through one
 * table (io/cli's exitCodeForStatus), hattd to wire code strings, and
 * a batch report to its per-item status.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/driver.hpp"
#include "io/json.hpp"
#include "io/limits.hpp"
#include "mapping/mapper.hpp"
#include "mapping/store.hpp"

namespace hatt::io {

class MappingCache;

// ------------------------------------------------------- wire schema v1

/**
 * One compile request ("hatt-compile-request" v1). Plain serializable
 * values only — this struct is the future hattd wire schema, so it must
 * survive a JSON round trip bit-for-bit.
 */
struct CompileRequest
{
    std::string path;             //!< input file path
    std::string format = "auto";  //!< "auto" | "ops" | "fcidump"
    std::string mapping = "hatt"; //!< registered kind
    std::string outDir = "out";   //!< artifact directory
    bool emitQubit = true;        //!< also map + emit the qubit H
    uint64_t maxTerms = 0;        //!< input term cap; 0 = default
    uint32_t maxModes = 0;        //!< input mode cap; 0 = default
    double timeoutSeconds = 0.0;  //!< compile budget; 0 = unbounded
    bool fallback = false;        //!< degrade to btt on deadline
    /** Target device (DeviceRegistry name); empty = architecture-
        agnostic compile. Added within wire v1 (optional-with-default):
        older clients omit it and the field is only emitted when set.
        When set, the response carries the routed hardware-cost
        fields. */
    std::string device;
};

JsonValue compileRequestToJson(const CompileRequest &req);
/** @throws ParseError on a bad envelope or field shape. */
CompileRequest compileRequestFromJson(const JsonValue &doc);

/** One compile outcome ("hatt-compile-response" v1). */
struct CompileResponse
{
    std::string stem;        //!< input file name without dir/extension
    std::string inputFormat; //!< "ops" | "fcidump"
    uint32_t numModes = 0;
    uint64_t fermionTerms = 0;
    uint64_t monomials = 0;  //!< deduplicated Majorana monomials
    uint64_t contentHash = 0;
    uint32_t numQubits = 0;
    std::optional<uint64_t> pauliWeight;   //!< emitQubit only
    std::optional<uint64_t> qubitTerms;    //!< emitQubit only
    std::optional<double> maxImagCoeff;    //!< emitQubit only
    std::optional<uint64_t> candidates;    //!< HATT kinds
    /** Canonical device name; empty = no device was requested. The
        routed_* fields below are set iff device is non-empty, and are
        deterministic (part of the byte-identity bar, not volatile). */
    std::string device;
    std::optional<uint64_t> routedCnots;
    std::optional<uint64_t> routedU3;
    std::optional<uint64_t> routedDepth;
    std::optional<uint64_t> routedSwaps;
    bool cacheHit = false;
    std::string cacheTier;   //!< "memory" | "disk" | "" (miss/untiered)
    bool degraded = false;   //!< fell back to btt on deadline
    bool quarantinedCache = false; //!< corrupt disk entry moved aside
    double seconds = 0.0;      //!< wall clock of the whole compile
    double cacheSeconds = 0.0; //!< store lookup cost (serving tier)
};

JsonValue compileResponseToJson(const CompileResponse &resp);
/** @throws ParseError on a bad envelope or field shape. */
CompileResponse compileResponseFromJson(const JsonValue &doc);

// ------------------------------------------------------------ batch I/O

/** One unit of batch work: an (input file, mapping kind) pair. */
struct BatchItem
{
    std::string path;    //!< input file path
    /** Report name: the root-relative path for directory discovery
        (the scan is recursive — bare filenames would collide across
        subdirectories), the file name for manifest lines. */
    std::string name;
    std::string mapping; //!< mapping kind to build for this input

    /** Report/output-directory key: "<name>:<mapping>". One batch may
        compile the same input under several kinds — keys stay unique. */
    std::string key() const { return name + ":" + mapping; }
};

/** Per-input outcome of a batch run. */
struct BatchItemResult
{
    BatchItem item;
    /** What CompilationService::compile returned for this item (the
        placeholder status is overwritten by BatchCompiler::run). A
        response with degraded set is report status "degraded", with
        quarantinedCache "quarantined_cache"; an error is "timeout"
        when timedOut(), else "error". */
    StatusOr<CompileResponse> result = Status::internal("not compiled");
    double seconds = 0.0; //!< the item's wall clock, failed items too

    /** Failed because its deadline expired. */
    bool
    timedOut() const
    {
        return result.status().code() == Status::Code::DeadlineExceeded;
    }
};

/** Batch-wide configuration. */
struct BatchOptions
{
    /** Default mapping kinds: every discovered input fans out across all
        of them (manifest lines may override per input). */
    std::vector<std::string> mappings = {"hatt"};

    /** Filename/relative-path glob (`*`, `?`) filtering directory
        discovery; empty = every .ops/.fcidump. Patterns containing '/'
        match the path relative to the scanned directory. */
    std::string glob;

    /**
     * Template for every item's compile: the format, caps, per-item
     * budget (each item gets its own deadline, so one pathological
     * input cannot starve the rest of the corpus), fallback and device
     * apply to each item; path and mapping are set per item, and each
     * item writes into <request.outDir>/<name>:<mapping>/.
     * The format applies only to inputs without a recognized
     * extension — a `.ops` / `.fcidump` file always parses as what its
     * extension says, so one forced format cannot misparse a mixed
     * corpus.
     */
    CompileRequest request;
};

/** Everything one batch run produced: per-item results plus the two
    batch documents, computed inside the run's own metrics scope so a
    direct service call emits byte-identical reports to the CLI path. */
struct BatchOutcome
{
    std::vector<BatchItemResult> results;
    JsonValue report; //!< batch_report.json ("hatt-batch-report" v4)
    JsonValue stats;  //!< batch_stats.json ("hatt-batch-stats" v3)
    size_t failed = 0;
};

// -------------------------------------------------------------- service

/** Construction knobs for a CompilationService. */
struct ServiceConfig
{
    /** Durable cache directory; empty = no disk tier. */
    std::string cacheDir;
    /** Keep an in-memory tier in front of the disk cache (or alone when
        cacheDir is empty and some caller wants pure memoization). */
    bool memoryStore = true;
};

/**
 * The compilation core. Owns the store stack, runs the compile
 * pipeline, and reports outcomes as Status values. Thread
 * compatibility matches the underlying stores: concurrent compile()
 * calls are safe (the tier map is under one mutex, the disk cache is
 * rename-atomic), and a single service instance is intended to live as
 * long as the process (CLI run, daemon lifetime).
 */
class CompilationService
{
  public:
    explicit CompilationService(ServiceConfig config = {});
    ~CompilationService();

    CompilationService(const CompilationService &) = delete;
    CompilationService &operator=(const CompilationService &) = delete;

    /**
     * Compile one input per @p req: parse, preprocess, build the
     * mapping through the MapperRegistry (consulting the store stack),
     * map the qubit Hamiltonian once (when req.emitQubit or a device is
     * set), route it onto req.device, and write the artifact set into
     * req.outDir. The response is filled as each stage finishes, and
     * `<stem>.metrics.json` mirrors its fields.
     *
     * The deadline (req.timeoutSeconds, when set) covers construction
     * AND qubit mapping; with req.fallback a construction deadline
     * degrades to the deterministic FH ternary-tree construction (btt)
     * — the fallback build itself runs unbounded, since degradation
     * must complete to be useful. A deadline during qubit mapping
     * always fails the compile (there is no cheaper way to map the same
     * Hamiltonian).
     *
     * Never throws. Request, registry and device statuses pass through
     * unchanged; this is the one place on the compile path that turns
     * what the parsers, the qubit-mapping engine and artifact I/O throw
     * into a Status (ParseError -> InvalidArgument,
     * DeadlineExceededError -> DeadlineExceeded, bad_alloc ->
     * ResourceExhausted, anything else -> Internal).
     */
    StatusOr<CompileResponse> compile(const CompileRequest &req);

    /**
     * Compile a corpus: discover work items from @p source (directory
     * or manifest — see BatchCompiler::discoverInputs), run them in
     * parallel over the work pool sharing this service's store stack,
     * and return the results plus the report/stats documents. Resets
     * the process metrics scope at entry (one batch = one scope), so
     * the returned report is byte-identical to the one `hattc batch`
     * writes for the same corpus. Does NOT write the batch documents
     * to disk — that is the caller's (CLI's) job.
     */
    StatusOr<BatchOutcome> compileBatch(const std::string &source,
                                        const BatchOptions &options);

    /** The store the registry consults: the memory tier when armed,
        else the bare disk cache; null when the service caches nothing. */
    MappingStore *store();

    /** The in-memory tier; null when ServiceConfig::memoryStore is
        false. */
    TieredMappingStore *memoryTier() { return tiered_.get(); }

    const ServiceConfig &config() const { return config_; }

  private:
    ServiceConfig config_;
    std::unique_ptr<MappingCache> disk_;
    std::unique_ptr<TieredMappingStore> tiered_;
};

} // namespace hatt::io

#endif // HATT_IO_SERVICE_HPP
