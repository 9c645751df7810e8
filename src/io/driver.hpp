#ifndef HATT_IO_DRIVER_HPP
#define HATT_IO_DRIVER_HPP

/**
 * @file
 * Single-input compile orchestration: parse a Hamiltonian file,
 * stream-preprocess it into Majorana form, build the requested mapping
 * through the MapperRegistry, map the qubit Hamiltonian, route it onto
 * a device when one is requested, and write every artifact. These are
 * pure functions over explicit inputs — no argv, no process state
 * beyond the metrics/trace instrumentation.
 *
 * Layering: cli / hattd / batch -> CompilationService::compile ->
 * compileInput -> MapperRegistry -> stores. compileInput is the only
 * code that runs a compile, and it reports failure as a Status; it
 * knows nothing about requests, reports or command lines.
 */

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "common/deadline.hpp"
#include "common/metrics.hpp"
#include "device/cost.hpp"
#include "fermion/majorana.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/json.hpp"
#include "io/limits.hpp"
#include "mapping/mapper.hpp"

namespace hatt::io {

/** Input file format selector. */
enum class InputFormat { Auto, Ops, Fcidump };

/** A parsed + preprocessed input Hamiltonian. */
struct LoadedProblem
{
    std::string stem;        //!< input file name without dir/extension
    std::string format;      //!< "ops" | "fcidump"
    uint32_t numModes = 0;
    size_t fermionTerms = 0; //!< terms streamed out of the file
    uint64_t contentHash = 0;
    MajoranaPolynomial poly;
};

/**
 * Parse @p path (streaming for .ops) and preprocess into Majorana form
 * with the sharded accumulator (expansion fans out over the work pool;
 * bit-identical to the serial path for every thread count). The file
 * size is checked against ParseLimits::maxFileBytes up front (before a
 * byte is parsed); the term/mode/line caps are enforced by the format
 * parsers as they stream.
 * @throws ParseError on unreadable/malformed/over-cap input.
 */
LoadedProblem loadProblem(const std::string &path,
                          InputFormat format = InputFormat::Auto,
                          const ParseLimits &limits = ParseLimits{});

/** Resolve Auto by extension, then by sniffing the first non-blank
    line (FCIDUMP files open with an &FCI namelist).
    @throws ParseError when the file cannot be opened. */
InputFormat detectFormat(const std::string &path);

/** ".ops"/".fcidump" (case-insensitive) -> format; nullopt otherwise. */
std::optional<InputFormat>
formatFromExtension(const std::filesystem::path &path);

/** Budget/guard knobs of one compile. */
struct CompileConfig
{
    ParseLimits limits;
    double timeoutSeconds = 0.0; //!< 0 = unbounded
    bool fallback = false;       //!< degrade to btt on deadline
    /** Canonical device name; empty = architecture-agnostic compile.
        When set, the outcome carries the routed HardwareCost of the
        built mapping on this device (any mapping kind). */
    std::string device;
};

/** What one input compiled to (compile artifacts already on disk). */
struct CompileOutcome
{
    LoadedProblem problem;
    MappingResult built;
    std::optional<HamiltonianMetrics> qubitMetrics;
    /** Routed cost on CompileConfig::device (set iff a device was). */
    std::optional<device::HardwareCost> hardwareCost;
    double totalSeconds = 0.0; //!< wall clock from compile entry to emit
    /** Construction hit its deadline and fell back to btt. */
    bool degraded = false;
};

/**
 * The full compile pipeline for one input: parse, preprocess, build the
 * mapping (consulting @p store when given), map the qubit Hamiltonian
 * once (when @p emit_qubit or a device is set), route it onto the
 * device, and write every artifact into @p out_dir.
 *
 * The deadline (when set) covers construction AND qubit mapping; with
 * fallback a construction deadline degrades to the deterministic FH
 * ternary-tree construction (btt) — the fallback build itself runs
 * unbounded, since degradation must complete to be useful. A deadline
 * during qubit mapping always fails the compile (there is no cheaper
 * way to map the same Hamiltonian).
 *
 * Never throws. Registry and device statuses pass through unchanged;
 * this is the one place on the compile path that turns what the
 * parsers, the qubit-mapping engine and artifact I/O throw into a
 * Status (ParseError -> InvalidArgument, DeadlineExceededError ->
 * DeadlineExceeded, CancelledError -> Cancelled, bad_alloc ->
 * ResourceExhausted, anything else -> Internal).
 */
StatusOr<CompileOutcome> compileInput(const std::string &path,
                                      InputFormat format,
                                      const std::string &kind,
                                      const std::string &out_dir,
                                      MappingStore *store, bool emit_qubit,
                                      const CompileConfig &config);

/** Create @p dir (and parents). @throws ParseError on failure. */
void ensureOutDir(const std::string &dir);

/** Build provenance stamped into reports/stats (see buildinfo.hpp). */
JsonValue buildInfoDocument();

/**
 * The full metrics snapshot as {"deterministic": {...}, "volatile":
 * {...}} — the payload of `hattc stats --json` and batch_stats.json,
 * and the exact document the future hattd /stats endpoint will serve.
 * Deterministic counters are byte-identical for every HATT_THREADS in
 * a fixed scenario; volatile timings never are, which is why the two
 * sections are never mixed.
 */
JsonValue metricsSectionsDocument(const metrics::Snapshot &snap);

/**
 * The workload-counter mirror for batch_report.json v4: only the
 * `parse.*` / `preprocess.*` deterministic counters, which are pure
 * functions of the input corpus — invariant across HATT_THREADS,
 * cold-vs-warm cache, and fault injection, so the report stays
 * byte-comparable across all of those axes (the pinned determinism
 * contract). The remaining deterministic counters (cache, store, pool,
 * hatt, search) live in batch_stats.json's full snapshot.
 */
JsonValue workloadCountersDocument(const metrics::Snapshot &snap);

/** BENCH_*.json record shape (see bench/README.md). */
JsonValue metricsDocument(const std::string &name, double seconds,
                          std::optional<uint64_t> pauli_weight,
                          std::optional<uint64_t> candidates,
                          bool cache_hit, bool degraded,
                          double cache_seconds);

} // namespace hatt::io

#endif // HATT_IO_DRIVER_HPP
