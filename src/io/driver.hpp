#ifndef HATT_IO_DRIVER_HPP
#define HATT_IO_DRIVER_HPP

/**
 * @file
 * Input loading and run documents for the compile path: resolve an
 * input's format, parse a Hamiltonian file and stream-preprocess it
 * into Majorana form, plus the provenance and metrics documents that
 * reports and `stats` print. These are pure functions over explicit
 * inputs — no argv, no process state beyond the metrics/trace
 * instrumentation.
 *
 * Layering: cli / hattd / batch -> CompilationService::compile ->
 * {loadProblem, MapperRegistry -> stores, device routing, emit}.
 * CompilationService::compile is the only code that runs a compile.
 */

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "common/metrics.hpp"
#include "fermion/majorana.hpp"
#include "io/json.hpp"
#include "io/limits.hpp"

namespace hatt::io {

/** Input file format selector. */
enum class InputFormat { Auto, Ops, Fcidump };

/** A parsed + preprocessed input Hamiltonian. */
struct LoadedProblem
{
    std::string stem;        //!< input file name without dir/extension
    std::string format;      //!< "ops" | "fcidump"
    uint32_t numModes = 0;
    size_t fermionTerms = 0; //!< .ops terms read; FCIDUMP: see loadProblem
    uint64_t contentHash = 0;
    MajoranaPolynomial poly;
};

/**
 * Parse @p path and preprocess into Majorana form, folded into one
 * serial StreamingMajoranaAccumulator so no term list is buffered:
 * each .ops term is expanded as it is read, and FCIDUMP integrals go
 * straight to their monomials (addIntegralMonomials) without building a
 * fermionic term. fermionTerms counts the terms read, or for FCIDUMP
 * the spin-orbital terms the integrals define. The path is opened exactly once
 * (non-blocking, so a FIFO cannot stall the open); type, size and
 * content all come from that one descriptor. The size is checked
 * against ParseLimits::maxFileBytes before a byte is parsed; the
 * term/mode/line caps are enforced by the format parsers as they
 * stream. Auto resolves by extension, then by the first non-blank
 * character (FCIDUMP files open with an &FCI namelist).
 * @throws ParseError on unreadable/malformed/over-cap input, or a path
 *         that is not a regular file (FIFO, device, directory).
 */
LoadedProblem loadProblem(const std::string &path,
                          InputFormat format = InputFormat::Auto,
                          const ParseLimits &limits = ParseLimits{});

/** "auto" | "ops" | "fcidump" -> format; nullopt for any other name.
    The one conversion from the wire/CLI spelling (CompileRequest::
    format, `--format`) to InputFormat. */
std::optional<InputFormat> parseInputFormat(const std::string &name);

/** ".ops"/".fcidump" (case-insensitive) -> format; nullopt otherwise. */
std::optional<InputFormat>
formatFromExtension(const std::filesystem::path &path);

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

} // namespace hatt::io

#endif // HATT_IO_DRIVER_HPP
