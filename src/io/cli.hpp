#ifndef HATT_IO_CLI_HPP
#define HATT_IO_CLI_HPP

/**
 * @file
 * The `hattc` command-line front end: argv parsing, usage/diagnostic
 * text, and the one Status -> sysexits table. Everything here is a thin
 * shell over the CompilationService (io/service.hpp) — no compilation
 * logic lives in this layer, so every compile path is callable from
 * tests (and a future hattd) without an argv in sight.
 *
 * Subcommands:
 *   map     <input>   mapping (+ tree) JSON, with metrics
 *   compile <input>   map + qubit Hamiltonian JSON + BENCH-shape metrics
 *   batch   <dir|manifest>  compile every (input, mapping) work item in
 *                     parallel, sharing one two-tier mapping store;
 *                     emits batch_report.json + batch_stats.json
 *   mappings          list the MapperRegistry (names + capabilities)
 *   stats   <input>   parse/preprocess summary + content hash (--json
 *                     adds build info and the run's metrics snapshot)
 *   verify  <mapping.json>  validity + vacuum-preservation check
 *   cache gc|list <dir>     cache eviction / entry listing
 *
 * Global options: --trace FILE arms the process-wide trace layer
 * (Chrome trace-event JSON, same as HATT_TRACE=FILE); --version prints
 * build provenance. See common/trace.hpp and common/metrics.hpp for
 * the observability layer the compile path instruments.
 */

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "mapping/mapper.hpp"

namespace hatt::io {

/** Failed check (`verify`) or failed batch
    input: the run worked, the verdict is negative. */
inline constexpr int kExitFailedCheck = 1;

/** EX_USAGE: a bad command line never reaches the service layer, so it
    has no Status — the usage text and 64 are pure CLI surface. */
inline constexpr int kExitUsage = 64;

/** Thrown for bad command lines; maps to exit code 64 with usage. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The one count parser of both binaries' command lines: decimal digits
 * only, within [0, @p max_value]. stoull alone would wrap "-5" to
 * 2^64-5. @throws UsageError naming @p opt.
 */
uint64_t parseUnsigned(const std::string &opt, const std::string &text,
                       uint64_t max_value = UINT64_MAX);

/**
 * The Status -> sysexits mapping. The normative table — codes, wire
 * spellings, and meanings — is docs/PROTOCOL.md ("Status codes");
 * this function implements it and test_hattc pins it. Every service
 * Status and every exception runHattc catches routes through here
 * (usage errors excepted — they are 64 by definition and never carry
 * a Status).
 */
int exitCodeForStatus(Status::Code code);

/**
 * Run the driver. @p args excludes the program name (i.e. main passes
 * {argv + 1, argv + argc}). Normal output goes to @p out, diagnostics
 * to @p err. @return sysexits-style process exit code:
 *
 *   0   success
 *   1   failed check (verify) or failed batch input
 *   64  usage error (EX_USAGE: bad command line)
 *   65  parse/validation failure (EX_DATAERR: malformed or over-cap
 *       input, bad manifest, unreadable file)
 *   70  internal error (EX_SOFTWARE: invariant failure, allocation)
 *   75  deadline expired (EX_TEMPFAIL: retry with a larger
 *       --timeout or --fallback)
 */
int runHattc(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err);

/**
 * Canonical mapping kind strings accepted by --mapping: a snapshot of
 * MapperRegistry::instance().kinds() taken on first use. `hattc
 * mappings` lists the same registry, so the CLI surface has exactly one
 * source of truth.
 */
const std::vector<std::string> &hattcMappingKinds();

} // namespace hatt::io

#endif // HATT_IO_CLI_HPP
