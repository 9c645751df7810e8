#ifndef HATT_IO_BATCH_HPP
#define HATT_IO_BATCH_HPP

/**
 * @file
 * Corpus compilation over a CompilationService: discover (input,
 * mapping) work items from a directory or manifest, compile each one
 * through CompilationService::compile in parallel over the work pool
 * (sharing the service's store stack), and render the two batch
 * documents from the per-item StatusOr<CompileResponse>. The
 * work-item/result/option structs live in io/service.hpp (they are part
 * of the service surface: compileBatch returns them).
 *
 * Corrupt cache entries are soft misses (quarantined by the disk tier),
 * so a damaged cache file can never abort a batch; a failing input is
 * reported and the rest of the corpus proceeds.
 *
 * Artifacts: every work item compiles into <outDir>/<name>:<mapping>/
 * exactly as `hattc compile` would. The two batch documents:
 *
 *  - batch_report.json ("hatt-batch-report" v4): per-item status
 *    (ok | error | timeout | degraded | quarantined_cache) and the
 *    deterministic outcome fields (modes, terms, content hash, qubits,
 *    pauli weight, candidates), rows keyed "<name>:<mapping>" and
 *    ordered by (name, mapping, path), plus build provenance and the
 *    deterministic workload-counter mirror (the parse. and preprocess.
 *    metrics) — byte-identical for every HATT_THREADS / --jobs value
 *    and across cold/warm cache runs;
 *  - batch_stats.json ("hatt-batch-stats" v3): the volatile outcome
 *    (seconds, cache hits and the tier that served them) in the same
 *    order, plus the run's full metrics snapshot (deterministic +
 *    volatile sections).
 */

#include <string>
#include <vector>

#include "io/service.hpp"

namespace hatt::io {

/** Split a comma list ("hatt,jw") into kinds; InvalidArgument on an
    empty segment ("hatt,,jw"). */
StatusOr<std::vector<std::string>> splitKinds(const std::string &list);

/**
 * Resolve @p kind to its canonical registered spelling ("JW" -> "jw"),
 * so case variants cannot produce distinct batch keys / output dirs /
 * metric names for the same mapper. Unknown kinds pass through verbatim
 * for the caller's own diagnostics.
 */
std::string canonicalKind(const std::string &kind);

/** The batch engine: discovery + parallel execution + documents. */
class BatchCompiler
{
  public:
    /** Compile through @p service's store stack (borrowed; must outlive
        this object). */
    BatchCompiler(BatchOptions options, CompilationService &service);

    /**
     * Build the work list from @p source: a directory is scanned
     * RECURSIVELY for *.ops / *.fcidump files (optionally narrowed by
     * BatchOptions::glob); anything else is read as a manifest — one
     * input path per line, relative to the manifest's directory, with
     * an optional comma-separated mapping-kind list after the path
     * ('#' comments and blank lines ignored; kinds are validated
     * against the MapperRegistry). Every input fans out into one item
     * per mapping kind. Items are sorted by (name, mapping, path); a
     * (name, mapping) collision marks the later item as an error at
     * run() time. InvalidArgument on an unreadable source or a bad
     * manifest line.
     */
    StatusOr<std::vector<BatchItem>>
    discoverInputs(const std::string &source) const;

    /** Compile every item through CompilationService::compile; results
        come back in the items' order. A (name, mapping) key already
        seen earlier in @p items fails as AlreadyExists uncompiled. */
    std::vector<BatchItemResult> run(std::vector<BatchItem> items) const;

    /** The deterministic report document for @p results. */
    static JsonValue reportDocument(
        const std::vector<BatchItemResult> &results);

    /** The volatile stats document (timings, cache hits + tiers). */
    static JsonValue statsDocument(
        const std::vector<BatchItemResult> &results);

  private:
    BatchOptions options_;
    CompilationService &service_;
};

} // namespace hatt::io

#endif // HATT_IO_BATCH_HPP
