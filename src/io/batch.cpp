#include "io/batch.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "io/driver.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

StatusOr<std::vector<std::string>>
splitKinds(const std::string &list)
{
    std::vector<std::string> out;
    size_t begin = 0;
    while (begin <= list.size()) {
        size_t comma = list.find(',', begin);
        size_t end = comma == std::string::npos ? list.size() : comma;
        if (end == begin)
            return Status::invalidArgument("empty mapping kind in '" +
                                           list + "'");
        out.push_back(list.substr(begin, end - begin));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return out;
}

std::string
canonicalKind(const std::string &kind)
{
    const Mapper *mapper = MapperRegistry::instance().find(kind);
    return mapper ? mapper->name() : kind;
}

namespace {

/** Iterative glob match: `*` (any run, including '/') and `?`. */
bool
globMatch(const std::string &pattern, const std::string &text)
{
    size_t p = 0, t = 0;
    size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

} // namespace

BatchCompiler::BatchCompiler(BatchOptions options,
                             CompilationService &service)
    : options_(std::move(options)), service_(service)
{
}

StatusOr<std::vector<BatchItem>>
BatchCompiler::discoverInputs(const std::string &source) const
{
    std::vector<BatchItem> items;
    const std::vector<std::string> &default_kinds = options_.mappings;
    auto fan_out = [&](const std::string &path, const std::string &name,
                       const std::vector<std::string> &kinds) {
        for (const std::string &kind : kinds) {
            BatchItem item;
            item.path = path;
            item.name = name;
            item.mapping = canonicalKind(kind);
            items.push_back(std::move(item));
        }
    };

    std::error_code ec;
    if (fs::is_directory(source, ec)) {
        const fs::path root(source);
        for (fs::recursive_directory_iterator it(root, ec), end;
             !ec && it != end; it.increment(ec)) {
            const fs::directory_entry &de = *it;
            std::error_code type_ec;
            if (!de.is_regular_file(type_ec))
                continue;
            if (!formatFromExtension(de.path()))
                continue;
            // The root-relative path is the item name: the scan is
            // recursive, so a bare filename would falsely collide
            // same-named inputs from different subdirectories.
            const std::string rel =
                de.path().lexically_relative(root).generic_string();
            if (!options_.glob.empty()) {
                // Patterns with '/' address the relative path; plain
                // patterns just the file name.
                const std::string target =
                    options_.glob.find('/') != std::string::npos
                        ? rel
                        : de.path().filename().string();
                if (!globMatch(options_.glob, target))
                    continue;
            }
            fan_out(de.path().string(), rel, default_kinds);
        }
        if (ec)
            return Status::invalidArgument("cannot scan input directory " +
                                           source + ": " + ec.message());
    } else {
        if (!options_.glob.empty())
            return Status::invalidArgument(
                "--glob only applies to directory sources, and " + source +
                " is a manifest");
        std::ifstream in(source);
        if (!in)
            return Status::invalidArgument("cannot open batch manifest: " +
                                           source);
        const fs::path base = fs::path(source).parent_path();
        std::string line;
        size_t lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            const std::string where =
                source + " line " + std::to_string(lineno) + ": ";
            if (size_t hash = line.find('#'); hash != std::string::npos)
                line.erase(hash);
            std::istringstream ls(line);
            std::string path, kind_list, extra;
            if (!(ls >> path))
                continue; // blank/comment line
            std::vector<std::string> kinds = default_kinds;
            if (ls >> kind_list) {
                StatusOr<std::vector<std::string>> split =
                    splitKinds(kind_list);
                if (!split.ok())
                    return Status::invalidArgument(where +
                                                   split.status().message());
                kinds = std::move(split).value();
                for (std::string &kind : kinds) {
                    Status status =
                        MapperRegistry::instance().checkKind(kind);
                    if (!status.ok())
                        return Status::invalidArgument(where +
                                                       status.message());
                    kind = canonicalKind(kind);
                }
                if (ls >> extra)
                    return Status::invalidArgument(
                        where + "unexpected token '" + extra + "'");
            }
            fs::path p(path);
            fan_out(p.is_absolute() ? p.string() : (base / p).string(),
                    p.filename().string(), kinds);
        }
    }
    // Deterministic report order regardless of directory iteration,
    // manifest shuffling or fan-out: sort by (name, mapping, path).
    std::sort(items.begin(), items.end(),
              [](const BatchItem &a, const BatchItem &b) {
                  if (a.name != b.name)
                      return a.name < b.name;
                  if (a.mapping != b.mapping)
                      return a.mapping < b.mapping;
                  return a.path < b.path;
              });
    return items;
}

std::vector<BatchItemResult>
BatchCompiler::run(std::vector<BatchItem> items) const
{
    // Report keys (name:mapping) key the per-item output directories,
    // so they must be unique even when a caller passes an unsorted item
    // list: two workers compiling the same key would race on the same
    // artifact files. The first occurrence compiles, later ones fail.
    // Case-variant kinds from caller-built lists ("HATT" vs "hatt") are
    // canonicalized first so they cannot slip past as distinct keys.
    std::vector<BatchItemResult> results(items.size());
    std::vector<char> duplicate(items.size(), 0);
    std::set<std::string> seen;
    for (size_t i = 0; i < items.size(); ++i) {
        BatchItemResult &r = results[i];
        r.item = std::move(items[i]);
        r.item.mapping = canonicalKind(r.item.mapping);
        if (!seen.insert(r.item.key()).second) {
            duplicate[i] = 1;
            r.result = Status::alreadyExists(
                "duplicate work item '" + r.item.key() + "' in batch");
        }
    }

    // One work item per chunk: items are the coarse parallel grain, and
    // each item's own parallel stages (candidate scans, qubit mapping)
    // dispatch nested and run inline on this worker.
    metrics::add("batch.work_items", results.size());
    parallelFor(results.size(), 1, [&](size_t i) {
        if (duplicate[i])
            return;
        BatchItemResult &r = results[i];
        trace::Span item_span("batch", "item:" + r.item.key());
        CompileRequest req = options_.request;
        req.path = r.item.path;
        req.mapping = r.item.mapping;
        req.outDir = (fs::path(req.outDir) / r.item.key()).string();
        // A recognized extension always wins over a forced format: auto
        // resolves by extension first, so only extension-less inputs
        // see the template's format.
        if (formatFromExtension(r.item.path))
            req.format = "auto";
        Timer timer;
        r.result = service_.compile(req);
        r.seconds = timer.seconds();
        metrics::observe("batch.item_seconds", r.seconds);
    });
    return results;
}

namespace {

JsonValue
optionalU64(const std::optional<uint64_t> &v)
{
    return v ? JsonValue(*v) : JsonValue(nullptr);
}

} // namespace

JsonValue
BatchCompiler::reportDocument(const std::vector<BatchItemResult> &results)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-batch-report");
    doc.add("version", 4);
    size_t ok = 0, degraded = 0;
    uint64_t total_weight = 0;
    JsonValue inputs = JsonValue::array();
    for (const BatchItemResult &r : results) {
        JsonValue rec = JsonValue::object();
        rec.add("key", r.item.key());
        rec.add("name", r.item.name);
        rec.add("mapping", r.item.mapping);
        if (!r.result.ok()) {
            rec.add("status", r.timedOut() ? "timeout" : "error");
            rec.add("error", r.result.status().message());
            inputs.push(std::move(rec));
            continue;
        }
        // v3 status vocabulary: ok | error | timeout | degraded |
        // quarantined_cache. The last two still carry the full outcome
        // fields — they are flavors of success; timeout is a flavor of
        // failure. degraded wins over quarantined_cache when both apply
        // (the fallback changed WHAT was built, the quarantine only how).
        const CompileResponse &res = r.result.value();
        rec.add("status", res.degraded           ? "degraded"
                          : res.quarantinedCache ? "quarantined_cache"
                                                 : "ok");
        ++ok;
        if (res.degraded)
            ++degraded;
        const uint64_t weight = res.pauliWeight.value_or(0);
        total_weight += weight;
        rec.add("input_format", res.inputFormat);
        rec.add("modes", res.numModes);
        rec.add("fermion_terms", res.fermionTerms);
        rec.add("majorana_monomials", res.monomials);
        rec.add("content_hash", hashToHex(res.contentHash));
        rec.add("num_qubits", res.numQubits);
        rec.add("pauli_weight", weight);
        rec.add("candidates", optionalU64(res.candidates));
        // Device-aware batches only: the routed-cost block is part of
        // the deterministic report (byte-compared across thread caps),
        // and its absence keeps architecture-agnostic reports
        // byte-identical to earlier versions.
        if (!res.device.empty()) {
            rec.add("device", res.device);
            rec.add("routed_cnots", optionalU64(res.routedCnots));
            rec.add("routed_u3", optionalU64(res.routedU3));
            rec.add("routed_depth", optionalU64(res.routedDepth));
            rec.add("routed_swaps", optionalU64(res.routedSwaps));
        }
        inputs.push(std::move(rec));
    }
    doc.add("inputs", std::move(inputs));
    JsonValue summary = JsonValue::object();
    summary.add("inputs", static_cast<uint64_t>(results.size()));
    summary.add("succeeded", static_cast<uint64_t>(ok));
    summary.add("failed", static_cast<uint64_t>(results.size() - ok));
    summary.add("degraded", static_cast<uint64_t>(degraded));
    summary.add("total_pauli_weight", total_weight);
    doc.add("summary", std::move(summary));
    // v4: build provenance + the workload-counter mirror (reads the
    // process-wide metrics scope the service reset at run entry; see
    // workloadCountersDocument for why only parse./preprocess. mirror
    // here).
    doc.add("build", buildInfoDocument());
    doc.add("metrics", workloadCountersDocument(metrics::snapshot()));
    return doc;
}

JsonValue
BatchCompiler::statsDocument(const std::vector<BatchItemResult> &results)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", "hatt-batch-stats");
    // v3: per-item cache_tier + summary memory_hits (two-tier store).
    doc.add("version", 3);
    size_t hits = 0, memory_hits = 0;
    double seconds = 0.0;
    JsonValue inputs = JsonValue::array();
    for (const BatchItemResult &r : results) {
        const bool hit = r.result.ok() && r.result->cacheHit;
        const std::string tier = r.result.ok() ? r.result->cacheTier : "";
        JsonValue rec = JsonValue::object();
        rec.add("key", r.item.key());
        rec.add("seconds", r.seconds);
        rec.add("cache_hit", hit);
        rec.add("cache_tier",
                tier.empty() ? JsonValue(nullptr) : JsonValue(tier));
        inputs.push(std::move(rec));
        if (hit)
            ++hits;
        if (tier == "memory")
            ++memory_hits;
        seconds += r.seconds;
    }
    doc.add("inputs", std::move(inputs));
    JsonValue summary = JsonValue::object();
    summary.add("inputs", static_cast<uint64_t>(results.size()));
    summary.add("cache_hits", static_cast<uint64_t>(hits));
    summary.add("memory_hits", static_cast<uint64_t>(memory_hits));
    summary.add("seconds", seconds);
    doc.add("summary", std::move(summary));
    // The FULL metrics snapshot (both sections) lives here, on the
    // volatile side of the report/stats split: cache, store and pool
    // counters legitimately differ cold-vs-warm, so they must not
    // contaminate the byte-compared report.
    doc.add("build", buildInfoDocument());
    doc.add("metrics", metricsSectionsDocument(metrics::snapshot()));
    return doc;
}

} // namespace hatt::io
