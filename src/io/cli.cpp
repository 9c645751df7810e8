#include "io/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <ostream>

#include "common/buildinfo.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "device/device.hpp"
#include "io/batch.hpp"
#include "io/cache.hpp"
#include "io/driver.hpp"
#include "io/serialize.hpp"
#include "io/service.hpp"
#include "mapping/verify.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

namespace {

const char *kUsage =
    "usage: hattc [global options] <command> [options]\n"
    "\n"
    "commands:\n"
    "  map     <input>         build a fermion-to-qubit mapping\n"
    "  compile <input>         map + qubit Hamiltonian + metrics\n"
    "  batch   <dir|manifest>  compile every (input, mapping) pair in\n"
    "                          parallel with a shared mapping cache;\n"
    "                          emits batch_report.json + batch_stats.json\n"
    "  mappings                list registered mapping kinds and their\n"
    "                          capabilities (--json for machine use)\n"
    "  devices                 list resolvable target devices and the\n"
    "                          parametric families (--json for machine\n"
    "                          use)\n"
    "  stats   <input>         parse/preprocess summary + content hash\n"
    "                          (--json adds the run's metrics snapshot)\n"
    "  verify  <mapping.json>  check mapping validity + vacuum\n"
    "  cache gc   <dir>        evict cache entries (age, then LRU)\n"
    "  cache list <dir>        print the cache entries (size, last use)\n"
    "                          as JSON\n"
    "\n"
    "global options (accepted before or after the command):\n"
    "  --trace FILE     write a Chrome trace-event JSON of this run to\n"
    "                   FILE (open in chrome://tracing or Perfetto);\n"
    "                   the HATT_TRACE env var arms the same tracer\n"
    "  --version        print build provenance (git sha, compiler,\n"
    "                   flags) and exit\n"
    "\n"
    "options (map/compile/batch/stats):\n"
    "  --mapping KIND   a registered kind (see `hattc mappings`); batch\n"
    "                   accepts a comma list to fan every input across\n"
    "                   several kinds                      [hatt]\n"
    "  --format FMT     auto | ops | fcidump               [auto]\n"
    "                   (batch: applies only to inputs without a\n"
    "                   recognized extension)\n"
    "  -o, --out DIR    output directory                   [out]\n"
    "  --cache DIR      content-addressed mapping cache\n"
    "  --max-terms N    reject inputs with more than N terms\n"
    "  --max-modes N    reject inputs declaring/using more than N modes\n"
    "\n"
    "options (map/compile/batch):\n"
    "  --device NAME    target device (see `hattc devices`): routes the\n"
    "                   compiled circuit onto its coupling map and\n"
    "                   reports CNOT/depth/SWAP cost; device-aware\n"
    "                   mappings (bonsai, treespilation) require it\n"
    "  --timeout SEC    per-item compile budget in seconds; on expiry\n"
    "                   exit 75 (batch: the item reports 'timeout')\n"
    "  --fallback       on a construction deadline, degrade to the\n"
    "                   deterministic FH ternary-tree construction\n"
    "                   instead of failing\n"
    "\n"
    "options (batch):\n"
    "  --glob PATTERN   filter recursive directory discovery (* and ?;\n"
    "                   patterns with '/' match the relative path)\n"
    "\n"
    "options (verify):\n"
    "  --require-vacuum fail (exit 1) unless the mapping also\n"
    "                   preserves the vacuum state\n"
    "\n"
    "options (cache gc):\n"
    "  --max-bytes N    evict LRU entries until the cache is <= N bytes\n"
    "  --max-age SEC    evict entries unused for more than SEC seconds\n"
    "\n"
    "environment: HATT_THREADS=N sizes the work pool (default: hardware\n"
    "  threads); outputs are identical for every N\n"
    "\n"
    "exit codes:\n"
    "  0 success; 1 failed check or failed batch input; 64 usage error;\n"
    "  65 parse/validation failure; 70 internal error; 75 deadline\n"
    "  expired\n";

struct Options
{
    std::string command;
    std::string cacheCommand; //!< gc | list (command == "cache")
    std::string input;
    /** The compile request map/compile run and every batch item starts
        from (batch: mapping may be a comma list). */
    CompileRequest request;
    std::string cacheDir; //!< empty = no cache
    std::string glob;     //!< batch directory-discovery filter
    bool requireVacuum = false;
    bool json = false;    //!< mappings/stats: machine-readable output
    bool version = false; //!< --version: print build info, exit 0
    std::string traceFile; //!< --trace: Chrome trace output ("" = off)
    std::optional<uint64_t> maxBytes;
    std::optional<int64_t> maxAge;
};

} // namespace

uint64_t
parseUnsigned(const std::string &opt, const std::string &text,
              uint64_t max_value)
{
    // Digits only, within [0, max_value]: stoull would happily wrap
    // "-5" to 2^64-5 (and 2^63 wraps negative through an int64 cast),
    // turning a typo'd `cache gc --max-age -5` into a full eviction.
    bool digits = !text.empty();
    for (char c : text)
        digits = digits && c >= '0' && c <= '9';
    try {
        if (!digits)
            throw std::invalid_argument(text);
        size_t used = 0;
        unsigned long long v = std::stoull(text, &used);
        if (used != text.size() || v > max_value)
            throw std::invalid_argument(text);
        return v;
    } catch (const std::exception &) {
        throw UsageError("option " + opt + " needs a non-negative " +
                         "integer <= " + std::to_string(max_value) +
                         ", got '" + text + "'");
    }
}

namespace {

Options
parseArgs(const std::vector<std::string> &args_in)
{
    // Global options first: they are legal on either side of the
    // command (`hattc --trace out.json compile in.ops`), so strip them
    // before positional parsing sees the argument list.
    Options opt;
    std::vector<std::string> args;
    args.reserve(args_in.size());
    for (size_t i = 0; i < args_in.size(); ++i) {
        const std::string &a = args_in[i];
        if (a == "--trace") {
            if (i + 1 >= args_in.size())
                throw UsageError("option --trace needs a value");
            opt.traceFile = args_in[++i];
            if (opt.traceFile.empty())
                throw UsageError("--trace needs a non-empty file path");
        } else if (a == "--version") {
            opt.version = true;
        } else {
            args.push_back(a);
        }
    }
    if (opt.version) {
        // Like --help in most CLIs: print-and-exit wins over whatever
        // else is on the line.
        opt.command = "version";
        return opt;
    }
    if (args.empty())
        throw UsageError("missing command");
    opt.command = args[0];
    if (opt.command != "map" && opt.command != "compile" &&
        opt.command != "batch" && opt.command != "mappings" &&
        opt.command != "devices" && opt.command != "stats" &&
        opt.command != "verify" && opt.command != "cache")
        throw UsageError("unknown command '" + opt.command + "'");

    auto value = [&](size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            throw UsageError("option " + args[i] + " needs a value");
        return args[++i];
    };
    for (size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--mapping") {
            opt.request.mapping = value(i);
        } else if (a == "--format") {
            const std::string &f = value(i);
            if (!parseInputFormat(f))
                throw UsageError("unknown format '" + f + "'");
            opt.request.format = f;
        } else if (a == "-o" || a == "--out") {
            opt.request.outDir = value(i);
        } else if (a == "--cache") {
            opt.cacheDir = value(i);
        } else if (a == "--device") {
            // Validate + canonicalise now: a typo'd device is a command
            // line mistake (exit 64 with the valid names), not a
            // compile-time failure, and the canonical spelling is what
            // feeds cache keys and reports.
            const std::string &name = value(i);
            StatusOr<std::string> canonical =
                device::canonicalDeviceName(name);
            if (!canonical.ok())
                throw UsageError(canonical.status().message());
            opt.request.device = canonical.value();
        } else if (a == "--glob") {
            if (opt.command != "batch")
                throw UsageError("--glob only applies to batch");
            opt.glob = value(i);
            if (opt.glob.empty())
                throw UsageError("--glob needs a non-empty pattern");
        } else if (a == "--timeout") {
            const std::string &text = value(i);
            double seconds = 0.0;
            try {
                size_t used = 0;
                seconds = std::stod(text, &used);
                if (used != text.size() || !std::isfinite(seconds) ||
                    seconds <= 0.0)
                    throw std::invalid_argument(text);
            } catch (const std::exception &) {
                throw UsageError("option --timeout needs a positive "
                                 "number of seconds, got '" + text + "'");
            }
            opt.request.timeoutSeconds = seconds;
        } else if (a == "--fallback") {
            opt.request.fallback = true;
        } else if (a == "--max-terms") {
            uint64_t n = parseUnsigned(a, value(i));
            if (n == 0)
                throw UsageError("--max-terms needs at least 1 term");
            opt.request.maxTerms = n;
        } else if (a == "--max-modes") {
            uint64_t n = parseUnsigned(a, value(i), 1u << 24);
            if (n == 0)
                throw UsageError("--max-modes needs at least 1 mode");
            opt.request.maxModes = static_cast<uint32_t>(n);
        } else if (a == "--json") {
            if (opt.command != "mappings" && opt.command != "devices" &&
                opt.command != "stats")
                throw UsageError("--json only applies to mappings, "
                                 "devices and stats");
            opt.json = true;
        } else if (a == "--require-vacuum") {
            if (opt.command != "verify")
                throw UsageError("--require-vacuum only applies to "
                                 "verify");
            opt.requireVacuum = true;
        } else if (a == "--max-bytes") {
            opt.maxBytes = parseUnsigned(a, value(i));
        } else if (a == "--max-age") {
            opt.maxAge = static_cast<int64_t>(
                parseUnsigned(a, value(i), INT64_MAX));
        } else if (!a.empty() && a[0] == '-') {
            throw UsageError("unknown option '" + a + "'");
        } else if (opt.command == "cache" && opt.cacheCommand.empty()) {
            opt.cacheCommand = a;
        } else if (opt.input.empty()) {
            opt.input = a;
        } else {
            throw UsageError("unexpected argument '" + a + "'");
        }
    }
    const bool parses_input = opt.command == "map" ||
                              opt.command == "compile" ||
                              opt.command == "batch" ||
                              opt.command == "stats";
    if ((opt.request.maxTerms != 0 || opt.request.maxModes != 0) &&
        !parses_input)
        throw UsageError("--max-terms/--max-modes only apply to "
                         "map/compile/batch/stats");
    if ((opt.request.timeoutSeconds > 0.0 || opt.request.fallback) &&
        (!parses_input || opt.command == "stats"))
        throw UsageError("--timeout/--fallback only apply to "
                         "map/compile/batch");
    if (!opt.request.device.empty() &&
        (!parses_input || opt.command == "stats"))
        throw UsageError("--device only applies to map/compile/batch");
    if (opt.command == "cache") {
        if (opt.cacheCommand != "gc" && opt.cacheCommand != "list")
            throw UsageError("cache needs a subcommand: gc | list");
        if (opt.input.empty())
            throw UsageError("cache " + opt.cacheCommand +
                             " needs a cache directory");
        if ((opt.maxBytes || opt.maxAge) && opt.cacheCommand != "gc")
            throw UsageError("--max-bytes/--max-age only apply to "
                             "cache gc");
        return opt;
    }
    if (opt.maxBytes || opt.maxAge)
        throw UsageError("--max-bytes/--max-age only apply to "
                         "the cache command");
    if (opt.command == "mappings" || opt.command == "devices") {
        if (!opt.input.empty())
            throw UsageError(opt.command + " takes no arguments");
        return opt;
    }
    if (opt.input.empty())
        throw UsageError(opt.command + " needs an input file");

    // Validate --mapping against the registry — the single source of
    // truth the `mappings` subcommand lists — and rewrite it to the
    // canonical spellings. batch accepts a comma list (fan every input
    // across the kinds); everything else one kind.
    const auto check_kind = [](const std::string &kind) {
        Status status = MapperRegistry::instance().checkKind(kind);
        if (!status.ok())
            throw UsageError(status.message());
    };
    StatusOr<std::vector<std::string>> split =
        splitKinds(opt.request.mapping);
    if (!split.ok())
        throw UsageError("--mapping has an " + split.status().message());
    const std::vector<std::string> &kinds = split.value();
    if (opt.command != "batch" && kinds.size() != 1)
        throw UsageError("--mapping takes one kind for " + opt.command +
                         " (a comma list only applies to batch)");
    opt.request.mapping.clear();
    for (const std::string &kind : kinds) {
        check_kind(kind);
        const std::string canonical = canonicalKind(kind);
        // A device-aware kind cannot build without a target: catch it
        // as the command-line mistake it is (64) instead of letting the
        // mapper reject the request downstream (65).
        const Mapper *mapper = MapperRegistry::instance().find(canonical);
        if (mapper && mapper->capabilities().deviceAware &&
            opt.request.device.empty() && opt.command != "stats")
            throw UsageError("--mapping " + canonical +
                             " is device-aware and needs --device "
                             "(see `hattc devices`)");
        opt.request.mapping +=
            (opt.request.mapping.empty() ? "" : ",") + canonical;
    }
    opt.request.path = opt.input;
    opt.request.emitQubit = opt.command != "map";
    return opt;
}

/** The CLI's service topology: a disk tier when --cache was given, with
    the in-memory tier in front of it. Cacheless invocations run with no
    store at all — exactly the pre-service behavior, so their metrics
    snapshots carry no cache/store counters. */
ServiceConfig
serviceConfigFor(const Options &opt)
{
    ServiceConfig config;
    config.cacheDir = opt.cacheDir;
    config.memoryStore = !opt.cacheDir.empty();
    return config;
}

/** Summary tag of a store hit, naming the tier that served it. */
std::string
cacheHitNote(const CompileResponse &res)
{
    if (!res.cacheHit)
        return "";
    return res.cacheTier.empty() ? " [cache hit]"
                                 : " [cache hit: " + res.cacheTier + "]";
}

int
cmdMapOrCompile(const Options &opt, std::ostream &out, std::ostream &err)
{
    CompilationService service(serviceConfigFor(opt));
    StatusOr<CompileResponse> result = service.compile(opt.request);
    if (!result.ok()) {
        err << "hattc: " << result.status().message() << "\n";
        return exitCodeForStatus(result.status().code());
    }
    const CompileResponse &res = result.value();

    out << "input:        " << opt.input << " (" << res.inputFormat
        << ", " << res.numModes << " modes, " << res.fermionTerms
        << " fermionic terms, " << res.monomials
        << " majorana monomials)\n";
    out << "content hash: " << hashToHex(res.contentHash) << "\n";
    out << "mapping:      " << opt.request.mapping << " -> " << res.numQubits
        << " qubits"
        << cacheHitNote(res)
        << (res.degraded ? " [degraded to btt: deadline expired]" : "")
        << "\n";
    if (res.pauliWeight)
        out << "qubit H:      " << *res.qubitTerms
            << " non-identity terms, pauli weight " << *res.pauliWeight
            << ", max |Im coeff| " << *res.maxImagCoeff << "\n";
    if (!res.device.empty())
        out << "device:       " << res.device << " -> "
            << (res.routedCnots ? *res.routedCnots : 0) << " CNOTs, depth "
            << (res.routedDepth ? *res.routedDepth : 0) << ", "
            << (res.routedSwaps ? *res.routedSwaps : 0)
            << " SWAPs inserted\n";
    out << "wrote:        "
        << (fs::path(opt.request.outDir) / (res.stem + ".*.json")).string()
        << " (" << res.seconds << " s)\n";
    return 0;
}

int
cmdBatch(const Options &opt, std::ostream &out, std::ostream &err)
{
    CompilationService service(serviceConfigFor(opt));

    BatchOptions bopt;
    // parseArgs already validated the kind list.
    bopt.mappings = splitKinds(opt.request.mapping).value();
    bopt.glob = opt.glob;
    bopt.request = opt.request;

    StatusOr<BatchOutcome> outcome =
        service.compileBatch(opt.input, bopt);
    if (!outcome.ok()) {
        err << "hattc: " << outcome.status().message() << "\n";
        return exitCodeForStatus(outcome.status().code());
    }
    const std::vector<BatchItemResult> &results = outcome->results;

    ensureOutDir(opt.request.outDir);
    const fs::path dir(opt.request.outDir);
    saveJsonFile((dir / "batch_report.json").string(), outcome->report);
    saveJsonFile((dir / "batch_stats.json").string(), outcome->stats);

    out << "batch:        " << results.size() << " work item(s) from "
        << opt.input << "\n";
    size_t degraded = 0;
    for (const BatchItemResult &r : results) {
        if (r.result.ok()) {
            const CompileResponse &res = r.result.value();
            if (res.degraded)
                ++degraded;
            out << "  ok    " << r.item.key() << " -> " << res.numQubits
                << " qubits, weight " << res.pauliWeight.value_or(0);
            if (res.cacheHit)
                out << " " << cacheHitNote(res);
            out << (res.degraded ? "  [degraded]" : "")
                << (res.quarantinedCache ? "  [cache quarantined]" : "")
                << "\n";
        } else {
            out << "  " << (r.timedOut() ? "TIME " : "FAIL ") << " "
                << r.item.key() << "  " << r.result.status().message()
                << "\n";
        }
    }
    const size_t failed = outcome->failed;
    out << "summary:      " << results.size() - failed << " ok, " << failed
        << " failed";
    if (degraded)
        out << ", " << degraded << " degraded";
    out << "\n";
    out << "wrote:        "
        << (dir / "batch_{report,stats}.json").string() << "\n";
    return failed == 0 ? 0 : kExitFailedCheck;
}

int
cmdMappings(const Options &opt, std::ostream &out)
{
    const MapperRegistry &registry = MapperRegistry::instance();
    if (opt.json) {
        JsonValue arr = JsonValue::array();
        for (const std::string &kind : registry.kinds()) {
            const Mapper *m = registry.find(kind);
            const MapperCapabilities &caps = m->capabilities();
            JsonValue rec = JsonValue::object();
            rec.add("name", m->name());
            rec.add("needs_hamiltonian", caps.needsHamiltonian);
            rec.add("produces_tree", caps.producesTree);
            rec.add("vacuum_preserving", caps.vacuumPreserving);
            rec.add("device_aware", caps.deviceAware);
            rec.add("summary", caps.summary);
            arr.push(std::move(rec));
        }
        JsonValue doc = JsonValue::object();
        doc.add("mappings", std::move(arr));
        out << doc.dump(2) << "\n";
        return 0;
    }
    for (const std::string &kind : registry.kinds()) {
        const Mapper *m = registry.find(kind);
        const MapperCapabilities &caps = m->capabilities();
        out << m->name() << "\n    " << caps.summary << "\n    "
            << (caps.needsHamiltonian ? "hamiltonian-adaptive"
                                      : "modes-only")
            << (caps.producesTree ? ", produces tree" : "")
            << (caps.vacuumPreserving ? ", vacuum-preserving" : "")
            << (caps.deviceAware ? ", device-aware" : "")
            << "\n";
    }
    return 0;
}

int
cmdDevices(const Options &opt, std::ostream &out)
{
    const std::vector<device::DeviceInfo> devices =
        device::builtinDevices();
    if (opt.json) {
        JsonValue arr = JsonValue::array();
        for (const device::DeviceInfo &d : devices) {
            JsonValue rec = JsonValue::object();
            rec.add("name", d.name);
            rec.add("qubits", static_cast<uint64_t>(d.qubits));
            rec.add("edges", static_cast<uint64_t>(d.edges));
            rec.add("family", d.family);
            arr.push(std::move(rec));
        }
        JsonValue fams = JsonValue::array();
        for (const std::string &f : device::parametricFamilies())
            fams.push(JsonValue(f));
        JsonValue doc = JsonValue::object();
        doc.add("devices", std::move(arr));
        doc.add("parametric_families", std::move(fams));
        out << doc.dump(2) << "\n";
        return 0;
    }
    for (const device::DeviceInfo &d : devices)
        out << d.name << "\n    " << d.qubits << " qubits, " << d.edges
            << " coupling edges (" << d.family << ")\n";
    out << "parametric families:\n";
    for (const std::string &f : device::parametricFamilies())
        out << "    " << f << "\n";
    return 0;
}

int
cmdStats(const Options &opt, std::ostream &out)
{
    LoadedProblem problem = loadProblem(
        opt.input, *parseInputFormat(opt.request.format),
        ParseLimits{.maxTerms = opt.request.maxTerms,
                    .maxModes = opt.request.maxModes});
    uint64_t majorana_weight = 0;
    size_t max_degree = 0;
    for (const MajoranaMonomial &t : problem.poly.terms()) {
        majorana_weight += t.indices.size();
        max_degree = std::max(max_degree, t.indices.size());
    }
    if (opt.json) {
        // The machine surface: parse summary + build provenance + the
        // run's full metrics snapshot. The "metrics.deterministic"
        // object is byte-identical for every HATT_THREADS (asserted in
        // CI and test_trace) — the payload a future hattd /stats
        // endpoint will serve per request.
        JsonValue doc = JsonValue::object();
        doc.add("format", "hatt-stats");
        doc.add("version", 1);
        doc.add("input", opt.input);
        doc.add("input_format", problem.format);
        doc.add("modes", problem.numModes);
        doc.add("fermion_terms",
                static_cast<uint64_t>(problem.fermionTerms));
        doc.add("majorana_monomials",
                static_cast<uint64_t>(problem.poly.size()));
        doc.add("max_degree", static_cast<uint64_t>(max_degree));
        doc.add("total_indices", majorana_weight);
        doc.add("constant_term", problem.poly.constantTerm().real());
        doc.add("content_hash", hashToHex(problem.contentHash));
        doc.add("build", buildInfoDocument());
        doc.add("metrics", metricsSectionsDocument(metrics::snapshot()));
        out << doc.dump(2) << "\n";
        return 0;
    }
    out << "input:             " << opt.input << "\n"
        << "format:            " << problem.format << "\n"
        << "modes:             " << problem.numModes << "\n"
        << "fermionic terms:   " << problem.fermionTerms << "\n"
        << "majorana monomials:" << " " << problem.poly.size() << "\n"
        << "max degree:        " << max_degree << "\n"
        << "total indices:     " << majorana_weight << "\n"
        << "constant term:     " << problem.poly.constantTerm().real()
        << "\n"
        << "content hash:      " << hashToHex(problem.contentHash)
        << "\n";
    return 0;
}

int
cmdVersion(std::ostream &out)
{
    out << "hattc " << buildinfo::kGitSha << " ("
        << buildinfo::kCompiler << ", " << buildinfo::kBuildType
        << ")\n"
        << "flags: " << buildinfo::kFlags << "\n";
    return 0;
}

int
cmdVerify(const Options &opt, std::ostream &out)
{
    FermionQubitMapping map =
        mappingFromJson(loadJsonFile(opt.input));
    MappingCheck check = verifyMapping(map);
    bool vacuum = check.valid && preservesVacuum(map);
    out << "mapping:  " << map.name << " (" << map.numModes << " modes, "
        << map.numQubits << " qubits)\n";
    out << "valid:    " << (check.valid ? "yes" : "no") << "\n";
    if (!check.valid)
        out << "reason:   " << check.reason << "\n";
    out << "vacuum:   " << (vacuum ? "preserved" : "not preserved")
        << "\n";
    out << "op weight: " << operatorPauliWeight(map) << " (avg "
        << averageOperatorWeight(map) << ")\n";
    if (!check.valid)
        return kExitFailedCheck;
    // Vacuum preservation is informational by default — hatt-unopt
    // intentionally gives it up — but gates the exit code on request.
    return (opt.requireVacuum && !vacuum) ? kExitFailedCheck : 0;
}

int
cmdCache(const Options &opt, std::ostream &out)
{
    // A typo'd directory must not report an empty-but-healthy cache:
    // `cache gc /mnt/cahce` exiting 0 with "evicted: 0" would leave the
    // real cache growing while monitoring stays green.
    std::error_code ec;
    if (!fs::is_directory(opt.input, ec))
        throw ParseError("cache directory does not exist: " + opt.input);
    MappingCache cache(opt.input);
    if (opt.cacheCommand == "gc") {
        CacheGcOptions gco;
        gco.maxBytes = opt.maxBytes;
        gco.maxAgeSeconds = opt.maxAge;
        CacheGcStats stats = cache.gc(gco);
        out << "cache:    " << opt.input << "\n"
            << "entries:  " << stats.entries << " (" << stats.bytesBefore
            << " bytes)\n"
            << "evicted:  " << stats.evicted << "\n"
            << "kept:     " << stats.entries - stats.evicted << " ("
            << stats.bytesAfter << " bytes)\n";
        if (stats.quarantinePurged)
            out << "purged:   " << stats.quarantinePurged
                << " quarantined entr"
                << (stats.quarantinePurged == 1 ? "y" : "ies") << "\n";
        return 0;
    }

    // cache list: the entry files as JSON, machine-readable for CI.
    // Read-only: listing touches no file.
    JsonValue doc = JsonValue::object();
    doc.add("cache_dir", opt.input);
    uint64_t total = 0;
    JsonValue arr = JsonValue::array();
    for (const CacheEntryFile &e : cache.scanEntries()) {
        total += e.size;
        JsonValue rec = JsonValue::object();
        rec.add("file", e.file);
        rec.add("size", e.size);
        rec.add("last_used", e.lastUsed);
        arr.push(std::move(rec));
    }
    doc.add("entries", std::move(arr));
    doc.add("total_bytes", total);
    doc.add("quarantined",
            static_cast<uint64_t>(cache.quarantinedCount()));
    out << doc.dump(2) << "\n";
    return 0;
}

/**
 * Arms tracing for the duration of one hattc run and flushes on every
 * exit path, including exceptions, so a crashed compile still leaves a
 * readable trace file behind.
 */
struct TraceGuard {
    explicit TraceGuard(const Options &opt,
                        const std::vector<std::string> &args)
        : armed_(!opt.traceFile.empty())
    {
        if (!armed_)
            return;
        trace::configure(opt.traceFile);
        std::string cmdline = "hattc";
        for (const std::string &a : args)
            cmdline += " " + a;
        trace::metadata("command", cmdline);
    }
    ~TraceGuard()
    {
        if (armed_)
            trace::flush();
    }
    TraceGuard(const TraceGuard &) = delete;
    TraceGuard &operator=(const TraceGuard &) = delete;

private:
    bool armed_;
};

} // namespace

int
exitCodeForStatus(Status::Code code)
{
    switch (code) {
      case Status::Code::Ok:
        return 0;
      case Status::Code::InvalidArgument:
      case Status::Code::NotFound:
        return 65; // EX_DATAERR: malformed or over-cap input/request
      case Status::Code::DeadlineExceeded:
        return 75; // EX_TEMPFAIL: retry with --timeout/--fallback
      case Status::Code::AlreadyExists:
      case Status::Code::Internal:
      case Status::Code::ResourceExhausted:
        return 70; // EX_SOFTWARE: internal invariant failure
    }
    return 70;
}

int
runHattc(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    // One run = one metrics scope: report/stats documents snapshot the
    // registry, so counters left over from a previous in-process run
    // (tests, future hattd) must not leak in.
    metrics::reset();
    try {
        Options opt = parseArgs(args);
        TraceGuard trace_guard(opt, args);
        if (opt.command == "version")
            return cmdVersion(out);
        if (opt.command == "stats")
            return cmdStats(opt, out);
        if (opt.command == "verify")
            return cmdVerify(opt, out);
        if (opt.command == "batch")
            return cmdBatch(opt, out, err);
        if (opt.command == "mappings")
            return cmdMappings(opt, out);
        if (opt.command == "devices")
            return cmdDevices(opt, out);
        if (opt.command == "cache")
            return cmdCache(opt, out);
        return cmdMapOrCompile(opt, out, err);
    } catch (const UsageError &e) {
        err << "hattc: " << e.what() << "\n\n" << kUsage;
        return kExitUsage;
    } catch (const ParseError &e) {
        err << "hattc: " << e.what() << "\n";
        return exitCodeForStatus(Status::Code::InvalidArgument);
    } catch (const std::exception &e) {
        err << "hattc: " << e.what() << "\n";
        return exitCodeForStatus(Status::Code::Internal);
    }
}

} // namespace hatt::io
