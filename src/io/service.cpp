#include "io/service.hpp"

#include <filesystem>
#include <new>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "device/cost.hpp"
#include "device/device.hpp"
#include "ham/qubit_hamiltonian.hpp"
#include "io/batch.hpp"
#include "io/cache.hpp"
#include "io/serialize.hpp"

namespace hatt::io {

namespace fs = std::filesystem;

namespace {

constexpr const char *kRequestFormat = "hatt-compile-request";
constexpr const char *kResponseFormat = "hatt-compile-response";
constexpr int kWireVersion = 1;

JsonValue
optionalU64(const std::optional<uint64_t> &v)
{
    return v ? JsonValue(*v) : JsonValue(nullptr);
}

std::optional<uint64_t>
readOptionalU64(const JsonValue &doc, const std::string &key)
{
    const JsonValue *v = doc.find(key);
    if (!v || v->isNull())
        return std::nullopt;
    return static_cast<uint64_t>(v->asInt(0));
}

uint64_t
parseContentHash(const std::string &hex)
{
    try {
        size_t used = 0;
        uint64_t value = std::stoull(hex, &used, 16);
        if (used != hex.size() || hex.empty())
            throw std::invalid_argument(hex);
        return value;
    } catch (const std::exception &) {
        throw ParseError("bad content_hash '" + hex + "'");
    }
}

/** Build @p kind over @p problem through the MapperRegistry, with
    @p device (when set) as the request's "device" option; the registry
    keeps it out of device-independent kinds' cache keys. Sets
    @p quarantined when this build's own lookup moved a corrupt @p disk
    entry aside, asking under the key the store was consulted with. */
StatusOr<MappingResult>
requestMapping(const std::string &kind, const LoadedProblem &problem,
               MappingStore *store, MappingCache *disk,
               const Deadline &deadline, const std::string &device,
               bool &quarantined)
{
    const MapperRegistry &registry = MapperRegistry::instance();
    MappingRequest req;
    req.kind = kind;
    req.poly = &problem.poly;
    req.contentHash = problem.contentHash;
    req.deadline = deadline;
    if (!device.empty())
        req.options["device"] = device;
    StatusOr<MappingResult> built = registry.build(req, store);
    if (disk)
        if (const std::optional<StoreKey> key = registry.storeKey(req))
            quarantined |= disk->takeQuarantined(key->contentHash, key->kind);
    return built;
}

/** Stream the `.metrics.json` artifact: the BENCH_*.json record shape
    (see bench/README.md) over the response's own fields. */
void
writeMetricsJson(JsonWriter &w, const std::string &name,
                 const CompileResponse &resp)
{
    auto optional = [&](const std::optional<uint64_t> &v) {
        if (v)
            w.number(static_cast<double>(*v));
        else
            w.null();
    };
    w.beginObject();
    w.key("benchmark");
    w.string("hattc");
    w.key("records");
    w.beginArray();
    w.beginObject();
    w.key("name");
    w.string(name);
    w.key("seconds");
    w.number(resp.seconds);
    w.key("cache_seconds");
    w.number(resp.cacheSeconds);
    w.key("pauli_weight");
    optional(resp.pauliWeight);
    w.key("candidates");
    optional(resp.candidates);
    w.key("cache_hit");
    w.boolean(resp.cacheHit);
    w.key("cache_tier");
    if (resp.cacheTier.empty())
        w.null();
    else
        w.string(resp.cacheTier);
    w.key("degraded");
    w.boolean(resp.degraded);
    w.endObject();
    w.endArray();
    w.endObject();
}

} // namespace

JsonValue
compileRequestToJson(const CompileRequest &req)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", kRequestFormat);
    doc.add("version", kWireVersion);
    doc.add("input", req.path);
    doc.add("input_format", req.format);
    doc.add("mapping", req.mapping);
    doc.add("out_dir", req.outDir);
    doc.add("emit_qubit", req.emitQubit);
    doc.add("max_terms", req.maxTerms);
    doc.add("max_modes", req.maxModes);
    doc.add("timeout_seconds", req.timeoutSeconds);
    doc.add("fallback", req.fallback);
    // Added within v1: emitted only when set, so frames from clients
    // that never ask for a device stay byte-identical to older builds.
    if (!req.device.empty())
        doc.add("device", req.device);
    return doc;
}

CompileRequest
compileRequestFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, kRequestFormat, kWireVersion);
    CompileRequest req;
    req.path = doc.at("input").asString();
    req.format = doc.at("input_format").asString();
    req.mapping = doc.at("mapping").asString();
    req.outDir = doc.at("out_dir").asString();
    req.emitQubit = doc.at("emit_qubit").asBool();
    req.maxTerms = static_cast<uint64_t>(doc.at("max_terms").asInt(0));
    req.maxModes = static_cast<uint32_t>(
        doc.at("max_modes").asInt(0, UINT32_MAX));
    req.timeoutSeconds = doc.at("timeout_seconds").asNumber();
    req.fallback = doc.at("fallback").asBool();
    // Added within v1 (optional, default ""): older clients omit it.
    if (const JsonValue *v = doc.find("device"); v && !v->isNull())
        req.device = v->asString();
    return req;
}

JsonValue
compileResponseToJson(const CompileResponse &resp)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", kResponseFormat);
    doc.add("version", kWireVersion);
    doc.add("stem", resp.stem);
    doc.add("input_format", resp.inputFormat);
    doc.add("modes", resp.numModes);
    doc.add("fermion_terms", resp.fermionTerms);
    doc.add("majorana_monomials", resp.monomials);
    doc.add("content_hash", hashToHex(resp.contentHash));
    doc.add("num_qubits", resp.numQubits);
    doc.add("pauli_weight", optionalU64(resp.pauliWeight));
    doc.add("qubit_terms", optionalU64(resp.qubitTerms));
    doc.add("max_imag_coeff", resp.maxImagCoeff
                                  ? JsonValue(*resp.maxImagCoeff)
                                  : JsonValue(nullptr));
    doc.add("candidates", optionalU64(resp.candidates));
    // Added within v1: the device block is only emitted for device-aware
    // compiles, keeping every architecture-agnostic response (and the
    // daemon byte-identity bar over them) unchanged.
    if (!resp.device.empty()) {
        doc.add("device", resp.device);
        doc.add("routed_cnots", optionalU64(resp.routedCnots));
        doc.add("routed_u3", optionalU64(resp.routedU3));
        doc.add("routed_depth", optionalU64(resp.routedDepth));
        doc.add("routed_swaps", optionalU64(resp.routedSwaps));
    }
    doc.add("cache_hit", resp.cacheHit);
    doc.add("cache_tier", resp.cacheTier.empty()
                              ? JsonValue(nullptr)
                              : JsonValue(resp.cacheTier));
    doc.add("degraded", resp.degraded);
    doc.add("quarantined_cache", resp.quarantinedCache);
    doc.add("seconds", resp.seconds);
    doc.add("cache_seconds", resp.cacheSeconds);
    return doc;
}

CompileResponse
compileResponseFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, kResponseFormat, kWireVersion);
    CompileResponse resp;
    resp.stem = doc.at("stem").asString();
    resp.inputFormat = doc.at("input_format").asString();
    resp.numModes = static_cast<uint32_t>(
        doc.at("modes").asInt(0, UINT32_MAX));
    resp.fermionTerms =
        static_cast<uint64_t>(doc.at("fermion_terms").asInt(0));
    resp.monomials =
        static_cast<uint64_t>(doc.at("majorana_monomials").asInt(0));
    resp.contentHash = parseContentHash(doc.at("content_hash").asString());
    resp.numQubits = static_cast<uint32_t>(
        doc.at("num_qubits").asInt(0, UINT32_MAX));
    resp.pauliWeight = readOptionalU64(doc, "pauli_weight");
    resp.qubitTerms = readOptionalU64(doc, "qubit_terms");
    if (const JsonValue *v = doc.find("max_imag_coeff");
        v && !v->isNull())
        resp.maxImagCoeff = v->asNumber();
    resp.candidates = readOptionalU64(doc, "candidates");
    if (const JsonValue *v = doc.find("device"); v && !v->isNull()) {
        resp.device = v->asString();
        resp.routedCnots = readOptionalU64(doc, "routed_cnots");
        resp.routedU3 = readOptionalU64(doc, "routed_u3");
        resp.routedDepth = readOptionalU64(doc, "routed_depth");
        resp.routedSwaps = readOptionalU64(doc, "routed_swaps");
    }
    resp.cacheHit = doc.at("cache_hit").asBool();
    if (const JsonValue *v = doc.find("cache_tier"); v && !v->isNull())
        resp.cacheTier = v->asString();
    resp.degraded = doc.at("degraded").asBool();
    resp.quarantinedCache = doc.at("quarantined_cache").asBool();
    resp.seconds = doc.at("seconds").asNumber();
    resp.cacheSeconds = doc.at("cache_seconds").asNumber();
    return resp;
}

// -------------------------------------------------------------- service

CompilationService::CompilationService(ServiceConfig config)
    : config_(std::move(config))
{
    if (!config_.cacheDir.empty())
        disk_ = std::make_unique<MappingCache>(config_.cacheDir);
    if (config_.memoryStore)
        tiered_ = std::make_unique<TieredMappingStore>(disk_.get());
}

CompilationService::~CompilationService() = default;

MappingStore *
CompilationService::store()
{
    if (tiered_)
        return tiered_.get();
    return disk_.get();
}

StatusOr<CompileResponse>
CompilationService::compile(const CompileRequest &req)
{
    Timer timer;
    const std::optional<InputFormat> format = parseInputFormat(req.format);
    if (!format)
        return Status::invalidArgument("unknown format '" + req.format +
                                       "'");
    if (Status kind = MapperRegistry::instance().checkKind(req.mapping);
        !kind.ok())
        return kind;

    CompileResponse resp;
    if (!req.device.empty()) {
        // Canonicalise up front: the spelling is a cache-key component
        // (mapper option bag) and a response field, so "Montreal" and
        // "montreal" must be the same request.
        StatusOr<std::string> canonical =
            device::canonicalDeviceName(req.device);
        if (!canonical.ok())
            return canonical.status();
        resp.device = canonical.value();
    }

    try {
        const LoadedProblem problem = loadProblem(
            req.path, *format,
            ParseLimits{.maxTerms = req.maxTerms, .maxModes = req.maxModes});
        resp.stem = problem.stem;
        resp.inputFormat = problem.format;
        resp.numModes = problem.numModes;
        resp.fermionTerms = problem.fermionTerms;
        resp.monomials = problem.poly.size();
        resp.contentHash = problem.contentHash;

        Deadline deadline;
        if (req.timeoutSeconds > 0.0)
            deadline = Deadline::after(req.timeoutSeconds);
        StatusOr<MappingResult> built =
            requestMapping(req.mapping, problem, store(), disk_.get(),
                           deadline, resp.device, resp.quarantinedCache);
        if (!built.ok() && req.fallback &&
            built.status().code() == Status::Code::DeadlineExceeded) {
            built = requestMapping("btt", problem, store(), disk_.get(),
                                   Deadline{}, resp.device,
                                   resp.quarantinedCache);
            resp.degraded = true;
        }
        if (!built.ok())
            return built.status();
        const MappingResult &res = built.value();
        resp.numQubits = res.mapping.numQubits;
        resp.candidates = res.metrics.candidates;
        resp.cacheHit = res.metrics.cacheHit;
        resp.cacheTier = res.metrics.cacheTier;
        resp.cacheSeconds = res.metrics.cacheSeconds;

        // The qubit Hamiltonian is mapped once: emit and the routed cost
        // both read it.
        std::optional<PauliSum> hq;
        if (req.emitQubit || !resp.device.empty()) {
            Timer map_timer;
            {
                trace::Span map_span("driver", "map");
                // Engine batch entry point over the accumulator's
                // deduplicated monomials (mapToQubits wraps exactly
                // this; spelled out here so the shipped compile path
                // exercises — and the hattc tests pin — the engine API
                // itself). A degraded build runs unbounded: its budget
                // is already spent, and the degradation contract is
                // "always produces output".
                QubitMappingEngine engine(res.mapping);
                engine.setDeadline(resp.degraded ? Deadline{} : deadline);
                engine.addBatch(problem.poly.terms());
                hq = engine.finish();
            }
            metrics::observe("map.seconds", map_timer.seconds());
        }

        if (!resp.device.empty()) {
            // Routed hardware cost of whatever was built (any kind) on
            // the requested device — the Table IV metric, per compile.
            StatusOr<CouplingMap> dev = device::resolveDevice(resp.device);
            if (!dev.ok())
                return dev.status();
            trace::Span route_span("driver", "route");
            metrics::ScopedTimer route_timer("route.seconds");
            StatusOr<device::HardwareCost> cost =
                device::evaluateHardwareCost(*hq, dev.value());
            if (!cost.ok())
                return cost.status();
            resp.routedCnots = cost->cnots;
            resp.routedU3 = cost->u3;
            resp.routedDepth = cost->depth;
            resp.routedSwaps = cost->swaps;
        }

        ensureOutDir(req.outDir);
        const fs::path dir(req.outDir);
        auto artifact = [&](const char *suffix) {
            return (dir / (resp.stem + suffix)).string();
        };
        trace::Span emit_span("driver", "emit");
        metrics::ScopedTimer emit_timer("emit.seconds");
        publishJsonFile(artifact(".mapping.json"), [&](JsonWriter &w) {
            writeMappingJson(w, res.mapping);
        });
        if (res.tree)
            publishJsonFile(artifact(".tree.json"), [&](JsonWriter &w) {
                writeTreeJson(w, *res.tree);
            });
        if (req.emitQubit) {
            const HamiltonianMetrics qm = hamiltonianMetrics(*hq);
            resp.pauliWeight = qm.pauliWeight;
            resp.qubitTerms = qm.numTerms;
            resp.maxImagCoeff = qm.maxImagCoeff;
            publishJsonFile(artifact(".qubit.json"), [&](JsonWriter &w) {
                writePauliSumJson(w, *hq);
            });
        }
        resp.seconds = timer.seconds();
        publishJsonFile(artifact(".metrics.json"), [&](JsonWriter &w) {
            writeMetricsJson(w, resp.stem + "/" + req.mapping, resp);
        });
        return resp;
    } catch (const ParseError &e) {
        return Status::invalidArgument(e.what());
    } catch (const DeadlineExceededError &e) {
        return Status::deadlineExceeded(e.what());
    } catch (const std::bad_alloc &) {
        return Status::resourceExhausted("out of memory");
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    }
}

StatusOr<BatchOutcome>
CompilationService::compileBatch(const std::string &source,
                                 const BatchOptions &options)
{
    // One batch = one metrics scope (the documents snapshot the process
    // registry), exactly as runHattc resets per CLI invocation — so a
    // direct service call emits byte-identical reports to the CLI path.
    metrics::reset();
    BatchCompiler compiler(options, *this);
    StatusOr<std::vector<BatchItem>> items = compiler.discoverInputs(source);
    if (!items.ok())
        return items.status();
    if (items->empty())
        return Status::invalidArgument(
            "no .ops/.fcidump inputs found in " + source);

    BatchOutcome outcome;
    outcome.results = compiler.run(std::move(items).value());
    for (const BatchItemResult &r : outcome.results)
        if (!r.result.ok())
            ++outcome.failed;
    outcome.report = BatchCompiler::reportDocument(outcome.results);
    outcome.stats = BatchCompiler::statsDocument(outcome.results);
    return outcome;
}

} // namespace hatt::io
