/**
 * @file
 * Tests of the transport-agnostic compilation core (io/service) and the
 * two-tier mapping store (mapping/store): CompileRequest/CompileResponse
 * JSON round trips (the intended hattd wire protocol v1), compiling
 * without an argv in sight, write-through ordering, memory hits
 * surviving disk GC, quarantine pass-through, tier attribution, and the
 * headline acceptance — a warm in-process batch serving 100% memory
 * hits while its batch_report.json stays byte-identical to the cold run
 * for HATT_THREADS ∈ {1, 4}. That a direct compileBatch writes the
 * byte-identical report `hattc batch` writes is pinned in test_hattc.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json_writer.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "fermion/fermion_op.hpp"
#include "io/batch.hpp"
#include "io/cache.hpp"
#include "io/serialize.hpp"
#include "io/service.hpp"
#include "mapping/mapper.hpp"
#include "mapping/store.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::BatchOptions;
using io::BatchOutcome;
using io::CompilationService;
using io::CompileRequest;
using io::CompileResponse;
using io::JsonValue;
using io::ServiceConfig;

std::string
dataFile(const std::string &name)
{
    return std::string(HATT_DATA_DIR) + "/" + name;
}

std::string
dataDir()
{
    return fs::path(dataFile("h2.ops")).parent_path().string();
}

fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("hatt_service_test_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A small real entry to shuttle through stores (modes-only JW build,
    so no Hamiltonian fixture is needed). */
MappingStore::Entry
sampleEntry(uint32_t num_modes = 3)
{
    const MajoranaPolynomial poly(num_modes);
    MappingRequest req;
    req.kind = "jw";
    req.poly = &poly;
    StatusOr<MappingResult> built =
        MapperRegistry::instance().build(req, nullptr);
    EXPECT_TRUE(built.ok());
    MappingStore::Entry entry;
    entry.mapping = built.value().mapping;
    entry.candidates = 7;
    return entry;
}

// ---------------------------------------------------------- wire schema

TEST(ServiceWire, CompileRequestJsonRoundTripsWithVersion)
{
    CompileRequest req;
    req.path = "in/h2.ops";
    req.format = "ops";
    req.mapping = "hatt-unopt";
    req.outDir = "artifacts";
    req.emitQubit = false;
    req.maxTerms = 123;
    req.maxModes = 45;
    req.timeoutSeconds = 2.5;
    req.fallback = true;
    req.device = "montreal";

    JsonValue doc = io::compileRequestToJson(req);
    EXPECT_EQ(doc.at("format").asString(), "hatt-compile-request");
    EXPECT_EQ(doc.at("version").asInt(), 1);
    EXPECT_EQ(doc.find("jobs"), nullptr);

    auto expectSameRequest = [&](const CompileRequest &back) {
        EXPECT_EQ(back.path, req.path);
        EXPECT_EQ(back.format, req.format);
        EXPECT_EQ(back.mapping, req.mapping);
        EXPECT_EQ(back.outDir, req.outDir);
        EXPECT_EQ(back.emitQubit, req.emitQubit);
        EXPECT_EQ(back.maxTerms, req.maxTerms);
        EXPECT_EQ(back.maxModes, req.maxModes);
        EXPECT_EQ(back.timeoutSeconds, req.timeoutSeconds);
        EXPECT_EQ(back.fallback, req.fallback);
        EXPECT_EQ(back.device, req.device);
    };
    // Through text and back: the wire schema must survive an actual
    // serialize/parse cycle, not just an in-memory copy.
    CompileRequest back =
        io::compileRequestFromJson(JsonValue::parse(doc.dump(2)));
    expectSameRequest(back);
    EXPECT_EQ(io::compileRequestToJson(back).dump(), doc.dump());

    // Older v1 clients still send the retired worker-cap hint `jobs`
    // (e.g. `"jobs": 4`): the frame parses, every other field survives,
    // and re-encoding drops the hint.
    JsonValue with_jobs = doc;
    with_jobs.add("jobs", 4);
    CompileRequest from_jobs =
        io::compileRequestFromJson(JsonValue::parse(with_jobs.dump()));
    expectSameRequest(from_jobs);
    EXPECT_EQ(io::compileRequestToJson(from_jobs).dump(), doc.dump());

    // Defaults round-trip too (auto format, empty-ish request).
    CompileRequest plain;
    plain.path = "x.ops";
    CompileRequest plain_back = io::compileRequestFromJson(
        JsonValue::parse(io::compileRequestToJson(plain).dump()));
    EXPECT_EQ(plain_back.format, "auto");
    EXPECT_EQ(plain_back.mapping, "hatt");
    EXPECT_TRUE(plain_back.emitQubit);
    EXPECT_TRUE(plain_back.device.empty());

    // A newer wire version must be rejected, not half-parsed.
    std::string text = io::compileRequestToJson(req).dump(2);
    const size_t at = text.find("\"version\": 1");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 12, "\"version\": 2");
    EXPECT_THROW(io::compileRequestFromJson(JsonValue::parse(text)),
                 io::ParseError);
}

TEST(ServiceWire, CompileResponseJsonRoundTripsWithVersion)
{
    CompileResponse resp;
    resp.stem = "h2";
    resp.inputFormat = "ops";
    resp.numModes = 4;
    resp.fermionTerms = 10;
    resp.monomials = 14;
    resp.contentHash = 0xdeadbeefcafe1234ull;
    resp.numQubits = 4;
    resp.pauliWeight = 32;
    resp.qubitTerms = 14;
    resp.maxImagCoeff = 1e-12;
    resp.candidates = 9;
    resp.cacheHit = true;
    resp.cacheTier = "memory";
    resp.degraded = true;
    resp.quarantinedCache = true;
    resp.seconds = 0.25;
    resp.cacheSeconds = 0.01;

    JsonValue doc = io::compileResponseToJson(resp);
    EXPECT_EQ(doc.at("format").asString(), "hatt-compile-response");
    EXPECT_EQ(doc.at("version").asInt(), 1);

    CompileResponse back =
        io::compileResponseFromJson(JsonValue::parse(doc.dump(2)));
    EXPECT_EQ(back.stem, resp.stem);
    EXPECT_EQ(back.inputFormat, resp.inputFormat);
    EXPECT_EQ(back.numModes, resp.numModes);
    EXPECT_EQ(back.fermionTerms, resp.fermionTerms);
    EXPECT_EQ(back.monomials, resp.monomials);
    EXPECT_EQ(back.contentHash, resp.contentHash);
    EXPECT_EQ(back.numQubits, resp.numQubits);
    ASSERT_TRUE(back.pauliWeight);
    EXPECT_EQ(*back.pauliWeight, *resp.pauliWeight);
    ASSERT_TRUE(back.qubitTerms);
    EXPECT_EQ(*back.qubitTerms, *resp.qubitTerms);
    ASSERT_TRUE(back.maxImagCoeff);
    EXPECT_EQ(*back.maxImagCoeff, *resp.maxImagCoeff);
    ASSERT_TRUE(back.candidates);
    EXPECT_EQ(*back.candidates, *resp.candidates);
    EXPECT_EQ(back.cacheHit, resp.cacheHit);
    EXPECT_EQ(back.cacheTier, resp.cacheTier);
    EXPECT_EQ(back.degraded, resp.degraded);
    EXPECT_EQ(back.quarantinedCache, resp.quarantinedCache);
    EXPECT_EQ(back.seconds, resp.seconds);
    EXPECT_EQ(back.cacheSeconds, resp.cacheSeconds);

    // Optionals absent -> JSON nulls -> absent again (a map-only
    // response has no qubit metrics).
    CompileResponse bare;
    bare.stem = "x";
    bare.inputFormat = "ops";
    CompileResponse bare_back = io::compileResponseFromJson(
        JsonValue::parse(io::compileResponseToJson(bare).dump()));
    EXPECT_FALSE(bare_back.pauliWeight);
    EXPECT_FALSE(bare_back.qubitTerms);
    EXPECT_FALSE(bare_back.maxImagCoeff);
    EXPECT_FALSE(bare_back.candidates);
    EXPECT_TRUE(bare_back.cacheTier.empty());
}

TEST(ServiceWire, DeviceFieldIsAdditiveWithinV1)
{
    // Request side: the device field is emitted only when set, so
    // device-free frames stay byte-identical to pre-device builds.
    CompileRequest plain;
    plain.path = "x.ops";
    JsonValue plain_doc = io::compileRequestToJson(plain);
    EXPECT_EQ(plain_doc.find("device"), nullptr);
    EXPECT_TRUE(io::compileRequestFromJson(
                    JsonValue::parse(plain_doc.dump()))
                    .device.empty());

    CompileRequest with;
    with.path = "x.ops";
    with.device = "montreal";
    JsonValue doc = io::compileRequestToJson(with);
    EXPECT_EQ(doc.at("version").asInt(), 1);
    EXPECT_EQ(doc.at("device").asString(), "montreal");
    EXPECT_EQ(io::compileRequestFromJson(JsonValue::parse(doc.dump(2)))
                  .device,
              "montreal");

    // Response side: the whole routed block rides on `device` being
    // non-empty; absent means architecture-agnostic, not zero cost.
    CompileResponse resp;
    resp.stem = "x";
    resp.inputFormat = "ops";
    resp.device = "montreal";
    resp.routedCnots = 123;
    resp.routedU3 = 456;
    resp.routedDepth = 78;
    resp.routedSwaps = 9;
    JsonValue rdoc = io::compileResponseToJson(resp);
    EXPECT_EQ(rdoc.at("device").asString(), "montreal");
    CompileResponse back =
        io::compileResponseFromJson(JsonValue::parse(rdoc.dump(2)));
    EXPECT_EQ(back.device, "montreal");
    ASSERT_TRUE(back.routedCnots);
    EXPECT_EQ(*back.routedCnots, 123u);
    ASSERT_TRUE(back.routedU3);
    EXPECT_EQ(*back.routedU3, 456u);
    ASSERT_TRUE(back.routedDepth);
    EXPECT_EQ(*back.routedDepth, 78u);
    ASSERT_TRUE(back.routedSwaps);
    EXPECT_EQ(*back.routedSwaps, 9u);

    CompileResponse bare;
    bare.stem = "x";
    bare.inputFormat = "ops";
    JsonValue bare_doc = io::compileResponseToJson(bare);
    EXPECT_EQ(bare_doc.find("device"), nullptr);
    EXPECT_EQ(bare_doc.find("routed_cnots"), nullptr);
    CompileResponse bare_back =
        io::compileResponseFromJson(JsonValue::parse(bare_doc.dump()));
    EXPECT_TRUE(bare_back.device.empty());
    EXPECT_FALSE(bare_back.routedCnots);
}

TEST(Service, DeviceAwareCompileRoutesAndCanonicalises)
{
    fs::path dir = scratchDir("device");
    CompilationService service(ServiceConfig{});

    // Any-case device spelling canonicalises; the response reports the
    // routed cost of the built mapping on that device.
    CompileRequest req;
    req.path = dataFile("h2.ops");
    req.outDir = (dir / "out").string();
    req.mapping = "bonsai";
    req.device = "Line:8";
    StatusOr<CompileResponse> res = service.compile(req);
    ASSERT_TRUE(res.ok()) << res.status().message();
    EXPECT_EQ(res->device, "line:8");
    ASSERT_TRUE(res->routedCnots);
    EXPECT_GT(*res->routedCnots, 0u);
    ASSERT_TRUE(res->routedDepth);
    EXPECT_GT(*res->routedDepth, 0u);
    ASSERT_TRUE(res->routedSwaps);

    // The repeat is served from cache with the identical routed block.
    StatusOr<CompileResponse> warm = service.compile(req);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->cacheHit);
    EXPECT_EQ(*warm->routedCnots, *res->routedCnots);
    EXPECT_EQ(*warm->routedDepth, *res->routedDepth);

    // Same problem on a different device must NOT hit the first
    // device's cache entry — the device is part of the cache key.
    CompileRequest other = req;
    other.device = "grid:3x3";
    StatusOr<CompileResponse> miss = service.compile(other);
    ASSERT_TRUE(miss.ok()) << miss.status().message();
    EXPECT_FALSE(miss->cacheHit);
    EXPECT_EQ(miss->device, "grid:3x3");

    // Unknown devices are InvalidArgument with the full device list.
    CompileRequest bad = req;
    bad.device = "bogus";
    StatusOr<CompileResponse> err = service.compile(bad);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.status().code(), Status::Code::InvalidArgument);
    EXPECT_NE(err.status().message().find("montreal"),
              std::string::npos);

    // A device-aware kind with no device is a clean InvalidArgument.
    CompileRequest no_dev = req;
    no_dev.device.clear();
    StatusOr<CompileResponse> rejected = service.compile(no_dev);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), Status::Code::InvalidArgument);
    EXPECT_NE(rejected.status().message().find("device"),
              std::string::npos);

    fs::remove_all(dir);
}

// -------------------------------------------------------------- service

TEST(Service, CompileWithoutArgvAndMemoizeInProcess)
{
    fs::path dir = scratchDir("compile");
    CompilationService service(ServiceConfig{}); // memory tier only

    CompileRequest req;
    req.path = dataFile("h2.ops");
    req.outDir = (dir / "out").string();
    StatusOr<CompileResponse> first = service.compile(req);
    ASSERT_TRUE(first.ok()) << first.status().message();
    EXPECT_EQ(first->numQubits, 4u);
    ASSERT_TRUE(first->pauliWeight);
    EXPECT_EQ(*first->pauliWeight, 32u);
    EXPECT_FALSE(first->cacheHit);
    EXPECT_TRUE(first->cacheTier.empty());
    EXPECT_TRUE(fs::exists(dir / "out/h2.mapping.json"));
    EXPECT_TRUE(fs::exists(dir / "out/h2.qubit.json"));

    // Same service, same input: the memory tier serves the repeat, and
    // the deterministic outcome is unchanged.
    StatusOr<CompileResponse> second = service.compile(req);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->cacheHit);
    EXPECT_EQ(second->cacheTier, "memory");
    EXPECT_GE(second->cacheSeconds, 0.0);
    EXPECT_EQ(second->numQubits, first->numQubits);
    EXPECT_EQ(*second->pauliWeight, *first->pauliWeight);
    EXPECT_EQ(second->contentHash, first->contentHash);

    // Errors are Status values, never exceptions.
    CompileRequest missing = req;
    missing.path = (dir / "nope.ops").string();
    StatusOr<CompileResponse> err = service.compile(missing);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.status().code(), Status::Code::InvalidArgument);

    CompileRequest bad_kind = req;
    bad_kind.mapping = "no-such-mapper";
    ASSERT_FALSE(service.compile(bad_kind).ok());

    CompileRequest bad_format = req;
    bad_format.format = "yaml";
    StatusOr<CompileResponse> fmt = service.compile(bad_format);
    ASSERT_FALSE(fmt.ok());
    EXPECT_EQ(fmt.status().code(), Status::Code::InvalidArgument);

    fs::remove_all(dir);
}

TEST(Service, ConcurrentCompilesMatchASerialRun)
{
    // compile() is re-entrant: two threads share one service and its
    // disk cache on a four-worker pool, first on different inputs, then
    // racing on the same one. Every response (volatile fields aside)
    // and every artifact equals what a serial run produces.
    fs::path dir = scratchDir("reentrant");
    setParallelThreads(4);
    const std::vector<std::vector<std::string>> plan = {
        {"h2.ops", "eq3.ops"}, {"hubbard2x2.ops", "eq3.ops"}};

    auto compileInto = [&](CompilationService &service,
                           const std::string &input,
                           const fs::path &out) {
        CompileRequest req;
        req.path = dataFile(input);
        req.outDir = out.string();
        StatusOr<CompileResponse> resp = service.compile(req);
        EXPECT_TRUE(resp.ok()) << input << ": " << resp.status().message();
        if (!resp.ok())
            return std::string();
        const JsonValue doc = io::compileResponseToJson(resp.value());
        JsonValue stripped = JsonValue::object();
        for (const auto &[key, value] : doc.asObject())
            if (key != "seconds" && key != "cache_seconds" &&
                key != "cache_hit" && key != "cache_tier")
                stripped.add(key, value);
        return stripped.dump(2);
    };
    auto outDir = [&](const char *run, size_t t, size_t step) {
        return dir / run / (std::to_string(t) + "_" + std::to_string(step));
    };

    CompilationService serial(ServiceConfig{(dir / "scache").string()});
    std::vector<std::vector<std::string>> expected(plan.size());
    for (size_t t = 0; t < plan.size(); ++t)
        for (size_t step = 0; step < plan[t].size(); ++step)
            expected[t].push_back(compileInto(serial, plan[t][step],
                                              outDir("serial", t, step)));

    CompilationService shared(ServiceConfig{(dir / "ccache").string()});
    std::vector<std::vector<std::string>> got(plan.size());
    std::barrier step_barrier(static_cast<std::ptrdiff_t>(plan.size()));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < plan.size(); ++t)
        threads.emplace_back([&, t] {
            for (size_t step = 0; step < plan[t].size(); ++step) {
                step_barrier.arrive_and_wait();
                got[t].push_back(compileInto(shared, plan[t][step],
                                             outDir("concurrent", t, step)));
            }
        });
    for (std::thread &th : threads)
        th.join();
    setParallelThreads(0);

    auto slurp = [](const fs::path &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << "cannot read " << path;
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    };
    for (size_t t = 0; t < plan.size(); ++t)
        for (size_t step = 0; step < plan[t].size(); ++step) {
            const std::string &input = plan[t][step];
            ASSERT_FALSE(expected[t][step].empty()) << input;
            EXPECT_EQ(got[t][step], expected[t][step]) << input;
            const std::string stem = fs::path(input).stem().string();
            for (const char *suffix :
                 {".mapping.json", ".tree.json", ".qubit.json"})
                EXPECT_EQ(
                    slurp(outDir("concurrent", t, step) / (stem + suffix)),
                    slurp(outDir("serial", t, step) / (stem + suffix)))
                    << input << suffix;
        }
    fs::remove_all(dir);
}

TEST(Service, RejectsNonRegularInputsWithinASecond)
{
    // Opening a FIFO that has no writer blocks until one appears, which
    // would wedge hattd's poll thread. A FIFO, a symlink to one (the
    // path a stat-then-open check can be raced through), a directory
    // and /dev/zero must each come back as InvalidArgument, promptly.
    fs::path dir = scratchDir("fifo");
    const fs::path fifo = dir / "input.ops";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const fs::path link = dir / "link.ops";
    fs::create_symlink(fifo, link);
    CompilationService service(ServiceConfig{});

    for (const std::string &path : {fifo.string(), link.string(),
                                    dir.string(), std::string("/dev/zero")}) {
        CompileRequest req;
        req.path = path;
        req.outDir = (dir / "out").string();
        std::future<StatusOr<CompileResponse>> pending = std::async(
            std::launch::async, [&] { return service.compile(req); });
        if (pending.wait_for(std::chrono::seconds(1)) !=
            std::future_status::ready) {
            ADD_FAILURE() << path << ": compile still blocked after 1 s";
            // Release a reader stuck in open() so the test can end.
            int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
            if (fd >= 0)
                ::close(fd);
        }
        StatusOr<CompileResponse> resp = pending.get();
        ASSERT_FALSE(resp.ok()) << path;
        EXPECT_EQ(resp.status().code(), Status::Code::InvalidArgument)
            << path << ": " << resp.status().message();
        EXPECT_NE(resp.status().message().find("not a regular file"),
                  std::string::npos)
            << resp.status().message();
    }
    fs::remove_all(dir);
}

TEST(Service, SecondsIsTheWallClockOfTheWholeCompile)
{
    // A generated input whose parse + preprocess dwarf a JW build:
    // `seconds` must cover them, not just build + lookup + map.
    fs::path dir = scratchDir("seconds");
    const std::string input = (dir / "chain16.ops").string();
    {
        std::ofstream os(input);
        os << "modes 16\n";
        for (int i = 0; i < 16; ++i)
            for (int j = 0; j < 16; ++j)
                os << "0.25 [" << i << "^ " << j << "]\n";
    }
    CompilationService service(ServiceConfig{});
    CompileRequest req;
    req.path = input;
    req.mapping = "jw";
    req.emitQubit = false;
    req.outDir = (dir / "out").string();
    metrics::reset();
    StatusOr<CompileResponse> resp = service.compile(req);
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    const metrics::Snapshot snap = metrics::snapshot();
    const double parse = snap.timings.at("parse.seconds").total;
    const double preprocess = snap.timings.at("preprocess.seconds").total;
    const double emit = snap.timings.at("emit.seconds").total;
    EXPECT_GT(emit, 0.0);
    EXPECT_GE(resp->seconds, parse + preprocess);

    // The metrics artifact is a mirror of the response: every record
    // field equals the response field it is written from.
    const auto expectMirrors = [&](const CompileResponse &r) {
        const JsonValue rec =
            io::loadJsonFile((dir / "out/chain16.metrics.json").string())
                .at("records")
                .at(size_t{0});
        EXPECT_EQ(rec.at("name").asString(), "chain16/" + req.mapping);
        EXPECT_EQ(rec.at("seconds").asNumber(), r.seconds);
        EXPECT_EQ(rec.at("cache_seconds").asNumber(), r.cacheSeconds);
        const auto optionalU64 = [&](const char *key) {
            const JsonValue &v = rec.at(key);
            return v.isNull()
                       ? std::optional<uint64_t>()
                       : std::optional<uint64_t>(
                             static_cast<uint64_t>(v.asInt(0)));
        };
        EXPECT_EQ(optionalU64("pauli_weight"), r.pauliWeight);
        EXPECT_EQ(optionalU64("candidates"), r.candidates);
        EXPECT_EQ(rec.at("cache_hit").asBool(), r.cacheHit);
        EXPECT_EQ(rec.at("degraded").asBool(), r.degraded);
    };
    expectMirrors(resp.value());
    EXPECT_FALSE(resp->pauliWeight.has_value());

    // With the qubit Hamiltonian emitted, pauli_weight is a number, and
    // a HATT build reports its candidates witness.
    req.mapping = "hatt";
    req.emitQubit = true;
    StatusOr<CompileResponse> full = service.compile(req);
    ASSERT_TRUE(full.ok()) << full.status().message();
    ASSERT_TRUE(full->pauliWeight.has_value());
    ASSERT_TRUE(full->candidates.has_value());
    expectMirrors(full.value());
    fs::remove_all(dir);
}

// --------------------------------------------------------- tiered store

/** Backing mock that records call order and can observe the memory
    tier's population at save time. */
class RecordingStore : public MappingStore
{
  public:
    std::optional<Entry> load(uint64_t hash,
                              const std::string &kind) override
    {
        ++loads;
        auto it = entries.find({hash, kind});
        if (it == entries.end())
            return std::nullopt;
        Entry out = it->second;
        out.tier = "disk";
        return out;
    }

    void save(uint64_t hash, const std::string &kind,
              const Entry &entry) override
    {
        ++saves;
        if (tiered)
            memory_entries_at_save = tiered->entryCount();
        entries[{hash, kind}] = entry;
    }

    std::map<std::pair<uint64_t, std::string>, Entry> entries;
    int loads = 0;
    int saves = 0;
    /** Memory-tier population observed inside save() — 0 proves the
        durable tier was written BEFORE the memory publish. */
    size_t memory_entries_at_save = SIZE_MAX;
    TieredMappingStore *tiered = nullptr;
};

/** A deterministic counter of the current metrics scope (0 if unset). */
uint64_t
counter(const std::string &name)
{
    const metrics::Snapshot snap = metrics::snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(TieredStore, WriteThroughPersistsBackingFirst)
{
    metrics::reset();
    RecordingStore backing;
    TieredMappingStore tiered(&backing);
    backing.tiered = &tiered;

    MappingStore::Entry entry = sampleEntry();
    tiered.save(0xabc, "jw", entry);

    EXPECT_EQ(backing.saves, 1);
    // Durable tier first: at save() time the memory tier was empty.
    EXPECT_EQ(backing.memory_entries_at_save, 0u);
    EXPECT_EQ(tiered.entryCount(), 1u);

    // The repeat load never touches the backing store.
    std::optional<MappingStore::Entry> hit = tiered.load(0xabc, "jw");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->tier, "memory");
    EXPECT_EQ(hit->mapping.numQubits, entry.mapping.numQubits);
    ASSERT_TRUE(hit->candidates);
    EXPECT_EQ(*hit->candidates, 7u);
    EXPECT_EQ(backing.loads, 0);

    EXPECT_EQ(counter("store.memory_hits"), 1u);
    EXPECT_EQ(counter("store.backing_hits"), 0u);
    EXPECT_EQ(counter("store.promotions"), 0u);
}

TEST(TieredStore, BackingHitPromotesAndStampsTiers)
{
    metrics::reset();
    RecordingStore backing;
    TieredMappingStore tiered(&backing);
    MappingStore::Entry entry = sampleEntry();
    backing.entries[{1, "jw"}] = entry;

    // Memory miss -> backing hit, stamped with the backing tier.
    std::optional<MappingStore::Entry> first = tiered.load(1, "jw");
    ASSERT_TRUE(first);
    EXPECT_EQ(first->tier, "disk");
    EXPECT_EQ(backing.loads, 1);

    // Read promotion: the repeat is a memory hit, no backing traffic.
    std::optional<MappingStore::Entry> second = tiered.load(1, "jw");
    ASSERT_TRUE(second);
    EXPECT_EQ(second->tier, "memory");
    EXPECT_EQ(backing.loads, 1);

    // Promotion is a memory publish only — never a backing re-save.
    EXPECT_EQ(backing.saves, 0);
    EXPECT_EQ(tiered.entryCount(), 1u);

    EXPECT_EQ(counter("store.backing_hits"), 1u);
    EXPECT_EQ(counter("store.promotions"), 1u);
    EXPECT_EQ(counter("store.memory_hits"), 1u);

    // A true miss stays a miss: both tiers are asked, nothing is
    // promoted and no counter moves.
    EXPECT_FALSE(tiered.load(2, "jw").has_value());
    EXPECT_EQ(backing.loads, 2);
    EXPECT_EQ(tiered.entryCount(), 1u);
    EXPECT_EQ(counter("store.backing_hits"), 1u);
    EXPECT_EQ(counter("store.promotions"), 1u);
    EXPECT_EQ(counter("store.memory_hits"), 1u);

    // Write-through: each distinct key is one backing save and one
    // resident entry.
    tiered.save(9, "bk", sampleEntry());
    tiered.save(9, "aa", sampleEntry());
    EXPECT_EQ(backing.saves, 2);
    EXPECT_EQ(tiered.entryCount(), 3u);
}

TEST(TieredStore, MemoryHitSurvivesDiskGc)
{
    fs::path dir = scratchDir("gc");
    io::MappingCache cache((dir / "cache").string());
    TieredMappingStore tiered(&cache);

    MappingStore::Entry entry = sampleEntry();
    tiered.save(42, "jw", entry);

    // Evict everything from the durable tier.
    io::CacheGcOptions gco;
    gco.maxBytes = 0;
    cache.gc(gco);
    EXPECT_FALSE(cache.load(42, "jw"));

    // The memory tier still serves the key.
    std::optional<MappingStore::Entry> hit = tiered.load(42, "jw");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->tier, "memory");
    EXPECT_EQ(hit->mapping.numQubits, entry.mapping.numQubits);
    fs::remove_all(dir);
}

TEST(TieredStore, QuarantinePassThroughRepopulatesMemory)
{
    fs::path dir = scratchDir("quarantine");
    io::MappingCache cache((dir / "cache").string());
    TieredMappingStore tiered(&cache);

    MappingStore::Entry entry = sampleEntry();
    tiered.save(7, "jw", entry);
    tiered.clearMemory();

    // Corrupt the disk entry behind the store's back.
    {
        std::ofstream os(cache.entryPath(7, "jw"), std::ios::trunc);
        os << "not json {";
    }

    // Both tiers miss: memory is cold, the disk tier quarantines the
    // damaged file and reports a soft miss (never an exception).
    EXPECT_FALSE(tiered.load(7, "jw"));
    EXPECT_TRUE(cache.wasQuarantined(7, "jw"));
    EXPECT_EQ(cache.quarantinedCount(), 1u);

    // The recompute path re-populates both tiers; repeats are memory
    // hits again.
    tiered.save(7, "jw", entry);
    std::optional<MappingStore::Entry> hit = tiered.load(7, "jw");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->tier, "memory");
    ASSERT_TRUE(cache.load(7, "jw"));
    fs::remove_all(dir);
}

/** A mapping's artifact bytes: the equality loads are judged by. */
std::string
mappingBytes(const FermionQubitMapping &mapping)
{
    JsonWriter w(2);
    io::writeMappingJson(w, mapping);
    w.finish();
    return w.take();
}

TEST(TieredStore, ConcurrentSavesAndLoadsKeepOneEntryPerKey)
{
    // Threads save and load keys they share and keys of their own;
    // every key ends up resident exactly once, and every load returns
    // what was saved under it.
    TieredMappingStore tiered;
    constexpr int kThreads = 8;
    constexpr int kShared = 4;
    constexpr int kRounds = 200;
    std::vector<MappingStore::Entry> entries;
    std::vector<std::string> expected;
    for (int i = 0; i < kShared + kThreads; ++i) {
        entries.push_back(sampleEntry(2 + i));
        expected.push_back(mappingBytes(entries.back().mapping));
    }

    std::atomic<int> mismatches{0};
    const auto check = [&](int key) {
        std::optional<MappingStore::Entry> hit = tiered.load(key, "jw");
        if (!hit || hit->tier != "memory" ||
            mappingBytes(hit->mapping) != expected[key] ||
            hit->candidates != entries[key].candidates)
            ++mismatches;
    };
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            const int own = kShared + t;
            for (int round = 0; round < kRounds; ++round) {
                const int shared = (round + t) % kShared;
                tiered.save(shared, "jw", entries[shared]);
                tiered.save(own, "jw", entries[own]);
                check(shared);
                check(own);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(tiered.entryCount(), size_t{kShared + kThreads});
    for (int key = 0; key < kShared + kThreads; ++key)
        check(key);
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(TieredStore, RegistryReportsServingTier)
{
    // Through the MapperRegistry — the production read path: the tier
    // that served the hit lands in MappingMetrics::cacheTier, and
    // cacheSeconds is that lookup's cost.
    fs::path dir = scratchDir("tier");
    io::MappingCache cache((dir / "cache").string());
    TieredMappingStore tiered(&cache);

    MajoranaPolynomial poly;
    {
        StreamingMajoranaAccumulator acc;
        acc.add(FermionTerm({0.5, 0.0},
                            {FermionOp{0, true}, FermionOp{1, false}}));
        acc.ensureModes(2);
        poly = acc.finish();
    }
    MappingRequest req;
    req.kind = "hatt";
    req.poly = &poly;
    req.contentHash = io::majoranaContentHash(poly);

    StatusOr<MappingResult> cold =
        MapperRegistry::instance().build(req, &tiered);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold->metrics.cacheHit);
    EXPECT_TRUE(cold->metrics.cacheTier.empty());

    StatusOr<MappingResult> warm =
        MapperRegistry::instance().build(req, &tiered);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->metrics.cacheHit);
    EXPECT_EQ(warm->metrics.cacheTier, "memory");
    EXPECT_GE(warm->metrics.cacheSeconds, 0.0);

    // Drop the memory tier: the next hit is served — and attributed —
    // by the disk tier, then promoted back.
    tiered.clearMemory();
    StatusOr<MappingResult> disk_hit =
        MapperRegistry::instance().build(req, &tiered);
    ASSERT_TRUE(disk_hit.ok());
    EXPECT_TRUE(disk_hit->metrics.cacheHit);
    EXPECT_EQ(disk_hit->metrics.cacheTier, "disk");

    StatusOr<MappingResult> back =
        MapperRegistry::instance().build(req, &tiered);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->metrics.cacheTier, "memory");

    // The served mappings are identical to the cold build.
    EXPECT_EQ(back->mapping.numQubits, cold->mapping.numQubits);
    fs::remove_all(dir);
}

// ------------------------------------------------------- batch acceptance

TEST(Service, WarmBatchAllMemoryHitsReportByteIdentical)
{
    fs::path dir = scratchDir("warmbatch");
    std::vector<std::string> reports;
    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        CompilationService service(ServiceConfig{}); // memory tier only
        BatchOptions bopt;

        bopt.request.outDir =
            (dir / ("cold" + std::to_string(threads))).string();
        StatusOr<BatchOutcome> cold =
            service.compileBatch(dataDir(), bopt);
        ASSERT_TRUE(cold.ok()) << cold.status().message();
        EXPECT_EQ(cold->failed, 0u);
        EXPECT_EQ(cold->stats.at("summary").at("memory_hits").asInt(), 0);
        EXPECT_EQ(cold->stats.at("summary").at("cache_hits").asInt(), 0);

        bopt.request.outDir =
            (dir / ("warm" + std::to_string(threads))).string();
        StatusOr<BatchOutcome> warm =
            service.compileBatch(dataDir(), bopt);
        ASSERT_TRUE(warm.ok());
        EXPECT_EQ(warm->failed, 0u);

        // 100% in-memory hits on the warm run.
        const JsonValue &summary = warm->stats.at("summary");
        EXPECT_GT(summary.at("inputs").asInt(), 0);
        EXPECT_EQ(summary.at("memory_hits").asInt(),
                  summary.at("inputs").asInt());
        EXPECT_EQ(summary.at("cache_hits").asInt(),
                  summary.at("inputs").asInt());
        EXPECT_EQ(warm->stats.at("version").asInt(), 3);
        for (const JsonValue &rec : warm->stats.at("inputs").asArray()) {
            EXPECT_TRUE(rec.at("cache_hit").asBool());
            EXPECT_EQ(rec.at("cache_tier").asString(), "memory");
        }

        // The deterministic report is byte-identical warm-vs-cold.
        const std::string cold_report = cold->report.dump(2);
        EXPECT_EQ(cold_report, warm->report.dump(2));
        reports.push_back(cold_report);
    }
    setParallelThreads(0);
    // ... and across HATT_THREADS ∈ {1, 4}.
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0], reports[1]);
    fs::remove_all(dir);
}

TEST(Service, BatchRejectsBadSourceAsStatus)
{
    fs::path dir = scratchDir("badbatch");
    CompilationService service(ServiceConfig{});
    BatchOptions bopt;
    bopt.request.outDir = (dir / "out").string();

    // An empty directory: no inputs is an InvalidArgument, not a crash.
    fs::create_directories(dir / "empty");
    StatusOr<BatchOutcome> none =
        service.compileBatch((dir / "empty").string(), bopt);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), Status::Code::InvalidArgument);

    // A bad manifest line surfaces the same diagnostic the CLI prints.
    const std::string manifest = (dir / "bad.txt").string();
    {
        std::ofstream os(manifest);
        os << "h2.ops no-such-kind\n";
    }
    StatusOr<BatchOutcome> bad = service.compileBatch(manifest, bopt);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), Status::Code::InvalidArgument);
    EXPECT_NE(bad.status().message().find("line 1"), std::string::npos);
    fs::remove_all(dir);
}

} // namespace
} // namespace hatt
