/**
 * @file
 * Tests of the transport-agnostic compilation core (io/service) and the
 * two-tier mapping store (mapping/store): CompileRequest/CompileResponse
 * JSON round trips (the intended hattd wire protocol v1), compiling
 * without an argv in sight, write-through ordering, memory hits
 * surviving disk GC, quarantine pass-through, tier attribution, and the
 * headline acceptance — a warm in-process batch serving 100% memory
 * hits while its batch_report.json stays byte-identical to the cold run
 * for HATT_THREADS ∈ {1, 4}.
 *
 * The CI batch-smoke job also runs BatchReportFileForCiCompare with
 * HATT_SERVICE_REPORT_OUT set and byte-compares the written report
 * against the one the `hattc batch` CLI produced for the same corpus.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "fermion/fermion_op.hpp"
#include "io/batch.hpp"
#include "io/cache.hpp"
#include "io/serialize.hpp"
#include "io/service.hpp"
#include "io/stream.hpp"
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
    for (const char *prefix :
         {"../examples/data/", "examples/data/", "../../examples/data/"}) {
        std::string p = prefix + name;
        if (std::ifstream(p).good())
            return p;
    }
    ADD_FAILURE() << "cannot locate examples/data/" << name;
    return name;
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
    MappingRequest req;
    req.kind = "jw";
    req.numModes = num_modes;
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
    req.jobs = 3;

    JsonValue doc = io::compileRequestToJson(req);
    EXPECT_EQ(doc.at("format").asString(), "hatt-compile-request");
    EXPECT_EQ(doc.at("version").asInt(), 1);

    // Through text and back: the wire schema must survive an actual
    // serialize/parse cycle, not just an in-memory copy.
    CompileRequest back =
        io::compileRequestFromJson(JsonValue::parse(doc.dump(2)));
    EXPECT_EQ(back.path, req.path);
    EXPECT_EQ(back.format, req.format);
    EXPECT_EQ(back.mapping, req.mapping);
    EXPECT_EQ(back.outDir, req.outDir);
    EXPECT_EQ(back.emitQubit, req.emitQubit);
    EXPECT_EQ(back.maxTerms, req.maxTerms);
    EXPECT_EQ(back.maxModes, req.maxModes);
    EXPECT_EQ(back.timeoutSeconds, req.timeoutSeconds);
    EXPECT_EQ(back.fallback, req.fallback);
    EXPECT_EQ(back.jobs, req.jobs);

    // Defaults round-trip too (auto format, empty-ish request).
    CompileRequest plain;
    plain.path = "x.ops";
    CompileRequest plain_back = io::compileRequestFromJson(
        JsonValue::parse(io::compileRequestToJson(plain).dump()));
    EXPECT_EQ(plain_back.format, "auto");
    EXPECT_EQ(plain_back.mapping, "hatt");
    EXPECT_TRUE(plain_back.emitQubit);
    EXPECT_EQ(plain_back.jobs, 0u);

    // `jobs` was added within v1: a frame from an older client that
    // omits it still parses (the hint defaults to "inherit").
    JsonValue old_doc = io::compileRequestToJson(plain);
    JsonValue pruned = JsonValue::object();
    for (const auto &[key, value] : old_doc.asObject())
        if (key != "jobs")
            pruned.add(key, value);
    EXPECT_EQ(io::compileRequestFromJson(pruned).jobs, 0u);

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
    EXPECT_GE(resp->seconds, parse + preprocess);

    // The metrics artifact records the same wall clock.
    JsonValue rec = io::loadJsonFile((dir / "out/chain16.metrics.json")
                                         .string())
                        .at("records")
                        .at(size_t{0});
    EXPECT_EQ(rec.at("seconds").asNumber(), resp->seconds);
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

TEST(TieredStore, WriteThroughPersistsBackingFirst)
{
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

    TieredMappingStore::Stats stats = tiered.stats();
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.backingHits, 0u);
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(TieredStore, BackingHitPromotesAndStampsTiers)
{
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

    TieredMappingStore::Stats stats = tiered.stats();
    EXPECT_EQ(stats.backingHits, 1u);
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);

    // A true miss stays a miss.
    EXPECT_FALSE(tiered.load(2, "jw"));
    EXPECT_EQ(tiered.stats().misses, 1u);

    // Deterministic iteration: sorted by (hash, kind).
    tiered.save(9, "bk", sampleEntry());
    tiered.save(9, "aa", sampleEntry());
    auto keys = tiered.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], (std::pair<uint64_t, std::string>(1, "jw")));
    EXPECT_EQ(keys[1], (std::pair<uint64_t, std::string>(9, "aa")));
    EXPECT_EQ(keys[2], (std::pair<uint64_t, std::string>(9, "bk")));
}

TEST(TieredStore, MemoryHitSurvivesDiskGc)
{
    fs::path dir = scratchDir("gc");
    io::MappingCache cache((dir / "cache").string());
    TieredMappingStore tiered(&cache);

    MappingStore::Entry entry = sampleEntry();
    tiered.save(42, "jw", entry);
    cache.flushIndex();

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
        io::ShardedMajoranaPreprocessor acc;
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

        bopt.outDir = (dir / ("cold" + std::to_string(threads))).string();
        StatusOr<BatchOutcome> cold =
            service.compileBatch(dataDir(), bopt);
        ASSERT_TRUE(cold.ok()) << cold.status().message();
        EXPECT_EQ(cold->failed, 0u);
        EXPECT_EQ(cold->stats.at("summary").at("memory_hits").asInt(), 0);
        EXPECT_EQ(cold->stats.at("summary").at("cache_hits").asInt(), 0);

        bopt.outDir = (dir / ("warm" + std::to_string(threads))).string();
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
    bopt.outDir = (dir / "out").string();

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

/**
 * CI hook: compile the sample corpus through the service (no CLI, no
 * argv) and write batch_report.json where HATT_SERVICE_REPORT_OUT
 * points; the batch-smoke job byte-compares it against the CLI's
 * report for the same corpus. Without the env var the report lands in
 * the scratch dir and the test just asserts it was written.
 */
TEST(Service, BatchReportFileForCiCompare)
{
    fs::path dir = scratchDir("cireport");
    CompilationService service(ServiceConfig{});
    BatchOptions bopt;
    bopt.outDir = (dir / "out").string();
    StatusOr<BatchOutcome> outcome = service.compileBatch(dataDir(), bopt);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(outcome->failed, 0u);

    const char *env = std::getenv("HATT_SERVICE_REPORT_OUT");
    const std::string path =
        env ? std::string(env) : (dir / "batch_report.json").string();
    io::saveJsonFile(path, outcome->report);
    EXPECT_TRUE(fs::exists(path));
    fs::remove_all(dir);
}

} // namespace
} // namespace hatt
