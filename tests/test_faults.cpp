/**
 * @file
 * Fault-injection tests: every failure the common/fault registry can
 * inject — cache writes, cache reads, parser allocation, pool dispatch
 * — must surface as a clean Status / typed exception / isolated batch
 * item, never as a crash, a hang, or a corrupt cache entry. Also pins
 * the spec grammar (point=action[@N[+]]) and the acceptance-
 * criteria batch: a corpus with a hostile input, an induced
 * cache-write fault, and a deadline-expiring item completes with
 * pinned statuses, and its batch_report.json is byte-identical to the
 * fault-free run for HATT_THREADS in {1, 4}.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <ctime>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "io/cache.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "mapping/mapper.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::JsonValue;

/** Every test disarms the global registry on exit, pass or fail. */
class FaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disable(); }
};

std::string
dataFile(const std::string &name)
{
    return std::string(HATT_DATA_DIR) + "/" + name;
}

fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("hatt_fault_test_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

int
run(const std::vector<std::string> &args, std::string *out_text = nullptr)
{
    std::ostringstream out, err;
    int code = io::runHattc(args, out, err);
    if (out_text)
        *out_text = out.str() + err.str();
    return code;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A modes-only mapping to feed the cache tests. */
MappingResult
buildBtt(uint32_t modes)
{
    const MajoranaPolynomial poly(modes);
    MappingRequest req;
    req.kind = "btt";
    req.poly = &poly;
    StatusOr<MappingResult> built = MapperRegistry::instance().build(req);
    EXPECT_TRUE(built.ok()) << built.status().message();
    return std::move(built).value();
}

/** Entry files (exactly "<hash>-<kind>.json") in a cache directory,
    sorted by path. */
std::vector<fs::path>
entryFiles(const fs::path &dir)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &de : fs::directory_iterator(dir))
        if (de.is_regular_file() && de.path().extension() == ".json")
            files.push_back(de.path());
    std::sort(files.begin(), files.end());
    return files;
}

size_t
entryCount(const fs::path &dir)
{
    return entryFiles(dir).size();
}

/** `hattc cache list DIR` exits 0, lists exactly the entry files on
    disk and reports @p quarantined quarantined files. */
void
expectCacheListing(const fs::path &dir, int64_t quarantined)
{
    std::string text;
    ASSERT_EQ(run({"cache", "list", dir.string()}, &text), 0) << text;
    const JsonValue doc = JsonValue::parse(text);
    EXPECT_EQ(doc.at("entries").size(), entryCount(dir)) << text;
    EXPECT_EQ(doc.at("quarantined").asInt(), quarantined) << text;
}

TEST_F(FaultTest, SpecGrammarAcceptsAndRejects)
{
    EXPECT_EQ(fault::configure("cache.write=fail"), "");
    EXPECT_TRUE(fault::active());
    EXPECT_EQ(fault::configure("a.b=throw@3,c.d=fail@2+"), "");
    EXPECT_EQ(fault::configure(""), "");
    EXPECT_FALSE(fault::active());

    EXPECT_NE(fault::configure("noequals"), "");
    EXPECT_NE(fault::configure("=fail"), "");
    EXPECT_NE(fault::configure("p=explode"), "");
    EXPECT_NE(fault::configure("p=fail@0"), "");   // 1-based arrivals
    EXPECT_NE(fault::configure("p=fail@x"), "");
    // There is no probabilistic gate.
    EXPECT_NE(fault::configure("p=fail~0.5"), "");
    EXPECT_NE(fault::configure("p=fail@2~1"), "");
    EXPECT_NE(fault::configure("p=fail~nope"), "");
    // A bad rule disarms everything — no partially-armed registry.
    EXPECT_FALSE(fault::active());
}

TEST_F(FaultTest, ArrivalFiltersAreExact)
{
    ASSERT_EQ(fault::configure("p=fail@3"), "");
    EXPECT_EQ(fault::at("p"), fault::Action::None);
    EXPECT_EQ(fault::at("p"), fault::Action::None);
    EXPECT_EQ(fault::at("p"), fault::Action::Fail);
    EXPECT_EQ(fault::at("p"), fault::Action::None);
    EXPECT_EQ(fault::arrivals("p"), 4u);
    // Unarmed points are never hit, and cost no bookkeeping.
    EXPECT_EQ(fault::at("q"), fault::Action::None);
    EXPECT_EQ(fault::arrivals("q"), 0u);

    ASSERT_EQ(fault::configure("p=throw@2+"), "");
    EXPECT_EQ(fault::at("p"), fault::Action::None);
    EXPECT_EQ(fault::at("p"), fault::Action::Throw);
    EXPECT_EQ(fault::at("p"), fault::Action::Throw);
}

TEST_F(FaultTest, CacheWriteFailLeavesOnlyDebrisAndGcCleans)
{
    fs::path dir = scratchDir("cachewrite");
    MappingResult btt = buildBtt(4);
    {
        io::MappingCache cache((dir / "cache").string());

        // Fail dies between the durable temp write and the publish
        // rename: the entry never appears under its live name, the
        // exception is the store's clean error path, and the debris is
        // exactly what an interrupted writer leaves.
        ASSERT_EQ(fault::configure("cache.write=fail"), "");
        EXPECT_THROW(cache.store(0x1234, "btt", btt.mapping,
                                 btt.tree ? &*btt.tree : nullptr),
                     io::ParseError);
        EXPECT_EQ(entryCount(dir / "cache"), 0u);
        EXPECT_FALSE(cache.load(0x1234, "btt").has_value());
        size_t debris = 0;
        for (const fs::directory_entry &de :
             fs::directory_iterator(dir / "cache"))
            if (de.path().filename().string().find(".tmp.") !=
                std::string::npos)
                ++debris;
        EXPECT_EQ(debris, 1u);

        // Throw dies before touching disk at all.
        ASSERT_EQ(fault::configure("cache.write=throw"), "");
        EXPECT_THROW(cache.store(0x5678, "btt", btt.mapping), io::ParseError);
        EXPECT_EQ(entryCount(dir / "cache"), 0u);

        // Recovery: disarm, store, hit.
        fault::disable();
        cache.store(0x1234, "btt", btt.mapping,
                    btt.tree ? &*btt.tree : nullptr);
        EXPECT_TRUE(cache.load(0x1234, "btt").has_value());

        // gc leaves fresh debris alone — it could belong to a live
        // writer mid-publish — but sweeps it once it is an hour stale
        // (pinned via the injectable clock).
        auto debrisCount = [&] {
            size_t n = 0;
            for (const fs::directory_entry &de :
                 fs::directory_iterator(dir / "cache"))
                if (de.path().filename().string().find(".tmp.") !=
                    std::string::npos)
                    ++n;
            return n;
        };
        cache.gc({});
        EXPECT_EQ(debrisCount(), 1u);
        io::CacheGcOptions stale;
        stale.now = std::time(nullptr) + 2 * 3600;
        cache.gc(stale);
        EXPECT_EQ(debrisCount(), 0u);
    }
    expectCacheListing(dir / "cache", 0);
    fs::remove_all(dir);
}

TEST_F(FaultTest, RegistrySaveIsAdvisoryUnderWriteFault)
{
    fs::path dir = scratchDir("advisory");
    io::MappingCache cache((dir / "cache").string());

    // The registry-facing save is best-effort: a failed persist cannot
    // fail the build that produced the mapping.
    ASSERT_EQ(fault::configure("cache.write=fail"), "");
    const MajoranaPolynomial poly(4);
    MappingRequest req;
    req.kind = "btt";
    req.poly = &poly;
    req.contentHash = 0xabcd;
    StatusOr<MappingResult> built =
        MapperRegistry::instance().build(req, &cache);
    ASSERT_TRUE(built.ok()) << built.status().message();
    EXPECT_EQ(entryCount(dir / "cache"), 0u);

    // Next build without the fault repopulates the entry.
    fault::disable();
    StatusOr<MappingResult> again =
        MapperRegistry::instance().build(req, &cache);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(entryCount(dir / "cache"), 1u);
    fs::remove_all(dir);
}

TEST_F(FaultTest, CacheReadThrowQuarantinesTheEntry)
{
    fs::path dir = scratchDir("cacheread");
    const std::string cdir = (dir / "cache").string();
    MappingResult btt = buildBtt(4);
    {
        io::MappingCache cache(cdir);
        cache.store(0x9999, "btt", btt.mapping,
                    btt.tree ? &*btt.tree : nullptr);
        ASSERT_TRUE(cache.load(0x9999, "btt").has_value());

        // A read that comes back damaged is a miss, and the entry is
        // moved aside so the next run doesn't re-read the same damage.
        ASSERT_EQ(fault::configure("cache.read=throw@1"), "");
        EXPECT_FALSE(cache.load(0x9999, "btt").has_value());
        EXPECT_TRUE(cache.wasQuarantined(0x9999, "btt"));
        EXPECT_FALSE(cache.wasQuarantined(0x9999, "jw"));
        EXPECT_EQ(cache.quarantinedCount(), 1u);
        EXPECT_EQ(entryCount(dir / "cache"), 0u);

        // Past @1 the rule is spent: a fresh store round-trips.
        cache.store(0x9999, "btt", btt.mapping,
                    btt.tree ? &*btt.tree : nullptr);
        EXPECT_TRUE(cache.load(0x9999, "btt").has_value());

        // `cache list` carries the quarantine count.
        expectCacheListing(cdir, 1);

        // gc purges the quarantine directory.
        io::CacheGcStats stats = cache.gc({});
        EXPECT_EQ(stats.quarantinePurged, 1u);
        EXPECT_EQ(cache.quarantinedCount(), 0u);
        expectCacheListing(cdir, 0);
    }
    fs::remove_all(dir);
}

TEST_F(FaultTest, CacheReadFailIsAPlainMiss)
{
    fs::path dir = scratchDir("cachereadfail");
    io::MappingCache cache((dir / "cache").string());
    MappingResult btt = buildBtt(4);
    cache.store(0x4242, "btt", btt.mapping,
                btt.tree ? &*btt.tree : nullptr);

    // Fail models a transient read error: miss, entry left in place.
    ASSERT_EQ(fault::configure("cache.read=fail"), "");
    EXPECT_FALSE(cache.load(0x4242, "btt").has_value());
    EXPECT_EQ(entryCount(dir / "cache"), 1u);
    EXPECT_EQ(cache.quarantinedCount(), 0u);

    fault::disable();
    EXPECT_TRUE(cache.load(0x4242, "btt").has_value());
    fs::remove_all(dir);
}

TEST_F(FaultTest, TrulyCorruptEntryIsQuarantinedWithoutInjection)
{
    // The quarantine path the injection drives is the same one real
    // corruption takes: damage an entry on disk and watch it move.
    fs::path dir = scratchDir("corrupt");
    io::MappingCache cache((dir / "cache").string());
    MappingResult btt = buildBtt(4);
    cache.store(0x7777, "btt", btt.mapping,
                btt.tree ? &*btt.tree : nullptr);
    const std::string entry = cache.entryPath(0x7777, "btt");
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "{ torn write";
    }
    EXPECT_FALSE(cache.load(0x7777, "btt").has_value());
    EXPECT_TRUE(cache.wasQuarantined(0x7777, "btt"));
    EXPECT_EQ(cache.quarantinedCount(), 1u);
    EXPECT_FALSE(fs::exists(entry));
    // The quarantined copy preserves the damage for inspection.
    EXPECT_EQ(slurp(fs::path(cache.quarantinePath()) /
                    fs::path(entry).filename()),
              "{ torn write");
    fs::remove_all(dir);
}

TEST_F(FaultTest, ParseAllocFaultSurfacesAsCleanExit)
{
    const std::string input = dataFile("eq3.ops");
    std::string text;

    // Fail: the parser's own diagnostic path — EX_DATAERR with the
    // line number.
    ASSERT_EQ(fault::configure("parse.alloc=fail@1"), "");
    EXPECT_EQ(run({"stats", input}, &text), 65);
    EXPECT_NE(text.find("fault injected: parse.alloc"), std::string::npos)
        << text;

    // Throw models bad_alloc: EX_SOFTWARE, still a clean exit.
    ASSERT_EQ(fault::configure("parse.alloc=throw@1"), "");
    EXPECT_EQ(run({"stats", input}, &text), 70);

    // Spent rules leave the parser untouched.
    fault::disable();
    EXPECT_EQ(run({"stats", input}, &text), 0) << text;
}

TEST_F(FaultTest, PoolDispatchFaultSurfacesCleanAndPoolRecovers)
{
    // The fault fires on the calling thread before any chunk runs, so
    // it must surface as an ordinary exception with no work in flight.
    setParallelThreads(4);
    ASSERT_EQ(fault::configure("pool.dispatch=fail@1"), "");
    EXPECT_THROW(parallelFor(64, 1, [](size_t) {}), std::runtime_error);

    // The pool is not wedged: the very next dispatch succeeds.
    fault::disable();
    std::atomic<int> hits{0};
    parallelFor(64, 1, [&](size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 64);
    setParallelThreads(0);

    // Through the driver it is an internal error (EX_SOFTWARE). A
    // multi-item batch always dispatches (one chunk per work item), so
    // it is guaranteed to arrive at the injection point — before any
    // item runs, so no partial artifacts appear.
    ASSERT_EQ(fault::configure("pool.dispatch=throw@1"), "");
    std::string text;
    fs::path dir = scratchDir("dispatch");
    fs::create_directories(dir / "corpus");
    fs::copy_file(dataFile("eq3.ops"), dir / "corpus/eq3.ops");
    fs::copy_file(dataFile("h2.ops"), dir / "corpus/h2.ops");
    EXPECT_EQ(run({"batch", (dir / "corpus").string(), "--mapping", "jw",
                   "-o", (dir / "out").string()},
                  &text),
              70);
    EXPECT_NE(text.find("pool.dispatch"), std::string::npos) << text;
    EXPECT_FALSE(fs::exists(dir / "out/batch_report.json"));
    fs::remove_all(dir);
}

/**
 * Acceptance batch: a corpus holding a healthy input, a hostile
 * (malformed) input, and a deadline-expiring fh-exact item, compiled
 * with an injected cache-write fault. The batch must complete with
 * pinned per-item statuses, leave no corrupt cache entry behind, and
 * produce a batch_report.json byte-identical to the fault-free run for
 * HATT_THREADS in {1, 4}.
 */
TEST_F(FaultTest, BatchIsolatesInjectedFaultsDeterministically)
{
    fs::path dir = scratchDir("batch");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    fs::copy_file(dataFile("h2.ops"), corpus / "h2.ops");
    {
        std::ofstream os(corpus / "bad.ops");
        os << "modes 2\n1.0 [0^ 1\n"; // unclosed term: hostile input
    }
    {
        std::ofstream os(corpus / "slow5.ops");
        os << "modes 5\n";
        for (int i = 0; i < 5; ++i)
            os << "1.0 [" << i << "^ " << i << "]\n";
        for (int i = 0; i < 4; ++i)
            os << "0.5 [" << i << "^ " << (i + 1) << "]\n";
    }
    const std::string manifest = (dir / "m.txt").string();
    {
        std::ofstream os(manifest);
        os << "corpus/eq3.ops hatt\n"
           << "corpus/h2.ops hatt\n"
           << "corpus/bad.ops hatt\n"
           << "corpus/slow5.ops fh-exact\n";
    }

    auto batch = [&](const std::string &tag) {
        std::string text;
        EXPECT_EQ(run({"batch", manifest, "--timeout", "0.2", "--cache",
                       (dir / ("cache_" + tag)).string(), "-o",
                       (dir / tag).string()},
                      &text),
                  1) // bad.ops and the timeout are failed items
            << text;
        return slurp(dir / tag / "batch_report.json");
    };

    // Fault-free reference run.
    const std::string reference = batch("ref");
    ASSERT_FALSE(reference.empty());
    JsonValue doc = JsonValue::parse(reference);
    ASSERT_EQ(doc.at("inputs").size(), 4u);
    auto status = [&](size_t i) {
        return doc.at("inputs").at(i).at("status").asString();
    };
    EXPECT_EQ(status(0), "error");   // bad.ops:hatt
    EXPECT_EQ(status(1), "ok");      // eq3.ops:hatt
    EXPECT_EQ(status(2), "ok");      // h2.ops:hatt
    EXPECT_EQ(status(3), "timeout"); // slow5.ops:fh-exact
    EXPECT_EQ(doc.at("summary").at("failed").asInt(), 2);

    // Injected cache-write fault, both thread counts: every store
    // fails, no item notices (the cache is advisory), and the report
    // is byte-identical to the reference.
    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        ASSERT_EQ(fault::configure("cache.write=fail"), "");
        const std::string tag = "f" + std::to_string(threads);
        EXPECT_EQ(batch(tag), reference) << tag;
        fault::disable();
        setParallelThreads(0);

        // No corrupt entries: nothing was published, only writer debris
        // remains, and gc leaves a clean cache.
        const std::string cdir = (dir / ("cache_" + tag)).string();
        EXPECT_EQ(entryCount(dir / ("cache_" + tag)), 0u);
        std::string text;
        EXPECT_EQ(run({"cache", "gc", cdir}, &text), 0) << text;
        expectCacheListing(cdir, 0);
    }
    fs::remove_all(dir);
}

TEST_F(FaultTest, BatchReportsQuarantinedCacheAndRecovers)
{
    // A torn entry in a warm cache: the next batch quarantines it,
    // recomputes that item, reports it, and leaves the cache healthy.
    fs::path dir = scratchDir("torn");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    fs::copy_file(dataFile("eq3.ops"), corpus / "eq3.ops");
    fs::copy_file(dataFile("h2.ops"), corpus / "h2.ops");
    const fs::path cache = dir / "cache";
    std::string text;
    ASSERT_EQ(run({"batch", corpus.string(), "--cache", cache.string(),
                   "-o", (dir / "warm").string()},
                  &text),
              0)
        << text;
    ASSERT_EQ(entryCount(cache), 2u);

    std::ofstream(entryFiles(cache).front(), std::ios::trunc)
        << "{ torn write\n";

    ASSERT_EQ(run({"batch", corpus.string(), "--cache", cache.string(),
                   "-o", (dir / "torn").string()},
                  &text),
              0)
        << text;
    const JsonValue doc =
        JsonValue::parse(slurp(dir / "torn" / "batch_report.json"));
    size_t quarantined = 0;
    for (size_t i = 0; i < doc.at("inputs").size(); ++i)
        if (doc.at("inputs").at(i).at("status").asString() ==
            "quarantined_cache")
            ++quarantined;
    EXPECT_EQ(quarantined, 1u);
    EXPECT_EQ(doc.at("summary").at("failed").asInt(), 0);

    // The recompute re-published the entry; gc purges the quarantined
    // copy and the listing agrees with the directory.
    EXPECT_EQ(entryCount(cache), 2u);
    expectCacheListing(cache, 1);
    EXPECT_EQ(run({"cache", "gc", cache.string()}, &text), 0) << text;
    expectCacheListing(cache, 0);
    fs::remove_all(dir);
}

} // namespace
} // namespace hatt
