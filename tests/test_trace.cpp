/**
 * @file
 * Tests of the observability layer: the trace spans (common/trace) and
 * the metrics registry (common/metrics), plus their hattc surfaces.
 * Pins the two contracts ROADMAP records for this layer:
 *
 *  - a flushed trace is valid JSON with structurally balanced B/E
 *    pairs (span begin/end are enqueued together at span close), and a
 *    `hattc --trace` compile emits the parse/preprocess/map/emit
 *    driver spans;
 *  - the deterministic counter section of `hattc stats --json` is
 *    byte-identical across HATT_THREADS, and the mapping.candidates
 *    witness is identical between a cold and a warm cache batch run
 *    (the parse./preprocess. mirror's cold/warm invariance is pinned
 *    by test_hattc's batch_report byte-compare).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::JsonValue;

std::string
dataFile(const std::string &name)
{
    return std::string(HATT_DATA_DIR) + "/" + name;
}

fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("hatt_trace_test_" + tag + "_" +
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

/** Per-test arming/disarming so tests cannot leak an armed tracer. */
struct TraceScope
{
    explicit TraceScope(const std::string &path) { trace::configure(path); }
    ~TraceScope() { trace::configure(""); }
};

// ----------------------------------------------------------------- trace

TEST(Trace, DisarmedIsInertAndFlushReturnsFalse)
{
    trace::configure("");
    EXPECT_FALSE(trace::active());
    EXPECT_EQ(trace::outputPath(), "");
    {
        trace::Span span("test", "noop");
        trace::instant("test", "noop");
    }
    EXPECT_FALSE(trace::flush());
}

TEST(Trace, FlushWritesValidJsonWithBalancedSpans)
{
    fs::path dir = scratchDir("balanced");
    const std::string file = (dir / "trace.json").string();
    {
        TraceScope scope(file);
        ASSERT_TRUE(trace::active());
        EXPECT_EQ(trace::outputPath(), file);
        trace::metadata("note", "unit \"quoted\" \\ value");
        {
            trace::Span outer("test", "outer");
            trace::Span inner("test", std::string("inner:dyn"));
            trace::instant("test", "marker");
        }
        // Spans closed on another thread land in that thread's buffer
        // and must survive the thread's exit.
        std::thread worker([] { trace::Span span("test", "worker"); });
        worker.join();
        ASSERT_TRUE(trace::flush());
    }

    JsonValue doc = io::loadJsonFile(file);
    const auto &events = doc.at("traceEvents").asArray();
    size_t begins = 0, ends = 0, instants = 0;
    std::vector<std::string> names;
    for (const JsonValue &e : events) {
        const std::string ph = e.at("ph").asString();
        EXPECT_FALSE(e.at("name").asString().empty());
        EXPECT_FALSE(e.at("cat").asString().empty());
        EXPECT_GE(e.at("ts").asNumber(), 0.0);
        if (ph == "B")
            ++begins;
        else if (ph == "E")
            ++ends;
        else if (ph == "i")
            ++instants;
        else
            ADD_FAILURE() << "unexpected phase " << ph;
        names.push_back(e.at("name").asString());
    }
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(begins, 3u); // outer, inner:dyn, worker
    EXPECT_EQ(instants, 1u);
    // Events are globally sorted by timestamp.
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].at("ts").asNumber(),
                  events[i].at("ts").asNumber());
    // Build provenance + user metadata land in otherData.
    const JsonValue &other = doc.at("otherData");
    EXPECT_FALSE(other.at("git_sha").asString().empty());
    EXPECT_FALSE(other.at("compiler").asString().empty());
    EXPECT_EQ(other.at("note").asString(), "unit \"quoted\" \\ value");
    fs::remove_all(dir);
}

TEST(Trace, SpanOpenAcrossFlushIsDroppedWhole)
{
    fs::path dir = scratchDir("openspan");
    const std::string file = (dir / "trace.json").string();
    TraceScope scope(file);
    {
        trace::Span open_span("test", "straddles-flush");
        { trace::Span closed("test", "closed"); }
        ASSERT_TRUE(trace::flush());
        // open_span's dtor runs after the flush bumped the generation:
        // it must contribute nothing to the next window.
    }
    ASSERT_TRUE(trace::flush());
    JsonValue doc = io::loadJsonFile(file);
    EXPECT_TRUE(doc.at("traceEvents").asArray().empty());
    fs::remove_all(dir);
}

/** Open @p depth nested spans on this thread and close them. */
void
nestSpans(int depth)
{
    if (depth == 0)
        return;
    trace::Span span("test", "nested");
    nestSpans(depth - 1);
}

TEST(Trace, ConcurrentSpansStayBalanced)
{
    fs::path dir = scratchDir("concurrent");
    const std::string file = (dir / "trace.json").string();
    constexpr int kThreads = 8;
    constexpr int kDepth = 40;
    {
        TraceScope scope(file);
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t)
            workers.emplace_back([] { nestSpans(kDepth); });
        for (std::thread &w : workers)
            w.join();
        // Every worker has exited: its spans still reach the file.
        ASSERT_TRUE(trace::flush());
    }

    JsonValue doc = io::loadJsonFile(file);
    std::map<double, int> depth_by_tid;
    size_t begins = 0, ends = 0;
    for (const JsonValue &e : doc.at("traceEvents").asArray()) {
        ASSERT_EQ(e.at("name").asString(), "nested");
        int &depth = depth_by_tid[e.at("tid").asNumber()];
        if (e.at("ph").asString() == "B") {
            ++begins;
            ++depth;
        } else {
            ASSERT_EQ(e.at("ph").asString(), "E");
            ++ends;
            // Sorted by time, each thread's events nest properly.
            ASSERT_GT(depth, 0);
            --depth;
        }
    }
    EXPECT_EQ(begins, size_t{kThreads * kDepth});
    EXPECT_EQ(ends, size_t{kThreads * kDepth});
    EXPECT_EQ(depth_by_tid.size(), size_t{kThreads});
    for (const auto &[tid, depth] : depth_by_tid)
        EXPECT_EQ(depth, 0) << "tid " << tid;
    fs::remove_all(dir);
}

TEST(Trace, HattcTraceCompileEmitsDriverSpans)
{
    fs::path dir = scratchDir("hattc");
    // Besides the sample input, a generated 10-mode input of 10^4
    // two-body terms: large enough that any buffered preprocessing
    // would flush (and open spans) while the file is still being read.
    const fs::path big = dir / "dense10.ops";
    {
        std::ofstream out(big);
        out << "modes 10\n";
        int k = 0;
        for (int p = 0; p < 10; ++p)
            for (int q = 0; q < 10; ++q)
                for (int r = 0; r < 10; ++r)
                    for (int t = 0; t < 10; ++t)
                        out << 0.01 * (1 + (k++ % 7)) << " [" << p << "^ "
                            << q << "^ " << r << " " << t << "]\n";
    }

    for (const std::string &input : {dataFile("h2.ops"), big.string()}) {
        SCOPED_TRACE(input);
        const std::string file = (dir / "trace.json").string();
        ASSERT_EQ(run({"--trace", file, "compile", input, "-o",
                       (dir / "out").string()}),
                  0);
        trace::configure(""); // do not leak arming into later tests

        JsonValue doc = io::loadJsonFile(file);
        size_t begins = 0, ends = 0;
        std::vector<std::string> names;
        std::map<std::string, std::pair<double, double>> driver; // B, E
        std::vector<double> starts;
        for (const JsonValue &e : doc.at("traceEvents").asArray()) {
            const std::string ph = e.at("ph").asString();
            const std::string name = e.at("name").asString();
            const double ts = e.at("ts").asNumber();
            begins += ph == "B";
            ends += ph == "E";
            names.push_back(name);
            if (ph == "B" && name != "parse")
                starts.push_back(ts);
            if (e.at("cat").asString() == "driver")
                (ph == "B" ? driver[name].first : driver[name].second) = ts;
        }
        EXPECT_EQ(begins, ends);
        // The acceptance spans: parse -> preprocess -> map -> emit.
        for (const char *want : {"parse", "preprocess", "map", "emit"})
            EXPECT_NE(std::find(names.begin(), names.end(), want),
                      names.end())
                << want;
        // parse is one layer: nothing else starts inside it, and it
        // closes before preprocess opens.
        const auto [parse_b, parse_e] = driver["parse"];
        for (double ts : starts)
            EXPECT_FALSE(ts > parse_b && ts < parse_e)
                << "a span starts inside parse at ts=" << ts;
        EXPECT_LE(parse_e, driver["preprocess"].first);
        // The command line is recorded for provenance.
        const std::string cmd =
            doc.at("otherData").at("command").asString();
        EXPECT_NE(cmd.find("compile"), std::string::npos);
    }
    fs::remove_all(dir);
}

// --------------------------------------------------------------- metrics

TEST(Metrics, RegistrySplitsDeterministicFromVolatile)
{
    metrics::reset();
    metrics::add("test.counter");
    metrics::add("test.counter", 4);
    metrics::observe("test.seconds", 0.5);
    metrics::observe("test.seconds", 0.25);
    { metrics::ScopedTimer timer("test.scoped_seconds"); }

    metrics::Snapshot snap = metrics::snapshot();
    EXPECT_EQ(snap.counters.at("test.counter"), 5u);
    EXPECT_EQ(snap.counters.count("test.seconds"), 0u);
    const metrics::TimingStat &t = snap.timings.at("test.seconds");
    EXPECT_EQ(t.count, 2u);
    EXPECT_DOUBLE_EQ(t.total, 0.75);
    EXPECT_DOUBLE_EQ(t.min, 0.25);
    EXPECT_DOUBLE_EQ(t.max, 0.5);
    EXPECT_EQ(snap.timings.at("test.scoped_seconds").count, 1u);

    metrics::reset();
    snap = metrics::snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.timings.empty());
}

/** The metrics.deterministic subtree of `hattc stats --json`, dumped. */
std::string
deterministicSection(const std::string &stats_json)
{
    JsonValue doc = JsonValue::parse(stats_json);
    return doc.at("metrics").at("deterministic").dump(2);
}

TEST(Metrics, StatsDeterministicSectionInvariantAcrossThreads)
{
    const std::string input = dataFile("h2.ops");

    setParallelThreads(1);
    std::string stats1;
    ASSERT_EQ(run({"stats", "--json", input}, &stats1), 0);
    setParallelThreads(4);
    std::string stats4;
    ASSERT_EQ(run({"stats", "--json", input}, &stats4), 0);
    setParallelThreads(0);

    const std::string det1 = deterministicSection(stats1);
    EXPECT_EQ(det1, deterministicSection(stats4));
    EXPECT_NE(det1.find("parse.files"), std::string::npos);
    EXPECT_NE(det1.find("preprocess.majorana_monomials"),
              std::string::npos);
}

TEST(Metrics, BatchSnapshotColdWarmInvariants)
{
    fs::path dir = scratchDir("coldwarm");
    fs::path corpus = dir / "corpus";
    fs::create_directories(corpus);
    fs::copy_file(dataFile("h2.ops"), corpus / "h2.ops");
    const std::string cache = (dir / "cache").string();

    auto batch_metrics = [&](const std::string &tag) {
        const std::string out = (dir / tag).string();
        EXPECT_EQ(run({"batch", corpus.string(), "-o", out, "--cache",
                       cache}),
                  0);
        return io::loadJsonFile(out + "/batch_stats.json").at("metrics");
    };
    JsonValue cold = batch_metrics("cold");
    JsonValue warm = batch_metrics("warm");

    const JsonValue &cd = cold.at("deterministic");
    const JsonValue &wd = warm.at("deterministic");
    // Cache provenance flips between the runs...
    EXPECT_EQ(cd.at("mapping.cache_misses").asInt(), 1);
    EXPECT_EQ(cd.find("mapping.cache_hits"), nullptr);
    EXPECT_EQ(wd.at("mapping.cache_hits").asInt(), 1);
    EXPECT_EQ(wd.find("mapping.cache_misses"), nullptr);
    EXPECT_EQ(cd.at("cache.stores").asInt(), 1);
    // ...but the workload counters and the candidates witness cannot:
    // a hit must report the same work description the build recorded.
    EXPECT_EQ(cd.at("mapping.candidates").asInt(),
              wd.at("mapping.candidates").asInt());
    for (const char *key :
         {"parse.files", "parse.fermion_terms",
          "preprocess.majorana_monomials", "map.monomials"})
        EXPECT_EQ(cd.at(key).asInt(), wd.at(key).asInt()) << key;
    // The volatile section stays out of the deterministic one.
    EXPECT_GT(warm.at("volatile")
                  .at("mapping.cache_lookup_seconds")
                  .at("count")
                  .asInt(),
              0);
    fs::remove_all(dir);
}

} // namespace
} // namespace hatt
