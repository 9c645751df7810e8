#include "common/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "common/buildinfo.hpp"
#include "common/json_writer.hpp"

namespace hatt::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Event
{
    std::string name;
    const char *category;
    char phase; //!< 'B' | 'E' | 'i'
    double tsUs;
    int tid;
};

struct Registry
{
    std::mutex mutex;
    std::string path;
    std::map<std::string, std::string> metadata;
    /** Every thread's closed spans and instants, in record order. A
        thread that has exited leaves its events here for the next
        flush(). */
    std::vector<Event> events;
    std::atomic<uint64_t> generation{1};
    std::atomic<int> nextTid{0};
    Clock::time_point epoch{};
};

/** 0 = uninitialized, 1 = disarmed, 2 = armed. */
std::atomic<int> g_state{0};

Registry &
registry()
{
    static Registry r;
    return r;
}

double
nowUs(const Registry &r)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     r.epoch)
        .count();
}

/** This thread's dense id, assigned at its first recorded event. */
int
threadId()
{
    thread_local const int tid =
        registry().nextTid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

/** Arm with @p path; registry mutex held by the caller. */
void
armLocked(Registry &r, const std::string &path)
{
    r.path = path;
    r.epoch = Clock::now();
    r.generation.fetch_add(1, std::memory_order_relaxed);
    r.events.clear();
    g_state.store(2, std::memory_order_release);
}

void
initFromEnv()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (g_state.load(std::memory_order_relaxed) != 0)
        return; // lost the race; someone else initialized
    const char *env = std::getenv("HATT_TRACE");
    if (env != nullptr && *env != '\0') {
        armLocked(r, env);
        // Env-armed runs have no driver calling flush(); write the
        // file when the process exits instead.
        std::atexit([] { flush(); });
    } else {
        g_state.store(1, std::memory_order_release);
    }
}

/** Armed right now? Self-initializes from HATT_TRACE on first call. */
bool
armedState()
{
    int state = g_state.load(std::memory_order_relaxed);
    if (state == 0) {
        initFromEnv();
        state = g_state.load(std::memory_order_relaxed);
    }
    return state == 2;
}

} // namespace

bool
active()
{
    return armedState();
}

void
configure(const std::string &path)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (path.empty()) {
        r.path.clear();
        r.metadata.clear();
        r.generation.fetch_add(1, std::memory_order_relaxed);
        r.events.clear();
        g_state.store(1, std::memory_order_release);
        return;
    }
    armLocked(r, path);
}

std::string
outputPath()
{
    if (!armedState())
        return {};
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.path;
}

void
metadata(const std::string &key, const std::string &value)
{
    if (!armedState())
        return;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.metadata[key] = value;
}

bool
flush()
{
    if (!armedState())
        return false;
    Registry &r = registry();
    std::string path;
    std::vector<Event> events;
    std::map<std::string, std::string> meta;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        if (g_state.load(std::memory_order_relaxed) != 2)
            return false;
        // Invalidate open spans: one closing after this point sees the
        // new generation and drops its B/E pair whole, so the window
        // taken here cannot hold an unbalanced half.
        r.generation.fetch_add(1, std::memory_order_relaxed);
        events.swap(r.events);
        path = r.path;
        meta = r.metadata;
    }
    // The file is written outside the lock: spans closing meanwhile
    // record into the next window without waiting on file I/O.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.tsUs < b.tsUs;
                     });
    meta.insert({{"git_sha", buildinfo::kGitSha},
                  {"compiler", buildinfo::kCompiler},
                  {"build_type", buildinfo::kBuildType},
                  {"flags", buildinfo::kFlags}});

    // One event per line: a compact layout of its own, written through
    // the JsonWriter's top-level values.
    try {
        writeJsonFile(path, -1, /*durable=*/false, [&](JsonWriter &w) {
            w.raw("{\n\"traceEvents\": [");
            bool first = true;
            for (const Event &e : events) {
                w.raw(first ? "\n" : ",\n");
                first = false;
                w.raw("{\"name\": ");
                w.string(e.name);
                w.raw(", \"cat\": ");
                w.string(e.category);
                w.raw(", \"ph\": ");
                w.string(std::string_view(&e.phase, 1));
                w.raw(", \"ts\": ");
                w.number(e.tsUs);
                w.raw(", \"pid\": 1, \"tid\": ");
                w.number(e.tid);
                if (e.phase == 'i')
                    w.raw(", \"s\": \"t\"");
                w.raw("}");
            }
            w.raw("\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
            first = true;
            for (const auto &[key, value] : meta) {
                w.raw(first ? "\n" : ",\n");
                first = false;
                w.string(key);
                w.raw(": ");
                w.string(value);
            }
            w.raw("\n}\n}\n");
        });
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

void
instant(const char *category, const std::string &name)
{
    if (!armedState())
        return;
    Registry &r = registry();
    const double ts_us = nowUs(r);
    const int tid = threadId();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.events.push_back(Event{name, category, 'i', ts_us, tid});
}

Span::Span(const char *category, const char *name)
{
    if (g_state.load(std::memory_order_relaxed) == 1)
        return; // disarmed: the one-load fast path
    if (!armedState())
        return;
    literal_ = name;
    open(category);
}

Span::Span(const char *category, std::string name)
{
    if (g_state.load(std::memory_order_relaxed) == 1)
        return;
    if (!armedState())
        return;
    name_ = std::move(name);
    open(category);
}

void
Span::open(const char *category)
{
    Registry &r = registry();
    armed_ = true;
    category_ = category;
    generation_ = r.generation.load(std::memory_order_relaxed);
    startUs_ = nowUs(r);
}

Span::~Span()
{
    if (!armed_)
        return;
    Registry &r = registry();
    const double end_us = nowUs(r);
    std::string name = literal_ != nullptr ? std::string(literal_)
                                           : std::move(name_);
    const int tid = threadId();
    std::lock_guard<std::mutex> lock(r.mutex);
    // A flush()/configure() between open and close invalidated this
    // span: drop the whole pair rather than emit an orphan half.
    if (r.generation.load(std::memory_order_relaxed) != generation_)
        return;
    r.events.push_back(Event{name, category_, 'B', startUs_, tid});
    r.events.push_back(Event{std::move(name), category_, 'E', end_us, tid});
}

} // namespace hatt::trace
