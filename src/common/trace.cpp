#include "common/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
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

/**
 * One per thread, owned jointly by the thread (thread_local
 * shared_ptr) and the registry, so events recorded by a worker that
 * has since exited still reach the next flush().
 */
struct ThreadBuf
{
    std::mutex mutex;
    std::vector<Event> events;
    int tid = 0;
};

struct Registry
{
    std::mutex mutex;
    std::string path;
    std::map<std::string, std::string> metadata;
    std::vector<std::shared_ptr<ThreadBuf>> buffers;
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

ThreadBuf &
threadBuf()
{
    thread_local std::shared_ptr<ThreadBuf> buf;
    if (!buf) {
        buf = std::make_shared<ThreadBuf>();
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        buf->tid = r.nextTid.fetch_add(1, std::memory_order_relaxed);
        r.buffers.push_back(buf);
    }
    return *buf;
}

/** Arm with @p path; registry mutex held by the caller. */
void
armLocked(Registry &r, const std::string &path)
{
    r.path = path;
    r.epoch = Clock::now();
    r.generation.fetch_add(1, std::memory_order_relaxed);
    for (const std::shared_ptr<ThreadBuf> &buf : r.buffers) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        buf->events.clear();
    }
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

void
record(char phase, const char *category, std::string name, double ts_us)
{
    ThreadBuf &buf = threadBuf();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back(
        Event{std::move(name), category, phase, ts_us, buf.tid});
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
        for (const std::shared_ptr<ThreadBuf> &buf : r.buffers) {
            std::lock_guard<std::mutex> buf_lock(buf->mutex);
            buf->events.clear();
        }
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
    std::lock_guard<std::mutex> lock(r.mutex);
    if (g_state.load(std::memory_order_relaxed) != 2)
        return false;
    // Invalidate open spans first: a span closing mid-flush sees the
    // new generation and drops its B/E pair whole, so the file below
    // cannot contain an unbalanced half.
    r.generation.fetch_add(1, std::memory_order_relaxed);
    std::vector<Event> events;
    for (const std::shared_ptr<ThreadBuf> &buf : r.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        events.insert(events.end(),
                      std::make_move_iterator(buf->events.begin()),
                      std::make_move_iterator(buf->events.end()));
        buf->events.clear();
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.tsUs < b.tsUs;
                     });

    std::map<std::string, std::string> meta;
    meta["git_sha"] = buildinfo::kGitSha;
    meta["compiler"] = buildinfo::kCompiler;
    meta["build_type"] = buildinfo::kBuildType;
    meta["flags"] = buildinfo::kFlags;
    for (const auto &[key, value] : r.metadata)
        meta[key] = value;

    // One event per line: a compact layout of its own, written through
    // the JsonWriter's top-level values.
    try {
        writeJsonFile(r.path, -1, /*durable=*/false, [&](JsonWriter &w) {
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
    record('i', category, name, nowUs(registry()));
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
    // A flush()/configure() between open and close invalidated this
    // span: drop the whole pair rather than emit an orphan half.
    if (r.generation.load(std::memory_order_relaxed) != generation_)
        return;
    const double end_us = nowUs(r);
    std::string name = literal_ != nullptr ? std::string(literal_)
                                           : std::move(name_);
    record('B', category_, name, startUs_);
    record('E', category_, std::move(name), end_us);
}

} // namespace hatt::trace
