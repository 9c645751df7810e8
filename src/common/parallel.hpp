#ifndef HATT_COMMON_PARALLEL_HPP
#define HATT_COMMON_PARALLEL_HPP

/**
 * @file
 * Reusable work pool for the embarrassingly-parallel scans (HATT candidate
 * scans, stochastic-search restarts, benchmark sweeps).
 *
 * Design constraints, in order:
 *  1. Determinism: parallelReduceChunks combines per-chunk results in chunk
 *     index order with a caller-supplied associative combiner, so results
 *     are identical for every thread count (including 1).
 *  2. Zero overhead when serial: with one thread (or a small range) no
 *     worker is woken and everything runs inline in the caller.
 *  3. Reuse: a single lazily-started pool serves the whole process; thread
 *     count comes from HATT_THREADS or hardware_concurrency and can be
 *     overridden at runtime (tests sweep it to prove determinism).
 */

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace hatt {

/** Persistent worker pool; use through parallelFor / parallelReduceChunks. */
class WorkPool
{
  public:
    static WorkPool &
    instance()
    {
        static WorkPool pool;
        return pool;
    }

    ~WorkPool() { stopWorkers(); }

    unsigned
    threads()
    {
        std::lock_guard<std::mutex> lock(config_mutex_);
        return threads_;
    }

    /** Override the worker count (0 restores the environment default). */
    void
    setThreads(unsigned n)
    {
        std::lock_guard<std::mutex> lock(config_mutex_);
        stopWorkers();
        threads_ = n == 0 ? defaultThreads() : n;
    }

    /**
     * Run @p fn(chunk) for every chunk in [0, chunks); the caller
     * participates. Chunks are claimed dynamically, so @p fn must not
     * depend on which thread executes it. Nested calls (a task body
     * dispatching again, on a worker or the dispatching caller) run
     * inline rather than deadlocking on the pool.
     */
    void
    dispatch(size_t chunks, const std::function<void(size_t)> &fn)
    {
        if (chunks == 0)
            return;
        // Injection point: a dispatch that cannot be serviced. Fired on
        // the calling thread, before any chunk runs, so the failure is a
        // clean exception with no work in flight (fail and throw model
        // the same fault here).
        if (fault::at("pool.dispatch") != fault::Action::None)
            throw std::runtime_error(
                "fault injected: pool.dispatch refused");
        trace::Span span("pool", "dispatch");
        metrics::ScopedTimer dispatch_timer("pool.dispatch_seconds");
        unsigned th;
        {
            std::lock_guard<std::mutex> lock(config_mutex_);
            th = threads_;
            if (th > 1 && !insidePool())
                startWorkers();
        }
        if (th <= 1 || chunks == 1 || insidePool()) {
            for (size_t c = 0; c < chunks; ++c)
                fn(c);
            return;
        }

        // One top-level job at a time; config_mutex_ is NOT held while the
        // job runs, so task bodies may query/alter the configuration.
        std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);

        // Each dispatch gets its OWN counter block: a worker that is
        // still draining a previous job can only ever observe that job's
        // (exhausted) counters, never this one's, so back-to-back
        // dispatches cannot race on a shared chunk index.
        auto job = std::make_shared<Job>();
        job->fn = &fn;
        job->chunks = chunks;
        job->pending.store(chunks, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> job_lock(job_mutex_);
            job_ = job;
            ++generation_;
        }
        job_cv_.notify_all();

        insidePool() = true;
        runChunks(*job);
        insidePool() = false;

        std::unique_lock<std::mutex> job_lock(job_mutex_);
        done_cv_.wait(job_lock, [&] {
            return job->pending.load(std::memory_order_acquire) == 0;
        });
        job_.reset();
    }

  private:
    struct Job
    {
        const std::function<void(size_t)> *fn = nullptr;
        size_t chunks = 0;
        std::atomic<size_t> next{0};
        std::atomic<size_t> pending{0};
    };

    WorkPool() : threads_(defaultThreads()) {}

    /** True on pool workers and inside a dispatching caller's job. */
    static bool &
    insidePool()
    {
        static thread_local bool inside = false;
        return inside;
    }

    static unsigned
    defaultThreads()
    {
        if (const char *env = std::getenv("HATT_THREADS")) {
            long v = std::strtol(env, nullptr, 10);
            if (v >= 1)
                return static_cast<unsigned>(v);
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }

    void
    runChunks(Job &job)
    {
        for (;;) {
            size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
            if (c >= job.chunks)
                break;
            (*job.fn)(c);
            if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> job_lock(job_mutex_);
                done_cv_.notify_all();
            }
        }
    }

    void
    startWorkers() // requires config_mutex_
    {
        if (!workers_.empty())
            return;
        stop_ = false;
        for (unsigned t = 1; t < threads_; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    stopWorkers() // requires config_mutex_ (or destruction)
    {
        if (workers_.empty())
            return;
        {
            std::lock_guard<std::mutex> job_lock(job_mutex_);
            stop_ = true;
            ++generation_;
        }
        job_cv_.notify_all();
        for (auto &w : workers_)
            w.join();
        workers_.clear();
    }

    void
    workerLoop()
    {
        insidePool() = true; // nested dispatches from task bodies go inline
        uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                std::unique_lock<std::mutex> job_lock(job_mutex_);
                job_cv_.wait(job_lock,
                             [&] { return stop_ || generation_ != seen; });
                seen = generation_;
                if (stop_)
                    return;
                job = job_; // shared_ptr keeps the counters alive even if
                            // the dispatch finishes while we drain
            }
            if (job)
                runChunks(*job);
        }
    }

    std::mutex config_mutex_;
    std::mutex dispatch_mutex_;
    unsigned threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex job_mutex_;
    std::condition_variable job_cv_;
    std::condition_variable done_cv_;
    std::shared_ptr<Job> job_;
    uint64_t generation_ = 0;
    bool stop_ = false;
};

/** Current worker count (>= 1). */
inline unsigned
parallelThreads()
{
    return WorkPool::instance().threads();
}

/** Override the worker count; 0 restores the HATT_THREADS/hardware default. */
inline void
setParallelThreads(unsigned n)
{
    WorkPool::instance().setThreads(n);
}

namespace detail {

inline size_t
chunkCount(size_t n, size_t grain)
{
    if (grain == 0)
        grain = 1;
    return (n + grain - 1) / grain;
}

} // namespace detail

/**
 * Run @p body(i) for i in [0, n). Iterations are grouped into chunks of
 * @p grain; ranges smaller than one grain run inline.
 */
template <typename Body>
void
parallelFor(size_t n, size_t grain, Body &&body)
{
    // Deterministic pool accounting: call sites and element counts are
    // pure functions of the workload (chunk counts are NOT — grains may
    // scale with the thread count — so chunks are never counted here).
    metrics::add("pool.parallel_ops");
    metrics::add("pool.parallel_items", n);
    const size_t chunks = detail::chunkCount(n, grain);
    if (chunks <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::function<void(size_t)> chunk_fn = [&](size_t c) {
        const size_t lo = c * grain;
        const size_t hi = std::min(n, lo + grain);
        for (size_t i = lo; i < hi; ++i)
            body(i);
    };
    WorkPool::instance().dispatch(chunks, chunk_fn);
}

/**
 * Deterministic parallel reduction: @p chunk(lo, hi) maps each index range
 * to a partial result; partials are folded with @p combine in chunk index
 * order. With an associative @p combine the result is bit-identical for
 * every thread count. Partials are MOVED into the fold, so heavy results
 * (e.g. per-chunk PauliSum accumulators) merge without deep copies —
 * @p combine may take its arguments by value and splice freely.
 */
template <typename Result, typename ChunkFn, typename CombineFn>
Result
parallelReduceChunks(size_t n, size_t grain, Result identity, ChunkFn &&chunk,
                     CombineFn &&combine)
{
    metrics::add("pool.parallel_ops");
    metrics::add("pool.parallel_items", n);
    const size_t chunks = detail::chunkCount(n, grain);
    if (chunks <= 1)
        return n == 0 ? identity : chunk(size_t{0}, n);

    std::vector<Result> partial(chunks, identity);
    std::function<void(size_t)> chunk_fn = [&](size_t c) {
        const size_t lo = c * grain;
        const size_t hi = std::min(n, lo + grain);
        partial[c] = chunk(lo, hi);
    };
    WorkPool::instance().dispatch(chunks, chunk_fn);

    Result out = std::move(identity);
    for (size_t c = 0; c < chunks; ++c)
        out = combine(std::move(out), std::move(partial[c]));
    return out;
}

} // namespace hatt

#endif // HATT_COMMON_PARALLEL_HPP
