#ifndef HATT_COMMON_METRICS_HPP
#define HATT_COMMON_METRICS_HPP

/**
 * @file
 * Process-wide metrics registry with a deliberate split into two
 * sections:
 *
 *  - **Deterministic counters** (add()): integer event counts that are
 *    a pure function of the work requested — inputs parsed, monomials
 *    preprocessed, candidates evaluated, cache hits/misses, deadline
 *    expiries, fault firings. For a fixed scenario (same inputs, same
 *    configuration, same cache state) a snapshot of this section is
 *    byte-identical for every HATT_THREADS — the same contract the
 *    compiler's outputs already obey. The subset keyed `parse.*` /
 *    `preprocess.*` is additionally invariant to cache state and fault
 *    injection (it only describes the input corpus), which is why it
 *    is the subset mirrored into the byte-compared batch_report.json.
 *
 *  - **Volatile timings** (observe()): wall-clock observations — span
 *    durations, dispatch latency — aggregated as count/total/min/max.
 *    Never byte-compared; never mixed into the deterministic section.
 *
 * Counters are commutative additions under one registry mutex, so the
 * totals are independent of worker interleaving. Call sites are coarse
 * (per file, per batch, per build — never per term), keeping the cost
 * irrelevant next to the work being counted.
 *
 * reset() starts a fresh accounting scope; `hattc` resets at the top
 * of every run so one process invocation = one snapshot, the payload
 * `hattc stats --json` prints and the future hattd /stats will serve.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace hatt::metrics {

/** Aggregate of volatile wall-clock observations for one name. */
struct TimingStat
{
    uint64_t count = 0;
    double total = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Point-in-time copy of both sections, keys sorted. */
struct Snapshot
{
    std::map<std::string, uint64_t> counters; //!< deterministic
    std::map<std::string, TimingStat> timings; //!< volatile
};

/**
 * Add @p delta to the deterministic counter @p name (created at 0).
 * Only call with values that are a pure function of the requested
 * work — never with anything derived from a clock or a thread id.
 */
void add(const char *name, uint64_t delta = 1);

/** Record one volatile wall-clock observation of @p seconds. */
void observe(const char *name, double seconds);

/** Copy out both sections. */
Snapshot snapshot();

/** Clear both sections (start of a `hattc` run, tests' setup). */
void reset();

/** RAII helper: observe(name, elapsed) at scope exit. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name)
        : name_(name), start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimer()
    {
        observe(name_, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    const char *name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace hatt::metrics

#endif // HATT_COMMON_METRICS_HPP
