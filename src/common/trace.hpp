#ifndef HATT_COMMON_TRACE_HPP
#define HATT_COMMON_TRACE_HPP

/**
 * @file
 * Process-wide execution tracing: RAII scoped spans and instant events
 * collected into one event buffer under one mutex and flushed as one
 * Chrome trace-event JSON file (load it in chrome://tracing or
 * https://ui.perfetto.dev).
 *
 * Arming:
 *  - `HATT_TRACE=<file>` arms tracing on first use and flushes the
 *    file at process exit, or
 *  - `trace::configure(path)` arms it programmatically (what
 *    `hattc --trace FILE` does), with `trace::flush()` writing the
 *    file on demand.
 *
 * Cost when unset: a single relaxed atomic load per span — no locks,
 * no clock reads, no allocation — the same disarmed idiom as
 * fault.hpp, proven within baseline noise on the PauliString multiply
 * hot path by the `pauli_multiply_64q_span_*` bench record.
 *
 * Span begin/end ("B"/"E") events are enqueued together, under the
 * buffer's lock, when the span closes, so a flushed trace always holds
 * balanced B/E pairs; a span still open when flush() runs is dropped
 * whole (its generation is invalidated), never emitted half. Events carry microsecond
 * timestamps relative to arming time and a small dense thread id
 * assigned at first use per thread.
 */

#include <cstdint>
#include <string>

namespace hatt::trace {

/** True when tracing is armed (env or configure()). */
bool active();

/**
 * Arm tracing with output file @p path; an empty path disarms and
 * discards any buffered events. Either way every already-open Span is
 * invalidated and all buffers start empty.
 */
void configure(const std::string &path);

/** The armed output path ("" when disarmed). */
std::string outputPath();

/**
 * Attach @p key = @p value to the trace's `otherData` metadata object
 * (build info is stamped automatically). No-op when disarmed.
 */
void metadata(const std::string &key, const std::string &value);

/**
 * Take the buffered events (every thread's, exited threads included),
 * sort them by timestamp and write the Chrome trace JSON to the
 * configured path; the buffer starts the next window empty. The file
 * is written outside the lock, so spans closing meanwhile never wait
 * on it. Returns false when disarmed or the file cannot be written.
 * Spans still open across the flush are dropped whole.
 */
bool flush();

/** Record an instant event (a vertical marker in the viewer). */
void instant(const char *category, const std::string &name);

/**
 * RAII scoped span: marks the bracketing B/E pair for the enclosing
 * scope. The literal-name constructor does no work at all when
 * tracing is disarmed (one relaxed atomic load), so spans are safe on
 * warm paths; the std::string overload is for coarse dynamically
 * named scopes (batch items, per-kind builds).
 */
class Span
{
  public:
    Span(const char *category, const char *name);
    Span(const char *category, std::string name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open(const char *category);

    bool armed_ = false;
    uint64_t generation_ = 0;
    double startUs_ = 0.0;
    const char *category_ = nullptr;
    const char *literal_ = nullptr; //!< literal-name ctor
    std::string name_;              //!< dynamic-name ctor
};

} // namespace hatt::trace

#endif // HATT_COMMON_TRACE_HPP
