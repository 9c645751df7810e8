#ifndef HATT_COMMON_DEADLINE_HPP
#define HATT_COMMON_DEADLINE_HPP

/**
 * @file
 * The run budget: a monotonic-clock Deadline carried from the compile
 * request through MappingRequest, HattOptions, the tree searches and
 * the qubit-mapping engine. Default-constructed, it is unbounded.
 *
 * The protocol has two call sites with different safety requirements:
 *
 *  - Deadline::expired() — noexcept; one optional test, plus one clock
 *    read when bounded. Safe inside work-pool chunk callbacks (where an
 *    exception would escape workerLoop and terminate the process); a
 *    chunk that observes it bails out early and returns a partial
 *    result that the caller will discard.
 *
 *  - Deadline::check() — caller-thread checkpoints (step boundaries,
 *    after a dispatch returns). Throws DeadlineExceededError, which
 *    MapperRegistry::build translates into Status::DeadlineExceeded.
 *
 * Expiry is monotonic: once expired() observes an expired deadline,
 * every later check() on any thread observes it too, so early-bailing
 * workers never produce a partial result that the caller would keep.
 */

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>

namespace hatt {

/** Thrown by Deadline::check() when the time budget has expired. */
class DeadlineExceededError : public std::runtime_error
{
  public:
    explicit DeadlineExceededError(
        const std::string &what = "deadline exceeded")
        : std::runtime_error(what)
    {
    }
};

/** A monotonic-clock time budget; default-constructed = unbounded. */
class Deadline
{
  public:
    Deadline() = default;

    /** A deadline @p seconds from now (clamped at >= 0); unbounded
        when @p seconds reaches past the clock's range. */
    static Deadline after(double seconds);

    /** Worker-safe poll: true once the budget is gone. Never throws. */
    bool
    expired() const noexcept
    {
        return expiry_ && Clock::now() >= *expiry_;
    }

    /**
     * Caller-thread checkpoint. @throws DeadlineExceededError (and
     * counts `deadline.expirations`) once the budget is gone.
     */
    void check() const;

  private:
    using Clock = std::chrono::steady_clock;
    std::optional<Clock::time_point> expiry_;
};

} // namespace hatt

#endif // HATT_COMMON_DEADLINE_HPP
