#include "common/deadline.hpp"

#include "common/metrics.hpp"

namespace hatt {

Deadline
Deadline::after(double seconds)
{
    if (seconds < 0.0)
        seconds = 0.0;
    const Clock::time_point now = Clock::now();
    // A budget past the clock's range cannot expire, and duration_cast
    // would overflow the tick count: it is unbounded. Half the range
    // (still about a century) keeps the double rounding clear of it.
    const double range =
        std::chrono::duration<double>(Clock::time_point::max() - now)
            .count();
    if (!(seconds < range / 2))
        return Deadline();
    Deadline d;
    d.expiry_ = now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    return d;
}

void
Deadline::check() const
{
    // Counted at the throw site, not per poll: a poll that passes is
    // the overwhelmingly common case and carries no signal.
    if (expired()) {
        metrics::add("deadline.expirations");
        throw DeadlineExceededError();
    }
}

} // namespace hatt
