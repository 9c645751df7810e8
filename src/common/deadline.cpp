#include "common/deadline.hpp"

#include "common/metrics.hpp"

namespace hatt {

Deadline
Deadline::after(double seconds)
{
    if (seconds < 0.0)
        seconds = 0.0;
    Deadline d;
    d.expiry_ = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
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
