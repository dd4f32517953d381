#include "sim/daemon.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mclock {
namespace sim {

void
DaemonScheduler::add(std::string name, SimTime interval,
                     std::function<void(SimTime)> fn)
{
    MCLOCK_ASSERT(interval > 0);
    Entry e;
    e.name = std::move(name);
    e.interval = interval;
    e.nextWake = interval;  // first wake one period after start
    e.fn = std::move(fn);
    daemons_.push_back(std::move(e));
    recomputeNextDue();
}

void
DaemonScheduler::runDue(SimTime now)
{
    while (nextDue_ <= now) {
        // Find the earliest due daemon and run it.
        Entry *due = nullptr;
        for (auto &e : daemons_) {
            if (e.nextWake <= now &&
                (!due || e.nextWake < due->nextWake)) {
                due = &e;
            }
        }
        if (!due)
            break;
        const SimTime wake = due->nextWake;
        due->nextWake += due->interval;
        due->fn(wake);
        recomputeNextDue();
    }
}

void
DaemonScheduler::recomputeNextDue()
{
    nextDue_ = std::numeric_limits<SimTime>::max();
    for (const auto &e : daemons_)
        nextDue_ = std::min(nextDue_, e.nextWake);
}

}  // namespace sim
}  // namespace mclock
