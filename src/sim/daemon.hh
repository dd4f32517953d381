/**
 * @file
 * Periodic daemon scheduling (kpromoted, kswapd, profiling threads).
 *
 * Daemons are kernel threads that wake on a fixed interval of simulated
 * time. The simulator dispatches any due daemons before advancing the
 * clock past their wake times, so daemon activity interleaves with
 * application accesses at the right simulated instants.
 */

#ifndef MCLOCK_SIM_DAEMON_HH_
#define MCLOCK_SIM_DAEMON_HH_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "base/types.hh"

namespace mclock {
namespace sim {

/** Registry and dispatcher for periodic daemons. */
class DaemonScheduler
{
  public:
    /**
     * Register a daemon.
     *
     * @param name     diagnostic name ("kpromoted")
     * @param interval wake period in simulated ns
     * @param fn       body, invoked with the wake time
     */
    void add(std::string name, SimTime interval,
             std::function<void(SimTime)> fn);

    /** Earliest pending wake time, or SimTime max if none. */
    SimTime
    nextDue() const
    {
        return nextDue_;
    }

    /**
     * Run every daemon whose wake time is <= @p now, in wake-time order.
     * Daemons that become due again while running (should not happen for
     * sane intervals) run again on the next call.
     */
    void runDue(SimTime now);

  private:
    struct Entry
    {
        std::string name;
        SimTime interval;
        SimTime nextWake;
        std::function<void(SimTime)> fn;
    };

    void recomputeNextDue();

    std::vector<Entry> daemons_;
    SimTime nextDue_ = std::numeric_limits<SimTime>::max();
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_DAEMON_HH_
