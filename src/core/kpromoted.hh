/**
 * @file
 * kpromoted: MULTI-CLOCK's per-node promotion daemon.
 *
 * One kpromoted instance per lower-tier NUMA node (mirroring the
 * kernel's one-kswapd-per-node design, which avoids lock contention on
 * per-node structures). On each wake it scans the node's inactive,
 * active, and promote lists (up to nr_scan pages each), advances page
 * states from PTE reference bits, and then migrates every page selected
 * on the promote list to the DRAM tier in the same run.
 */

#ifndef MCLOCK_CORE_KPROMOTED_HH_
#define MCLOCK_CORE_KPROMOTED_HH_

#include <cstdint>

#include "base/types.hh"

namespace mclock {

class Page;

namespace sim {
class Node;
class Simulator;
}  // namespace sim

namespace core {

class MultiClockPolicy;
struct MultiClockConfig;

/** The promotion daemon body for one node. */
class Kpromoted
{
  public:
    Kpromoted(MultiClockPolicy &policy, sim::Simulator &sim, NodeId node);

    /** One wake-up of the daemon. */
    void run(SimTime now);

    // Scan passes are public so the pressure handler (and tests) can
    // reuse them; each returns the number of pages examined.

    /** Inactive-list pass: transitions (1), (2), (6) of Fig. 4. */
    std::uint64_t scanInactive(sim::Node &node, bool anon,
                               std::size_t nrScan);

    /** Active-list pass: transitions (7)/(8), decay, and (10). */
    std::uint64_t scanActive(sim::Node &node, bool anon,
                             std::size_t nrScan);

    /**
     * shrink_promote_list(): migrate referenced promote-list pages to
     * the higher tier — transition (13) — recycling unreferenced ones to
     * the active list — transition (11). When the higher tier is under
     * pressure, promotions trigger immediate demotions there.
     *
     * @param budget       pages to process
     * @param underPressure true when called from the pressure handler
     * @return pages promoted
     */
    std::uint64_t shrinkPromoteList(sim::Node &node, bool anon,
                                    std::size_t budget, bool underPressure,
                                    std::size_t maxPromotions = ~0ull);

  private:
    MultiClockPolicy &policy_;
    sim::Simulator &sim_;
    NodeId nodeId_;
};

}  // namespace core
}  // namespace mclock

#endif  // MCLOCK_CORE_KPROMOTED_HH_
