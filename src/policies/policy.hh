/**
 * @file
 * The tiering-policy interface.
 *
 * A TieringPolicy decides where pages are born, observes accesses (at the
 * points a real kernel could observe them: supervised syscalls, PTE
 * accessed bits, or software hint faults), runs periodic daemons, and
 * reacts to memory pressure. The Simulator invokes the hooks; policies
 * invoke Simulator services (migration, time charging, daemon
 * registration) back.
 */

#ifndef MCLOCK_POLICIES_POLICY_HH_
#define MCLOCK_POLICIES_POLICY_HH_

#include <cstddef>
#include <memory>
#include <string>

#include "base/types.hh"
#include "pfra/vmscan.hh"

namespace mclock {

class Page;

namespace sim {
class Simulator;
class Node;
}  // namespace sim

namespace policies {

/** Per-access context passed to the memory-access hook. */
struct AccessContext
{
    Vaddr va = 0;
    bool write = false;
    /**
     * When true, @c latency replaces the default tier latency. Used by
     * Memory-mode, whose memory-side DRAM cache determines service time.
     */
    bool latencyOverridden = false;
    SimTime latency = 0;
};

/**
 * The one configuration every policy takes (makePolicy passes it
 * through). Everything else a policy needs is a constant of its class
 * or is derived from these fields.
 */
struct PolicyOptions
{
    /** Daemon wake period for every policy's profiling/promotion
     *  thread. Benches scale this down together with machine capacity
     *  so the cadence-to-workload-duration ratio matches the paper. */
    SimTime scanInterval = 1'000'000'000ull;  // 1 s, the paper default
    /** Pages scanned per list per wake (paper: 1024). */
    std::size_t nrScan = 1024;
    /**
     * AutoTiering PTE-poisoning rate in pages per second (AutoNUMA's
     * scan_size budget, scaled); the per-pass chunk is rate x interval.
     */
    double poisonPagesPerSec = 8192.0;
    /** DRAM capacity handed to Memory-mode as its memory-side cache. */
    std::size_t dramCacheBytes = 0;

    bool operator==(const PolicyOptions &) const = default;
};

/** One row of the paper's Table I feature matrix. */
struct FeatureRow
{
    std::string tiering;
    std::string tracking;       ///< page access tracking mechanism
    std::string promotion;      ///< page selection for promotion
    std::string demotion;       ///< page selection for demotion
    std::string numaAware;
    std::string spaceOverhead;
    std::string generality;     ///< huge pages only vs all pages
    std::string evaluation;     ///< emulator vs real PM
    std::string usability;      ///< usability limitation
    std::string keyInsight;
};

/** Abstract base for all tiering policies. */
class TieringPolicy
{
  public:
    /** Page budget of one handlePressure() invocation. */
    static constexpr std::size_t kPressureBudget = 2048;

    virtual ~TieringPolicy() = default;

    /** Short identifier used in benches ("multiclock", "nimble", ...). */
    virtual const char *name() const = 0;

    /**
     * Bind to a simulator. Called once before the run starts; overrides
     * must call the base implementation, then may register daemons.
     */
    virtual void attach(sim::Simulator &sim);

    /**
     * Pick the node for a newly faulted-in page.
     *
     * The default implements the standard tiered allocation path: the
     * highest-performing tier whose free count stays above the min
     * watermark wins; otherwise fall through to lower tiers; as a last
     * resort, dip into the reserve of the lowest tier.
     */
    virtual NodeId selectAllocationNode(Page &page);

    /** A page was just faulted in and placed; enqueue it on LRU lists. */
    virtual void onPageAllocated(Page *page);

    /** A page is being torn down; remove it from policy structures. */
    virtual void onPageFreed(Page *page);

    /**
     * A memory-visible access (LLC miss) reached @p page. The PTE
     * accessed/dirty bits have already been set by the "hardware".
     *
     * Policies that override this must set @c observesMemoryAccess_ in
     * their constructor: the simulator consults observesMemoryAccess()
     * once at attach time and skips the virtual dispatch on the access
     * fast path for the (common) policies that observe nothing here.
     */
    virtual void onMemoryAccess(Page *page, AccessContext &ctx);

    /** True iff onMemoryAccess is overridden (fast-path dispatch hint). */
    bool observesMemoryAccess() const { return observesMemoryAccess_; }

    /**
     * A supervised access: the kernel mediated this access (read/write
     * syscall path) and can update page state before completing it. This
     * is the mark_page_accessed() entry point.
     */
    virtual void onSupervisedAccess(Page *page);

    /**
     * The access hit a PTE this policy poisoned for hint-fault tracking.
     * The simulator has already charged the hint-fault trap latency and
     * cleared the poison; the policy may charge further inline work
     * (e.g. AutoTiering promotes in the fault handler).
     */
    virtual void onHintFault(Page *page);

    /**
     * Free frames on @p node fell below the low watermark (called from
     * the allocator, standing in for a kswapd wakeup) or direct reclaim
     * needs progress. Reclaim/demote until the high watermark or until a
     * per-invocation budget is exhausted.
     */
    virtual void handlePressure(sim::Node &node);

    /** Table I row for this policy. */
    virtual FeatureRow features() const = 0;

  protected:
    /**
     * Vanilla PFRA eviction used as the pressure fallback: balance
     * active/inactive, then evict unreferenced inactive-tail pages to
     * block storage (never migrating between tiers). Exposed to
     * subclasses because several policies end with this step on the
     * lowest tier.
     *
     * @return pages freed
     */
    std::size_t evictToStorage(sim::Node &node, std::size_t target);

    /**
     * One demote-or-evict pass over @p node: the file inactive tail,
     * then the anon one. Each collects up to min(@p remaining, 64)
     * unreferenced candidates, sparing pages @p spare matches unless
     * only spared pages rotated, and charges the scan against
     * @p remaining. Each candidate migrates one tier down, or is
     * evicted to storage when there is no lower tier or the demotion
     * fails.
     *
     * @return true when any page left the node
     */
    bool reclaimPass(sim::Node &node, std::size_t &remaining,
                     const pfra::PageFilter &spare = {});

    sim::Simulator *sim_ = nullptr;
    /** Set in the constructor of policies overriding onMemoryAccess. */
    bool observesMemoryAccess_ = false;
};

}  // namespace policies
}  // namespace mclock

#endif  // MCLOCK_POLICIES_POLICY_HH_
