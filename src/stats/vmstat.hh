/**
 * @file
 * Kernel-style /proc/vmstat counters for one simulated host.
 *
 * Every tiering-relevant event (scans, promotions, demotions, steals,
 * faults, swap traffic, daemon wakeups) increments one monotonic
 * counter, attributed both globally and to the NUMA node where the
 * event happened — mirroring /proc/vmstat and the per-node
 * /sys/devices/system/node/nodeN/vmstat files the paper's evaluation
 * (Figs. 5-10) is built on.
 *
 * This is the simulator's only event counter: policy-specific events
 * and the ns totals of charged overhead are items here too, and every
 * reader (scenario reducers, tests, the invariant sweep) reads them
 * from here. sim::Metrics adds only what a counter cannot express —
 * the per-window series and re-access tracking.
 *
 * Counters are plain uint64 adds on a per-Simulator instance: no
 * locking, no global state, so harness run units stay embarrassingly
 * parallel and jobs-count independent. Counters never charge simulated
 * time; instrumenting a code path cannot change simulation results.
 *
 * That "no locking" contract is statically checked: counter state is
 * guarded by a zero-cost single-owner ThreadRole (base/sync.hh) —
 * exactly one thread (the owning Simulator's driver, or the sharded
 * coordinator after a join barrier) touches an instance at a time.
 */

#ifndef MCLOCK_STATS_VMSTAT_HH_
#define MCLOCK_STATS_VMSTAT_HH_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/sync.hh"
#include "base/types.hh"

namespace mclock {
namespace stats {

/**
 * The vmstat item taxonomy. Names follow mm/vmstat.c where an analogue
 * exists; MULTI-CLOCK-specific items (promote-list traffic) follow the
 * same naming scheme.
 */
enum class VmItem : std::uint8_t {
    PgscanActive,      ///< pages examined on an active list
    PgscanInactive,    ///< pages examined on an inactive list
    PgscanPromote,     ///< pages examined on a promote list
    PgpromoteSuccess,  ///< upward migrations completed
    PgpromoteFail,     ///< upward migrations attempted and failed
    PgpromoteSelected, ///< pages moved onto a promote list
    Pgdemote,          ///< downward migrations completed
    PgdemoteFail,      ///< downward migrations attempted and failed
    Pgexchange,        ///< two-sided page exchanges (Nimble)
    Pgsteal,           ///< pages reclaimed to block storage
    Pgactivate,        ///< inactive -> active list moves
    Pgdeactivate,      ///< active -> inactive list moves
    Pgrotated,         ///< second-chance rotations to the list head
    PgfaultDram,       ///< frames faulted in on a DRAM node
    PgfaultPm,         ///< frames faulted in on a PM node
    PghintFault,       ///< NUMA-hint (poisoned PTE) faults taken
    Pswpin,            ///< pages swapped back in from block storage
    Pswpout,           ///< anonymous pages written to the swap area
    Pgwriteback,       ///< file-backed pages written back to their file
    PgmigrateAbort,    ///< migration transactions aborted mid-flight
    PgmigrateRetry,    ///< aborted migrations re-attempted (backoff)
    PgmigrateRollback, ///< post-copy aborts whose state was rolled back
    PgpromoteThrottled,///< node promotion throttled after repeated aborts
    KswapdWake,        ///< pressure handler invocations (kswapd wakes)
    KpromotedWake,     ///< promotion daemon invocations
    WatermarkLowCross, ///< node free count newly dipped below low
    PgshardMerge,      ///< cross-shard events merged, epoch by epoch
    ShardEpoch,        ///< shard epochs executed (per shard + global)
    PgpromoteDeferred, ///< promotions deferred by an exhausted epoch budget
    MemcgLimitReclaim, ///< pages demoted by memcg hard-cap reclaim
    PgtenantPromoteDeferred, ///< tenant promotions denied (quota/cap)
    PgtenantDemote,    ///< demotions of tenant-charged (non-root) pages
    PgtenantAllocFallback, ///< tenant faults placed on a lower tier (cap)
    PgscanCharged,     ///< pages whose scan cost was charged (LRU walks
                       ///< plus page-table profiling passes)
    NumaPteUpdates,    ///< PTEs poisoned for NUMA-hint sampling
    NumaPagesMigrated, ///< one-sided promotions inside a hint fault
    InlineOverheadNs,  ///< ns charged on the application's critical path
    BackgroundWorkNs,  ///< ns of daemon-core work (before interference)
    NumItems,
};

constexpr std::size_t kNumVmItems =
    static_cast<std::size_t>(VmItem::NumItems);

/** Stable /proc/vmstat-style name ("pgscan_active", ...). */
const char *vmItemName(VmItem item);

/** Per-node and global monotonic counters for one simulated host. */
class VmStat
{
  public:
    /** @param numNodes NUMA nodes to attribute counters to. */
    explicit VmStat(std::size_t numNodes = 0) { resize(numNodes); }

    void resize(std::size_t numNodes);

    std::size_t
    numNodes() const
    {
        owner_.assertHeld();
        return perNode_.size();
    }

    /**
     * Add @p delta to @p item. @p node attributes the event to a NUMA
     * node; kInvalidNode records it globally only. Owner-thread only
     * (see file comment) — the assert is a compile-time annotation
     * with zero hot-path cost.
     */
    void
    add(VmItem item, NodeId node = kInvalidNode, std::uint64_t delta = 1)
    {
        owner_.assertHeld();
        global_[static_cast<std::size_t>(item)] += delta;
        if (node != kInvalidNode) {
            const auto n = static_cast<std::size_t>(node);
            if (n < perNode_.size())
                perNode_[n][static_cast<std::size_t>(item)] += delta;
        }
    }

    std::uint64_t
    global(VmItem item) const
    {
        owner_.assertHeld();
        return global_[static_cast<std::size_t>(item)];
    }

    /**
     * Global count of the item named @p name ("pswpout", ...), as a
     * /proc/vmstat reader looks it up; 0 for an unknown name.
     */
    std::uint64_t get(std::string_view name) const;

    std::uint64_t
    node(NodeId node, VmItem item) const
    {
        owner_.assertHeld();
        const auto n = static_cast<std::size_t>(node);
        return n < perNode_.size()
                   ? perNode_[n][static_cast<std::size_t>(item)]
                   : 0;
    }

    /** Sum of the per-node counts for @p item (<= global). */
    std::uint64_t nodeSum(VmItem item) const;

    /**
     * Accumulate @p other into this instance: global counters add
     * item-wise; per-node counters add node-wise (grows the node table
     * if @p other attributes to more nodes). Used by the sharded
     * runtime to reduce shard-local counters into one merged view —
     * order-independent by construction, so the reduction is identical
     * for any worker count.
     */
    void mergeFrom(const VmStat &other);

    /**
     * Flat snapshot: "pgscan_active" -> global count, plus
     * "node<N>.pgscan_active" for every node with a nonzero count.
     */
    std::map<std::string, std::uint64_t> snapshot() const;

    /** Global counters only, in enum order (for the sampler). */
    std::array<std::uint64_t, kNumVmItems>
    globals() const
    {
        owner_.assertHeld();
        return global_;
    }

  private:
    /** Single-owner confinement capability (see file comment). */
    base::ThreadRole owner_;
    std::array<std::uint64_t, kNumVmItems> global_
        MCLOCK_GUARDED_BY(owner_){};
    std::vector<std::array<std::uint64_t, kNumVmItems>> perNode_
        MCLOCK_GUARDED_BY(owner_);
};

}  // namespace stats
}  // namespace mclock

#endif  // MCLOCK_STATS_VMSTAT_HH_
