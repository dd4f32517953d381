/**
 * @file
 * Memory control groups: per-tenant accounting and QoS limits.
 *
 * Each tenant of a simulated host owns one MemCgroup carrying
 *  - per-tier page charges (how many resident frames the tenant holds
 *    on each tier),
 *  - a per-tier hard cap (`maxPages`) enforced at allocation and
 *    promotion time,
 *  - a per-tier soft floor (`lowPages`): pages of a group charged at or
 *    below its floor are protected from global reclaim while
 *    unprotected pages remain (the memory.low idiom),
 *  - a per-epoch promotion quota refilled deficit-round-robin style and
 *    layered *under* the sharded seniority budget (a promotion must
 *    clear both), and
 *  - per-tenant observability: charge/latency accounting feeding the
 *    `tenants` object of run_manifest.json (p99 access latency).
 *
 * Group id 0 is the root group. Pages belong to it by default, it has
 * no limits, and every hook short-circuits on it, so hosts that never
 * create a tenant are bit-identical to hosts built before this layer
 * existed. Charging follows the kernel memcg discipline: charges move
 * with the page on migration (transfer), disappear on free/evict
 * (uncharge), and downward moves always succeed — pressure must be
 * relievable even for an over-cap group, so only upward placement is
 * gated. Accounting never charges simulated time.
 *
 * Concurrency: one manager per simulated host, reached from that
 * host's driving thread only — in a sharded machine each shard owns
 * its own manager, so all charge state stays shard-local. That
 * confinement is statically checked: the manager carries a ThreadRole
 * capability (base/sync.hh) guarding the group table, and every entry
 * point asserts it, so -Wthread-safety rejects any code path that
 * routes another shard's (coordinator-guarded) state in here.
 */

#ifndef MCLOCK_VM_MEMCG_HH_
#define MCLOCK_VM_MEMCG_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/sync.hh"
#include "base/types.hh"

namespace mclock {

/**
 * Per-tier limits for one tenant. Tier ranks index both vectors; a
 * rank beyond a vector's size (or an empty vector) means unlimited
 * (resp. unprotected). promoteQuantum == 0 leaves promotions
 * unmetered for this group.
 */
struct MemCgroupLimits
{
    /** Hard cap per tier (pages); allocation/promotion beyond it fails. */
    std::vector<std::size_t> maxPages;
    /** Soft protection per tier (pages); see MemCgroup::lowProtected. */
    std::vector<std::size_t> lowPages;
    /** Promotion credits granted per epoch (deficit round robin). */
    std::uint64_t promoteQuantum = 0;
};

/** One tenant's control group: charges, limits, and QoS counters. */
class MemCgroup
{
  public:
    MemCgroup(MemCgroupId id, std::string name, MemCgroupLimits limits)
        : id_(id), name_(std::move(name)), limits_(std::move(limits))
    {}

    MemCgroupId id() const { return id_; }
    const std::string &name() const { return name_; }
    const MemCgroupLimits &limits() const { return limits_; }

    /** Pages currently charged to this group on @p tier. */
    std::size_t
    charged(TierRank tier) const
    {
        const auto t = static_cast<std::size_t>(tier);
        return t < charges_.size() ? charges_[t] : 0;
    }

    /** Pages charged across all tiers. */
    std::size_t chargedTotal() const;

    /** Hard cap for @p tier (SIZE_MAX when unlimited). */
    std::size_t maxPages(TierRank tier) const;

    /** Soft floor for @p tier (0 when unprotected). */
    std::size_t lowPages(TierRank tier) const;

    /**
     * Would one more page on @p tier stay within the hard cap? Pure
     * query; charge() below performs the actual accounting.
     */
    [[nodiscard]] bool
    withinMax(TierRank tier) const
    {
        return charged(tier) < maxPages(tier);
    }

    /**
     * True while the group's charge on @p tier sits at or below its
     * soft floor: global reclaim should prefer other pages first.
     */
    [[nodiscard]] bool
    lowProtected(TierRank tier) const
    {
        return charged(tier) <= lowPages(tier);
    }

    /** Charge one page to @p tier (unconditional; caller gates caps). */
    void charge(TierRank tier);

    /** Remove one page's charge from @p tier. Panics on underflow. */
    void uncharge(TierRank tier);

    // --- Promotion quota (deficit round robin) ---------------------------

    /**
     * Refill the promotion deficit for a new epoch: unused credit
     * carries over up to one extra quantum, bounding the burst a group
     * can save up. No-op for unmetered groups (quantum 0).
     */
    void refillPromoteDeficit();

    /**
     * Consume one promotion credit. Returns false (and consumes
     * nothing) when the deficit is exhausted; always true for
     * unmetered groups. The result is the admission decision — a
     * caller that drops it has either skipped the gate or consumed a
     * credit for nothing, hence [[nodiscard]].
     */
    [[nodiscard]] bool consumePromoteCredit();

    /** Non-consuming quota query (always true for unmetered groups). */
    [[nodiscard]] bool
    hasPromoteCredit() const
    {
        return limits_.promoteQuantum == 0 || promoteDeficit_ > 0;
    }

    std::uint64_t promoteDeficit() const { return promoteDeficit_; }

    // --- Per-tenant observability ----------------------------------------

    /** Record one memory access completed at latency @p lat. */
    void
    recordLatency(SimTime lat)
    {
        ++accesses_;
        ++latencyHist_[lat];
    }

    std::uint64_t accesses() const { return accesses_; }

    /**
     * Exact p99 access latency: the smallest recorded latency whose
     * cumulative count reaches 99% of all accesses (0 with no
     * accesses). Access latencies form a small discrete set (cache
     * hit, DRAM, PM, fault paths), so the histogram stays tiny.
     */
    SimTime p99Latency() const;

    /** Mean access latency in ns (0 with no accesses). */
    double meanLatency() const;

    /**
     * Raw latency histogram (latency -> access count). Exposed so
     * multi-host scenarios (one manager per shard) can merge tenant
     * histograms and compute exact cross-shard percentiles.
     */
    const std::map<SimTime, std::uint64_t> &
    latencyHist() const
    {
        return latencyHist_;
    }

  private:
    MemCgroupId id_;
    std::string name_;
    MemCgroupLimits limits_;
    /** Pages charged per tier rank (grown on demand). */
    std::vector<std::size_t> charges_;
    /** Remaining promotion credits this epoch. */
    std::uint64_t promoteDeficit_ = 0;
    std::uint64_t accesses_ = 0;
    /** latency -> access count; exact percentiles, tiny key set. */
    std::map<SimTime, std::uint64_t> latencyHist_;
};

/**
 * The set of control groups of one simulated host. Owned by the
 * Simulator; one per host, so sharded machines carry one manager per
 * shard and all quota state stays shard-local (worker-width
 * independent by construction).
 */
class MemCgroupManager
{
  public:
    MemCgroupManager();

    MemCgroupManager(const MemCgroupManager &) = delete;
    MemCgroupManager &operator=(const MemCgroupManager &) = delete;

    /** Create a tenant group; ids are dense and start at 1. */
    MemCgroupId create(const std::string &name,
                       MemCgroupLimits limits = {});

    /** Group for @p id, or nullptr for the root id / unknown ids. */
    MemCgroup *
    find(MemCgroupId id)
    {
        owner_.assertHeld();
        if (id == kRootMemcg || id >= groups_.size())
            return nullptr;
        return groups_[id].get();
    }

    const MemCgroup *
    find(MemCgroupId id) const
    {
        owner_.assertHeld();
        if (id == kRootMemcg || id >= groups_.size())
            return nullptr;
        return groups_[id].get();
    }

    /** Any tenants at all? False on every pre-memcg host. */
    bool
    active() const
    {
        owner_.assertHeld();
        return groups_.size() > 1;
    }

    /** Invoke @p fn on every tenant group, in id order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        owner_.assertHeld();
        for (std::size_t i = 1; i < groups_.size(); ++i)
            fn(*groups_[i]);
    }

    /**
     * Begin a promotion epoch: refill every group's deficit. Called
     * from Simulator::beginShardEpoch (and directly by tests).
     */
    void beginEpoch();

    // --- Charging helpers (root id short-circuits in all of them) --------

    /** Charge @p id one page on @p tier. */
    void charge(MemCgroupId id, TierRank tier);

    /** Uncharge @p id one page on @p tier. */
    void uncharge(MemCgroupId id, TierRank tier);

    /** Move one page's charge of @p id from @p from to @p to. */
    void transfer(MemCgroupId id, TierRank from, TierRank to);

    /** Hard-cap query: may @p id take one more page on @p tier? */
    [[nodiscard]] bool withinMax(MemCgroupId id, TierRank tier) const;

    /** Soft-floor query: is @p id protected on @p tier right now? */
    [[nodiscard]] bool lowProtected(MemCgroupId id, TierRank tier) const;

    /**
     * Promotion-quota gate: consume one credit of @p id. Root pages
     * are always allowed. [[nodiscard]]: dropping the result means a
     * promotion proceeded ungated (or a credit burned for nothing).
     */
    [[nodiscard]] bool consumePromoteCredit(MemCgroupId id);

    /** Non-consuming quota query for @p id (root: always true). */
    [[nodiscard]] bool hasPromoteCredit(MemCgroupId id) const;

    /** Record an access latency against @p id (root: dropped). */
    void
    recordLatency(MemCgroupId id, SimTime lat)
    {
        if (MemCgroup *cg = find(id))
            cg->recordLatency(lat);
    }

  private:
    /** Host-thread confinement capability (see file comment). */
    base::ThreadRole owner_;
    /** Index 0 is the root sentinel (nullptr); tenants start at 1. */
    std::vector<std::unique_ptr<MemCgroup>> groups_
        MCLOCK_GUARDED_BY(owner_);
};

}  // namespace mclock

#endif  // MCLOCK_VM_MEMCG_HH_
