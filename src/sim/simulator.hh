/**
 * @file
 * The simulator core: ties the machine model, virtual memory, migration
 * engine, daemon scheduler, metrics, and the active tiering policy into
 * one simulated host.
 *
 * Workloads drive it through read()/write()/compute(); policies drive it
 * through the service API (migration wrappers, time charging, daemon
 * registration). All time is simulated nanoseconds; throughput numbers
 * reported by the benches are operations per simulated second.
 */

#ifndef MCLOCK_SIM_SIMULATOR_HH_
#define MCLOCK_SIM_SIMULATOR_HH_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "mem/cache.hh"
#include "mem/memory_config.hh"
#include "policies/policy.hh"
#include "sim/daemon.hh"
#include "sim/fault_injector.hh"
#include "sim/machine.hh"
#include "sim/memory_system.hh"
#include "sim/metrics.hh"
#include "sim/migration.hh"
#include "stats/sampler.hh"
#include "stats/tracepoint.hh"
#include "stats/vmstat.hh"
#include "vm/address_space.hh"
#include "vm/memcg.hh"
#include "vm/swap.hh"

#ifdef MCLOCK_DEBUG_VM
#include "debug/vm_checker.hh"
#endif

namespace mclock {
namespace sim {

class ShardEventLog;

/** One simulated host running one application under one policy. */
class Simulator
{
  public:
    explicit Simulator(MachineConfig cfg);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Install the tiering policy (must precede any access). */
    void setPolicy(std::unique_ptr<policies::TieringPolicy> policy);

    policies::TieringPolicy &policy() { return *policy_; }

    // --- Application-facing API ------------------------------------------

    /**
     * Reserve a region (see AddressSpace::mmap). Pages materialised in
     * it are charged to @p memcg; the default root id is unaccounted.
     */
    Vaddr mmap(std::size_t bytes, bool anon = true,
               const std::string &name = "anon",
               MemCgroupId memcg = kRootMemcg);

    /** Tear down a region: frees frames, lists entries, and swap slots. */
    void unmapRegion(Vaddr start);

    /** Unsupervised (mmap-style) load of @p bytes starting at @p va. */
    void
    read(Vaddr va, std::size_t bytes = 8)
    {
        ++appOps_;
        dispatchAccess(va, bytes, false);
    }

    /** Unsupervised (mmap-style) store. */
    void
    write(Vaddr va, std::size_t bytes = 8)
    {
        ++appOps_;
        dispatchAccess(va, bytes, true);
    }

    /** Supervised load: the syscall path calls mark_page_accessed(). */
    void readSupervised(Vaddr va, std::size_t bytes = 8);

    /** Supervised store. */
    void writeSupervised(Vaddr va, std::size_t bytes = 8);

    /** Pure CPU work: advances time, dispatching daemons on the way. */
    void compute(SimTime duration);

    /** One queued operation for batched access streaming. */
    struct MemOp
    {
        enum class Kind : std::uint8_t {
            Read,     ///< unsupervised load (va, bytes)
            Write,    ///< unsupervised store (va, bytes)
            Compute,  ///< CPU work; va carries the duration in ns
        };

        Vaddr va = 0;
        std::uint32_t bytes = 0;
        Kind kind = Kind::Read;

        static MemOp
        load(Vaddr va, std::uint32_t bytes = 8)
        {
            return {va, bytes, Kind::Read};
        }

        static MemOp
        store(Vaddr va, std::uint32_t bytes = 8)
        {
            return {va, bytes, Kind::Write};
        }

        static MemOp
        cpu(SimTime duration)
        {
            return {static_cast<Vaddr>(duration), 0, Kind::Compute};
        }
    };

    /**
     * Process @p n queued operations in program order. Semantically
     * identical to issuing the equivalent read()/write()/compute()
     * calls one by one; the batch form keeps the access loop inside
     * one translation unit so the per-op call overhead is amortised.
     * Workloads accumulate one logical operation's accesses and flush
     * them at the op boundary.
     */
    void stream(const MemOp *ops, std::size_t n);

    SimTime now() const { return now_; }

    /**
     * Application-issued memory operations so far: one per
     * read()/write() (supervised or not) or per Read/Write MemOp.
     * Wall-clock benchmarking reports this as "ops"; it is not part of
     * any golden-compared metric.
     */
    std::uint64_t appOps() const { return appOps_; }

    // --- Services for policies -------------------------------------------

    MemorySystem &memory() { return mem_; }
    const MachineConfig &config() const { return cfg_; }
    const MemoryConfig &memConfig() const { return cfg_.mem; }
    Metrics &metrics() { return metrics_; }

    /**
     * Kernel-style vmstat counters (per-node + global, monotonic): the
     * host's only event counters, held by metrics().
     */
    stats::VmStat &vmstat() { return metrics_.stats(); }
    const stats::VmStat &vmstat() const { return metrics_.stats(); }

    /** Tracepoint ring buffer (simulated-time-stamped typed events). */
    stats::TraceBuffer &trace() { return trace_; }
    const stats::TraceBuffer &trace() const { return trace_; }

    /** Periodic vmstat sampler; nullptr unless cfg.stats.sampler. */
    stats::VmstatSampler *sampler() { return sampler_.get(); }

    DaemonScheduler &daemons() { return daemons_; }
    AddressSpace &space() { return space_; }
    SwapDevice &swap() { return swap_; }
    Rng &rng() { return rng_; }

    /**
     * Memory control groups of this host. Hosts that never create a
     * tenant pay one predicted branch per hook; behaviour and results
     * are bit-identical to a host without the layer.
     */
    MemCgroupManager &memcg() { return memcg_; }
    const MemCgroupManager &memcg() const { return memcg_; }

    /** LLC filter model, or nullptr when disabled. */
    CacheModel *llc() { return llc_.get(); }

    /** Tier rank of the node currently holding @p page. */
    TierRank pageTier(const Page *page) const;

    /** How migration/exchange costs are charged to the clock. */
    enum class ChargeMode {
        Inline,      ///< full cost on the application's critical path
        Background,  ///< daemon-core work; interference fraction only
        FaultPath,   ///< inline x faultPathMigrationMultiplier (synchronous
                     ///< migration inside a fault handler)
    };

    /** Charge work on the application's critical path. */
    void chargeInline(SimTime t);

    /**
     * Charge daemon work performed on another core; only the configured
     * interference fraction reaches the application's clock.
     */
    void chargeBackground(SimTime t);

    /** Charge the cost of scanning @p pages LRU entries (background). */
    void chargeScan(std::uint64_t pages);

    /**
     * Migrate an isolated page (not on any LRU list) to @p dst, charging
     * the cost and recording promotion/demotion metrics by direction.
     * One transaction, no retries: an injected abort fails the call (the
     * page stays resident on its source node).
     */
    bool migratePage(Page *page, NodeId dst, ChargeMode mode);

    /**
     * Migrate an isolated page one tier up, picking the destination node
     * with the most space. Fails when no higher tier or no free frame.
     * With fault injection enabled, transient aborts are retried with
     * exponential backoff (cfg.faults.maxRetries), and a node whose
     * promotions keep aborting is throttled for a cooldown window.
     */
    bool promotePage(Page *page, ChargeMode mode);

    /** Migrate an isolated page one tier down (same retry policy). */
    bool demotePage(Page *page, ChargeMode mode);

    /**
     * True while @p node's promotions are throttled (graceful
     * degradation after cfg.faults.throttleThreshold consecutive
     * aborted promotions). Always false with injection disabled.
     */
    bool promotionThrottled(NodeId node) const;

    /**
     * Tenant QoS gate for promotions into @p dstTier: true unless the
     * page's cgroup is out of promotion credit or at its hard cap
     * there. Denials count `pgtenant_promote_deferred`. Promotion
     * daemons pre-check with this so a quota-deferred page stays
     * selected (rotated) instead of triggering demotions on the upper
     * tier; promotePage() applies the same gate for direct callers.
     */
    bool tenantPromoteAllowed(const Page *page, TierRank dstTier);

    /** Two-sided exchange of two isolated pages (Nimble). */
    bool exchangePages(Page *hot, Page *cold, ChargeMode mode);

    /**
     * Evict an isolated page to block storage: write back if dirty, free
     * its frame, and leave it non-resident in its address space.
     */
    void evictPage(Page *page);

    /**
     * Run the policy's pressure handler on @p node unless we are already
     * inside one (direct-reclaim reentrancy guard).
     */
    void maybeReclaim(Node &node);

    // --- Sharded execution hooks -----------------------------------------
    // A sharded machine (sim/sharded.hh) runs this host as one shard of
    // a partitioned address space. Both hooks are inert by default:
    // with no log bound and an unlimited budget, behaviour is
    // bit-identical to a standalone host.

    /** Sentinel: no per-epoch promotion budget (the default). */
    static constexpr std::uint64_t kUnlimitedPromoteBudget = ~0ull;

    /**
     * Bind the ordered event log this host reports cross-shard events
     * (completed promotions/demotions/exchanges) into. Pass nullptr to
     * detach. Observation-only: emitting events charges no simulated
     * time and changes no simulation state.
     */
    void bindShardLog(ShardEventLog *log) { shardLog_ = log; }

    /**
     * Mark the start of shard epoch @p epoch: installs @p grant as the
     * promotion budget and records the `shard_epoch` counter and
     * tracepoint. Called by the sharded coordinator on the shard's
     * worker thread, before the epoch's operations stream in.
     *
     * Once the budget reaches zero, promotePage() defers instead of
     * migrating (counted as `pgpromote_deferred`) until the next grant.
     * Applies to promotePage() only — Nimble's two-sided exchanges are
     * paired moves and stay budget-exempt. kUnlimitedPromoteBudget
     * disables the governor entirely (no counter, no behaviour change).
     */
    void beginShardEpoch(std::uint64_t epoch,
                         std::uint64_t grant = kUnlimitedPromoteBudget);

    /** Deterministic migration-fault oracle (disabled by default). */
    FaultInjector &faultInjector() { return faults_; }
    const FaultInjector &faultInjector() const { return faults_; }

#ifdef MCLOCK_DEBUG_VM
    /**
     * The CONFIG_DEBUG_VM page-state checker, wired into every list
     * and migration path of this host. Debug builds only; by default a
     * violation panics with the page's state history.
     */
    debug::VmChecker &vmChecker() { return *vmChecker_; }
    const debug::VmChecker &vmChecker() const { return *vmChecker_; }
#endif

  private:
    void chargeMigration(SimTime cost, ChargeMode mode,
                         SimTime inlinePortion = 0);
    MigrateResult migrateOnce(Page *page, NodeId dst, ChargeMode mode);
    /**
     * Move @p page to a node of @p tier with a free frame, retrying a
     * transient abort with exponential backoff while fault injection
     * allows retries. An empty tier counts a promote or demote fail,
     * by direction, and returns NoFrame.
     */
    MigrateResult migrateToTier(Page *page, TierRank tier, bool respectMin,
                                ChargeMode mode);
    void notePromoteSuccess(NodeId node);
    void notePromoteAbort(NodeId node);
    void accessOnePage(Vaddr va, bool write, bool supervised);
    void accessRange(Vaddr va, std::size_t bytes, bool write,
                     bool supervised);

    /** Sampling granularity of multi-byte ranges (see accessRange). */
    static constexpr Vaddr kAccessBlock = 512;

    /**
     * Unsupervised access entry point, inline so element-sized workload
     * accesses (the common case by far) reach accessOnePage with one
     * call instead of three. A range confined to one 512 B block is
     * exactly accessRange's single-sample case.
     */
    void
    dispatchAccess(Vaddr va, std::size_t bytes, bool write)
    {
        if (((va ^ (va + bytes - 1)) & ~(kAccessBlock - 1)) == 0)
            [[likely]]
            accessOnePage(va, write, false);
        else
            accessRange(va, bytes, write, false);
    }
    Page *handleMinorFault(PageNum vpn);
    void handleSwapIn(Page *page);
    void allocateFrameFor(Page *page);
    void runDueDaemons();

    /**
     * Memcg hard-cap reclaim: demote up to @p want of @p cg's own
     * pages off @p tier (inactive lists first, CLOCK second chance for
     * pages of other tenants). Returns the number demoted; best effort
     * — the allocation path falls back to a lower tier when the cap
     * still cannot be met.
     */
    std::size_t memcgReclaimTier(MemCgroup &cg, TierRank tier,
                                 std::size_t want);

    MachineConfig cfg_;
    MemorySystem mem_;
#ifdef MCLOCK_DEBUG_VM
    std::unique_ptr<debug::VmChecker> vmChecker_;
#endif
    std::unique_ptr<CacheModel> llc_;
    FaultInjector faults_;
    MigrationEngine migration_;
    DaemonScheduler daemons_;
    Metrics metrics_;
    AddressSpace space_;
    MemCgroupManager memcg_;
    SwapDevice swap_;
    Rng rng_;
    stats::TraceBuffer trace_;
    std::unique_ptr<stats::VmstatSampler> sampler_;
    // --- Cached hot-path state -------------------------------------------
    // Derived once from the (immutable) machine topology and the
    // installed policy so accessOnePage never chases node objects, the
    // config tier table, or a virtual dispatch it does not need.
    /** node id -> tier rank (nodes never change tier). */
    std::vector<TierRank> nodeTier_;
    /** tier rank -> 64 B load/store latency (cfg_.mem.timing copy). */
    std::vector<SimTime> tierLoadLat_;
    std::vector<SimTime> tierStoreLat_;
    /** Rank of the machine's bottom tier (re-access tracking bound). */
    TierRank bottomTier_ = 0;
    /** More than one tier, i.e. re-access tracking is meaningful. */
    bool trackReaccess_ = false;
    /** The installed policy overrides onMemoryAccess (memory-mode). */
    bool policyObservesAccess_ = false;
    /** Application-issued memory operations (see appOps()). */
    std::uint64_t appOps_ = 0;

    /** Per-node below-low-watermark latch for crossing detection. */
    std::vector<bool> belowLow_;
    /** Per-node consecutive aborted promotions (fault injection only). */
    std::vector<unsigned> promoteFailStreak_;
    /** Per-node promotion-throttle cooldown end (simulated ns). */
    std::vector<SimTime> promoteThrottleUntil_;
    std::unique_ptr<policies::TieringPolicy> policy_;
    SimTime now_ = 0;
    bool inPressure_ = false;
    /** Cross-shard event sink; nullptr outside sharded machines. */
    ShardEventLog *shardLog_ = nullptr;
    /** Promotions allowed before the next epoch grant (see above). */
    std::uint64_t promoteBudget_ = kUnlimitedPromoteBudget;
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_SIMULATOR_HH_
