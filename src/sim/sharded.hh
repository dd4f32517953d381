/**
 * @file
 * Sharded machine: one logical host partitioned into S shards that
 * execute in parallel, epoch by epoch, with deterministic merges.
 *
 * Each shard is a complete, unmodified Simulator over 1/S of the
 * machine's node capacities — shard-local page tables and arenas
 * (vm/AddressSpace), CLOCK/LRU lists (pfra), LLC, swap, RNG, policy
 * daemons, metrics, and vmstat — so shards share no mutable state and
 * an epoch's S sub-simulations are embarrassingly parallel. The shard
 * count S is a *semantic* property of the machine (it defines the VPN
 * partition); the number of worker threads is purely an execution
 * width, exactly like the harness's `--jobs`:
 *
 *   - every shard consumes only its own deterministic operation
 *     stream, seeds, and per-epoch budget grant;
 *   - cross-shard observation happens only in the coordinator's
 *     merge, which k-way merges each epoch's per-shard event slices in
 *     seniority order (sim_time, shard_id, seq) — see
 *     sim/shard_event.hh;
 *   - the merged stream drives the only cross-shard feedback, the
 *     optional global promotion budget, whose next-epoch grants are a
 *     pure function of the merged order. Without a budget nothing
 *     flows back, so shards may run ahead of each other's epochs.
 *
 * Result: running with 1 worker or 8 workers is bit-identical, the
 * same bar the harness thread pool set for `--jobs`.
 */

#ifndef MCLOCK_SIM_SHARDED_HH_
#define MCLOCK_SIM_SHARDED_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/sync.hh"
#include "sim/machine.hh"
#include "sim/metrics.hh"
#include "sim/shard_event.hh"
#include "sim/simulator.hh"
#include "stats/tracepoint.hh"
#include "stats/vmstat.hh"

namespace mclock {
namespace sim {

/** How a sharded machine executes. */
struct ShardOptions
{
    /** Semantic partition count S (fixed per machine/scenario). */
    unsigned shards = 1;

    /**
     * Worker threads driving the shards (clamped to the shard count;
     * 0 and 1 both mean single-threaded). Changing this changes
     * wall-clock time only, never results.
     */
    unsigned workers = 1;

    /**
     * Global promotions allowed per epoch across all shards; 0 means
     * ungoverned. Grants are distributed evenly in epoch 0 and then
     * re-divided at each merge by merged seniority order: shards whose
     * promotions came earliest in the merged stream earn the next
     * epoch's credits (every shard keeps a floor of one so none
     * starves).
     */
    std::uint64_t epochPromoteBudget = 0;
};

/**
 * Partition @p whole into per-shard machines: node capacities and swap
 * slots divided by @p shards in whole pages, with the remainder pages
 * distributed one each to the low-numbered shards (floor one page per
 * shard) — capacity is conserved: per node, the shard shares sum to
 * the whole machine exactly. Each shard gets an independent
 * deterministic seed stream and no vmstat sampler. With shards == 1
 * the config — seed and sampler included — is @p whole itself, so a
 * 1-shard machine is the unpartitioned host, bit for bit.
 */
MachineConfig shardMachine(const MachineConfig &whole, unsigned shards,
                           unsigned shard);

/** S-shard machine with deterministic epoch merges (see file docs). */
class ShardedSimulator
{
  public:
    ShardedSimulator(const MachineConfig &whole, ShardOptions opts);
    ~ShardedSimulator();

    ShardedSimulator(const ShardedSimulator &) = delete;
    ShardedSimulator &operator=(const ShardedSimulator &) = delete;

    unsigned shards() const
    {
        return static_cast<unsigned>(sims_.size());
    }

    /** Worker threads run() actually uses. */
    unsigned workers() const { return workers_; }

    Simulator &shard(unsigned s) { return *sims_[s]; }
    const Simulator &shard(unsigned s) const { return *sims_[s]; }

    /**
     * Per-epoch shard driver: stream the epoch's operations into
     * @p shard (shard-local addresses) and return true while the shard
     * has more epochs of work. Called once per (active shard, epoch),
     * in epoch order per shard, concurrently across shards — and
     * without a promote budget shard s may be in epoch e+1 while
     * shard t is still in epoch e. It must touch only the given
     * shard's state plus its own shard-local captures; successive
     * epochs of one shard may run on different threads, each handed
     * over under the scheduler's lock.
     */
    using EpochDriver =
        std::function<bool(Simulator &sim, unsigned shard,
                           std::uint64_t epoch)>;

    /**
     * Run epochs until every shard's driver has returned false. The
     * work is (shard, epoch) tasks — beginShardEpoch with the shard's
     * grant, then the driver — run on workers() workers: the calling
     * thread plus workers() - 1 helper threads. A worker claims the
     * idle, active shard with the smallest next epoch (ties to the
     * lowest shard), runs that epoch, releases the shard and claims
     * again; it returns when nothing is claimable, which strands no
     * work because every remaining epoch then belongs to a busy shard
     * whose worker claims on.
     *
     * A *phase* is a run of epochs that needs no merge in between.
     * Without a promote budget the grants never change, so the whole
     * run is one phase; with one, grant(e+1) depends on merge(e), so
     * a phase is one epoch and no shard starts epoch e+1 before every
     * shard has finished epoch e. After each phase the workers join
     * and the coordinator merges the phase's epochs in order (take
     * each shard's slice, seniority-sort, accumulate, recompute
     * grants).
     *
     * Must be called once: a second call, with every shard finished,
     * panics.
     */
    void run(const EpochDriver &driver);

    /** Epochs merged by run(). */
    std::uint64_t
    epochs() const
    {
        coordinator_.assertHeld();
        return epochs_;
    }

    /** Merged cross-shard event stream, in seniority order. */
    const std::vector<ShardEvent> &
    events() const
    {
        coordinator_.assertHeld();
        return events_;
    }

    /** Coordinator tracepoints (`shard_merge` per merged epoch). */
    const stats::TraceBuffer &trace() const { return trace_; }

    /** Shard clocks advance independently; makespan is the slowest. */
    SimTime makespan() const;

    std::uint64_t totalAppOps() const;

    /**
     * Shard-local vmstat counters reduced into one view (shard order,
     * node-wise), plus the coordinator's own `pgshard_merge`. Identical
     * for any worker count.
     */
    stats::VmStat mergedVmstat() const;

    /**
     * Shard-local metrics reduced the same way; their stats() is
     * mergedVmstat().
     */
    Metrics mergedMetrics() const;

  private:
    /** Scheduling state of one shard (see run()). */
    struct ShardSlot
    {
        std::uint64_t next = 0;  ///< the shard's next epoch to run
        bool active = true;      ///< its driver still wants epochs
        bool busy = false;       ///< a worker holds its claim
    };

    /**
     * Worker loop of one phase: claim, run and release (shard, epoch)
     * tasks below @p phaseEnd until nothing is claimable. Runs on
     * worker threads, so it never asserts the coordinator role.
     */
    void work(std::uint64_t phaseEnd,
              const std::vector<std::uint64_t> &grants,
              const EpochDriver &driver) MCLOCK_EXCLUDES(claimMu_);

    /**
     * Drive one (shard, epoch) sub-simulation with the shard's
     * promotion @p grant, close the epoch in the shard's log, and
     * return the driver's answer. Runs on worker threads — it must
     * never touch coordinator-guarded merge state, which
     * -Wthread-safety enforces: this function does not assert the
     * coordinator role, so any access to a
     * MCLOCK_GUARDED_BY(coordinator_) member here is a compile error
     * (the grant is snapshotted by the coordinator and passed in by
     * value for exactly that reason).
     */
    bool runEpochOn(unsigned s, std::uint64_t epoch, std::uint64_t grant,
                    const EpochDriver &driver);

    /** Whether any shard's driver still wants epochs. */
    bool anyActive() MCLOCK_EXCLUDES(claimMu_);

    void mergeEpoch(std::uint64_t epoch) MCLOCK_REQUIRES(coordinator_);

    ShardOptions opts_;
    unsigned workers_ = 1;
    std::vector<std::unique_ptr<Simulator>> sims_;
    /** Per-shard event logs: single-writer (the thread holding the
     *  shard's claim) while epochs run; their closed epochs are taken
     *  only by the coordinator, after the workers join. */
    std::vector<ShardEventLog> logs_;

    /**
     * Coordinator thread-confinement capability (base/sync.hh): the
     * merge state below is owned by whichever thread runs run() /
     * mergeEpoch() and is never touched while workers run. Functions
     * that may execute on worker threads (work, runEpochOn) never
     * assert this role, so -Wthread-safety rejects any worker-side
     * access to guarded members at compile time.
     */
    base::ThreadRole coordinator_;

    /** Next-epoch promotion grants, recomputed at each merge. */
    std::vector<std::uint64_t> grants_ MCLOCK_GUARDED_BY(coordinator_);
    /** Guards the claim state: claiming and releasing a shard is the
     *  only synchronisation between workers. */
    base::Mutex claimMu_;
    std::vector<ShardSlot> slots_ MCLOCK_GUARDED_BY(claimMu_);
    std::vector<ShardEvent> events_ MCLOCK_GUARDED_BY(coordinator_);
    stats::VmStat coordVmstat_;
    stats::TraceBuffer trace_;
    /** Clock the coordinator trace stamps with: the max over shards of
     *  their clocks at the end of the epoch being merged. */
    SimTime mergeClock_ MCLOCK_GUARDED_BY(coordinator_) = 0;
    std::uint64_t epochs_ MCLOCK_GUARDED_BY(coordinator_) = 0;
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_SHARDED_HH_
