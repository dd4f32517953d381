/**
 * @file
 * Sharded machine: one logical host partitioned into S shards that
 * execute in parallel between deterministic epoch barriers.
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
 *   - cross-shard observation happens only at epoch barriers, where
 *     the coordinator k-way merges the shards' event logs in seniority
 *     order (sim_time, shard_id, seq) — see sim/shard_event.hh;
 *   - the merged stream drives the only cross-shard feedback, the
 *     optional global promotion budget, whose next-epoch grants are a
 *     pure function of the merged order.
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
#include "vm/sharded_address_space.hh"

namespace mclock {
namespace sim {

/** How a sharded machine executes. */
struct ShardOptions
{
    /** Semantic partition count S (fixed per machine/scenario). */
    unsigned shards = 1;

    /**
     * Worker threads driving the shards each epoch (clamped to the
     * shard count; 0 and 1 both mean single-threaded). Changing this
     * changes wall-clock time only, never results.
     */
    unsigned workers = 1;

    /**
     * Global promotions allowed per epoch across all shards; 0 means
     * ungoverned. Grants are distributed evenly in epoch 0 and then
     * re-divided each barrier by merged seniority order: shards whose
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
 * deterministic seed stream. With shards == 1 the config — seed
 * included — is @p whole itself, so a 1-shard machine is the
 * unpartitioned host, bit for bit.
 */
MachineConfig shardMachine(const MachineConfig &whole, unsigned shards,
                           unsigned shard);

/** S-shard machine with epoch-barrier coordination (see file docs). */
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

    /** Worker threads an epoch actually uses. */
    unsigned workers() const { return workers_; }

    Simulator &shard(unsigned s) { return *sims_[s]; }
    const Simulator &shard(unsigned s) const { return *sims_[s]; }

    /** Routing facade over the shard-local address spaces. */
    ShardedAddressSpace &space() { return space_; }

    /**
     * Route one unsupervised access through the facade to the owning
     * shard (global tagged address). Coordinator-thread convenience
     * for tests and small tools — never call while an epoch is in
     * flight on worker threads.
     */
    void read(Vaddr globalVa, std::size_t bytes = 8);
    void write(Vaddr globalVa, std::size_t bytes = 8);

    /**
     * Per-epoch shard driver: stream the epoch's operations into
     * @p shard (shard-local addresses) and return true while the shard
     * has more epochs of work. Called once per (active shard, epoch),
     * possibly concurrently across shards — it must touch only the
     * given shard's state plus its own shard-local captures.
     */
    using EpochDriver =
        std::function<bool(Simulator &sim, unsigned shard,
                           std::uint64_t epoch)>;

    /**
     * Run epochs until every shard's driver has returned false:
     * each epoch = parallel shard sub-simulations (beginShardEpoch
     * with the shard's grant, then the driver), a join barrier, and
     * the deterministic merge (drain logs, seniority-sort, accumulate,
     * recompute grants).
     */
    void run(const EpochDriver &driver);

    /** Epoch barriers executed by run(). */
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

    /** Coordinator tracepoints (`shard_merge` per epoch). */
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
    /**
     * Drive one (shard, epoch) sub-simulation with the shard's
     * promotion @p grant. Runs on worker threads — it must never touch
     * coordinator-guarded merge state, which -Wthread-safety enforces:
     * this function does not assert the coordinator role, so any
     * access to a MCLOCK_GUARDED_BY(coordinator_) member here is a
     * compile error (the grant is snapshotted by the coordinator and
     * passed in by value for exactly that reason).
     */
    void runEpochOn(unsigned s, std::uint64_t epoch,
                    std::uint64_t grant, const EpochDriver &driver);

    void mergeEpoch(std::uint64_t epoch) MCLOCK_REQUIRES(coordinator_);

    ShardOptions opts_;
    unsigned workers_ = 1;
    std::vector<std::unique_ptr<Simulator>> sims_;
    /** Per-shard event logs: single-writer (the owning worker) between
     *  barriers; drained only by the coordinator at the barrier. */
    std::vector<ShardEventLog> logs_;
    ShardedAddressSpace space_;

    /**
     * Coordinator thread-confinement capability (base/sync.hh): the
     * merge state below is owned by whichever thread runs run() /
     * mergeEpoch() and is handed off only at the epoch join barrier.
     * Functions that may execute on worker threads (runEpochOn) never
     * assert this role, so -Wthread-safety rejects any worker-side
     * access to guarded members at compile time.
     */
    base::ThreadRole coordinator_;

    /** Next-epoch promotion grants, recomputed at each merge. */
    std::vector<std::uint64_t> grants_ MCLOCK_GUARDED_BY(coordinator_);
    /** Shards whose driver still wants epochs (uint8: thread-safe
     *  element writes, unlike vector<bool>). Written element-disjoint
     *  by workers (shard s only from s's owner), read by the
     *  coordinator after the join barrier — not role-guarded. */
    std::vector<std::uint8_t> active_;
    std::vector<ShardEvent> events_ MCLOCK_GUARDED_BY(coordinator_);
    stats::VmStat coordVmstat_;
    stats::TraceBuffer trace_;
    /** Clock the coordinator trace stamps with (max shard time). */
    SimTime mergeClock_ MCLOCK_GUARDED_BY(coordinator_) = 0;
    std::uint64_t epochs_ MCLOCK_GUARDED_BY(coordinator_) = 0;
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_SHARDED_HH_
