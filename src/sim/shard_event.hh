/**
 * @file
 * Cross-shard event records and the per-shard ordered event log.
 *
 * A sharded machine runs S sub-simulators in parallel. Anything one
 * shard does that the coordinator must observe (completed promotions,
 * demotions, exchanges) is appended to the shard's own log —
 * single-writer, no locking — and closed into a per-epoch slice when
 * the shard's epoch ends. At a merge, the coordinator takes one slice
 * per shard for the epoch it merges and k-way merges them by
 * *seniority*:
 *
 *     (sim_time, shard_id, seq)
 *
 * Simulated time orders events first; the shard id breaks wall-clock
 * ties between shards, and the per-shard monotonic sequence number
 * breaks same-time ties within one shard (append order). The merged
 * stream is therefore a pure function of each shard's deterministic
 * execution — independent of how many worker threads ran the epoch —
 * which is what makes `--shards 1` and `--shards 8` bit-identical.
 */

#ifndef MCLOCK_SIM_SHARD_EVENT_HH_
#define MCLOCK_SIM_SHARD_EVENT_HH_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "base/sync.hh"
#include "base/types.hh"

namespace mclock {
namespace sim {

/** What a shard reports to the coordinator's merge. */
enum class ShardEventKind : std::uint8_t {
    Promote,   ///< page migrated one tier up (vpn, arg = dst node)
    Demote,    ///< page migrated one tier down (vpn, arg = dst node)
    Exchange,  ///< two-sided tiered exchange (vpn = hot, arg = cold vpn)
};

/** One cross-shard event, stamped for seniority ordering. */
struct ShardEvent
{
    SimTime time = 0;         ///< shard-local simulated time
    std::uint32_t shard = 0;  ///< originating shard
    std::uint64_t seq = 0;    ///< per-shard append counter
    ShardEventKind kind = ShardEventKind::Promote;
    std::uint64_t vpn = 0;    ///< shard-local vpn of the moved page
    std::uint64_t arg = 0;    ///< kind-specific (see ShardEventKind)
};

/** Strict-weak seniority order: (time, shard, seq). */
inline bool
shardEventSenior(const ShardEvent &a, const ShardEvent &b)
{
    if (a.time != b.time)
        return a.time < b.time;
    if (a.shard != b.shard)
        return a.shard < b.shard;
    return a.seq < b.seq;
}

/** One shard's closed epoch: its events and where its clock ended. */
struct ShardEpochSlice
{
    SimTime end = 0;                 ///< shard clock at the epoch's end
    std::vector<ShardEvent> events;  ///< the epoch's events, append order
};

/**
 * Append-only event log owned by one shard. Ownership follows the
 * shard's claim: the thread running one of the shard's epochs appends
 * and closes the epoch; the coordinator takes closed slices only after
 * the workers have joined (never concurrently — the join is the
 * handoff point). A shard may close several epochs before the
 * coordinator takes any; slices come out oldest first. The sequence
 * counter is monotonic across the whole run, not per epoch, so
 * replaying merged epochs back to back yields one totally ordered
 * stream.
 */
class ShardEventLog
{
  public:
    ShardEventLog() = default;

    void bind(std::uint32_t shard) { shard_ = shard; }

    std::uint32_t shard() const { return shard_; }

    void
    append(ShardEventKind kind, SimTime time, std::uint64_t vpn,
           std::uint64_t arg)
    {
        // Single-owner discipline: the log belongs to whichever thread
        // holds the shard's claim, and to the coordinator once the
        // workers have joined (base/sync.hh ThreadRole).
        owner_.assertHeld();
        buf_.push_back({time, shard_, seq_++, kind, vpn, arg});
    }

    /** Events appended since the last drain. */
    std::size_t
    size() const
    {
        owner_.assertHeld();
        return buf_.size();
    }

    /** Hand out the events appended since the last drain; reset. */
    std::vector<ShardEvent>
    drain()
    {
        owner_.assertHeld();
        std::vector<ShardEvent> out;
        out.swap(buf_);
        return out;
    }

    /**
     * End the shard's current epoch at shard clock @p end: everything
     * appended since the last drain becomes the epoch's slice.
     */
    void
    closeEpoch(SimTime end)
    {
        owner_.assertHeld();
        closed_.push_back({end, drain()});
    }

    /** Closed epochs not yet taken. */
    std::size_t
    closedEpochs() const
    {
        owner_.assertHeld();
        return closed_.size();
    }

    /** Take the oldest closed epoch (closedEpochs() must be > 0). */
    ShardEpochSlice
    takeEpoch()
    {
        owner_.assertHeld();
        ShardEpochSlice out = std::move(closed_.front());
        closed_.pop_front();
        return out;
    }

  private:
    std::uint32_t shard_ = 0;
    /** Claim-passed ownership: the claiming worker while an epoch
     *  runs, the coordinator after the join (see append). */
    base::ThreadRole owner_;
    std::uint64_t seq_ MCLOCK_GUARDED_BY(owner_) = 0;
    std::vector<ShardEvent> buf_ MCLOCK_GUARDED_BY(owner_);
    std::deque<ShardEpochSlice> closed_ MCLOCK_GUARDED_BY(owner_);
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_SHARD_EVENT_HH_
