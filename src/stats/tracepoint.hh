/**
 * @file
 * Tracepoint ring buffer: the simulator's ftrace analogue.
 *
 * Subsystems record typed events (migration start/complete, list
 * rotations, daemon wakes, watermark crossings) stamped with simulated
 * time into a fixed-capacity ring. When the ring is full the oldest
 * event is overwritten and a dropped counter advances, so tracing costs
 * O(1) memory regardless of run length — exactly like a kernel trace
 * buffer. A capacity of zero disables recording entirely.
 *
 * The buffer reads its timestamps through a bound clock pointer (the
 * owning Simulator's now_), so low-level subsystems (LRU lists) can
 * record events without a dependency on the simulator.
 *
 * Like VmStat, a TraceBuffer is single-owner state: only the owning
 * simulator's driving thread records, and only after a join barrier
 * does another thread (the sharded coordinator, the harness reducer)
 * read it. That confinement is expressed with a zero-cost ThreadRole
 * capability (base/sync.hh) so -Wthread-safety can check it.
 */

#ifndef MCLOCK_STATS_TRACEPOINT_HH_
#define MCLOCK_STATS_TRACEPOINT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "base/sync.hh"
#include "base/types.hh"

namespace mclock {
namespace stats {

/** Event taxonomy; names mirror the tracepoints they stand in for. */
enum class TraceEventType : std::uint8_t {
    MigrationStart,     ///< migrate_pages entry: arg0=vpn, arg1=dst node
    MigrationComplete,  ///< migrate_pages success: arg0=vpn, arg1=dst
    MigrationAbort,     ///< transaction aborted: arg0=vpn, arg1=phase
    PromoteThrottle,    ///< node promotion throttled: arg0=streak,
                        ///< arg1=cooldown end (simulated ns)
    ListRotation,       ///< second-chance rotation: arg0=vpn, arg1=list
    KswapdWake,         ///< pressure handler wake: arg0=free frames
    KpromotedWake,      ///< promotion daemon wake: arg0=promote-list size
    WatermarkCross,     ///< free count crossed low mark: arg0=free frames
    ShardEpoch,         ///< shard epoch begins: arg0=epoch,
                        ///< arg1=promote budget granted (0 = unlimited)
    ShardMerge,         ///< coordinator merged an epoch: arg0=epoch,
                        ///< arg1=events merged across shards
    MemcgReclaim,       ///< memcg hard-cap reclaim: arg0=cgroup id,
                        ///< arg1=pages demoted
};

/** Stable tracepoint name ("migration_start", ...). */
const char *traceEventName(TraceEventType type);

/** One recorded event. */
struct TraceEvent
{
    SimTime time = 0;
    TraceEventType type = TraceEventType::MigrationStart;
    NodeId node = kInvalidNode;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
};

/** Fixed-capacity overwriting ring of trace events. */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity = 0) : capacity_(capacity)
    {
        ring_.reserve(capacity_);
    }

    /** Bind the simulated clock record() stamps events with. */
    void
    bindClock(const SimTime *clock)
    {
        owner_.assertHeld();
        clock_ = clock;
    }

    bool enabled() const { return capacity_ != 0; }
    std::size_t capacity() const { return capacity_; }

    std::size_t
    size() const
    {
        owner_.assertHeld();
        return ring_.size();
    }

    /** Events overwritten because the ring was full. */
    std::uint64_t
    dropped() const
    {
        owner_.assertHeld();
        return dropped_;
    }

    /** Total events ever recorded (size() + dropped()). */
    std::uint64_t
    recorded() const
    {
        owner_.assertHeld();
        return recorded_;
    }

    void
    record(TraceEventType type, NodeId node, std::uint64_t arg0 = 0,
           std::uint64_t arg1 = 0)
    {
        // Hot path: the assert is an empty inline function — zero cost
        // at runtime, a capability assertion under -Wthread-safety.
        owner_.assertHeld();
        if (capacity_ == 0)
            return;
        TraceEvent ev;
        ev.time = clock_ ? *clock_ : 0;
        ev.type = type;
        ev.node = node;
        ev.arg0 = arg0;
        ev.arg1 = arg1;
        ++recorded_;
        if (ring_.size() < capacity_) {
            ring_.push_back(ev);
            return;
        }
        ring_[head_] = ev;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    /** Events in recording order (oldest surviving first). */
    std::vector<TraceEvent> events() const;

    void
    clear()
    {
        owner_.assertHeld();
        ring_.clear();
        head_ = 0;
        dropped_ = 0;
        recorded_ = 0;
    }

  private:
    /** Single-owner confinement capability (see file comment). */
    base::ThreadRole owner_;
    std::size_t capacity_;  ///< immutable after construction
    /** Oldest element once the ring wrapped. */
    std::size_t head_ MCLOCK_GUARDED_BY(owner_) = 0;
    std::uint64_t dropped_ MCLOCK_GUARDED_BY(owner_) = 0;
    std::uint64_t recorded_ MCLOCK_GUARDED_BY(owner_) = 0;
    const SimTime *clock_ MCLOCK_GUARDED_BY(owner_) = nullptr;
    std::vector<TraceEvent> ring_ MCLOCK_GUARDED_BY(owner_);
};

/**
 * Append @p events as JSON lines:
 *   {"unit":"...","t":123,"ev":"migration_start","node":1,...}
 */
void appendTraceJsonl(std::string &out,
                      const std::vector<TraceEvent> &events,
                      const std::string &unit);

}  // namespace stats
}  // namespace mclock

#endif  // MCLOCK_STATS_TRACEPOINT_HH_
