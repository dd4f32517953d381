/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a layer: name, host start/end (ns on
 * std::chrono::steady_clock), the span that caused it, the run (rep)
 * it belongs to, and the thread that recorded it. Spans are appended
 * to *lanes*: one lane per independent execution context (the main
 * thread, or the worker thread that drives one shard in an epoch).
 * A lane has a single writer at any time — shard lanes are handed
 * between worker threads only at the sharded simulator's epoch
 * barrier — so recording takes no lock. Nothing is written out until
 * the benchmark ends (writeChromeTrace).
 */

#ifndef PERFBENCH_SPANS_HH_
#define PERFBENCH_SPANS_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host time in ns (steady clock, arbitrary epoch). */
inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = "";   ///< static string (a layer boundary)
    std::int64_t start = 0;  ///< host ns
    std::int64_t end = 0;    ///< host ns
    std::uint64_t id = 0;    ///< unique across lanes; never 0
    std::uint64_t parent = 0;  ///< 0 = top-level
    std::uint32_t run = 0;
    std::uint32_t thread = 0;  ///< small per-process thread index
};

/** The spans of one execution context (see file comment). */
class SpanLane
{
  public:
    explicit SpanLane(std::uint32_t index) : index_(index) {}

    /** Open a span; the innermost open span of this lane is its parent. */
    std::size_t open(const char *name);

    /** Close the span returned by open() (must be the innermost). */
    void close(std::size_t slot);

    /**
     * Parent for spans opened while this lane has nothing open: links
     * a shard lane's epoch spans to the coordinator's run span.
     */
    void setRootParent(std::uint64_t id) { rootParent_ = id; }

    /** Id of the span in @p slot. */
    std::uint64_t idOf(std::size_t slot) const { return spans_[slot].id; }

    void setRun(std::uint32_t run) { run_ = run; }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::uint32_t index_;
    std::uint32_t run_ = 0;
    std::uint64_t rootParent_ = 0;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span; a null lane records nothing and reads no clock. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLane *lane, const char *name)
        : lane_(lane), slot_(lane ? lane->open(name) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (lane_)
            lane_->close(slot_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return lane_ ? lane_->idOf(slot_) : 0; }

  private:
    SpanLane *lane_;
    std::size_t slot_;
};

/** A fixed set of lanes; lane 0 is the main thread. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::size_t lanes);

    SpanLane &lane(std::size_t i) { return lanes_[i]; }
    const SpanLane &lane(std::size_t i) const { return lanes_[i]; }
    std::size_t lanes() const { return lanes_.size(); }

    /** Stamp subsequent spans of every lane with run id @p run. */
    void beginRun(std::uint32_t run);

    /** Every span of run @p run, all lanes. */
    std::vector<Span> runSpans(std::uint32_t run) const;

    /** Write all spans as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<SpanLane> lanes_;
};

/** Self time and call count of one span name. */
struct SpanTotal
{
    double selfS = 0.0;
    std::uint64_t calls = 0;
};

/**
 * Per-name totals over @p spans. A span's self time is its duration
 * minus the part of its interval its children cover (children on
 * other threads may overlap each other; their union is subtracted).
 */
std::map<std::string, SpanTotal> selfTimes(const std::vector<Span> &spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HH_
