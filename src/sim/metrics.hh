/**
 * @file
 * Run metrics: the host's vmstat counters plus the paper's 20-second
 * windowed accounting.
 *
 * Event totals (promotions, demotions, faults, swap traffic, charged
 * overhead) live only in the stats::VmStat this class owns; Metrics
 * itself adds what a monotonic counter cannot express: the
 * per-window series (whose sums are the run's access and re-access
 * totals), memory service time per tier, and re-access tracking.
 *
 * Figures 8 and 9 report, per 20 s window, the number of pages promoted
 * and the percentage of recently promoted pages that were re-accessed
 * from DRAM. "Recently" means promoted in the last kpromoted scan: a
 * promoted page counts as re-accessed if a memory-visible DRAM access
 * touches it before the end of the promotion round following its own.
 */

#ifndef MCLOCK_SIM_METRICS_HH_
#define MCLOCK_SIM_METRICS_HH_

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "base/units.hh"
#include "stats/vmstat.hh"
#include "vm/page.hh"

namespace mclock {
namespace sim {

/** Aggregates for one time window. */
struct MetricsWindow
{
    std::uint64_t accesses = 0;
    /** Memory-visible accesses served by each tier, indexed by rank. */
    std::vector<std::uint64_t> tierAccesses;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t promotedReaccessed = 0;

    double
    reaccessPercent() const
    {
        return promotions
            ? 100.0 * static_cast<double>(promotedReaccessed) /
              static_cast<double>(promotions)
            : 0.0;
    }

    /** Accesses served by the tier at @p rank (0 if never touched). */
    std::uint64_t
    tierAccessCount(TierRank rank) const
    {
        const auto idx = static_cast<std::size_t>(rank);
        return idx < tierAccesses.size() ? tierAccesses[idx] : 0;
    }
};

/** Windowed and total metrics for one simulation run. */
class Metrics
{
  public:
    /** @param numNodes NUMA nodes the vmstat counters attribute to. */
    explicit Metrics(SimTime windowLen = 20_s, std::size_t numNodes = 0)
        : windowLen_(windowLen), stats_(numNodes)
    {
    }

    /**
     * Declare the machine's tier count so the per-tier vectors can be
     * sized once up front instead of growing on first touch.
     * Purely an allocation hint: counter values are unaffected, and the
     * accessors treat missing and zero entries identically.
     */
    void presizeTiers(std::size_t numTiers);

    // Called once per simulated access; defined inline so the call
    // disappears into Simulator::accessOnePage.
    void
    recordAccess(SimTime now, TierRank tier, bool llcHit)
    {
        auto &w = windowAt(now);
        ++w.accesses;
        if (!llcHit)
            bumpAt(w.tierAccesses, tier, 1);
    }

    /** Charge @p lat ns of memory service time to the tier at @p tier. */
    void
    recordMemLatency(TierRank tier, SimTime lat)
    {
        bumpAt(tierLatencyTotals_, tier, lat);
    }

    /**
     * A page was migrated upward: counts it in the current window and
     * stamps it with the promotion round for re-access tracking. The
     * run total is vmstat's pgpromote_success.
     */
    void recordPromotion(SimTime now, Page *page);

    /** A page was migrated downward (run total: vmstat's pgdemote). */
    void recordDemotion(SimTime now) { ++windowAt(now).demotions; }

    /** kpromoted (or equivalent) starts a new scan round. */
    void beginPromotionRound() { ++round_; }

    /**
     * Called for memory-visible accesses served above the bottom tier;
     * counts the first re-access of a page promoted in this or the
     * previous round.
     */
    void maybeRecordReaccess(SimTime now, Page *page);

    const std::vector<MetricsWindow> &windows() const { return windows_; }
    SimTime windowLength() const { return windowLen_; }
    std::uint64_t currentRound() const { return round_; }

    /** Accesses of the run (the sum over the windows). */
    std::uint64_t totalAccesses() const;
    /** Re-accessed promotions of the run (the sum over the windows). */
    std::uint64_t totalReaccessed() const;

    /** Memory-visible accesses served by the tier at @p rank. */
    std::uint64_t totalTierAccesses(TierRank rank) const;
    /** Total ns of memory service time spent in the tier at @p rank. */
    SimTime totalTierLatency(TierRank rank) const;

    /** The host's vmstat counters: every event total of the run. */
    stats::VmStat &stats() { return stats_; }
    const stats::VmStat &stats() const { return stats_; }

    /**
     * Accumulate @p other into this instance: windows add index-wise
     * (both sides bucket simulated time with the same window length),
     * per-tier latency adds element-wise, vmstat counters add item- and
     * node-wise. The reduction is commutative, so the sharded runtime's
     * merged view is identical for any worker count. Panics if the
     * window lengths differ.
     */
    void mergeFrom(const Metrics &other);

  private:
    /**
     * Window for time @p now. The simulated clock is monotonic, so
     * nearly every call lands in the same window as the previous one;
     * the cached-bounds check replaces a 64-bit division per access.
     */
    MetricsWindow &
    windowAt(SimTime now)
    {
        if (now >= curWinStart_ && now < curWinEnd_) [[likely]]
            return windows_[curWinIdx_];
        return windowSlow(now);
    }

    /** Out-of-line path: recompute the index, grow windows_. */
    MetricsWindow &windowSlow(SimTime now);

    static void
    bumpAt(std::vector<std::uint64_t> &counts, TierRank rank,
           std::uint64_t delta)
    {
        const auto idx = static_cast<std::size_t>(rank);
        if (counts.size() <= idx) [[unlikely]]
            counts.resize(idx + 1);
        counts[idx] += delta;
    }

    SimTime windowLen_;
    std::size_t numTiers_ = 0;  ///< presize hint for tier vectors
    // Bounds of the most recently touched window (see windowAt).
    SimTime curWinStart_ = 0;
    SimTime curWinEnd_ = 0;  ///< exclusive; 0 forces a recompute
    std::size_t curWinIdx_ = 0;
    std::vector<MetricsWindow> windows_;
    std::uint64_t round_ = 1;
    std::vector<SimTime> tierLatencyTotals_;  ///< indexed by rank
    stats::VmStat stats_;
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_METRICS_HH_
