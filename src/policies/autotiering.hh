/**
 * @file
 * AutoTiering baselines (AT-CPM and AT-OPM).
 *
 * AutoTiering builds on AutoNUMA: a profiling pass periodically poisons
 * ranges of PTEs (PROT_NONE) so that the next access takes a software
 * hint page fault, which both records recency and triggers migration
 * decisions *synchronously in the fault handler*:
 *
 *  - AT-CPM (conservative): a faulting lower-tier page is promoted to
 *    the best node if it has free space; otherwise CPM exchanges it with
 *    an upper-tier victim that looks colder (no recent hint fault). With
 *    sparse fault-based recency this misjudges under churny workloads.
 *  - AT-OPM (opportunistic/progressive): additionally maintains an n-bit
 *    per-page access-history vector from the profiling passes and
 *    proactively demotes zero-history upper-tier pages, keeping headroom
 *    so fault-path promotions rarely need exchanges.
 *
 * Both pay the hint-fault trap cost on the application's critical path,
 * and fault-path migrations carry the faultPathMigrationMultiplier
 * (page-lock stalls on the paper's 32-core machine).
 *
 * Configuration comes from PolicyOptions. Each pass poisons
 * max(16, poisonPagesPerSec x scanInterval) pages (AutoNUMA unmaps
 * large chunks, default scan size 256 MB, scaled here), capped by the
 * footprint; CPM's victim must have had no hint fault for at least
 * 3 x scanInterval (roughly three passes) or one full poisoning pass.
 * The defaults give a chunk of 8192 pages and a 3 s floor.
 */

#ifndef MCLOCK_POLICIES_AUTOTIERING_HH_
#define MCLOCK_POLICIES_AUTOTIERING_HH_

#include <cstddef>
#include <unordered_map>

#include "base/types.hh"
#include "policies/policy.hh"
#include "sim/daemon.hh"

namespace mclock {

namespace sim {
class Node;
}

namespace policies {

/** The three hint-fault-based variants. */
enum class AutoTieringMode {
    AutoNuma,  ///< AutoNUMA-tiering: promote on fault when space exists
    Cpm,       ///< + conservative exchange with a colder victim
    Opm,       ///< + n-bit history and progressive demotion
};

/** AutoTiering-CPM / AutoTiering-OPM / AutoNUMA-tiering. */
class AutoTieringPolicy : public TieringPolicy
{
  public:
    /**
     * Reads opts.scanInterval (the profiling-pass period) and
     * opts.poisonPagesPerSec, from which it derives the poison chunk
     * and the CPM victim-cold floor.
     */
    explicit AutoTieringPolicy(AutoTieringMode mode,
                               const PolicyOptions &opts = {});

    const char *
    name() const override
    {
        switch (mode_) {
          case AutoTieringMode::AutoNuma: return "autonuma";
          case AutoTieringMode::Cpm: return "at-cpm";
          case AutoTieringMode::Opm: return "at-opm";
        }
        return "autotiering";
    }

    void attach(sim::Simulator &sim) override;

    void onHintFault(Page *page) override;

    void onPageFreed(Page *page) override;

    /** OPM demotes history-cold pages under pressure; CPM has none. */
    void handlePressure(sim::Node &node) override;

    FeatureRow features() const override;

  private:
    /** Upper-tier pages sampled when looking for an exchange victim. */
    static constexpr std::size_t kVictimSample = 8;
    /** OPM: max proactive demotions per profiling pass or pressure call. */
    static constexpr std::size_t kDemoteBudget = 512;

    /** One profiling pass: poison PTEs, shift history, OPM demotions. */
    void scanTick(SimTime now);

    /** Sampled victim from the tier at @p tier that looks cold. */
    Page *pickColdVictim(bool anon, SimTime now, TierRank tier);

    /** Horizon separating warm from cold by hint-fault recency. */
    SimTime coldHorizon() const;

    /** Time of @p page's most recent hint fault, or 0 if it had none. */
    SimTime lastHintFault(const Page *page) const;

    /** Isolate + demote a page, reinserting on the lower tier's list. */
    bool demoteColdPage(Page *page);

    bool
    opm() const
    {
        return mode_ == AutoTieringMode::Opm;
    }

    AutoTieringMode mode_;
    /** Profiling (poisoning) pass period (task_numa_work cadence). */
    SimTime scanInterval_;
    /** Pages poisoned per second (AutoNUMA's scan size, scaled). */
    double poisonPagesPerSec_;
    PageNum cursor_ = 0;  ///< round-robin position of the poison pass
    /** Measured duration of one full poisoning pass over the space. */
    SimTime passPeriod_ = 0;
    /** Most recent hint fault per vpn (CPM's victim recency). */
    std::unordered_map<PageNum, SimTime> lastHintFault_;
};

}  // namespace policies
}  // namespace mclock

#endif  // MCLOCK_POLICIES_AUTOTIERING_HH_
