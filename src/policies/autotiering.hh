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
 */

#ifndef MCLOCK_POLICIES_AUTOTIERING_HH_
#define MCLOCK_POLICIES_AUTOTIERING_HH_

#include <cstddef>
#include <unordered_map>

#include "base/types.hh"
#include "base/units.hh"
#include "policies/policy.hh"
#include "sim/daemon.hh"

namespace mclock {

namespace sim {
class Node;
}

namespace policies {

/** Tunables for the AutoTiering baselines. */
struct AutoTieringConfig
{
    /** Profiling (poisoning) pass period (task_numa_work cadence). */
    SimTime scanInterval = 1_s;
    /**
     * Pages poisoned per pass. AutoNUMA unmaps large chunks (default
     * scan size 256 MB); scaled to the simulated machine this covers a
     * sizeable fraction of the footprint each pass.
     */
    std::size_t poisonChunk = 8192;
    /**
     * CPM: a victim qualifies only if its last hint fault is older than
     * this (conservative "is it colder than the faulting page" check).
     */
    SimTime victimColdThreshold = 3_s;
};

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
    /** @param opm true for AT-OPM, false for AT-CPM */
    explicit AutoTieringPolicy(bool opm, AutoTieringConfig cfg = {});

    explicit AutoTieringPolicy(AutoTieringMode mode,
                               AutoTieringConfig cfg = {});

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

    const AutoTieringConfig &config() const { return cfg_; }

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
    AutoTieringConfig cfg_;
    PageNum cursor_ = 0;  ///< round-robin position of the poison pass
    /** Measured duration of one full poisoning pass over the space. */
    SimTime passPeriod_ = 0;
    /** Most recent hint fault per vpn (CPM's victim recency). */
    std::unordered_map<PageNum, SimTime> lastHintFault_;
};

}  // namespace policies
}  // namespace mclock

#endif  // MCLOCK_POLICIES_AUTOTIERING_HH_
