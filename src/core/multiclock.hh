/**
 * @file
 * MULTI-CLOCK: the paper's dynamic tiering policy.
 *
 * MULTI-CLOCK runs a modified CLOCK-based PFRA on each memory tier
 * separately. Beyond the kernel's active and inactive lists it adds a
 * third per-node list — the promote list — holding pages that were
 * recently accessed more than once (its principal hypothesis: such pages
 * are the ones likely to be accessed again soon). A periodic kernel
 * daemon, kpromoted, scans the lists of lower-tier nodes, advances page
 * states (inactive -> active -> promote) from PTE reference bits, and
 * migrates every selected promote-list page to the DRAM tier in the same
 * run. Demotion reuses the watermark-driven eviction design, migrating
 * unreferenced inactive-tail pages one tier down instead of evicting.
 *
 * Page state machine (paper Fig. 4): see transition numbers referenced
 * in the implementation comments; every transition has a dedicated unit
 * test in tests/core.
 *
 * Configuration: the kpromoted period and per-list scan budget come from
 * PolicyOptions (scanInterval, nrScan); the per-wake promotion cap is
 * the constant kPromoteBudget (64 pages).
 */

#ifndef MCLOCK_CORE_MULTICLOCK_HH_
#define MCLOCK_CORE_MULTICLOCK_HH_

#include <cstddef>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "pfra/vmscan.hh"
#include "policies/policy.hh"

namespace mclock {
namespace core {

class Kpromoted;

/** The MULTI-CLOCK tiering policy. */
class MultiClockPolicy : public policies::TieringPolicy
{
  public:
    /**
     * Max pages kpromoted migrates up per wake per node. kpromoted
     * promotes everything it selects, but selection itself is bounded
     * by the scan budget; this cap mirrors that bound and prevents
     * promote/demote churn when the hot set far exceeds DRAM.
     */
    static constexpr std::size_t kPromoteBudget = 64;

    /** Reads opts.scanInterval (the kpromoted period) and opts.nrScan. */
    explicit MultiClockPolicy(const policies::PolicyOptions &opts = {});
    ~MultiClockPolicy() override;

    const char *name() const override { return "multiclock"; }

    void attach(sim::Simulator &sim) override;

    /**
     * The extended mark_page_accessed(): supervised accesses advance
     * pages inactive -> active as in vanilla Linux, plus the MULTI-CLOCK
     * extension — an already-active, already-referenced page that is
     * referenced again acquires PagePromote and moves to the promote
     * list (Fig. 4 transition 10).
     */
    void onSupervisedAccess(Page *page) override;

    /**
     * Demotion mechanism (paper §III-C): (1) promote-list pages are
     * first attempted to migrate up (locked pages fall back to the
     * active list); (2) the active:inactive ratio is rebalanced; (3)
     * unreferenced inactive-tail pages migrate one tier down, or are
     * written back to storage on the lowest tier.
     */
    void handlePressure(sim::Node &node) override;

    policies::FeatureRow features() const override;

    /**
     * Demote up to @p target unreferenced inactive-tail pages from the
     * given tier to make room for promotions ("promotions from the
     * lower tier result in immediate page demotions from the higher
     * tier", paper III-C). Returns the number of pages demoted; zero
     * when the tier is uniformly warm, which back-pressures promotion
     * instead of churning warm pages.
     */
    std::size_t demoteFromTier(TierRank tier, std::size_t target);

  private:
    friend class Kpromoted;

    /**
     * Filter sparing pages of tenants at or below their memcg "low"
     * floor on @p tier; empty (no overhead) on hosts without tenants.
     */
    pfra::PageFilter lowProtectionFilter(TierRank tier) const;

    /** kpromoted wake period; the paper selects 1 s (Fig. 10). */
    SimTime scanInterval_;
    /** Pages scanned per list per kpromoted run (paper: 1024). */
    std::size_t nrScan_;
    std::vector<std::unique_ptr<Kpromoted>> kpromoted_;
};

}  // namespace core
}  // namespace mclock

#endif  // MCLOCK_CORE_MULTICLOCK_HH_
