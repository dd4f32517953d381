/**
 * @file
 * Nimble page selection (recency-only baseline).
 *
 * Nimble's contribution is fast (multi-threaded, exchange-based) page
 * migration; its page *selection* reuses the kernel's CLOCK profiling:
 * any page in the lower tier that was referenced since the last scan is
 * a promotion candidate. Following the paper's methodology, we implement
 * exactly that single-threaded selection mechanism so the comparison
 * with MULTI-CLOCK isolates page selection: one access since the last
 * scan suffices for promotion (vs. MULTI-CLOCK's "recently accessed more
 * than once"). When the upper tier is full, Nimble uses its two-sided
 * page exchange with a cold page from the upper tier's inactive tail.
 */

#ifndef MCLOCK_POLICIES_NIMBLE_HH_
#define MCLOCK_POLICIES_NIMBLE_HH_

#include <cstddef>
#include <vector>

#include "base/types.hh"
#include "vm/page.hh"
#include "base/units.hh"
#include "policies/policy.hh"
#include "sim/daemon.hh"

namespace mclock {

namespace sim {
class Node;
}

namespace policies {

/** Tunables for the Nimble selection baseline. */
struct NimbleConfig
{
    SimTime scanInterval = 1_s;    ///< promotion daemon period
    std::size_t nrScan = 1024;     ///< pages scanned per list per run
    /**
     * Max pages promoted per wake: Nimble exchanges the *top* recently
     * accessed pages, a bounded batch per pass.
     */
    std::size_t promoteBudget = 128;
};

/** Recency-only promotion via reference bits; exchange when full. */
class NimblePolicy : public TieringPolicy
{
  public:
    explicit NimblePolicy(NimbleConfig cfg = {});

    const char *name() const override { return "nimble"; }

    void attach(sim::Simulator &sim) override;

    /** Same demotion machinery as MULTI-CLOCK minus the promote list. */
    void handlePressure(sim::Node &node) override;

    FeatureRow features() const override;

    /** Adjust the daemon period at runtime (Fig. 10 sweeps). */
    void setScanInterval(SimTime interval);

    const NimbleConfig &config() const { return cfg_; }

  private:
    /** Upper-tier pages sampled when looking for an exchange victim. */
    static constexpr std::size_t kVictimSample = 64;

    /** One wake of the promotion daemon on @p node. */
    void tick(sim::Node &node, SimTime now);

    /** Scan one list; promote every referenced page found. */
    std::uint64_t scanAndPromote(sim::Node &node, LruListKind kind,
                                 std::size_t nrScan, std::uint64_t &promoted);

    /** Find a cold page in the tier at @p tier to exchange with. */
    Page *pickExchangeVictim(bool anon, TierRank tier);

    NimbleConfig cfg_;
    std::vector<sim::DaemonId> daemonIds_;
};

}  // namespace policies
}  // namespace mclock

#endif  // MCLOCK_POLICIES_NIMBLE_HH_
