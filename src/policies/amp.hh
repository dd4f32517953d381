/**
 * @file
 * AMP-style page selection (extension; §II-D of the paper).
 *
 * AMP proposes tiered-memory page selection based on classical cache
 * replacement policies — LRU, LFU, and random — implemented by scanning
 * and profiling *all* memory pages of both tiers, which the paper argues
 * is impractical inside a real kernel (hundreds of millions of pages).
 * Our simulated machine is small enough to run it, so we provide AMP as
 * an extension baseline for the ablation benches: it quantifies what an
 * oracle-ish full-profiling selector buys relative to MULTI-CLOCK's
 * bounded scans, and what it costs.
 */

#ifndef MCLOCK_POLICIES_AMP_HH_
#define MCLOCK_POLICIES_AMP_HH_

#include <cstddef>

#include "base/types.hh"
#include "base/units.hh"
#include "policies/policy.hh"

namespace mclock {

namespace sim {
class Node;
}

namespace policies {

/** AMP selection flavours. */
enum class AmpMode {
    Lru,     ///< promote the most recently accessed lower-tier pages
    Lfu,     ///< promote the most frequently accessed lower-tier pages
    Random,  ///< promote uniformly random lower-tier pages
};

/** Tunables for the AMP extension baseline. */
struct AmpConfig
{
    SimTime scanInterval = 1_s;
};

/** Full-profiling LRU/LFU/Random selection (AMP). */
class AmpPolicy : public TieringPolicy
{
  public:
    explicit AmpPolicy(AmpMode mode, AmpConfig cfg = {});

    const char *name() const override;

    void attach(sim::Simulator &sim) override;

    void handlePressure(sim::Node &node) override;

    FeatureRow features() const override;

  private:
    /** Pages promoted per pass (full profiling selects the global top). */
    static constexpr std::size_t kPromoteBatch = 512;

    void tick(SimTime now);

    AmpMode mode_;
    AmpConfig cfg_;
};

}  // namespace policies
}  // namespace mclock

#endif  // MCLOCK_POLICIES_AMP_HH_
