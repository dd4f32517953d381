/**
 * @file
 * Deterministic migration-fault injection.
 *
 * Real tiering systems lose page migrations mid-flight: the copy hits a
 * device error, a racing access re-dirties the page under the copy, the
 * TLB shootdown times out, or the destination frame is raced away
 * before the remap commits (NOMAD makes this abort-and-retry loop a
 * first-class mechanism). The FaultInjector decides, per migration
 * transaction, whether one of the copy / TLB-shootdown / remap phases
 * fails, and whether the failure is transient (a retry may succeed) or
 * persistent (the page is poisoned and every later attempt fails too).
 *
 * Determinism contract: decisions come from a private xoshiro stream
 * seeded from (machine seed, fault seed), and every transaction
 * consumes a fixed number of draws regardless of its outcome. Fixing
 * the draw count gives a useful monotonicity property: raising a
 * failure probability can only grow the set of failing transactions,
 * never shuffle it — the promotion-success sweep test pins this. With
 * injection disabled no draws are consumed at all, so pre-existing
 * runs are bit-identical.
 */

#ifndef MCLOCK_SIM_FAULT_INJECTOR_HH_
#define MCLOCK_SIM_FAULT_INJECTOR_HH_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"

namespace mclock {
namespace sim {

/** Phases of a migration transaction that can fail. */
enum class FaultPhase : std::uint8_t {
    None,       ///< transaction committed
    Copy,       ///< device error / page dirtied under the copy
    Shootdown,  ///< TLB-shootdown IPI timed out
    Remap,      ///< destination frame raced away before the remap
};

/** Stable phase name ("copy", ...). */
const char *faultPhaseName(FaultPhase phase);

/** Per-scenario fault-injection knobs (part of MachineConfig). */
struct FaultConfig
{
    /** Master switch; off by default so existing runs are unchanged. */
    bool enabled = false;

    /** Mixed into the machine seed for the injector's private stream. */
    std::uint64_t seed = 0xfa017ull;

    /** Per-phase failure probability (before the tier multiplier). */
    double copyFailProb = 0.0;
    double shootdownFailProb = 0.0;
    double remapFailProb = 0.0;

    /** Probability an injected failure is persistent (page poisoned). */
    double persistentProb = 0.0;

    /**
     * Per-destination-tier error-rate multiplier, indexed by tier rank;
     * missing ranks default to 1.0 (e.g. {1.0, 1.0, 4.0} makes the
     * third tier's media 4x as failure-prone).
     */
    std::vector<double> tierErrorMultiplier;

    /** Retries after a transient abort (promote/demote paths). */
    unsigned maxRetries = 3;

    /** Base retry backoff, doubled per retry (background-charged). */
    SimTime retryBackoffNs = 20'000ull;

    /** Consecutive failed promotions before a node is throttled. */
    unsigned throttleThreshold = 8;

    /** Promotion cooldown once throttled (two scan intervals). */
    SimTime throttleCooldownNs = 8'000'000ull;

    bool operator==(const FaultConfig &) const = default;
};

/** What the injector decided for one migration transaction. */
struct FaultDecision
{
    FaultPhase failPhase = FaultPhase::None;
    bool persistent = false;

    bool injected() const { return failPhase != FaultPhase::None; }
};

/** Seed-driven per-transaction fault oracle for one simulated host. */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &cfg, std::uint64_t machineSeed);

    bool enabled() const { return cfg_.enabled; }
    const FaultConfig &config() const { return cfg_; }

    /**
     * Decide the fate of the next migration transaction moving @p vpn
     * to a node on tier @p dstTier. Draws a fixed number of uniforms
     * when enabled (see file comment); a no-op returning success when
     * disabled. Poisoned pages fail the copy phase unconditionally.
     */
    FaultDecision nextTransaction(PageNum vpn, TierRank dstTier);

    /** True once @p vpn took a persistent failure. */
    bool poisoned(PageNum vpn) const { return poisoned_.count(vpn) != 0; }

    std::uint64_t transactions() const { return transactions_; }
    std::uint64_t injected() const { return injected_; }
    std::size_t poisonedPages() const { return poisoned_.size(); }

  private:
    double tierMultiplier(TierRank rank) const;

    FaultConfig cfg_;
    Rng rng_;
    /** Membership/size queries only — hash order never observed. */
    // mclock-lint: unordered-iter-ok(never iterated: count/size only)
    std::unordered_set<PageNum> poisoned_;
    std::uint64_t transactions_ = 0;
    std::uint64_t injected_ = 0;
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_FAULT_INJECTOR_HH_
