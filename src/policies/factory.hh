/**
 * @file
 * Policy factory: construct any policy by its short name.
 *
 * Recognised names: "static", "multiclock", "nimble", "at-cpm",
 * "at-opm", "memory-mode" (requires dramCacheBytes), "amp-lru",
 * "amp-lfu", "amp-random".
 */

#ifndef MCLOCK_POLICIES_FACTORY_HH_
#define MCLOCK_POLICIES_FACTORY_HH_

#include <memory>
#include <string>
#include <vector>

#include "policies/policy.hh"

namespace mclock {
namespace policies {

/** Cross-policy tunables applied by the factory. */
struct PolicyOptions
{
    /** Daemon wake period for every policy's profiling/promotion
     *  thread. Benches scale this down together with machine capacity
     *  so the cadence-to-workload-duration ratio matches the paper. */
    SimTime scanInterval = 1'000'000'000ull;  // 1 s, the paper default
    /** Pages scanned per list per wake (paper: 1024). */
    std::size_t nrScan = 1024;
    /**
     * AutoTiering PTE-poisoning rate in pages per second (AutoNUMA's
     * scan_size budget, scaled); the per-pass chunk is rate x interval.
     */
    double poisonPagesPerSec = 8192.0;
    /** DRAM capacity handed to Memory-mode as its memory-side cache. */
    std::size_t dramCacheBytes = 0;

    bool operator==(const PolicyOptions &) const = default;
};

/** Construct a policy by name; fatal on unknown names. */
std::unique_ptr<TieringPolicy> makePolicy(const std::string &name,
                                          const PolicyOptions &opts);

/** Convenience overload with default options. */
std::unique_ptr<TieringPolicy> makePolicy(
    const std::string &name, std::size_t dramCacheBytes = 0);

/** All policy names usable with makePolicy(). */
std::vector<std::string> policyNames();

/** The names compared in the paper's Fig. 5/6 (tiered systems). */
std::vector<std::string> tieredPolicyNames();

}  // namespace policies
}  // namespace mclock

#endif  // MCLOCK_POLICIES_FACTORY_HH_
