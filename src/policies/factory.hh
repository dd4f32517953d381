/**
 * @file
 * Policy factory: construct any policy by its short name.
 *
 * Recognised names: "static", "multiclock", "nimble", "at-cpm",
 * "at-opm", "autonuma", "memory-mode" (requires dramCacheBytes),
 * "amp-lru", "amp-lfu", "amp-random".
 *
 * PolicyOptions (policies/policy.hh) is the whole configuration: the
 * factory hands it to the policy's constructor unchanged. Per-wake
 * promotion caps are class constants (MultiClockPolicy::kPromoteBudget,
 * NimblePolicy::kPromoteBudget, AmpPolicy's batch), and AutoTiering
 * derives its poison chunk and victim-cold floor from the options.
 */

#ifndef MCLOCK_POLICIES_FACTORY_HH_
#define MCLOCK_POLICIES_FACTORY_HH_

#include <memory>
#include <string>
#include <vector>

#include "policies/policy.hh"

namespace mclock {
namespace policies {

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
