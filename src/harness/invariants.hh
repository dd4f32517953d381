/**
 * @file
 * Global simulator invariants, checked after every harness run.
 *
 * These are the properties that must hold at any quiescent point of any
 * policy, expressed as a library so the harness runner, the property
 * tests, and the golden regression suite all enforce the same set:
 *
 *  - frame conservation: each node's used-frame count equals the number
 *    of resident pages placed on it, and never exceeds its capacity;
 *  - single residency: a resident page is placed on exactly one node
 *    (never counted in two tiers) and sits on exactly one LRU list of
 *    that node; non-resident pages are on no list;
 *  - promote-list discipline: pages on a promote list carry the
 *    PagePromote flag (MULTI-CLOCK's PG_referenced-equivalent selection
 *    evidence), and promote lists only ever hold pages whose anonymity
 *    matches the list family;
 *  - tier topology: the rank buckets partition the machine's nodes and
 *    frames;
 *  - vmstat against state: resident pages <= pgfault - pgsteal; each
 *    swapped-out anonymous page holds one swap slot and pswpout ==
 *    slots held + freed by page-in + released at unmap; the Fig. 8
 *    window series sums to pgpromote_success / pgdemote; LRU scans
 *    never exceed the charged scan volume (pgscan_charged); node-
 *    attributed items sum over nodes to their global count;
 *  - memcg charges equal the resident pages tagged with each group.
 */

#ifndef MCLOCK_HARNESS_INVARIANTS_HH_
#define MCLOCK_HARNESS_INVARIANTS_HH_

#include <string>
#include <vector>

namespace mclock {

namespace sim {
class Simulator;
}

namespace harness {

/**
 * Check all invariants on @p sim (the host must be quiescent: no page
 * isolated off its LRU list).
 * @return one human-readable message per violation; empty when clean
 */
std::vector<std::string> collectViolations(sim::Simulator &sim);

/**
 * The subset of collectViolations() that also holds while pages sit
 * isolated mid-migration: tier topology, vmstat against state, and
 * memcg charges.
 */
std::vector<std::string> collectCounterViolations(sim::Simulator &sim);

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_INVARIANTS_HH_
