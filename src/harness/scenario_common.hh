/**
 * @file
 * Internal helpers shared by the scenario definition files. Not part of
 * the public harness API.
 */

#ifndef MCLOCK_HARNESS_SCENARIO_COMMON_HH_
#define MCLOCK_HARNESS_SCENARIO_COMMON_HH_

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/invariants.hh"
#include "harness/profiles.hh"
#include "harness/scenario.hh"
#include "sim/sharded.hh"
#include "sim/simulator.hh"

namespace mclock {
namespace harness {

/** printf-append into a string (scenario text is built off-thread). */
inline void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void
appendf(std::string &out, const char *fmt, ...)
{
    char stack[512];
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(stack, sizeof(stack), fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return;
    }
    if (static_cast<std::size_t>(n) < sizeof(stack)) {
        out.append(stack, static_cast<std::size_t>(n));
    } else {
        std::vector<char> heap(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(heap.data(), heap.size(), fmt, ap2);
        out.append(heap.data(), static_cast<std::size_t>(n));
    }
    va_end(ap2);
}

/** Wire the --stats context into a machine about to be instantiated. */
inline void
applyStatsContext(sim::MachineConfig &machine, const RunContext &ctx)
{
    machine.stats.sampler = ctx.stats;
}

/**
 * Run the shared invariant suite, file violations on the record, and
 * export the vmstat snapshot (plus trace/sampler artifacts in stats
 * mode, i.e. when applyStatsContext() registered the sampler).
 */
inline void
checkRunInvariants(sim::Simulator &sim, RunRecord &rec)
{
    for (auto &v : collectViolations(sim))
        rec.violations.push_back(std::move(v));
    rec.vmstat = sim.vmstat().snapshot();
    rec.perfAppOps += sim.appOps();
    rec.perfSimAccesses += sim.metrics().totalAccesses();
    if (sim.sampler()) {
        rec.traceEvents = sim.trace().events();
        rec.samplerCsv = sim.sampler()->toCsv();
    }
}

/**
 * The sharded-host counterpart of checkRunInvariants: run the invariant
 * suite on every shard (violations filed as "shardN: ..."), and export
 * the merged vmstat and perf totals (plus the coordinator trace in
 * stats mode). @p merged is host.mergedMetrics().
 */
inline void
checkShardedRunInvariants(sim::ShardedSimulator &host,
                          const sim::Metrics &merged, const RunContext &ctx,
                          RunRecord &rec)
{
    for (unsigned s = 0; s < host.shards(); ++s) {
        for (auto &v : collectViolations(host.shard(s)))
            rec.violations.push_back("shard" + std::to_string(s) +
                                     ": " + std::move(v));
    }
    rec.vmstat = merged.stats().snapshot();
    rec.perfAppOps = host.totalAppOps();
    rec.perfSimAccesses = merged.totalAccesses();
    if (ctx.stats)
        rec.traceEvents = host.trace().events();
}

/** Scenario factory groups (one per definition file). */
std::vector<Scenario> makeTraceScenarios();   // fig01, fig02, tab01
std::vector<Scenario> makeYcsbScenarios();    // fig05/08/09/10 + ablations
std::vector<Scenario> makeGapbsScenarios();   // fig06, fig07
std::vector<Scenario> makeTier3Scenarios();   // tier3_* (DRAM/CXL/PM)
std::vector<Scenario> makeFaultinjScenarios();  // faultinj_* (fault sweep)
std::vector<Scenario> makeShardScenarios();   // shard_bigmem family
std::vector<Scenario> makeTenantScenarios();  // tenant_* (memcg QoS)

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_SCENARIO_COMMON_HH_
