/**
 * @file
 * Internal helpers shared by the scenario definition files. Not part of
 * the public harness API.
 */

#ifndef MCLOCK_HARNESS_SCENARIO_COMMON_HH_
#define MCLOCK_HARNESS_SCENARIO_COMMON_HH_

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/csv.hh"
#include "base/logging.hh"
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

/**
 * Wire the run context into a machine about to be instantiated: the
 * base seed, and the vmstat sampler in --stats mode.
 */
inline void
applyStatsContext(sim::MachineConfig &machine, const RunContext &ctx)
{
    machine.seed = ctx.seed;
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

/** The host of one single-host unit: machine, policy and its options. */
struct HostSpec
{
    std::string policy;
    sim::MachineConfig machine;
    policies::PolicyOptions opts = benchPolicyOptions();
};

/** @p policy on the YCSB machine (golden or full scale). */
inline HostSpec
ycsbHost(const RunContext &ctx, const std::string &policy)
{
    return {policy, ctx.golden ? goldenYcsbMachine() : ycsbMachine()};
}

/**
 * The runner of every single-host scenario unit: applies the context
 * to @p host's machine, builds the Simulator, installs the policy and
 * calls body(sim, rec), which drives the workload and adds the unit's
 * own metric keys. The body returns the workload object it drove;
 * that object, and every region it still maps, lives until
 * checkRunInvariants() has filed the violations and exported the
 * counters.
 */
template <typename Body>
RunRecord
runHost(const RunContext &ctx, HostSpec host, Body &&body)
{
    applyStatsContext(host.machine, ctx);
    RunRecord rec;
    sim::Simulator sim(host.machine);
    sim.setPolicy(policies::makePolicy(host.policy, host.opts));
    [[maybe_unused]] const auto workload = body(sim, rec);
    checkRunInvariants(sim, rec);
    return rec;
}

/** YCSB workload at the context's scale; --param ops overrides the
 *  per-phase op count, and the key stream is seeded from @p slot. */
inline workloads::YcsbConfig
ycsbWorkload(const RunContext &ctx, std::uint64_t fullOps,
             std::uint64_t goldenOps, std::uint64_t slot)
{
    const std::uint64_t ops =
        ctx.param("ops", ctx.golden ? goldenOps : fullOps);
    auto cfg = ctx.golden ? goldenYcsbConfig(ops) : ycsbBenchConfig(ops);
    cfg.seed = ctx.derivedSeed(slot, cfg.seed);
    return cfg;
}

/** The paper's YCSB phase order after load: A, B, C, F, W, D. */
inline const std::vector<workloads::YcsbWorkload> kPaperSequence = {
    workloads::YcsbWorkload::A, workloads::YcsbWorkload::B,
    workloads::YcsbWorkload::C, workloads::YcsbWorkload::F,
    workloads::YcsbWorkload::W, workloads::YcsbWorkload::D};

/** Adds a YCSB unit's metric keys from its host and phase results. */
using YcsbReport =
    std::function<void(sim::Simulator &,
                       const std::vector<workloads::YcsbResult> &,
                       RunRecord &)>;

/** The YCSB unit: load, then run @p phases in order on @p host. */
RunRecord runYcsb(const RunContext &ctx, const HostSpec &host,
                  const workloads::YcsbConfig &ycsb,
                  const std::vector<workloads::YcsbWorkload> &phases,
                  const YcsbReport &report);

/**
 * The GAPBS unit: run @p kernel on @p host, record "seconds" (mean
 * simulated time per trial), then let @p report add its keys.
 */
RunRecord runGapbs(
    const RunContext &ctx, const HostSpec &host,
    const workloads::gapbs::GapbsConfig &graph,
    workloads::gapbs::Kernel kernel,
    const std::function<void(sim::Simulator &, RunRecord &)> &report = {});

/** "promotions" / "demotions": the host's migration totals. */
inline void
addMigrationMetrics(const sim::Simulator &sim, RunRecord &rec)
{
    rec.metrics["promotions"] = static_cast<double>(
        sim.vmstat().global(stats::VmItem::PgpromoteSuccess));
    rec.metrics["demotions"] = static_cast<double>(
        sim.vmstat().global(stats::VmItem::Pgdemote));
}

/**
 * The Fig. 5/6 table: one row per policy, one column per label, each
 * value(row, column) divided by the "static" row's value in its column
 * (0 where that is 0). Appends the text table to @p text and returns
 * the same table as CSV.
 */
inline std::string
normalisedToStatic(std::string &text,
                   const std::vector<std::string> &policies,
                   const std::vector<std::string> &columns,
                   const std::function<double(std::size_t, std::size_t)>
                       &value)
{
    const auto base = static_cast<std::size_t>(
        std::find(policies.begin(), policies.end(), "static") -
        policies.begin());
    MCLOCK_ASSERT(base < policies.size());
    CsvWriter csv;
    std::vector<std::string> header{"policy"};
    header.insert(header.end(), columns.begin(), columns.end());
    csv.writeHeader(header);
    appendf(text, "%-12s", "policy");
    for (const auto &c : columns)
        appendf(text, " %8s", c.c_str());
    appendf(text, "\n");
    for (std::size_t p = 0; p < policies.size(); ++p) {
        appendf(text, "%-12s", policies[p].c_str());
        std::vector<std::string> row{policies[p]};
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const double b = value(base, c);
            const double norm = b > 0.0 ? value(p, c) / b : 0.0;
            appendf(text, " %8.3f", norm);
            row.push_back(std::to_string(norm));
        }
        appendf(text, "\n");
        csv.writeRow(row);
    }
    return csv.str();
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
