/**
 * @file
 * Fault-injection scenarios: YCSB-A and GAPBS PageRank run with the
 * deterministic migration FaultInjector enabled, sweeping the injected
 * failure rate. Each unit is one (policy, rate) point; the reduce
 * builds a policy x rate table showing how throughput and promotion
 * traffic degrade as migrations start aborting.
 *
 * The sweep demonstrates graceful degradation: MULTI-CLOCK's
 * retry-with-backoff recovers transient aborts and its promotion
 * throttle parks a node whose migrations keep failing, so throughput
 * decays smoothly rather than collapsing. The injector's fixed
 * draw-count contract makes the runs comparable across rates (a higher
 * rate fails a superset of the lower rate's transactions), which
 * fault_test pins as a monotonicity property.
 */

#include <string>

#include "harness/scenario_common.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

void
addFaultMetrics(sim::Simulator &sim, RunRecord &rec)
{
    using stats::VmItem;
    const auto &vm = sim.vmstat();
    addMigrationMetrics(vm, rec);
    rec.metrics["aborts"] =
        static_cast<double>(vm.global(VmItem::PgmigrateAbort));
    rec.metrics["retries"] =
        static_cast<double>(vm.global(VmItem::PgmigrateRetry));
    rec.metrics["rollbacks"] =
        static_cast<double>(vm.global(VmItem::PgmigrateRollback));
    rec.metrics["throttles"] =
        static_cast<double>(vm.global(VmItem::PgpromoteThrottled));
    rec.metrics["promote_fail"] =
        static_cast<double>(vm.global(VmItem::PgpromoteFail));
    rec.metrics["poisoned"] =
        static_cast<double>(sim.faultInjector().poisonedPages());
}

namespace {

/** Injected failure rates swept, in percent (copy-phase). */
constexpr unsigned kFaultRates[] = {0, 10, 40};

/** Policies compared under injection (one per mechanism family). */
const std::vector<std::string> kFaultPolicies = {"multiclock", "nimble",
                                                "amp-lru"};

/**
 * Fault knobs for one sweep point. Injection is enabled even at rate 0
 * so the 0% unit exercises the full transaction/draw path and anchors
 * the sweep; the copy phase takes the headline rate and the
 * shootdown/remap phases half of it each.
 */
sim::FaultConfig
faultinjConfig(unsigned ratePct)
{
    sim::FaultConfig f;
    f.enabled = true;
    f.copyFailProb = static_cast<double>(ratePct) / 100.0;
    f.shootdownFailProb = static_cast<double>(ratePct) / 200.0;
    f.remapFailProb = static_cast<double>(ratePct) / 200.0;
    f.persistentProb = 0.1;
    return f;
}

/**
 * Golden GAPBS machine for the fault sweep: goldenGapbsMachine()'s 2 MiB
 * DRAM holds the whole golden graph, which would leave the sweep with
 * zero migrations to inject into; shrink DRAM so PageRank overflows
 * into PM and promotion traffic actually flows.
 */
sim::MachineConfig
faultinjGoldenGapbsMachine()
{
    sim::MachineConfig cfg = goldenGapbsMachine();
    cfg.nodes = {{TierKind::Dram, 512_KiB}, {TierKind::Pmem, 12_MiB}};
    return cfg;
}

/** Unit name for one sweep point ("multiclock-f10"). */
std::string
faultUnitName(const std::string &policy, unsigned ratePct)
{
    return policy + "-f" + std::to_string(ratePct);
}

/** YCSB-A at one sweep point with the fault keys. */
UnitSpec
faultinjYcsb(const RunContext &ctx, const std::string &policy,
             unsigned ratePct)
{
    HostSpec host = ycsbHost(ctx, policy);
    host.machine.faults = faultinjConfig(ratePct);
    return {host, YcsbUnit{ycsbWorkload(ctx, 800000, 40000, 3),
                           {workloads::YcsbWorkload::A}, YcsbKeys::Faults}};
}

/** PageRank at one sweep point with the fault keys. */
UnitSpec
faultinjPagerank(const RunContext &ctx, const std::string &policy,
                 unsigned ratePct)
{
    HostSpec host{policy, ctx.golden ? faultinjGoldenGapbsMachine()
                                     : gapbsMachine()};
    host.machine.faults = faultinjConfig(ratePct);
    auto graph = ctx.golden ? goldenGapbsConfig() : gapbsBenchConfig();
    graph.seed = ctx.derivedSeed(4, graph.seed);
    return {host,
            GapbsUnit{graph, workloads::gapbs::Kernel::PR, GapbsKeys::Faults}};
}

/**
 * A faultinj_* scenario: one @p unit per (policy, rate) point,
 * reduced to a policy x rate table of @p metric and the fault counters.
 */
Scenario
faultinjScenario(const char *name, const char *title, const char *workload,
                 UnitSpec (*unit)(const RunContext &, const std::string &,
                                  unsigned),
                 const char *metric, const char *metricLabel,
                 std::vector<ParamSpec> params)
{
    Scenario sc;
    sc.name = name;
    sc.title = title;
    sc.workload = workload;
    sc.policies = kFaultPolicies;
    sc.params = std::move(params);
    sc.expand = [unit](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : kFaultPolicies) {
            for (unsigned rate : kFaultRates) {
                units.push_back(
                    {faultUnitName(policy, rate), unit(ctx, policy, rate)});
            }
        }
        return units;
    };
    sc.reduce = [sc, metric, metricLabel](
                    const RunContext &, const std::vector<RunRecord> &records,
                    ScenarioOutput &out) {
        const std::string csvName = sc.name + ".csv";
        appendf(out.text, "=== %s ===\n", sc.title.c_str());
        Table table({{"policy", "policy", 12},
                     {"rate_pct", "rate%", 6},
                     {metric, metricLabel, 10, 1},
                     {"promotions", "promotions", 11},
                     {"demotions", ""},
                     {"aborts", "aborts", 8},
                     {"retries", "retries", 8},
                     {"rollbacks", "rollbacks", 9},
                     {"throttles", "throttles", 9},
                     {"promote_fail", ""},
                     {"poisoned", "poisoned", 8}});
        std::size_t i = 0;
        for (const auto &policy : kFaultPolicies) {
            for (unsigned rate : kFaultRates) {
                const auto &m = records[i++].metrics;
                table.row(policy,
                          {std::uint64_t{rate}, m.at(metric),
                           m.at("promotions"),
                           m.at("demotions"), m.at("aborts"),
                           m.at("retries"), m.at("rollbacks"),
                           m.at("throttles"), m.at("promote_fail"),
                           m.at("poisoned")});
            }
        }
        out.text += table.text();
        appendf(out.text,
                "\nExpected: promotions fall monotonically with the "
                "injected rate; retry+throttle keep the decay graceful "
                "(no collapse at 40%%).\nwrote %s\n",
                csvName.c_str());
        out.artifacts.push_back({csvName, table.csv()});
    };
    return sc;
}

}  // namespace

std::vector<Scenario>
makeFaultinjScenarios()
{
    return {faultinjScenario(
                "faultinj_ycsb_a",
                "YCSB-A under injected migration faults (rate sweep)",
                "ycsb", faultinjYcsb, "kops", "kops/s", {kOpsParam}),
            faultinjScenario(
                "faultinj_pagerank",
                "GAPBS PageRank under injected migration faults",
                "gapbs", faultinjPagerank, "seconds", "seconds", {})};
}

}  // namespace harness
}  // namespace mclock
