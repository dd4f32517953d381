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

#include "base/csv.hh"
#include "harness/scenario_common.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"

namespace mclock {
namespace harness {

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

/** Fault/migration counters every faultinj unit reports. */
void
addFaultMetrics(sim::Simulator &sim, RunRecord &rec)
{
    using stats::VmItem;
    const auto &vm = sim.vmstat();
    addMigrationMetrics(sim, rec);
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

/** YCSB-A at one sweep point: throughput plus the fault metrics. */
RunRecord
faultinjYcsb(const RunContext &ctx, const std::string &policy,
             unsigned ratePct)
{
    HostSpec host = ycsbHost(ctx, policy);
    host.machine.faults = faultinjConfig(ratePct);
    return runYcsb(
        ctx, host, ycsbWorkload(ctx, 800000, 40000, 3),
        {workloads::YcsbWorkload::A},
        [](sim::Simulator &sim, const auto &results, RunRecord &rec) {
            rec.metrics["kops"] = results[0].throughputOpsPerSec() / 1e3;
            addFaultMetrics(sim, rec);
        });
}

/** PageRank at one sweep point: trial time plus the fault metrics. */
RunRecord
faultinjPagerank(const RunContext &ctx, const std::string &policy,
                 unsigned ratePct)
{
    HostSpec host{policy, ctx.golden ? faultinjGoldenGapbsMachine()
                                     : gapbsMachine()};
    host.machine.faults = faultinjConfig(ratePct);
    auto graph = ctx.golden ? goldenGapbsConfig() : gapbsBenchConfig();
    graph.seed = ctx.derivedSeed(4, graph.seed);
    return runGapbs(ctx, host, graph, workloads::gapbs::Kernel::PR,
                    addFaultMetrics);
}

/**
 * A faultinj_* scenario: one @p run unit per (policy, rate) point,
 * reduced to a policy x rate table of @p metric and the fault counters.
 */
Scenario
faultinjScenario(const char *name, const char *title, const char *workload,
                 RunRecord (*run)(const RunContext &, const std::string &,
                                  unsigned),
                 const char *metric, const char *metricLabel)
{
    Scenario sc;
    sc.name = name;
    sc.title = title;
    sc.workload = workload;
    sc.policies = kFaultPolicies;
    sc.expand = [run](const RunContext &) {
        std::vector<RunUnit> units;
        for (const auto &policy : kFaultPolicies) {
            for (unsigned rate : kFaultRates) {
                units.push_back({faultUnitName(policy, rate),
                                 [policy, rate, run](const RunContext &ctx) {
                    return run(ctx, policy, rate);
                }});
            }
        }
        return units;
    };
    sc.reduce = [sc, metric, metricLabel](
                    const RunContext &, const std::vector<RunRecord> &records,
                    ScenarioOutput &out) {
        const std::string csvName = sc.name + ".csv";
        appendf(out.text, "=== %s ===\n", sc.title.c_str());
        appendf(out.text, "%-12s %6s %10s %11s %8s %8s %9s %9s %8s\n",
                "policy", "rate%", metricLabel, "promotions", "aborts",
                "retries", "rollbacks", "throttles", "poisoned");

        CsvWriter csv;
        csv.writeHeader({"policy", "rate_pct", metric, "promotions",
                         "demotions", "aborts", "retries", "rollbacks",
                         "throttles", "promote_fail", "poisoned"});

        std::size_t i = 0;
        for (const auto &policy : kFaultPolicies) {
            for (unsigned rate : kFaultRates) {
                const auto &m = records[i++].metrics;
                appendf(out.text,
                        "%-12s %6u %10.1f %11.0f %8.0f %8.0f %9.0f %9.0f "
                        "%8.0f\n",
                        policy.c_str(), rate, m.at(metric),
                        m.at("promotions"), m.at("aborts"),
                        m.at("retries"), m.at("rollbacks"),
                        m.at("throttles"), m.at("poisoned"));
                csv.writeRow({policy, std::to_string(rate),
                              std::to_string(m.at(metric)),
                              std::to_string(m.at("promotions")),
                              std::to_string(m.at("demotions")),
                              std::to_string(m.at("aborts")),
                              std::to_string(m.at("retries")),
                              std::to_string(m.at("rollbacks")),
                              std::to_string(m.at("throttles")),
                              std::to_string(m.at("promote_fail")),
                              std::to_string(m.at("poisoned"))});
            }
        }
        appendf(out.text,
                "\nExpected: promotions fall monotonically with the "
                "injected rate; retry+throttle keep the decay graceful "
                "(no collapse at 40%%).\nwrote %s\n",
                csvName.c_str());
        out.artifacts.push_back({csvName, csv.str()});
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
                "ycsb", faultinjYcsb, "kops", "kops/s"),
            faultinjScenario(
                "faultinj_pagerank",
                "GAPBS PageRank under injected migration faults",
                "gapbs", faultinjPagerank, "seconds", "seconds")};
}

}  // namespace harness
}  // namespace mclock
