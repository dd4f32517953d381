#include "harness/scenario.hh"

#include "harness/scenario_common.hh"

namespace mclock {
namespace harness {

ScenarioOutput
mergeRecords(const std::vector<RunUnit> &units,
             const std::vector<RunRecord> &records)
{
    ScenarioOutput out;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &rec = records[i];
        out.text += rec.text;
        for (const auto &artifact : rec.artifacts)
            out.artifacts.push_back(artifact);
        const std::string &prefix =
            i < units.size() ? units[i].name : "unit";
        for (const auto &[key, value] : rec.metrics)
            out.summary[prefix + "." + key] = value;
        for (const auto &v : rec.violations)
            out.violations.push_back(prefix + ": " + v);
        for (const auto &[key, value] : rec.vmstat) {
            out.vmstat[prefix + "." + key] = value;
            // Scenario totals over the global (non-per-node) items.
            if (key.rfind("node", 0) != 0)
                out.vmstat[key] += value;
        }
        for (const auto &[key, value] : rec.tenantMetrics)
            out.tenantMetrics[prefix + "." + key] = value;
        if (!rec.samplerCsv.empty()) {
            out.statsArtifacts.push_back(
                {prefix + "_vmstat.csv", rec.samplerCsv});
        }
        if (!rec.traceEvents.empty()) {
            std::string jsonl;
            stats::appendTraceJsonl(jsonl, rec.traceEvents, prefix);
            out.statsArtifacts.push_back(
                {prefix + "_trace.jsonl", std::move(jsonl)});
        }
    }
    return out;
}

const std::vector<Scenario> &
allScenarios()
{
    // Canonical (paper) order; golden fixtures and --list follow it.
    static const std::vector<Scenario> registry = [] {
        std::vector<Scenario> all;
        auto add = [&all](std::vector<Scenario> group) {
            for (auto &sc : group)
                all.push_back(std::move(sc));
        };
        auto trace = makeTraceScenarios();  // fig01, fig02, tab01
        auto ycsb = makeYcsbScenarios();    // fig05/08/09/10 + ablations
        auto gapbs = makeGapbsScenarios();  // fig06, fig07

        // Interleave into figure order: fig01, fig02, tab01, fig05,
        // fig06, fig07, fig08, fig09, fig10, ablations, tier3_*,
        // faultinj_*, shard_*, tenant_*.
        all.push_back(trace[0]);
        all.push_back(trace[1]);
        all.push_back(trace[2]);
        all.push_back(ycsb[0]);   // fig05
        all.push_back(gapbs[0]);  // fig06
        all.push_back(gapbs[1]);  // fig07
        all.push_back(ycsb[1]);   // fig08
        all.push_back(ycsb[2]);   // fig09
        all.push_back(ycsb[3]);   // fig10
        add({ycsb.begin() + 4, ycsb.end()});  // ablations
        add(makeTier3Scenarios());            // tier3_* (three-tier)
        add(makeFaultinjScenarios());         // faultinj_* (fault sweep)
        add(makeShardScenarios());            // shard_bigmem family
        add(makeTenantScenarios());           // tenant_* (memcg QoS)
        return all;
    }();
    return registry;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const auto &sc : allScenarios()) {
        if (sc.name == name)
            return &sc;
    }
    return nullptr;
}

std::vector<const Scenario *>
filterScenarios(const std::string &filter)
{
    std::vector<const Scenario *> out;
    for (const auto &sc : allScenarios()) {
        if (filter.empty() || sc.name.find(filter) != std::string::npos)
            out.push_back(&sc);
    }
    return out;
}

}  // namespace harness
}  // namespace mclock
