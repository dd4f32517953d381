#include "harness/scenario.hh"

#include <bit>

#include "base/csv.hh"
#include "base/hash.hh"
#include "harness/scenario_common.hh"

namespace mclock {
namespace harness {

std::uint64_t
hostFingerprint(SimTime clock, const std::vector<sim::MetricsWindow> &windows)
{
    Fnv1a h;
    h.word(clock).word(windows.size());
    for (const auto &w : windows) {
        h.word(w.accesses).word(w.promotions).word(w.demotions);
        h.word(w.promotedReaccessed).word(w.tierAccesses.size());
        for (std::uint64_t n : w.tierAccesses)
            h.word(n);
    }
    return h.value();
}

std::uint64_t
unitFingerprint(const RunRecord &rec)
{
    Fnv1a h;
    h.word(rec.fingerprint);
    for (const MetricMap *map : {&rec.metrics, &rec.tenantMetrics}) {
        h.word(map->size());
        for (const auto &[key, value] : *map)
            h.field(key).word(std::bit_cast<std::uint64_t>(value));
    }
    h.word(rec.vmstat.size());
    for (const auto &[key, value] : rec.vmstat)
        h.field(key).word(value);
    return h.value();
}

/** A spec without a workload simulates nothing. */
static RunRecord
runWorkload(const RunContext &, const HostSpec &, std::monostate)
{
    return {};
}

RunRecord
runUnit(const RunContext &ctx, const UnitSpec &spec)
{
    return std::visit(
        [&](const auto &w) { return runWorkload(ctx, spec.host, w); },
        spec.workload);
}

void
finishUnit(const RunContext &ctx, const std::vector<sim::Simulator *> &sims,
           const sim::Metrics &merged, SimTime clock, std::uint64_t appOps,
           const stats::TraceBuffer &trace, RunRecord &rec)
{
    for (std::size_t s = 0; s < sims.size(); ++s) {
        for (auto &v : collectViolations(*sims[s])) {
            rec.violations.push_back(
                sims.size() > 1 ? "shard" + std::to_string(s) + ": " + v
                                : std::move(v));
        }
    }
    rec.vmstat = merged.stats().snapshot();
    rec.perfAppOps = appOps;
    rec.perfSimAccesses = merged.totalAccesses();
    for (const sim::Simulator *s : sims)
        rec.traceDropped += s->trace().dropped();
    rec.fingerprint = hostFingerprint(clock, merged.windows());
    if (ctx.stats) {
        rec.traceEvents = trace.events();
        if (sims.size() == 1)
            rec.samplerCsv = sims[0]->sampler()->toCsv();
    }
}

void
Table::row(std::string label, std::vector<Cell> cells)
{
    MCLOCK_ASSERT(cells.size() + 1 == columns_.size());
    rows_.emplace_back(std::move(label), std::move(cells));
}

std::string
Table::text() const
{
    std::string out;
    appendf(out, "%-*s", columns_[0].width, columns_[0].text.c_str());
    for (std::size_t c = 1; c < columns_.size(); ++c) {
        if (!columns_[c].text.empty())
            appendf(out, " %*s", columns_[c].width, columns_[c].text.c_str());
    }
    for (const auto &[label, cells] : rows_) {
        appendf(out, "\n%-*s", columns_[0].width, label.c_str());
        for (std::size_t c = 1; c < columns_.size(); ++c) {
            const Column &col = columns_[c];
            const Cell &cell = cells[c - 1];
            if (col.text.empty())
                continue;
            if (const auto *n = std::get_if<std::uint64_t>(&cell)) {
                appendf(out, " %*llu", col.width,
                        static_cast<unsigned long long>(*n));
            } else {
                appendf(out, " %*.*f", col.width, col.precision,
                        std::get<double>(cell));
            }
        }
    }
    return out + "\n";
}

std::string
Table::csv() const
{
    CsvWriter csv;
    std::vector<std::string> header;
    for (const Column &col : columns_) {
        if (!col.csv.empty())
            header.push_back(col.csv);
    }
    csv.writeHeader(header);
    for (const auto &[label, cells] : rows_) {
        std::vector<std::string> row{label};
        for (std::size_t c = 1; c < columns_.size(); ++c) {
            if (!columns_[c].csv.empty()) {
                row.push_back(std::visit(
                    [](auto v) { return std::to_string(v); }, cells[c - 1]));
            }
        }
        csv.writeRow(row);
    }
    return csv.str();
}

std::uint64_t
ScenarioOutput::fingerprint() const
{
    Fnv1a fp;
    for (const auto &[unit, unitFp] : fingerprints)
        fp.field(unit).word(unitFp);
    return fp.value();
}

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
        const std::string &prefix = units[i].name;
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
        out.fingerprints[prefix] = rec.fingerprint;
        out.traceDropped[prefix] = rec.traceDropped;
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
