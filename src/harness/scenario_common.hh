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
#include <variant>
#include <vector>

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

/** A unit's fingerprint before sealing: @p clock and every window field. */
std::uint64_t hostFingerprint(SimTime clock,
                              const std::vector<sim::MetricsWindow> &windows);

/**
 * The finish of every unit, single-host or sharded: runs the invariant
 * suite on each of @p sims (violations prefixed "shardN: " when there
 * is more than one), sets the record's vmstat snapshot and perf totals
 * from the host's @p merged metrics and @p appOps, its fingerprint to
 * hostFingerprint(@p clock, merged windows), and in stats mode adds
 * @p trace's events plus, on a single host, its sampler series.
 */
void finishUnit(const RunContext &ctx,
                const std::vector<sim::Simulator *> &sims,
                const sim::Metrics &merged, SimTime clock,
                std::uint64_t appOps, const stats::TraceBuffer &trace,
                RunRecord &rec);

/** @p policy on the YCSB machine (golden or full scale). */
inline HostSpec
ycsbHost(const RunContext &ctx, const std::string &policy)
{
    return {policy, ctx.golden ? goldenYcsbMachine() : ycsbMachine()};
}

/** derivedSeed(@p slot + s, @p fixtureSeed + s) for each of @p shards. */
inline std::vector<std::uint64_t>
shardSeeds(const RunContext &ctx, unsigned shards, std::uint64_t slot,
           std::uint64_t fixtureSeed)
{
    std::vector<std::uint64_t> seeds;
    for (unsigned s = 0; s < shards; ++s)
        seeds.push_back(ctx.derivedSeed(slot + s, fixtureSeed + s));
    return seeds;
}

/**
 * The runner of every single-host scenario unit: gives @p host's
 * machine the context's seed and --stats sampler, builds the Simulator,
 * installs the policy and calls body(sim, rec), which drives the
 * workload and adds the unit's own metric keys. The body returns the
 * workload object it drove; that object, and every region it still
 * maps, lives until finishUnit() has filed the violations and exported
 * the counters.
 */
template <typename Body>
RunRecord
runHost(const RunContext &ctx, HostSpec host, Body &&body)
{
    host.machine.seed = ctx.seed;
    host.machine.stats.sampler = ctx.stats;
    RunRecord rec;
    sim::Simulator sim(host.machine);
    sim.setPolicy(policies::makePolicy(host.policy, host.opts));
    [[maybe_unused]] const auto workload = body(sim, rec);
    finishUnit(ctx, {&sim}, sim.metrics(), sim.now(), sim.appOps(),
               sim.trace(), rec);
    return rec;
}

/**
 * The sharded counterpart of runHost: @p host.machine is the whole
 * machine, partitioned into @p shards shards that each run
 * @p host.policy on ctx.shards worker threads under @p promoteBudget.
 * body(sharded, rec) sets up the per-shard workload, calls
 * sharded.run() and adds the unit's keys; the workload object it
 * returns lives until finishUnit() has checked every shard.
 */
template <typename Body>
RunRecord
runSharded(const RunContext &ctx, HostSpec host, std::size_t shards,
           std::uint64_t promoteBudget, Body &&body)
{
    host.machine.seed = ctx.seed;
    host.machine.stats.sampler = ctx.stats;
    RunRecord rec;
    sim::ShardedSimulator sharded(
        host.machine,
        {static_cast<unsigned>(shards), ctx.shards, promoteBudget});
    std::vector<sim::Simulator *> sims;
    for (unsigned s = 0; s < sharded.shards(); ++s) {
        sharded.shard(s).setPolicy(
            policies::makePolicy(host.policy, host.opts));
        sims.push_back(&sharded.shard(s));
    }
    [[maybe_unused]] const auto workload = body(sharded, rec);
    finishUnit(ctx, sims, sharded.mergedMetrics(), sharded.makespan(),
               sharded.totalAppOps(), sharded.trace(), rec);
    return rec;
}

/**
 * The whole machine of a sharded scenario: @p dram bytes of DRAM over
 * @p pmem bytes of PM, a 32 KiB 8-way LLC, and the golden profile's
 * 20 ms metrics window.
 */
inline sim::MachineConfig
shardedMachine(const RunContext &ctx, std::size_t dram, std::size_t pmem)
{
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, dram}, {TierKind::Pmem, pmem}};
    cfg.cache.sizeBytes = 32_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = ctx.golden ? 20_ms : kMetricsWindow;
    return cfg;
}

/**
 * Most operations a --param op count accepts: beyond any scenario's
 * full scale by far, and small enough that no product of counts a
 * scenario forms leaves 64 bits.
 */
inline constexpr std::uint64_t kMaxParamOps = 1'000'000'000;

/** --param ops: operations per YCSB phase or per shard epoch. */
inline const ParamSpec kOpsParam{"ops", 1, kMaxParamOps};

/** --param epochs: request epochs of a sharded unit (0 would run none). */
inline const ParamSpec kEpochsParam{"epochs", 1, 1000};

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

/** runUnit's body for each workload shape (one per definition file). */
RunRecord runWorkload(const RunContext &, const HostSpec &, const YcsbUnit &);
RunRecord runWorkload(const RunContext &, const HostSpec &, const GapbsUnit &);
RunRecord runWorkload(const RunContext &, const HostSpec &,
                      const HeatmapUnit &);
RunRecord runWorkload(const RunContext &, const HostSpec &,
                      const WindowUnit &);
RunRecord runWorkload(const RunContext &, const HostSpec &,
                      const ShardKvUnit &);
RunRecord runWorkload(const RunContext &, const HostSpec &,
                      const TenantMixUnit &);
RunRecord runWorkload(const RunContext &, const HostSpec &, const ChurnUnit &);

/** "tier<r>.accesses" / "tier<r>.avg_ns" for every tier of @p sim. */
void addTierMetrics(sim::Simulator &sim, RunRecord &rec);

/** Migration totals and the fault-injection counters of @p sim. */
void addFaultMetrics(sim::Simulator &sim, RunRecord &rec);

/** "promotions" / "demotions": the host's migration totals. */
inline void
addMigrationMetrics(const stats::VmStat &vmstat, RunRecord &rec)
{
    rec.metrics["promotions"] = static_cast<double>(
        vmstat.global(stats::VmItem::PgpromoteSuccess));
    rec.metrics["demotions"] =
        static_cast<double>(vmstat.global(stats::VmItem::Pgdemote));
}

/** One column of a report Table. */
struct Column
{
    std::string csv;    ///< CSV header; empty: the column is text-only
    std::string text;   ///< text header; empty: the column is CSV-only
    int width = 0;      ///< text width
    int precision = 0;  ///< text digits after the point (double cells)
};

/** A numeric table cell: a double (CSV "%f") or an integer. */
using Cell = std::variant<double, std::uint64_t>;

/**
 * A reducer's report table with its columns declared once. Column 0
 * holds the row labels (left-aligned in the text); every other column
 * holds one numeric cell per row (right-aligned after one space). The
 * same rows render as the text table and as the CSV artifact, whose
 * cells are exactly std::to_string() of each value.
 */
class Table
{
  public:
    explicit Table(std::vector<Column> columns)
        : columns_(std::move(columns))
    {
    }

    /** Add a row: its label and one cell per non-label column. */
    void row(std::string label, std::vector<Cell> cells);

    /** The header line and rows, over the columns with a text header. */
    std::string text() const;

    /** The header and rows, over the columns with a CSV name. */
    std::string csv() const;

  private:
    std::vector<Column> columns_;
    std::vector<std::pair<std::string, std::vector<Cell>>> rows_;
};

/** One cell per non-label column, read from @p metrics by CSV name. */
inline std::vector<Cell>
metricCells(const std::vector<Column> &columns, const MetricMap &metrics)
{
    std::vector<Cell> cells;
    for (std::size_t c = 1; c < columns.size(); ++c)
        cells.push_back(metrics.at(columns[c].csv));
    return cells;
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
    std::vector<Column> header{{"policy", "policy", 12}};
    for (const auto &c : columns)
        header.push_back({c, c, 8, 3});
    Table table(std::move(header));
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::vector<Cell> cells;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const double b = value(base, c);
            cells.push_back(b > 0.0 ? value(p, c) / b : 0.0);
        }
        table.row(policies[p], std::move(cells));
    }
    text += table.text();
    return table.csv();
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
