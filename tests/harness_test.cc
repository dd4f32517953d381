/**
 * @file
 * Tests for the experiment harness: scenario registry coverage, the
 * parallel runner's determinism contract (same seed -> bit-identical
 * output, independent of --jobs), per-policy determinism via the
 * factory, the shared invariant checker, and the golden fixture
 * machinery (load/save/compare).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <set>
#include <sstream>

#include "base/json.hh"
#include "harness/invariants.hh"
#include "harness/manifest.hh"
#include "harness/profiles.hh"
#include "harness/scenario_common.hh"
#include "policies/factory.hh"
#include "sim/simulator.hh"
#include "workloads/ycsb.hh"

#include "harness_fixtures.hh"

using namespace mclock;
using namespace mclock::harness;

namespace {

void
expectIdentical(const ScenarioOutput &a, const ScenarioOutput &b)
{
    EXPECT_EQ(a.fingerprints, b.fingerprints);
    EXPECT_EQ(a.traceDropped, b.traceDropped);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_TRUE(a.artifacts == b.artifacts);
    EXPECT_TRUE(a.violations.empty());
    EXPECT_TRUE(b.violations.empty());
}

// --- Registry -----------------------------------------------------------

TEST(ScenarioRegistry, ListsAllTwentyTwoExperiments)
{
    const auto &all = allScenarios();
    EXPECT_EQ(all.size(), 22u);
    std::set<std::string> names;
    for (const auto &sc : all)
        names.insert(sc.name);
    for (const char *expected :
         {"fig01", "fig02", "tab01", "fig05", "fig06", "fig07",
          "fig08", "fig09", "fig10", "ablation_promote_list",
          "ablation_tracking_cost", "ablation_ratio", "ablation_llc",
          "tier3_ycsb_a", "tier3_ycsb_b", "tier3_pagerank",
          "faultinj_ycsb_a", "faultinj_pagerank",
          "shard_bigmem", "shard_bigmem_budget",
          "tenant_noisy_neighbor", "tenant_churn"}) {
        EXPECT_TRUE(names.count(expected))
            << "missing scenario " << expected;
    }
}

TEST(ScenarioRegistry, EveryScenarioIsWellFormed)
{
    for (const auto &sc : allScenarios()) {
        EXPECT_FALSE(sc.name.empty());
        EXPECT_FALSE(sc.title.empty());
        EXPECT_TRUE(static_cast<bool>(sc.expand)) << sc.name;
        EXPECT_TRUE(static_cast<bool>(sc.reduce)) << sc.name;
    }
}

TEST(ScenarioRegistry, FindAndFilter)
{
    EXPECT_NE(findScenario("fig05"), nullptr);
    EXPECT_EQ(findScenario("fig99"), nullptr);
    EXPECT_EQ(filterScenarios("").size(), allScenarios().size());
    const auto abls = filterScenarios("ablation");
    EXPECT_EQ(abls.size(), 4u);
    EXPECT_EQ(filterScenarios("no_such_scenario").size(), 0u);
}

TEST(ScenarioRegistry, EveryParamReadIsDeclared)
{
    // The runner gives each scenario a context that panics on reading
    // a key the scenario does not declare, so one run of the whole
    // registry proves every declaration complete. Small values for
    // every key keep the run short.
    RunContext ctx = goldenContext();
    ctx.params = {{"ops", 2000},          {"trials", 1},
                  {"seconds", 2},         {"records", 300},
                  {"epochs", 1},          {"victim_records", 100},
                  {"thrasher_records", 300}, {"victim_ops", 300},
                  {"thrasher_ops", 300},  {"tenant_pages", 32},
                  {"sweeps", 1}};
    const auto all = filterScenarios("");
    const auto report = runScenarios(all, quietOptions(4, ctx));
    EXPECT_EQ(report.results.size(), all.size());
}

TEST(ScenarioRegistry, GoldenEligibilityMatchesDeterminism)
{
    // tab01 is static metadata; everything else must be in the
    // golden suite.
    const auto names = goldenScenarioNames();
    EXPECT_EQ(names.size(), 21u);
    for (const auto &name : names)
        EXPECT_NE(name, "tab01");
}

// --- RunContext ---------------------------------------------------------

TEST(RunContext, DerivedSeedKeepsLegacyDefaultsAtBaseSeed)
{
    RunContext ctx;  // seed = kDefaultSeed
    EXPECT_EQ(ctx.derivedSeed(1, 1), 1u);
    EXPECT_EQ(ctx.derivedSeed(3, 3), 3u);
    EXPECT_EQ(ctx.derivedSeed(7, 123), 123u);
}

TEST(RunContext, DerivedSeedVariesBySlotForOtherSeeds)
{
    RunContext ctx;
    ctx.seed = 1234;
    const auto a = ctx.derivedSeed(1, 1);
    const auto b = ctx.derivedSeed(2, 1);
    EXPECT_NE(a, 1u);
    EXPECT_NE(a, b);

    RunContext other;
    other.seed = 1235;
    EXPECT_NE(other.derivedSeed(1, 1), a);
}

TEST(RunContext, ParamLookup)
{
    RunContext ctx;
    ctx.params["ops"] = 5;
    EXPECT_EQ(ctx.param("ops", 9), 5u);
    EXPECT_EQ(ctx.param("missing", 9), 9u);
}

TEST(RunContext, ReadingAnUndeclaredParamPanics)
{
    const std::vector<ParamSpec> keys{{"ops", 1, 10}};
    RunContext ctx;
    ctx.declared = &keys;
    EXPECT_EQ(ctx.param("ops", 9), 9u);
    EXPECT_DEATH(ctx.param("trials", 1), "undeclared --param 'trials'");
}

TEST(ParamSpec, AcceptsItsRangeMinusItsExceptions)
{
    const ParamSpec ops{"ops", 1, 10};
    EXPECT_FALSE(ops.accepts(0));
    EXPECT_TRUE(ops.accepts(1));
    EXPECT_TRUE(ops.accepts(10));
    EXPECT_FALSE(ops.accepts(11));
    EXPECT_EQ(ops.describe(), "1..10");
    const ParamSpec workload{"workload", 0, 6, {4}, "not E"};
    EXPECT_TRUE(workload.accepts(3));
    EXPECT_FALSE(workload.accepts(4));
    EXPECT_TRUE(workload.accepts(5));
    EXPECT_EQ(workload.describe(), "not E");
    EXPECT_TRUE(ParamSpec{"any"}.accepts(UINT64_MAX));
}

// --- Determinism --------------------------------------------------------

TEST(RunnerDeterminism, SameSeedTwiceIsBitIdentical)
{
    const auto ctx = smallContext();
    const auto a = runScenario("fig05", quietOptions(2, ctx));
    const auto b = runScenario("fig05", quietOptions(2, ctx));
    expectIdentical(a.output, b.output);
    EXPECT_FALSE(a.output.summary.empty());
}

TEST(Runner, PoolWidthIsClampedToTheUnitCount)
{
    EXPECT_EQ(poolWidth(4, 8, 2), 2u);
    EXPECT_EQ(poolWidth(4, 8, 100), 4u);
    EXPECT_EQ(poolWidth(0, 8, 3), 3u);
    EXPECT_EQ(poolWidth(0, 8, 100), 8u);
    EXPECT_EQ(poolWidth(0, 0, 100), 1u);  // hardware count unknown
    EXPECT_EQ(poolWidth(UINT_MAX, 8, 5), 5u);
    EXPECT_EQ(poolWidth(3, 8, 0), 1u);
}

TEST(RunnerDeterminism, JobsJustAboveTheUnitCountMatchOneJob)
{
    // fig02 expands to four units; five jobs start four threads.
    const auto ctx = smallContext();
    const auto serial = runScenario("fig02", quietOptions(1, ctx));
    const auto wide = runScenario("fig02", quietOptions(5, ctx));
    EXPECT_EQ(serial.units, 4u);
    expectIdentical(serial.output, wide.output);
}

/** The golden scenarios a RunIdentity case runs. */
enum class Suite { Half1, Half2, Sharded };

/**
 * The first half of the golden suite, about half its run time; the
 * second is the rest. Scenarios that expand to a common unit spec (fig08, fig09,
 * fig10 and the two ablations of the promote list and tracking cost;
 * shard_bigmem and shard_bigmem_budget) sit in the same half, so each
 * half still runs its shared records once (GoldenHalvesShareNoUnitSpec).
 */
const std::set<std::string> kGoldenHalf1{
    "fig01", "fig02", "fig05", "fig06", "fig07", "tier3_ycsb_a",
    "tier3_pagerank"};

std::vector<const Scenario *>
goldenScenarios(Suite suite)
{
    std::vector<const Scenario *> selected;
    for (const std::string &name : goldenScenarioNames()) {
        const bool keep =
            suite == Suite::Sharded
                ? name.rfind("shard_", 0) == 0 || name.rfind("tenant_", 0) == 0
                : kGoldenHalf1.contains(name) == (suite == Suite::Half1);
        if (keep)
            selected.push_back(findScenario(name));
    }
    return selected;
}

TEST(RunIdentitySplit, GoldenHalvesShareNoUnitSpec)
{
    const auto half1 = goldenScenarios(Suite::Half1);
    const auto half2 = goldenScenarios(Suite::Half2);
    ASSERT_EQ(half1.size(), kGoldenHalf1.size());
    ASSERT_EQ(half1.size() + half2.size(), goldenScenarioNames().size());
    // The reference and both whole-suite configurations of RunIdentity.
    for (const auto &[shards, stats] :
         {std::pair{1u, false}, std::pair{8u, false}, std::pair{1u, true}}) {
        RunContext ctx = goldenContext();
        ctx.shards = shards;
        ctx.stats = stats;
        const auto specsOf = [&ctx](const std::vector<const Scenario *> &in) {
            std::vector<UnitSpec> specs;
            for (const Scenario *sc : in) {
                RunContext c = ctx;
                c.declared = &sc->params;
                for (const RunUnit &unit : sc->expand(c))
                    specs.push_back(unit.spec);
            }
            return specs;
        };
        const std::vector<UnitSpec> specs1 = specsOf(half1);
        const std::vector<UnitSpec> specs2 = specsOf(half2);
        for (const UnitSpec &spec : specs1) {
            EXPECT_EQ(std::count(specs2.begin(), specs2.end(), spec), 0)
                << "a unit spec is in both halves at --shards " << shards
                << (stats ? " --stats" : "");
        }
    }
}

/** One configuration the golden suite must be bit-identical under. */
struct Variant
{
    unsigned jobs = 1, shards = 1;
    bool stats = false;
    Suite suite = Suite::Half1;
};

std::string
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::Half1:
        return "half1";
      case Suite::Half2:
        return "half2";
      case Suite::Sharded:
        return "sharded";
    }
    return "";
}

void
PrintTo(const Variant &v, std::ostream *os)
{
    *os << "--jobs " << v.jobs << " --shards " << v.shards
        << (v.stats ? " --stats" : "")
        << (v.suite == Suite::Sharded
                ? " (sharded scenarios)"
                : " (golden " + suiteName(v.suite) + ")");
}

class RunIdentity : public ::testing::TestWithParam<Variant>
{};

/**
 * The bit-identity proof for --jobs, --shards and --stats: every golden
 * scenario run at --jobs 1 --shards 1 has the same per-unit
 * fingerprints, summary, text and artifacts at --jobs 4 --shards 8 and
 * with --stats; the sharded ones (shard_*, tenant_*) also at --jobs 4
 * with 3 and 4 shard workers. Each configuration, on each half of the
 * suite, is its own case with its own reference run, so ctest runs
 * them side by side.
 */
TEST_P(RunIdentity, GoldenSuiteIsIdenticalAcrossJobsShardsAndStats)
{
    const Variant v = GetParam();
    const std::vector<const Scenario *> selected = goldenScenarios(v.suite);
    const auto run = [&selected](unsigned jobs, unsigned shards,
                                 bool stats) {
        RunContext ctx = goldenContext();
        ctx.shards = shards;
        ctx.stats = stats;
        return runScenarios(selected, quietOptions(jobs, ctx));
    };

    // The reference runs beside the variant: runs share no state.
    auto pending = std::async(std::launch::async, run, 1u, 1u, false);
    const RunReport wide = run(v.jobs, v.shards, v.stats);
    const RunReport reference = pending.get();
    ASSERT_EQ(reference.results.size(),
              v.suite == Suite::Sharded ? 4u : selected.size());
    std::map<std::string, const ScenarioOutput *> byName;
    for (const auto &r : reference.results) {
        byName[r.name] = &r.output;
        EXPECT_EQ(r.output.fingerprints.size(), r.units) << r.name;
    }
    if (v.suite == Suite::Half1) {
        const auto &fig05 = byName.at("fig05")->fingerprints;
        EXPECT_NE(fig05.at("multiclock"), fig05.at("static"));
        // A golden YCSB run overflows the 4096-event trace ring.
        EXPECT_GT(byName.at("fig05")->traceDropped.at("multiclock"), 0u);
    }

    ASSERT_EQ(wide.results.size(), reference.results.size());
    for (const auto &r : wide.results) {
        SCOPED_TRACE(r.name);
        expectIdentical(*byName.at(r.name), r.output);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, RunIdentity,
    ::testing::Values(Variant{4, 8, false, Suite::Half1},
                      Variant{4, 8, false, Suite::Half2},
                      Variant{4, 3, false, Suite::Sharded},
                      Variant{4, 4, false, Suite::Sharded},
                      Variant{1, 1, true, Suite::Half1},
                      Variant{1, 1, true, Suite::Half2}),
    [](const ::testing::TestParamInfo<Variant> &info) {
        const Variant &v = info.param;
        return "jobs" + std::to_string(v.jobs) + "_shards" +
               std::to_string(v.shards) + (v.stats ? "_stats" : "") + "_" +
               suiteName(v.suite);
    });

TEST(Tier3Machine, StaticTieringOrdersTierLatencies)
{
    // On the DRAM/CXL/PM machine under static tiering, average device
    // latency must order strictly by rank: DRAM < CXL < PM.
    sim::Simulator sim(goldenTier3YcsbMachine());
    sim.setPolicy(policies::makePolicy("static", benchPolicyOptions()));
    auto ycsb = goldenYcsbConfig(20000);
    workloads::YcsbDriver driver(sim, ycsb);
    driver.load();
    driver.run(workloads::YcsbWorkload::A);
    const auto &m = sim.metrics();
    double avg[3];
    for (TierRank rank = 0; rank < 3; ++rank) {
        const auto acc = m.totalTierAccesses(rank);
        ASSERT_GT(acc, 0u) << "no accesses reached tier " << rank;
        avg[rank] = static_cast<double>(m.totalTierLatency(rank)) /
                    static_cast<double>(acc);
    }
    EXPECT_LT(avg[0], avg[1]);
    EXPECT_LT(avg[1], avg[2]);
}

/**
 * Thread-pool churn regression: repeated runs at job counts up to and
 * past the unit count (the pool is clamped to one thread per unit)
 * exercise the runner's unit claiming and thread start/join windows
 * under maximal interleaving pressure. The functional
 * assertion is bit-identical output; under the tsan preset this test
 * is also the data-race regression net for the --jobs harness and the
 * per-unit stats aggregation it feeds.
 */
TEST(RunnerDeterminism, RepeatedPoolChurnIsRaceFreeAndDeterministic)
{
    const auto ctx = smallContext();
    std::vector<const Scenario *> selected{findScenario("fig02"),
                                           findScenario("faultinj_ycsb_a")};
    const auto baseline = runScenarios(selected, quietOptions(1, ctx));
    for (const unsigned jobs : {2u, 8u, 32u}) {
        const auto rerun = runScenarios(selected, quietOptions(jobs, ctx));
        ASSERT_EQ(baseline.results.size(), rerun.results.size());
        for (std::size_t i = 0; i < baseline.results.size(); ++i) {
            expectIdentical(baseline.results[i].output,
                            rerun.results[i].output);
        }
    }
}

TEST(RunnerDeterminism, DifferentSeedsChangeYcsbResults)
{
    auto ctx = smallContext();
    const auto a = runScenario("fig05", quietOptions(2, ctx));
    ctx.seed = 777;
    const auto b = runScenario("fig05", quietOptions(2, ctx));
    EXPECT_NE(a.output.summary, b.output.summary);
}

/** Every factory policy, run twice with the same seed, must agree. */
class PolicyDeterminism
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(PolicyDeterminism, SameSeedSameMetrics)
{
    const std::string policy = GetParam();
    auto runOnce = [&policy]() {
        sim::MachineConfig machine = goldenYcsbMachine();
        if (policy == "memory-mode")
            machine.nodes = {{TierKind::Pmem, 24_MiB}};
        auto opts = benchPolicyOptions();
        opts.dramCacheBytes = 4_MiB;
        sim::Simulator sim(machine);
        sim.setPolicy(policies::makePolicy(policy, opts));
        auto ycsb = goldenYcsbConfig(15000);
        workloads::YcsbDriver driver(sim, ycsb);
        driver.load();
        const auto r = driver.run(workloads::YcsbWorkload::A);
        const auto violations = collectViolations(sim);
        EXPECT_TRUE(violations.empty())
            << policy << ": " << violations.front();
        const auto &vm = sim.vmstat();
        return std::make_tuple(r.throughputOpsPerSec(),
                               vm.global(stats::VmItem::PgpromoteSuccess),
                               vm.global(stats::VmItem::Pgdemote),
                               vm.global(stats::VmItem::PghintFault),
                               vm.global(stats::VmItem::PgscanCharged));
    };
    EXPECT_EQ(runOnce(), runOnce()) << policy;
}

INSTANTIATE_TEST_SUITE_P(
    AllFactoryPolicies, PolicyDeterminism,
    ::testing::ValuesIn(policies::policyNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// --- Invariants ---------------------------------------------------------

TEST(HarnessInvariants, CleanAfterScenarioRuns)
{
    const auto ctx = smallContext();
    std::vector<const Scenario *> selected{findScenario("fig05"),
                                           findScenario("fig07")};
    const auto report = runScenarios(selected, quietOptions(4, ctx));
    EXPECT_TRUE(report.clean());
    for (const auto &r : report.results)
        EXPECT_TRUE(r.output.violations.empty()) << r.name;
}

TEST(HarnessInvariants, FreshSimulatorIsClean)
{
    sim::Simulator sim(goldenYcsbMachine());
    sim.setPolicy(policies::makePolicy("multiclock"));
    EXPECT_TRUE(collectViolations(sim).empty());
}

// --- Unit finish --------------------------------------------------------

/**
 * Writes 64 fresh pages and idles long enough for the daemons to wake
 * (tracepoints); with @p corrupt, also counts one demotion no metrics
 * window saw, which the invariant suite must report.
 */
Vaddr
touchPages(sim::Simulator &sim, bool corrupt)
{
    const Vaddr region = sim.mmap(64 * kPageSize);
    for (std::uint64_t p = 0; p < 64; ++p)
        sim.write(region + p * kPageSize, 8);
    sim.compute(1_s);
    if (corrupt)
        sim.vmstat().add(stats::VmItem::Pgdemote);
    return region;
}

TEST(UnitFinish, SingleAndShardedRunnersFillTheSameRecord)
{
    RunContext ctx = goldenContext();
    ctx.stats = true;
    ctx.shards = 2;  // worker threads of the sharded host
    const RunRecord single = runHost(
        ctx, ycsbHost(ctx, "multiclock"),
        [](sim::Simulator &sim, RunRecord &) {
            return touchPages(sim, true);
        });
    const RunRecord sharded = runSharded(
        ctx, {"multiclock", shardedMachine(ctx, 8_MiB, 32_MiB)},
        /*shards=*/4, /*promoteBudget=*/0,
        [](sim::ShardedSimulator &host, RunRecord &) {
            host.run([](sim::Simulator &sim, unsigned s, std::uint64_t) {
                touchPages(sim, s == 1);
                return false;
            });
            return host.shards();
        });

    // The same planted fault, filed bare on the single host and under
    // its shard's name on the sharded one.
    ASSERT_FALSE(single.violations.empty());
    ASSERT_EQ(sharded.violations.size(), single.violations.size());
    for (std::size_t i = 0; i < single.violations.size(); ++i) {
        EXPECT_EQ(sharded.violations[i], "shard1: " + single.violations[i]);
    }
    EXPECT_NE(single.violations[0].find("metrics windows"),
              std::string::npos);

    EXPECT_EQ(single.vmstat.at("pgdemote"), 1u);
    EXPECT_EQ(sharded.vmstat.at("pgdemote"), 1u);
    EXPECT_EQ(single.perfAppOps, 64u);
    EXPECT_EQ(sharded.perfAppOps, 4u * 64u);
    EXPECT_GT(single.perfSimAccesses, 0u);
    EXPECT_GT(sharded.perfSimAccesses, 0u);

    // Stats mode: the host's trace, plus the sampler on a single host.
    EXPECT_FALSE(single.traceEvents.empty());
    EXPECT_FALSE(single.samplerCsv.empty());
    ASSERT_EQ(sharded.traceEvents.size(), 1u);  // one shard_merge
    EXPECT_TRUE(sharded.samplerCsv.empty());
}

TEST(UnitFingerprint, EveryResultFieldChangesIt)
{
    std::vector<sim::MetricsWindow> windows(3);
    windows[1].promotions = 4;
    windows[1].tierAccesses = {10, 2};
    RunRecord rec;
    rec.metrics["throughput"] = 1.5;
    rec.tenantMetrics["victim.p99_latency_ns"] = 900.0;
    rec.vmstat["pgdemote"] = 7;
    const auto fingerprint = [](SimTime clock,
                                const std::vector<sim::MetricsWindow> &w,
                                RunRecord r) {
        r.fingerprint = hostFingerprint(clock, w);
        return unitFingerprint(r);
    };
    const std::uint64_t base = fingerprint(1000, windows, rec);

    RunRecord vmstat = rec;
    ++vmstat.vmstat["pgdemote"];
    EXPECT_NE(fingerprint(1000, windows, vmstat), base);
    auto window = windows;
    ++window[1].promotions;
    EXPECT_NE(fingerprint(1000, window, rec), base);
    RunRecord metric = rec;
    metric.metrics["throughput"] = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(1.5) ^ 1);  // lowest mantissa bit
    EXPECT_NE(fingerprint(1000, windows, metric), base);
    EXPECT_NE(fingerprint(1001, windows, rec), base);
}

// --- Unit specs ---------------------------------------------------------

/** Converts to any field type; only named in unevaluated contexts. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

/** How many fields the aggregate @p T has: the most AnyFields it takes. */
template <typename T, typename... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

/**
 * Each of @p perturb changes one field of the @p T that @p part picks
 * out of @p base, and the changed spec must differ from @p base. One
 * perturbation per field of @p T, so a field added without one fails
 * here before it can silently merge two different units.
 */
template <typename T>
void
expectEveryFieldCompared(const UnitSpec &base, T &(*part)(UnitSpec &),
                         const std::vector<std::function<void(T &)>> &perturb)
{
    EXPECT_EQ(perturb.size(), fieldCount<T>());
    for (std::size_t i = 0; i < perturb.size(); ++i) {
        UnitSpec changed = base;
        perturb[i](part(changed));
        EXPECT_FALSE(changed == base) << "field " << i << " is not compared";
    }
}

TEST(UnitSpec, EveryFieldTakesPartInEquality)
{
    UnitSpec base{{"multiclock", goldenYcsbMachine()}, YcsbUnit{}};
    base.host.machine.faults.tierErrorMultiplier = {1.0, 2.0};
    EXPECT_TRUE(base == UnitSpec(base));
    expectEveryFieldCompared<UnitSpec>(
        base, [](UnitSpec &u) -> UnitSpec & { return u; },
        {[](auto &u) { u.host.policy = "nimble"; },
         [](auto &u) { u.workload = GapbsUnit{}; }});
    expectEveryFieldCompared<HostSpec>(
        base, [](UnitSpec &u) -> HostSpec & { return u.host; },
        {[](auto &h) { h.policy += "x"; },
         [](auto &h) { h.machine.seed += 1; },
         [](auto &h) { h.opts.nrScan += 1; }});
    expectEveryFieldCompared<sim::MachineConfig>(
        base,
        [](UnitSpec &u) -> sim::MachineConfig & { return u.host.machine; },
        {[](auto &m) { m.mem.swapLatency += 1; },
         [](auto &m) { m.cache.ways += 1; },
         [](auto &m) { m.nodes.pop_back(); },
         [](auto &m) { m.seed += 1; },
         [](auto &m) { m.swapPages += 1; },
         [](auto &m) { m.metricsWindow += 1; },
         [](auto &m) { m.stats.sampler = !m.stats.sampler; },
         [](auto &m) { m.faults.enabled = !m.faults.enabled; }});
    expectEveryFieldCompared<MemoryConfig>(
        base, [](UnitSpec &u) -> MemoryConfig & { return u.host.machine.mem; },
        {[](auto &m) { m.tiers.pop_back(); },
         [](auto &m) { m.minorFaultLatency += 1; },
         [](auto &m) { m.hintFaultLatency += 1; },
         [](auto &m) { m.migrationFixedCost += 1; },
         [](auto &m) { m.swapLatency += 1; },
         [](auto &m) { m.scanPerPageCost += 1; },
         [](auto &m) { m.faultPathMigrationMultiplier += 0.5; },
         [](auto &m) { m.backgroundInterference += 0.5; }});
    expectEveryFieldCompared<TierDesc>(
        base,
        [](UnitSpec &u) -> TierDesc & { return u.host.machine.mem.tiers[1]; },
        {[](auto &t) { t.name += "x"; },
         [](auto &t) { t.timing.loadLatency += 1; }});
    expectEveryFieldCompared<TierTiming>(
        base,
        [](UnitSpec &u) -> TierTiming & {
            return u.host.machine.mem.tiers[1].timing;
        },
        {[](auto &t) { t.loadLatency += 1; },
         [](auto &t) { t.storeLatency += 1; },
         [](auto &t) { t.readBandwidth += 0.5; },
         [](auto &t) { t.writeBandwidth += 0.5; }});
    expectEveryFieldCompared<CacheConfig>(
        base, [](UnitSpec &u) -> CacheConfig & { return u.host.machine.cache; },
        {[](auto &c) { c.enabled = !c.enabled; },
         [](auto &c) { c.sizeBytes *= 2; },
         [](auto &c) { c.ways *= 2; },
         [](auto &c) { c.hitLatency += 1; }});
    expectEveryFieldCompared<sim::NodeSpec>(
        base,
        [](UnitSpec &u) -> sim::NodeSpec & { return u.host.machine.nodes[1]; },
        {[](auto &n) { n.tier += 1; }, [](auto &n) { n.bytes *= 2; }});
    expectEveryFieldCompared<sim::StatsConfig>(
        base,
        [](UnitSpec &u) -> sim::StatsConfig & { return u.host.machine.stats; },
        {[](auto &s) { s.sampler = !s.sampler; }});
    expectEveryFieldCompared<sim::FaultConfig>(
        base,
        [](UnitSpec &u) -> sim::FaultConfig & { return u.host.machine.faults; },
        {[](auto &f) { f.enabled = !f.enabled; },
         [](auto &f) { f.seed += 1; },
         [](auto &f) { f.copyFailProb += 0.5; },
         [](auto &f) { f.shootdownFailProb += 0.5; },
         [](auto &f) { f.remapFailProb += 0.5; },
         [](auto &f) { f.persistentProb += 0.5; },
         [](auto &f) { f.tierErrorMultiplier[1] += 0.5; },
         [](auto &f) { f.maxRetries += 1; },
         [](auto &f) { f.retryBackoffNs += 1; },
         [](auto &f) { f.throttleThreshold += 1; },
         [](auto &f) { f.throttleCooldownNs += 1; }});
    expectEveryFieldCompared<policies::PolicyOptions>(
        base,
        [](UnitSpec &u) -> policies::PolicyOptions & { return u.host.opts; },
        {[](auto &o) { o.scanInterval += 1; },
         [](auto &o) { o.nrScan += 1; },
         [](auto &o) { o.poisonPagesPerSec += 0.5; },
         [](auto &o) { o.dramCacheBytes += 1; }});
}

TEST(UnitSpec, EveryWorkloadFieldTakesPartInEquality)
{
    using workloads::SyntheticProfile;
    using workloads::YcsbWorkload;
    using workloads::gapbs::Kernel;
    const HostSpec host{"static", goldenYcsbMachine()};
    const auto ycsb = [](UnitSpec &u) -> YcsbUnit & {
        return std::get<YcsbUnit>(u.workload);
    };
    const UnitSpec ycsbBase{host, YcsbUnit{{}, {YcsbWorkload::A},
                                           YcsbKeys::Windows}};
    expectEveryFieldCompared<YcsbUnit>(
        ycsbBase, ycsb,
        {[](auto &w) { w.ycsb.seed += 1; },
         [](auto &w) { w.phases.push_back(YcsbWorkload::B); },
         [](auto &w) { w.keys = YcsbKeys::Tiers; }});
    expectEveryFieldCompared<workloads::YcsbConfig>(
        ycsbBase,
        [](UnitSpec &u) -> workloads::YcsbConfig & {
            return std::get<YcsbUnit>(u.workload).ycsb;
        },
        {[](auto &c) { c.recordCount += 1; },
         [](auto &c) { c.valueBytes += 1; },
         [](auto &c) { c.opsPerWorkload += 1; },
         [](auto &c) { c.zipfTheta += 0.5; },
         [](auto &c) { c.seed += 1; }});

    const UnitSpec gapbsBase{host, GapbsUnit{{}, Kernel::PR}};
    expectEveryFieldCompared<GapbsUnit>(
        gapbsBase,
        [](UnitSpec &u) -> GapbsUnit & {
            return std::get<GapbsUnit>(u.workload);
        },
        {[](auto &w) { w.graph.seed += 1; },
         [](auto &w) { w.kernel = Kernel::BFS; },
         [](auto &w) { w.keys = GapbsKeys::Faults; }});
    expectEveryFieldCompared<workloads::gapbs::GapbsConfig>(
        gapbsBase,
        [](UnitSpec &u) -> workloads::gapbs::GapbsConfig & {
            return std::get<GapbsUnit>(u.workload).graph;
        },
        {[](auto &g) { g.scale += 1; },
         [](auto &g) { g.degree += 1; },
         [](auto &g) { g.trials += 1; },
         [](auto &g) { g.prIters += 1; },
         [](auto &g) { g.bcSources += 1; },
         [](auto &g) { g.maxWeight += 1; },
         [](auto &g) { g.seed += 1; },
         [](auto &g) { g.tcScale += 1; },
         [](auto &g) { g.tcDegree += 1; }});

    const UnitSpec heatmapBase{host,
                               HeatmapUnit{SyntheticProfile::Rubis, {}, {}}};
    expectEveryFieldCompared<HeatmapUnit>(
        heatmapBase,
        [](UnitSpec &u) -> HeatmapUnit & {
            return std::get<HeatmapUnit>(u.workload);
        },
        {[](auto &w) { w.profile = SyntheticProfile::Xalan; },
         [](auto &w) { w.synthetic.seed += 1; },
         [](auto &w) { w.heatmap.seed += 1; }});
    expectEveryFieldCompared<workloads::SyntheticConfig>(
        heatmapBase,
        [](UnitSpec &u) -> workloads::SyntheticConfig & {
            return std::get<HeatmapUnit>(u.workload).synthetic;
        },
        {[](auto &c) { c.numPages += 1; },
         [](auto &c) { c.duration += 1; },
         [](auto &c) { c.step += 1; },
         [](auto &c) { c.cpuPerStep += 1; },
         [](auto &c) { c.seed += 1; }});
    expectEveryFieldCompared<trace::HeatmapConfig>(
        heatmapBase,
        [](UnitSpec &u) -> trace::HeatmapConfig & {
            return std::get<HeatmapUnit>(u.workload).heatmap;
        },
        {[](auto &c) { c.sampledPages += 1; },
         [](auto &c) { c.timeBuckets += 1; },
         [](auto &c) { c.seed += 1; }});

    expectEveryFieldCompared<WindowUnit>(
        {host, WindowUnit{SyntheticProfile::Rubis, {}, 1_s}},
        [](UnitSpec &u) -> WindowUnit & {
            return std::get<WindowUnit>(u.workload);
        },
        {[](auto &w) { w.profile = SyntheticProfile::Xalan; },
         [](auto &w) { w.synthetic.seed += 1; },
         [](auto &w) { w.window += 1; }});
    expectEveryFieldCompared<ShardKvUnit>(
        {host, ShardKvUnit{0, 100, 2, 50, {1, 2}}},
        [](UnitSpec &u) -> ShardKvUnit & {
            return std::get<ShardKvUnit>(u.workload);
        },
        {[](auto &w) { w.promoteBudget += 1; },
         [](auto &w) { w.records += 1; },
         [](auto &w) { w.epochs += 1; },
         [](auto &w) { w.opsPerEpoch += 1; },
         [](auto &w) { w.seeds[1] += 1; }});
    expectEveryFieldCompared<TenantMixUnit>(
        {host,
         TenantMixUnit{TenantMix::Shared, 10, 20, 2, 30, 40, {1}, {2}}},
        [](UnitSpec &u) -> TenantMixUnit & {
            return std::get<TenantMixUnit>(u.workload);
        },
        {[](auto &w) { w.mix = TenantMix::Isolated; },
         [](auto &w) { w.victimRecords += 1; },
         [](auto &w) { w.thrasherRecords += 1; },
         [](auto &w) { w.epochs += 1; },
         [](auto &w) { w.victimOps += 1; },
         [](auto &w) { w.thrasherOps += 1; },
         [](auto &w) { w.victimSeeds[0] += 1; },
         [](auto &w) { w.thrasherSeeds[0] += 1; }});
    expectEveryFieldCompared<ChurnUnit>(
        {host, ChurnUnit{32, 1, {1, 2}}},
        [](UnitSpec &u) -> ChurnUnit & {
            return std::get<ChurnUnit>(u.workload);
        },
        {[](auto &w) { w.pages += 1; },
         [](auto &w) { w.sweeps += 1; },
         [](auto &w) { w.seeds.pop_back(); }});
}

TEST(RunnerSharing, ScenariosListingOneSpecRunItOnce)
{
    // fig08 and fig09 are two figures over the same two units.
    const RunContext ctx = goldenContext();
    const std::vector<const Scenario *> both{findScenario("fig08"),
                                             findScenario("fig09")};
    const RunReport shared = runScenarios(both, quietOptions(2, ctx));
    EXPECT_EQ(shared.unitsRun, 2u);
    for (const auto &result : shared.results) {
        EXPECT_EQ(result.units, 2u);
        const RunReport solo =
            runScenarios({findScenario(result.name)}, quietOptions(2, ctx));
        EXPECT_EQ(solo.unitsRun, 2u);
        expectIdentical(solo.results.front().output, result.output);
    }
}

// --- Report table -------------------------------------------------------

TEST(ReportTable, RendersDeclaredColumnsAsTextAndCsv)
{
    Table table({{"name", "name", 6},
                 {"x", "x", 8, 2},
                 {"n", "count", 6},
                 {"", "txt", 4},
                 {"csv_only", ""}});
    const double third = 1.0 / 3.0;
    table.row("a,b", {third, std::uint64_t{12345678901}, std::uint64_t{7},
                      1e9 + 0.5});
    table.row("c", {-2.0, std::uint64_t{0}, std::uint64_t{12}, 0.0});

    EXPECT_EQ(table.text(), "name          x  count  txt\n"
                            "a,b        0.33 12345678901    7\n"
                            "c         -2.00      0   12\n");
    // CSV cells are std::to_string() of each value: "%f" for doubles,
    // plain digits for integers; a label holding a comma is quoted.
    EXPECT_EQ(table.csv(), "name,x,n,csv_only\n\"a,b\"," +
                               std::to_string(third) + ",12345678901," +
                               std::to_string(1e9 + 0.5) + "\nc," +
                               std::to_string(-2.0) + ",0," +
                               std::to_string(0.0) + "\n");
}

// --- Artifacts ----------------------------------------------------------

TEST(Runner, WritesArtifactsIntoOutDir)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "mclock_harness_test_out";
    std::filesystem::remove_all(dir);
    auto opts = quietOptions(2, smallContext());
    opts.writeArtifacts = true;
    opts.writeManifest = true;
    opts.outDir = dir.string();
    runScenario("fig02", opts);
    EXPECT_TRUE(
        std::filesystem::exists(dir / "fig02_frequency.csv"));
    EXPECT_TRUE(
        std::filesystem::exists(dir / "run_manifest.json"));

    std::string err;
    // The manifest must be valid JSON with the fields the regen flow
    // documents (git SHA, config hash, per-unit fingerprints).
    std::ifstream f(dir / "run_manifest.json");
    std::stringstream buf;
    buf << f.rdbuf();
    const Json doc = Json::parse(buf.str(), &err);
    ASSERT_TRUE(doc.isObject()) << err;
    EXPECT_TRUE(doc.contains("git_sha"));
    // true/false, or "unknown" where git cannot run on the checkout.
    EXPECT_TRUE(doc["git_dirty"].isBool() ||
                doc["git_dirty"].asString() == "unknown");
    EXPECT_TRUE(doc.contains("seed"));
    ASSERT_TRUE(doc["scenarios"].isArray());
    ASSERT_EQ(doc["scenarios"].asArray().size(), 1u);
    const Json &entry = doc["scenarios"].asArray().front();
    EXPECT_EQ(entry["name"].asString(), "fig02");
    EXPECT_TRUE(entry.contains("config_hash"));
    EXPECT_FALSE(entry.contains("wall_seconds"));
    const auto &fingerprints = entry["fingerprints"].asObject();
    ASSERT_EQ(fingerprints.size(), 4u);  // one per fig02 unit
    for (const auto &[unit, fp] : fingerprints)
        EXPECT_EQ(fp.asString().size(), 16u) << unit;
    const auto &dropped = entry["trace_dropped"].asObject();
    ASSERT_EQ(dropped.size(), 4u);
    for (const auto &[unit, n] : dropped)
        EXPECT_TRUE(n.isNumber()) << unit;
    std::filesystem::remove_all(dir);
}

TEST(Manifest, GitDirtyIsUnknownOutsideAWorkTree)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "mclock_harness_test_no_git";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ASSERT_FALSE(std::filesystem::exists(dir / ".git"));
    const Json dirty = readGitDirty(dir.string());
    ASSERT_TRUE(dirty.isString());
    EXPECT_EQ(dirty.asString(), "unknown");
    std::filesystem::remove_all(dir);
}

// --- Golden machinery ---------------------------------------------------

TEST(GoldenFixtures, SaveLoadRoundTrip)
{
    const auto path = (std::filesystem::temp_directory_path() /
                       "mclock_golden_roundtrip.json")
                          .string();
    GoldenFile golden;
    golden.scenario = "fake";
    golden.seed = 42;
    golden.tolerance = 1e-6;
    golden.metrics = {{"a.x", 1.5}, {"b.y", -2.0}, {"c.z", 3e9}};
    saveGolden(path, golden);

    GoldenFile loaded;
    std::string err;
    ASSERT_TRUE(loadGolden(path, loaded, &err)) << err;
    EXPECT_EQ(loaded.scenario, "fake");
    EXPECT_EQ(loaded.seed, 42u);
    EXPECT_EQ(loaded.metrics, golden.metrics);
    std::filesystem::remove(path);
}

TEST(GoldenFixtures, CompareDetectsEveryMismatchKind)
{
    GoldenFile golden;
    golden.tolerance = 1e-6;
    golden.metrics = {{"a", 100.0}, {"missing", 1.0}};

    MetricMap fresh{{"a", 100.0 + 1e-3}, {"extra", 2.0}};
    const auto diffs = compareGolden(golden, fresh);
    ASSERT_EQ(diffs.size(), 3u);  // out-of-tol, missing, unexpected

    MetricMap ok{{"a", 100.0 + 1e-5}, {"missing", 1.0}};
    // 1e-5 absolute on 100.0 is within 1e-6 relative slack (1e-4).
    EXPECT_TRUE(compareGolden(golden, ok).empty());
}

TEST(GoldenFixtures, LoadRejectsMissingAndMalformed)
{
    GoldenFile out;
    std::string err;
    EXPECT_FALSE(loadGolden("/nonexistent/path.json", out, &err));
    EXPECT_FALSE(err.empty());

    const auto path = (std::filesystem::temp_directory_path() /
                       "mclock_golden_bad.json")
                          .string();
    std::ofstream(path) << "{not json";
    err.clear();
    EXPECT_FALSE(loadGolden(path, out, &err));
    EXPECT_FALSE(err.empty());
    std::filesystem::remove(path);
}

}  // namespace
