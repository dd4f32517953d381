/**
 * @file
 * Tests for the experiment harness: scenario registry coverage, the
 * parallel runner's determinism contract (same seed -> bit-identical
 * output, independent of --jobs), per-policy determinism via the
 * factory, the shared invariant checker, and the golden fixture
 * machinery (load/save/compare).
 */

#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "base/json.hh"
#include "harness/invariants.hh"
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
    const std::vector<std::string> keys{"ops"};
    RunContext ctx;
    ctx.declared = &keys;
    EXPECT_EQ(ctx.param("ops", 9), 9u);
    EXPECT_DEATH(ctx.param("trials", 1), "undeclared --param 'trials'");
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

/**
 * The bit-identity proof for --jobs, --shards and --stats: every golden
 * scenario run at --jobs 1 --shards 1 has the same per-unit
 * fingerprints, summary, text and artifacts at --jobs 4 --shards 8 and
 * with --stats; the sharded ones (shard_*, tenant_*) also at --jobs 4
 * with 3 and 4 shard workers.
 */
TEST(RunIdentity, GoldenSuiteIsIdenticalAcrossJobsShardsAndStats)
{
    const struct Variant
    {
        unsigned jobs = 1, shards = 1;
        bool stats = false, shardedOnly = false;
    } variants[] = {{4, 8}, {4, 3, false, true}, {4, 4, false, true},
                    {1, 1, true}};
    const auto run = [](const Variant &v) {
        std::vector<const Scenario *> selected;
        for (const std::string &name : goldenScenarioNames()) {
            if (!v.shardedOnly || name.rfind("shard_", 0) == 0 ||
                name.rfind("tenant_", 0) == 0)
                selected.push_back(findScenario(name));
        }
        RunContext ctx = goldenContext();
        ctx.shards = v.shards;
        ctx.stats = v.stats;
        return runScenarios(selected, quietOptions(v.jobs, ctx));
    };

    const RunReport reference = run({});
    std::map<std::string, const ScenarioOutput *> byName;
    for (const auto &r : reference.results) {
        byName[r.name] = &r.output;
        EXPECT_EQ(r.output.fingerprints.size(), r.units) << r.name;
    }
    const auto &fig05 = byName.at("fig05")->fingerprints;
    EXPECT_NE(fig05.at("multiclock"), fig05.at("static"));

    for (const Variant &v : variants) {
        const RunReport wide = run(v);
        ASSERT_EQ(wide.results.size(),
                  v.shardedOnly ? 4u : reference.results.size());
        for (const auto &r : wide.results) {
            SCOPED_TRACE(r.name + " at --jobs " + std::to_string(v.jobs) +
                         " --shards " + std::to_string(v.shards) +
                         (v.stats ? " --stats" : ""));
            expectIdentical(*byName.at(r.name), r.output);
        }
    }
}

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
 * Thread-pool churn regression: repeated pool construction/teardown
 * and job counts up to and past the unit count (the pool is clamped to
 * one thread per unit) exercise the submit/drain/shutdown windows of
 * the runner's
 * ThreadPool under maximal interleaving pressure. The functional
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
    const RunRecord single = runHost(
        ctx, ycsbHost(ctx, "multiclock"),
        [](sim::Simulator &sim, RunRecord &) {
            return touchPages(sim, true);
        });
    const RunRecord sharded = runSharded(
        ctx, {"multiclock", shardedMachine(ctx, 8_MiB, 32_MiB)},
        {/*shards=*/4, /*workers=*/2},
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
