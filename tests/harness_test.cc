/**
 * @file
 * Tests for the experiment harness: scenario registry coverage, the
 * parallel runner's determinism contract (same seed -> bit-identical
 * output, independent of --jobs), per-policy determinism via the
 * factory, the shared invariant checker, and the golden fixture
 * machinery (load/save/compare).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "base/json.hh"
#include "harness/golden.hh"
#include "harness/invariants.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "policies/factory.hh"
#include "sim/simulator.hh"
#include "workloads/ycsb.hh"

using namespace mclock;
using namespace mclock::harness;

namespace {

/** Golden-profile context with a small op count: fast but nontrivial. */
RunContext
smallContext()
{
    RunContext ctx = goldenContext();
    ctx.params["ops"] = 20000;
    ctx.params["seconds"] = 6;
    ctx.params["trials"] = 1;
    return ctx;
}

RunnerOptions
quietOptions(unsigned jobs, const RunContext &ctx)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.quiet = true;
    opts.writeArtifacts = false;
    opts.context = ctx;
    return opts;
}

void
expectIdentical(const ScenarioOutput &a, const ScenarioOutput &b)
{
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.summary, b.summary);
    ASSERT_EQ(a.artifacts.size(), b.artifacts.size());
    for (std::size_t i = 0; i < a.artifacts.size(); ++i) {
        EXPECT_EQ(a.artifacts[i].filename, b.artifacts[i].filename);
        EXPECT_EQ(a.artifacts[i].contents, b.artifacts[i].contents);
    }
    EXPECT_TRUE(a.violations.empty());
    EXPECT_TRUE(b.violations.empty());
}

// --- Registry -----------------------------------------------------------

TEST(ScenarioRegistry, ListsAllTwentyFourExperiments)
{
    const auto &all = allScenarios();
    EXPECT_EQ(all.size(), 24u);
    std::set<std::string> names;
    for (const auto &sc : all)
        names.insert(sc.name);
    for (const char *expected :
         {"fig01", "fig02", "tab01", "fig05", "fig06", "fig07",
          "fig08", "fig09", "fig10", "ablation_promote_list",
          "ablation_tracking_cost", "ablation_ratio", "ablation_llc",
          "tier3_ycsb_a", "tier3_ycsb_b", "tier3_pagerank",
          "faultinj_ycsb_a", "faultinj_pagerank",
          "shard_bigmem", "shard_bigmem_budget", "shard_bigmem_x4",
          "shard_bigmem_x8",
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

TEST(ScenarioRegistry, GoldenEligibilityMatchesDeterminism)
{
    // tab01 is static metadata, and the shard_bigmem_x* variants only
    // pin a worker width (their results are identical to shard_bigmem,
    // so fixtures would be redundant); everything else must be in the
    // golden suite.
    const auto names = goldenScenarioNames();
    EXPECT_EQ(names.size(), 21u);
    for (const auto &name : names) {
        EXPECT_NE(name, "tab01");
        EXPECT_NE(name, "shard_bigmem_x4");
        EXPECT_NE(name, "shard_bigmem_x8");
    }
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

// --- Determinism --------------------------------------------------------

TEST(RunnerDeterminism, SameSeedTwiceIsBitIdentical)
{
    const auto ctx = smallContext();
    const auto a = runScenario("fig05", quietOptions(2, ctx));
    const auto b = runScenario("fig05", quietOptions(2, ctx));
    expectIdentical(a.output, b.output);
    EXPECT_FALSE(a.output.summary.empty());
}

TEST(RunnerDeterminism, JobCountDoesNotAffectOutput)
{
    const auto ctx = smallContext();
    const auto serial = runScenario("fig05", quietOptions(1, ctx));
    const auto parallel = runScenario("fig05", quietOptions(4, ctx));
    expectIdentical(serial.output, parallel.output);
}

TEST(RunnerDeterminism, Tier3JobCountDoesNotAffectOutput)
{
    const auto ctx = smallContext();
    const auto serial =
        runScenario("tier3_ycsb_a", quietOptions(1, ctx));
    const auto parallel =
        runScenario("tier3_ycsb_a", quietOptions(4, ctx));
    expectIdentical(serial.output, parallel.output);
    EXPECT_FALSE(serial.output.summary.empty());
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

TEST(RunnerDeterminism, MultiScenarioRunMatchesAnyJobCount)
{
    const auto ctx = smallContext();
    std::vector<const Scenario *> selected{findScenario("fig02"),
                                           findScenario("fig09")};
    const auto serial = runScenarios(selected, quietOptions(1, ctx));
    const auto parallel = runScenarios(selected, quietOptions(4, ctx));
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        expectIdentical(serial.results[i].output,
                        parallel.results[i].output);
    }
}

/**
 * Thread-pool churn regression: repeated pool construction/teardown
 * and an oversubscribed worker count (far more workers than units)
 * exercise the submit/drain/shutdown windows of the runner's
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
    // documents (git SHA, config hash, per-scenario wall time).
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
    EXPECT_TRUE(entry.contains("wall_seconds"));
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
