/**
 * @file
 * Contract tests for the wall-clock benchmark mode (--bench).
 *
 * Benchmarking must be observation-only: a scenario run under
 * runBenchmark() produces exactly the summary a plain runScenarios()
 * invocation produces, so --bench can never perturb the simulated
 * results it is timing. The other half of the contract is the
 * BENCH_<n>.json document shape: the schema these tests pin is what
 * the CI smoke job and the checked-in BENCH_7.json rely on.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "harness/benchmark.hh"
#include "harness/profiles.hh"

#include "harness_fixtures.hh"

using namespace mclock;
using namespace mclock::harness;

namespace {

BenchOptions
smallBenchOptions(unsigned repeat, unsigned warmup)
{
    BenchOptions opts;
    opts.repeat = repeat;
    opts.warmup = warmup;
    opts.jobs = 1;
    opts.context = smallContext();
    return opts;
}

std::string
writeTempFile(const std::string &name, const std::string &contents)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream f(path);
    f << contents;
    return path;
}

TEST(BenchRunTest, RepeatAndWarmupCountsHonoured)
{
    const auto report =
        runBenchmark({findScenario("fig02")}, smallBenchOptions(3, 1));
    ASSERT_EQ(report.scenarios.size(), 1u);
    const BenchScenario &s = report.scenarios.front();
    EXPECT_EQ(s.name, "fig02");
    EXPECT_EQ(report.repeat, 3u);
    EXPECT_EQ(report.warmup, 1u);
    EXPECT_EQ(s.wallSeconds.size(), 3u);
    EXPECT_TRUE(s.clean);
    EXPECT_GT(s.appOps, 0u);
    EXPECT_GT(s.simAccesses, 0u);
    EXPECT_GT(s.bestSeconds(), 0.0);
    EXPECT_LE(s.bestSeconds(), s.meanSeconds());
}

TEST(BenchRunTest, BenchmarkingDoesNotPerturbSimulatedResults)
{
    const auto report =
        runBenchmark({findScenario("fig02")}, smallBenchOptions(2, 0));
    ASSERT_EQ(report.scenarios.size(), 1u);

    const ScenarioResult plain =
        runScenario("fig02", quietOptions(1, smallContext()));

    // Identical summary metrics and identical work counters: timing a
    // scenario must not change what it simulates.
    EXPECT_EQ(report.scenarios.front().summary, plain.output.summary);
    EXPECT_EQ(report.scenarios.front().appOps, plain.appOps);
    EXPECT_EQ(report.scenarios.front().simAccesses, plain.simAccesses);
    EXPECT_EQ(report.scenarios.front().units, plain.units);
}

TEST(BenchJsonTest, DocumentSchema)
{
    BenchOptions opts = smallBenchOptions(2, 0);
    opts.benchId = "BENCH_TEST";
    const auto report = runBenchmark({findScenario("fig02")}, opts);
    const Json doc = benchReportToJson(report, opts);

    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc["bench_id"].asString(), "BENCH_TEST");
    EXPECT_EQ(doc["schema"].asString(), "mclock-bench-v1");
    EXPECT_TRUE(doc["git_sha"].isString());
    EXPECT_EQ(doc["jobs"].asNumber(), 1.0);
    EXPECT_EQ(doc["repeat"].asNumber(), 2.0);
    EXPECT_EQ(doc["warmup"].asNumber(), 0.0);

    const Json &sc = doc["scenarios"]["fig02"];
    ASSERT_TRUE(sc.isObject());
    for (const char *key :
         {"units", "app_ops", "sim_accesses", "best_seconds",
          "mean_seconds", "app_ops_per_sec", "sim_accesses_per_sec"}) {
        EXPECT_TRUE(sc[key].isNumber()) << key;
    }
    ASSERT_TRUE(sc["wall_seconds"].isArray());
    EXPECT_EQ(sc["wall_seconds"].asArray().size(), 2u);

    const Json &suite = doc["suite"];
    ASSERT_TRUE(suite.isObject());
    EXPECT_EQ(suite["scenarios"].asNumber(), 1.0);
    for (const char *key :
         {"total_app_ops", "total_sim_accesses", "total_best_seconds",
          "app_ops_per_sec", "sim_accesses_per_sec"}) {
        EXPECT_TRUE(suite[key].isNumber()) << key;
    }

    // No baseline given: neither the baseline nor the speedup appears.
    EXPECT_FALSE(doc.contains("baseline"));
    EXPECT_FALSE(doc.contains("speedup_vs_baseline"));

    // The document round-trips through the serializer.
    std::string err;
    const Json parsed = Json::parse(doc.dump(2), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(parsed.dump(), doc.dump());
}

TEST(BenchRunTest, MultiJobRequestDowngradesToOne)
{
    // Benchmark repeats are timed one scenario at a time; any --jobs
    // other than 1 would contend the timing window and is downgraded
    // (with a warning on stderr) rather than honoured.
    BenchOptions opts = smallBenchOptions(1, 0);
    opts.jobs = 4;
    const auto report = runBenchmark({findScenario("fig02")}, opts);
    EXPECT_EQ(report.jobs, 1u);
    const Json doc = benchReportToJson(report, opts);
    EXPECT_EQ(doc["jobs"].asNumber(), 1.0);
}

TEST(BenchJsonTest, FullReportServesAsBaseline)
{
    // A previous BENCH_<n>.json (scenario entries are objects with
    // "best_seconds") must work directly as --bench-baseline, the way
    // BENCH_8 builds on BENCH_7.
    BenchOptions opts = smallBenchOptions(1, 0);
    const auto report = runBenchmark({findScenario("fig02")}, opts);
    ASSERT_EQ(report.scenarios.size(), 1u);
    const double best = report.scenarios.front().bestSeconds();
    ASSERT_GT(best, 0.0);

    Json entry{Json::Object{}};
    entry.set("best_seconds", best * 4.0);
    entry.set("mean_seconds", best * 5.0);
    Json scenarios{Json::Object{}};
    scenarios.set("fig02", std::move(entry));
    Json baseline{Json::Object{}};
    baseline.set("bench_id", "BENCH_PREV");
    baseline.set("scenarios", std::move(scenarios));
    opts.baselinePath =
        writeTempFile("bench_full_report.json", baseline.dump(2));

    const Json doc = benchReportToJson(report, opts);
    ASSERT_TRUE(doc["speedup_vs_baseline"].isNumber());
    EXPECT_NEAR(doc["speedup_vs_baseline"].asNumber(), 4.0, 1e-9);
}

TEST(BenchJsonTest, BaselineEmbeddingAndSpeedup)
{
    BenchOptions opts = smallBenchOptions(1, 0);
    const auto report = runBenchmark({findScenario("fig02")}, opts);
    ASSERT_EQ(report.scenarios.size(), 1u);
    const double best = report.scenarios.front().bestSeconds();
    ASSERT_GT(best, 0.0);

    // Baseline claims the scenario used to take 10x longer.
    const double baseSeconds = best * 10.0;
    Json scenarios{Json::Object{}};
    scenarios.set("fig02", baseSeconds);
    Json baseline{Json::Object{}};
    baseline.set("label", "synthetic baseline");
    baseline.set("scenarios", std::move(scenarios));
    opts.baselinePath =
        writeTempFile("bench_baseline.json", baseline.dump(2));

    const Json doc = benchReportToJson(report, opts);
    ASSERT_TRUE(doc["baseline"].isObject());
    EXPECT_EQ(doc["baseline"]["label"].asString(), "synthetic baseline");
    ASSERT_TRUE(doc["speedup_vs_baseline"].isNumber());
    EXPECT_NEAR(doc["speedup_vs_baseline"].asNumber(),
                baseSeconds / best, 1e-9);
}

TEST(BenchJsonTest, BaselineWithoutOverlapEmitsExplicitNull)
{
    BenchOptions opts = smallBenchOptions(1, 0);
    const auto report = runBenchmark({findScenario("fig02")}, opts);

    Json scenarios{Json::Object{}};
    scenarios.set("some_other_scenario", 1.0);
    Json baseline{Json::Object{}};
    baseline.set("scenarios", std::move(scenarios));
    opts.baselinePath =
        writeTempFile("bench_baseline_disjoint.json", baseline.dump());

    const Json doc = benchReportToJson(report, opts);
    // The baseline still embeds (it documents what was compared
    // against), but no like-for-like ratio can be claimed: the key
    // must be present as an explicit null — never NaN from a 0/0
    // division, and never a silently missing key a dashboard would
    // misread as "no baseline configured".
    EXPECT_TRUE(doc["baseline"].isObject());
    ASSERT_TRUE(doc.contains("speedup_vs_baseline"));
    EXPECT_TRUE(doc["speedup_vs_baseline"].isNull());
}

TEST(BenchJsonTest, LoadBaselineRejectsBadDocuments)
{
    EXPECT_TRUE(loadBenchBaseline("/no/such/path.json").isNull());
    EXPECT_TRUE(
        loadBenchBaseline(writeTempFile("bench_bad.json", "not json{"))
            .isNull());
    EXPECT_TRUE(
        loadBenchBaseline(writeTempFile("bench_arr.json", "[1,2]"))
            .isNull());
    const Json ok = loadBenchBaseline(
        writeTempFile("bench_ok.json", "{\"scenarios\":{}}"));
    EXPECT_TRUE(ok.isObject());
}

TEST(BenchJsonTest, CheckedInSeedBaselineParses)
{
    // The repo's recorded pre-overhaul baseline must stay loadable:
    // BENCH_7.json's speedup claim is computed against it.
    const Json doc =
        loadBenchBaseline(std::string(MCLOCK_SOURCE_DIR) +
                          "/bench/baseline_seed.json");
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc["scenarios"].isObject());
    EXPECT_GE(doc["scenarios"].asObject().size(), 19u);
    for (const auto &kv : doc["scenarios"].asObject())
        EXPECT_TRUE(kv.second.isNumber()) << kv.first;
}

}  // namespace
