/**
 * @file
 * Contract tests for the wall-clock benchmark mode (--bench).
 *
 * Benchmarking must be observation-only: a scenario run under
 * runBenchmark() produces exactly the summary and fingerprint a plain
 * runScenarios() invocation produces, so --bench can never perturb the
 * simulated results it is timing. The other half of the contract is the
 * mclock-bench-v2 document shape and its calibration arithmetic, which
 * the CI smoke job relies on. The calibration kernel is a stub here, so
 * calibrated seconds are exact functions of the raw ones.
 */

#include <gtest/gtest.h>

#include <string>

#include "calibration.hh"
#include "harness/benchmark.hh"
#include "harness/manifest.hh"
#include "harness/profiles.hh"

#include "harness_fixtures.hh"

using namespace mclock;
using namespace mclock::harness;

namespace {

/** Stub kernel time: a power of two, so its mean is exact. */
constexpr double kStubKernelS = 0.0625;

BenchOptions
smallBenchOptions(unsigned repeat, unsigned warmup)
{
    BenchOptions opts;
    opts.repeat = repeat;
    opts.warmup = warmup;
    opts.kernel = {[] { return kStubKernelS; },
                   perfbench::Calibration::kReferenceS};
    opts.context = smallContext();
    return opts;
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

TEST(BenchRunTest, KernelRunsBeforeTheFirstScenarioAndAfterEach)
{
    unsigned calls = 0;
    BenchOptions opts = smallBenchOptions(1, 0);
    opts.kernel.measureS = [&calls] { return 0.01 * ++calls; };
    const auto report = runBenchmark(
        {findScenario("fig01"), findScenario("fig02")}, opts);
    EXPECT_EQ(report.kernelSeconds,
              (std::vector<double>{0.01, 0.02, 0.03}));
    EXPECT_DOUBLE_EQ(report.kernelMeanSeconds(), 0.02);
}

TEST(BenchJsonTest, DocumentSchema)
{
    const BenchOptions opts = smallBenchOptions(2, 0);
    const auto report = runBenchmark({findScenario("fig02")}, opts);
    const Json doc = benchReportToJson(report, opts, "BENCH_TEST");

    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc["bench_id"].asString(), "BENCH_TEST");
    EXPECT_EQ(doc["schema"].asString(), "mclock-bench-v2");
    EXPECT_TRUE(doc["git_sha"].isString());
    EXPECT_FALSE(doc.contains("jobs"));
    EXPECT_EQ(doc["repeat"].asNumber(), 2.0);
    EXPECT_EQ(doc["warmup"].asNumber(), 0.0);

    const Json &host = doc["host"];
    ASSERT_TRUE(host.isObject());
    EXPECT_GE(host["cpus"].asNumber(), 1.0);
    EXPECT_TRUE(host["model"].isString());
    EXPECT_TRUE(host["compiler"].isString());
    EXPECT_EQ(host["kernel_s"].asNumber(), kStubKernelS);

    const Json &sc = doc["scenarios"]["fig02"];
    ASSERT_TRUE(sc.isObject());
    for (const char *key :
         {"units", "app_ops", "sim_accesses", "best_seconds",
          "mean_seconds", "calibrated_best_seconds", "app_ops_per_sec",
          "sim_accesses_per_sec"}) {
        EXPECT_TRUE(sc[key].isNumber()) << key;
    }
    ASSERT_TRUE(sc["wall_seconds"].isArray());
    EXPECT_EQ(sc["wall_seconds"].asArray().size(), 2u);
    EXPECT_EQ(sc["fingerprint"].asString().size(), 16u);

    // Calibrated = raw x reference / mean kernel time, exactly.
    const double raw = sc["best_seconds"].asNumber();
    EXPECT_EQ(sc["calibrated_best_seconds"].asNumber(),
              raw * perfbench::Calibration::kReferenceS / kStubKernelS);

    const Json &suite = doc["suite"];
    ASSERT_TRUE(suite.isObject());
    EXPECT_EQ(suite["scenarios"].asNumber(), 1.0);
    for (const char *key :
         {"total_app_ops", "total_sim_accesses", "total_best_seconds",
          "total_calibrated_best_seconds", "app_ops_per_sec",
          "sim_accesses_per_sec"}) {
        EXPECT_TRUE(suite[key].isNumber()) << key;
    }

    // The document round-trips through the serializer.
    std::string err;
    const Json parsed = Json::parse(doc.dump(2), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(parsed.dump(), doc.dump());
}

TEST(BenchJsonTest, FingerprintIsTheGoldenFoldOfAPlainRun)
{
    const BenchOptions opts = smallBenchOptions(2, 1);
    const auto report = runBenchmark({findScenario("fig02")}, opts);
    ASSERT_EQ(report.scenarios.size(), 1u);
    EXPECT_TRUE(report.scenarios.front().clean);

    const ScenarioResult plain =
        runScenario("fig02", quietOptions(1, smallContext()));
    ASSERT_FALSE(plain.output.fingerprints.empty());
    EXPECT_EQ(report.scenarios.front().fingerprint,
              plain.output.fingerprint());
    const Json doc = benchReportToJson(report, opts, "BENCH_TEST");
    EXPECT_EQ(doc["scenarios"]["fig02"]["fingerprint"].asString(),
              hex64(plain.output.fingerprint()));
}

}  // namespace
