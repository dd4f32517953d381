/**
 * @file
 * Wall-clock benchmark mode for the experiment driver.
 *
 * Runs each selected scenario repeatedly on the host, measures real
 * (not simulated) time per repeat, and reports throughput as
 * application operations per second and simulated memory accesses per
 * second. The report serializes to a BENCH_<n>.json document that the
 * perf program checks in next to the golden fixtures.
 *
 * Host speed drifts on a shared machine, so raw seconds from two runs
 * mix the host with the code. A fixed calibration kernel is timed
 * before the first scenario and after every scenario, and each raw
 * time is also stated in seconds of a reference host: raw x the
 * kernel's reference time / the mean of its times in this process
 * (perfbench README, "Calibration").
 *
 * Benchmarking is observation-only: every repeat goes through the same
 * runScenarios() path as a normal invocation (artifacts and manifest
 * suppressed), so simulated results are byte-identical whether or not
 * --bench is given. Each scenario's report carries the fingerprint
 * --check-golden prints, and bench_test.cc pins both.
 */

#ifndef MCLOCK_HARNESS_BENCHMARK_HH_
#define MCLOCK_HARNESS_BENCHMARK_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"

namespace mclock {
namespace harness {

/**
 * A host-speed calibration kernel: benchmark code whose time moves
 * with the host only. mclock_bench passes perfbench's Calibration;
 * tests pass a stub.
 */
struct BenchKernel
{
    std::function<double()> measureS;  ///< host seconds of one run
    double referenceS = 0.0;  ///< its time on the reference host
};

/**
 * Benchmark-mode configuration. Repeats always run at one harness
 * worker (scenarios must not compete for cores while being timed);
 * sharded scenarios still thread internally per context.shards, which
 * is the measured quantity.
 */
struct BenchOptions
{
    unsigned repeat = 3;  ///< measured repeats per scenario (>= 1)
    unsigned warmup = 1;  ///< discarded warmup repeats per scenario
    BenchKernel kernel;
    RunContext context;
};

/** Measured outcome for one scenario. */
struct BenchScenario
{
    std::string name;
    std::size_t units = 0;
    /** Work per repeat (identical across repeats by determinism). */
    std::uint64_t appOps = 0;
    std::uint64_t simAccesses = 0;
    /** Host seconds per measured repeat, in execution order. */
    std::vector<double> wallSeconds;
    /** Golden-comparable summary of the last repeat (for contract tests). */
    MetricMap summary;
    /** ScenarioOutput::fingerprint(), equal in every repeat. */
    std::uint64_t fingerprint = 0;
    /** No invariant violation and no fingerprint change in any repeat. */
    bool clean = true;

    double bestSeconds() const;
    double meanSeconds() const;
};

/** Whole-suite benchmark outcome. */
struct BenchReport
{
    std::vector<BenchScenario> scenarios;
    unsigned repeat = 0;
    unsigned warmup = 0;
    /** Kernel seconds: one run before the first scenario, one after each. */
    std::vector<double> kernelSeconds;
    double kernelReferenceS = 0.0;

    bool
    clean() const
    {
        for (const auto &s : scenarios) {
            if (!s.clean)
                return false;
        }
        return true;
    }

    double kernelMeanSeconds() const;
    /** @p raw host seconds in seconds of the reference host. */
    double calibrated(double raw) const;
    double totalBestSeconds() const;
    std::uint64_t totalAppOps() const;
    std::uint64_t totalSimAccesses() const;
};

/**
 * Benchmark @p scenarios one at a time (so repeats are not contended
 * by other scenarios' units): @c opts.warmup discarded runs, then
 * @c opts.repeat measured runs each, with one kernel run before the
 * first scenario and one after each.
 */
BenchReport runBenchmark(const std::vector<const Scenario *> &scenarios,
                         const BenchOptions &opts);

/** Serialize @p report as the mclock-bench-v2 document @p benchId. */
Json benchReportToJson(const BenchReport &report, const BenchOptions &opts,
                       const std::string &benchId);

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_BENCHMARK_HH_
