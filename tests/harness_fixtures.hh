/**
 * @file
 * Run contexts and runner options shared by the harness-level tests.
 */

#ifndef MCLOCK_TESTS_HARNESS_FIXTURES_HH_
#define MCLOCK_TESTS_HARNESS_FIXTURES_HH_

#include <gtest/gtest.h>

#include <string>

#include "harness/golden.hh"
#include "harness/runner.hh"

namespace mclock {
namespace harness {

/** Golden-profile context with a small op count: fast but nontrivial. */
inline RunContext
smallContext()
{
    RunContext ctx = goldenContext();
    ctx.params["ops"] = 20000;
    ctx.params["seconds"] = 6;
    ctx.params["trials"] = 1;
    return ctx;
}

/** Runner options that print and write nothing. */
inline RunnerOptions
quietOptions(unsigned jobs, const RunContext &ctx)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.quiet = true;
    opts.writeArtifacts = false;
    opts.context = ctx;
    return opts;
}

/** @p name's summary at --jobs 1 under @p ctx, from a clean run. */
inline MetricMap
runSummary(const std::string &name, const RunContext &ctx)
{
    const ScenarioResult result = runScenario(name, quietOptions(1, ctx));
    EXPECT_TRUE(result.output.violations.empty()) << name;
    return result.output.summary;
}

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_TESTS_HARNESS_FIXTURES_HH_
