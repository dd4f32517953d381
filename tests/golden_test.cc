/**
 * @file
 * Golden-run regression suite.
 *
 * Re-runs every golden-eligible scenario at its pinned seed and
 * reduced-scale profile and compares the full metric summary against
 * the fixtures in tests/golden/. Any unintended behaviour change in
 * the PFRA machinery, a policy, a workload generator, or the metrics
 * layer shows up here as an out-of-tolerance, missing, or unexpected
 * metric.
 *
 * After an INTENDED behaviour change, regenerate with
 *     mclock_bench --update-golden
 * review the fixture diff, and commit it together with the change
 * (see README "Golden-run regression").
 */

#include <gtest/gtest.h>

#include "harness_fixtures.hh"

using namespace mclock;
using namespace mclock::harness;

namespace {

class GoldenScenario : public ::testing::TestWithParam<std::string>
{};

TEST_P(GoldenScenario, MatchesFixture)
{
    const std::string name = GetParam();

    GoldenFile golden;
    std::string err;
    ASSERT_TRUE(loadGolden(goldenPath(defaultGoldenDir(), name),
                           golden, &err))
        << err << "\n(generate fixtures with: mclock_bench "
        << "--update-golden)";
    EXPECT_EQ(golden.scenario, name);

    const auto result = runScenario(name, quietOptions(4, goldenContext()));

    EXPECT_TRUE(result.output.violations.empty())
        << result.output.violations.front();

    const auto diffs = compareGolden(golden, result.output.summary);
    for (const auto &d : diffs)
        ADD_FAILURE() << name << ": " << d;
    if (!diffs.empty()) {
        ADD_FAILURE()
            << "golden mismatch — if this change is intended, run "
               "`mclock_bench --update-golden`, review the diff of "
               "tests/golden/, and commit it with your change";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGoldenScenarios, GoldenScenario,
    ::testing::ValuesIn(goldenScenarioNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

}  // namespace
