/**
 * @file
 * Parallel scenario runner.
 *
 * Expands the selected scenarios into run units, executes each distinct
 * unit spec once on a fixed-size thread pool (each unit owns its
 * Simulator, so units are embarrassingly parallel), then reduces every
 * scenario single-threaded in registry order. Results are therefore
 * bit-identical for any job count, including 1, and a scenario's
 * output does not depend on which other scenarios ran beside it.
 */

#ifndef MCLOCK_HARNESS_RUNNER_HH_
#define MCLOCK_HARNESS_RUNNER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hh"

namespace mclock {
namespace harness {

/** Runner configuration. */
struct RunnerOptions
{
    unsigned jobs = 1;  ///< worker threads (0 = hardware; see poolWidth)
    std::string outDir = ".";   ///< where artifacts + manifest land
    bool writeArtifacts = true;
    bool writeManifest = false;
    bool quiet = false;         ///< suppress scenario text on stdout
    RunContext context;
};

/** One scenario's outcome, in selection order. */
struct ScenarioResult
{
    std::string name;
    ScenarioOutput output;
    std::size_t units = 0;
    /** Unit perf counters summed (see RunRecord; not golden-compared). */
    std::uint64_t appOps = 0;
    std::uint64_t simAccesses = 0;
};

/** Whole-run outcome. */
struct RunReport
{
    std::vector<ScenarioResult> results;
    /** Units executed: the distinct specs over all scenarios' units. */
    std::size_t unitsRun = 0;
    double wallSeconds = 0.0;
    bool
    clean() const
    {
        for (const auto &r : results) {
            if (!r.output.violations.empty())
                return false;
        }
        return true;
    }
};

/**
 * Worker threads for a pool running @p units units: @p requested, or
 * @p hardware threads (at least one) when @p requested is 0, and never
 * more than there are units (but at least one).
 */
unsigned poolWidth(unsigned requested, unsigned hardware,
                   std::size_t units);

/**
 * Execute @p scenarios under @p opts. Prints each scenario's text (in
 * order) unless quiet, writes artifacts into opts.outDir, and writes a
 * run manifest when requested.
 */
RunReport runScenarios(const std::vector<const Scenario *> &scenarios,
                       const RunnerOptions &opts);

/** Convenience: run one scenario by name (fatal if unknown). */
ScenarioResult runScenario(const std::string &name,
                           const RunnerOptions &opts);

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_RUNNER_HH_
