/**
 * @file
 * GAPBS benchmark driver.
 *
 * Mirrors the GAP reference harness: load the graph into memory, then
 * execute multiple timed trials of one kernel over the memory-resident
 * graph, reporting the average execution time per trial (the paper's
 * Fig. 6 metric). Tiering policies adapt across trials exactly as they
 * did on the authors' testbed.
 */

#ifndef MCLOCK_WORKLOADS_GAPBS_DRIVER_HH_
#define MCLOCK_WORKLOADS_GAPBS_DRIVER_HH_

#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "base/units.hh"
#include "workloads/gapbs/graph.hh"

namespace mclock {

namespace sim {
class Simulator;
}

namespace workloads {
namespace gapbs {

/** The six GAPBS kernels. */
enum class Kernel { BFS, SSSP, PR, CC, BC, TC };

const char *kernelName(Kernel k);

/** Driver configuration. */
struct GapbsConfig
{
    unsigned scale = 16;       ///< 2^scale vertices (kron graph)
    unsigned degree = 24;      ///< average undirected degree
    unsigned trials = 2;
    unsigned prIters = 8;
    unsigned bcSources = 2;
    Weight maxWeight = 64;     ///< SSSP weight range [1, maxWeight]
    std::uint64_t seed = 5;
    /**
     * TC runs on a smaller uniform graph: the kron graph's hubs make
     * exact counting quadratically expensive (documented substitution).
     */
    unsigned tcScale = 14;
    unsigned tcDegree = 10;

    bool operator==(const GapbsConfig &) const = default;
};

/** Result of one kernel benchmark. */
struct GapbsResult
{
    std::string kernel;
    std::vector<double> trialSeconds;  ///< simulated seconds per trial
    std::uint64_t checksum = 0;        ///< kernel-specific sanity value

    double
    avgTrialSeconds() const
    {
        if (trialSeconds.empty())
            return 0.0;
        double sum = 0.0;
        for (double t : trialSeconds)
            sum += t;
        return sum / static_cast<double>(trialSeconds.size());
    }
};

/** Builds the right graph for a kernel and runs its trials. */
class GapbsDriver
{
  public:
    GapbsDriver(sim::Simulator &sim, GapbsConfig cfg = {});
    ~GapbsDriver();

    /**
     * Run @p kernel: builds the graph (load phase, untimed), then runs
     * cfg.trials timed trials.
     */
    GapbsResult run(Kernel kernel);

  private:
    sim::Simulator &sim_;
    GapbsConfig cfg_;
    std::unique_ptr<Graph> graph_;
};

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_GAPBS_DRIVER_HH_
