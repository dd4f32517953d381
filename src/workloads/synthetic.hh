/**
 * @file
 * Synthetic access-pattern workloads for the motivation study (Figs 1-2).
 *
 * The paper traces RUBiS, SPECpower at 80% load, DaCapo xalan, and
 * DaCapo lusearch. Those applications are not runnable here, so each is
 * substituted by a synthetic profile that reproduces the page-population
 * structure the paper observes in them:
 *
 *  - DRAM-friendly pages: frequently accessed throughout execution,
 *  - infrequent pages: touched rarely over the whole run,
 *  - tier-friendly pages: bimodal groups that are hot only during their
 *    activity phases.
 *
 * Profiles differ in the mix, the number of tier-friendly groups, and
 * the phase cadence (OLTP-ish steady rotation for RUBiS, load-step bursts
 * for SPECpower, two long alternating passes for xalan, many short query
 * bursts for lusearch).
 */

#ifndef MCLOCK_WORKLOADS_SYNTHETIC_HH_
#define MCLOCK_WORKLOADS_SYNTHETIC_HH_

#include <cstdint>
#include <string>

#include "base/rng.hh"
#include "base/types.hh"
#include "base/units.hh"
#include "trace/access_trace.hh"

namespace mclock {

namespace sim {
class Simulator;
}

namespace workloads {

/** The four motivation workload stand-ins. */
enum class SyntheticProfile { Rubis, SpecPower, Xalan, Lusearch };

const char *syntheticProfileName(SyntheticProfile p);

/** Shape parameters of one profile. */
struct SyntheticShape
{
    double dramFriendlyFrac;    ///< always-hot fraction of pages
    double infrequentFrac;      ///< rarely-touched fraction
    unsigned tierGroups;        ///< number of bimodal groups
    SimTime phaseLength;        ///< how long one group stays hot
    double hotAccessProb;       ///< per-step access prob when hot
    double infrequentProb;      ///< per-step access prob for cold pages
};

/** Shape preset for @p profile. */
SyntheticShape syntheticShape(SyntheticProfile profile);

/** Run configuration. */
struct SyntheticConfig
{
    std::size_t numPages = 2000;
    SimTime duration = 200_s;
    SimTime step = 20_ms;      ///< generator time step
    SimTime cpuPerStep = 5_us; ///< think time per step
    std::uint64_t seed = 3;

    bool operator==(const SyntheticConfig &) const = default;
};

/** Drives a synthetic profile through a simulator, tracing each access. */
class SyntheticWorkload
{
  public:
    SyntheticWorkload(sim::Simulator &sim, SyntheticProfile profile,
                      SyntheticConfig cfg = {});

    /**
     * Execute the workload.
     * @param traceOut receives every access (page id = index within
     *                 this workload's region)
     */
    void run(trace::AccessTrace &traceOut);

    std::size_t numPages() const { return cfg_.numPages; }

  private:
    sim::Simulator &sim_;
    SyntheticProfile profile_;
    SyntheticConfig cfg_;
    SyntheticShape shape_;
    Rng rng_;
    Vaddr base_;
};

}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_SYNTHETIC_HH_
