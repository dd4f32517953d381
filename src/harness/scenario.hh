/**
 * @file
 * Scenario model for the experiment harness.
 *
 * Every experiment (paper figure, table, or ablation) is described as
 * data: a Scenario names the workload, the policies compared, the
 * default seed, and two functions — expand(), which turns the scenario
 * into independent RunUnits (one Simulator instance each, safe to
 * execute on any thread), and reduce(), which adds the scenario's
 * human-readable table, CSV artifacts, and derived summary keys to the
 * runner's merge of the units' records (the flat metric summary used
 * by the golden-run regression suite).
 *
 * Determinism contract: a unit must derive all randomness from the
 * RunContext (seed + params), must not touch global mutable state, and
 * must not perform I/O — artifacts are returned in memory and written
 * by the runner after all units complete, in registry order.
 */

#ifndef MCLOCK_HARNESS_SCENARIO_HH_
#define MCLOCK_HARNESS_SCENARIO_HH_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/hash.hh"
#include "base/logging.hh"
#include "stats/tracepoint.hh"

namespace mclock {
namespace harness {

/** Flat named metrics produced by one run unit (or one scenario). */
using MetricMap = std::map<std::string, double>;

/** The default context seed; while it is unchanged, scenarios use the
 *  sub-seeds (workload/heatmap defaults) the checked-in golden
 *  fixtures were generated with. */
constexpr std::uint64_t kDefaultSeed = 42;

/** Options applied to one scenario execution. */
struct RunContext
{
    /** Base seed; kDefaultSeed reproduces the golden fixtures' seeds. */
    std::uint64_t seed = kDefaultSeed;

    /** Golden profile: reduced-scale parameters for regression runs. */
    bool golden = false;

    /**
     * Stats mode (--stats): run the vmstat sampler in every simulator
     * and export vmstat.csv / trace.jsonl artifacts per unit. Counters
     * themselves are always collected; this only adds the artifacts.
     */
    bool stats = false;

    /**
     * Worker threads available to scenarios that run a sharded machine
     * (--shards). Execution width only: a scenario's shard partition
     * count is fixed scenario data, so results are identical for any
     * value here — 1 (the default) runs the shards sequentially.
     */
    unsigned shards = 1;

    /** Named overrides from the CLI (--param k=v). */
    std::map<std::string, std::uint64_t> params;

    /**
     * The keys the running scenario declares (Scenario::params), set by
     * the runner; param() panics on any other key. nullptr outside the
     * runner checks nothing.
     */
    const std::vector<std::string> *declared = nullptr;

    /** Override lookup with default. */
    std::uint64_t
    param(const std::string &name, std::uint64_t dflt) const
    {
        if (declared && std::find(declared->begin(), declared->end(),
                                  name) == declared->end()) {
            MCLOCK_PANIC("scenario reads undeclared --param '%s'",
                         name.c_str());
        }
        auto it = params.find(name);
        return it == params.end() ? dflt : it->second;
    }

    /**
     * Seed for a scenario sub-stream. At the default base seed this is
     * exactly @p fixtureSeed, the sub-seed the checked-in golden
     * fixtures were generated with; any other base seed derives an
     * independent stream per @p slot (splitmix64 finalizer).
     */
    std::uint64_t
    derivedSeed(std::uint64_t slot, std::uint64_t fixtureSeed) const
    {
        return seed == kDefaultSeed ? fixtureSeed
                                    : splitmix64(seed, slot + 1);
    }
};

/** A file the harness should write into the output directory. */
struct Artifact
{
    std::string filename;
    std::string contents;

    bool operator==(const Artifact &) const = default;
};

/** What one unit produced. */
struct RunRecord
{
    /** Flat metrics; keys become "<unit>.<key>" in the summary. */
    MetricMap metrics;

    /** Human-readable output, concatenated by the default reduce. */
    std::string text;

    /** CSV files owned by this unit (e.g. fig01's per-profile files). */
    std::vector<Artifact> artifacts;

    /** Invariant violations found after the run (must be empty). */
    std::vector<std::string> violations;

    /**
     * Kernel-style vmstat counter snapshot taken at the end of the run
     * ("pgscan_active" etc., plus "node<N>.<item>" for nonzero per-node
     * values). Kept separate from @ref metrics so the golden-comparable
     * summary is unchanged.
     */
    std::map<std::string, std::uint64_t> vmstat;

    /** Tracepoint events drained from the ring (stats mode only). */
    std::vector<stats::TraceEvent> traceEvents;

    /**
     * Per-tenant QoS metrics ("<tenant>.p99_latency_ns" etc.) for hosts
     * that created memory cgroups; empty on single-tenant hosts. Merged
     * into the manifest's per-scenario "tenants" object. Kept separate
     * from @ref metrics so the golden-comparable summary only carries
     * the values a scenario's reducer promotes deliberately.
     */
    MetricMap tenantMetrics;

    /** Periodic vmstat time series as CSV (stats mode only). */
    std::string samplerCsv;

    /**
     * Work counters for wall-clock benchmarking: application memory
     * operations issued and memory-visible accesses completed by this
     * unit's host (summed over shards on a sharded host).
     * Kept separate from @ref metrics so the golden-comparable summary
     * is unchanged.
     */
    std::uint64_t perfAppOps = 0;
    std::uint64_t perfSimAccesses = 0;

    /**
     * Exact digest of the unit's simulated results, not of the --stats
     * exports: finishUnit() hashes the host's final clock and window
     * series, and the runner seals that with unitFingerprint() once the
     * unit has returned.
     */
    std::uint64_t fingerprint = 0;
};

/** rec.fingerprint hashed with every metric, tenant metric and vmstat
 *  count, bit for bit. */
std::uint64_t unitFingerprint(const RunRecord &rec);

/** One independently executable simulation; owns its Simulator. */
struct RunUnit
{
    /** Stable name used as the metric prefix (e.g. "multiclock"). */
    std::string name;
    std::function<RunRecord(const RunContext &)> run;
};

/** Everything a scenario execution yields. */
struct ScenarioOutput
{
    std::string text;
    std::vector<Artifact> artifacts;
    /** Golden-comparable summary (union of unit metrics + derived). */
    MetricMap summary;
    std::vector<std::string> violations;

    /**
     * Merged vmstat counters: "<unit>.<item>" per unit, plus plain
     * "<item>" totals summed over units (global items only). Reduced
     * single-threaded in registry order, so the result is independent
     * of the worker count. Not part of the golden summary.
     */
    std::map<std::string, std::uint64_t> vmstat;

    /**
     * Per-unit stats artifacts (vmstat.csv / trace.jsonl); the runner
     * prefixes each filename with the scenario name when writing.
     */
    std::vector<Artifact> statsArtifacts;

    /**
     * Merged per-tenant metrics, "<unit>.<tenant>.<metric>". Surfaced
     * as the scenario's "tenants" object in run_manifest.json; not part
     * of the golden summary.
     */
    MetricMap tenantMetrics;

    /** Each unit's RunRecord::fingerprint, by unit name. */
    std::map<std::string, std::uint64_t> fingerprints;

    /**
     * One fingerprint over @c fingerprints: what --check-golden prints
     * and a BENCH report records per scenario.
     */
    std::uint64_t fingerprint() const;
};

/** One registered experiment. */
struct Scenario
{
    std::string name;      ///< short id ("fig05", "ablation_llc", ...)
    std::string title;     ///< one-line description for --list
    std::string workload;  ///< workload family ("ycsb", "gapbs", ...)
    std::vector<std::string> policies;  ///< policies compared (metadata)

    /** The --param keys the scenario reads; the CLI rejects others. */
    std::vector<std::string> params;

    /** Included in the golden regression suite (deterministic only). */
    bool goldenEligible = true;

    std::function<std::vector<RunUnit>(const RunContext &)> expand;

    /**
     * Add the scenario's own text, CSV artifacts and derived summary
     * keys to @p out, which the runner has already filled with
     * mergeRecords() of the units. @p records are in expand order.
     * Runs single-threaded after every unit of the scenario finished.
     */
    std::function<void(const RunContext &, const std::vector<RunRecord> &,
                       ScenarioOutput &out)>
        reduce;
};

/**
 * The runner's merge of a scenario's unit records, before reduce():
 * concatenates unit texts, forwards artifacts, and merges metrics as
 * "<unit>.<metric>" (plus vmstat, violations, tenant metrics and stats
 * artifacts under the same unit prefix), and files each unit's
 * fingerprint under its name.
 */
ScenarioOutput mergeRecords(const std::vector<RunUnit> &units,
                            const std::vector<RunRecord> &records);

/** Registry: all scenarios in canonical (paper) order. */
const std::vector<Scenario> &allScenarios();

/** Find by exact name; nullptr when unknown. */
const Scenario *findScenario(const std::string &name);

/** All scenarios whose name contains @p filter (empty = all). */
std::vector<const Scenario *> filterScenarios(const std::string &filter);

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_SCENARIO_HH_
