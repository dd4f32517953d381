#include "harness/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "base/logging.hh"
#include "base/parallel.hh"
#include "harness/manifest.hh"

namespace mclock {
namespace harness {

unsigned
poolWidth(unsigned requested, unsigned hardware, std::size_t units)
{
    const std::size_t wanted = requested ? requested : std::max(1u, hardware);
    return static_cast<unsigned>(
        std::max<std::size_t>(1, std::min(wanted, units)));
}

RunReport
runScenarios(const std::vector<const Scenario *> &scenarios,
             const RunnerOptions &opts)
{
    // mclock-lint: wall-clock-ok(observation-only wall_seconds metric)
    const auto runStart = std::chrono::steady_clock::now();

    // Expand everything up front so units from different scenarios
    // share the pool (the slowest scenario no longer serializes). Each
    // scenario expands under its own context, which checks every
    // param() read against the keys the scenario declares.
    struct Expanded
    {
        const Scenario *scenario;
        RunContext context;
        std::vector<RunUnit> units;
        std::vector<std::size_t> slots;  ///< each unit's index in specs
    };
    std::vector<Expanded> expanded;
    for (const Scenario *sc : scenarios) {
        RunContext context = opts.context;
        context.declared = &sc->params;
        std::vector<RunUnit> units = sc->expand(context);
        expanded.push_back({sc, std::move(context), std::move(units), {}});
    }

    // Each distinct spec runs once; every scenario that lists it gets
    // its record. A unit reads no --param (its spec holds them all), so
    // its context declares none.
    std::vector<const UnitSpec *> specs;
    for (auto &e : expanded) {
        for (const auto &unit : e.units) {
            const auto at = std::find_if(
                specs.begin(), specs.end(),
                [&unit](const UnitSpec *s) { return *s == unit.spec; });
            e.slots.push_back(static_cast<std::size_t>(at - specs.begin()));
            if (at == specs.end())
                specs.push_back(&unit.spec);
        }
    }
    const std::vector<ParamSpec> noParams;
    RunContext unitContext = opts.context;
    unitContext.declared = &noParams;
    // Workers claim the specs one at a time, so a slow unit does not
    // hold up the rest.
    std::vector<RunRecord> records(specs.size());
    base::runChunks(
        specs.size(), 1,
        poolWidth(opts.jobs, std::thread::hardware_concurrency(),
                  specs.size()),
        [&](unsigned, base::PartRange range) {
            RunRecord &rec = records[range.begin];
            rec = runUnit(unitContext, *specs[range.begin]);
            rec.fingerprint = unitFingerprint(rec);
        });

    RunReport report;
    report.unitsRun = specs.size();
    for (const auto &e : expanded) {
        std::vector<RunRecord> unitRecords;
        for (std::size_t slot : e.slots)
            unitRecords.push_back(records[slot]);
        ScenarioResult result;
        result.name = e.scenario->name;
        result.units = e.units.size();
        for (const auto &rec : unitRecords) {
            result.appOps += rec.perfAppOps;
            result.simAccesses += rec.perfSimAccesses;
        }
        result.output = mergeRecords(e.units, unitRecords);
        e.scenario->reduce(e.context, unitRecords, result.output);
        if (!opts.quiet) {
            std::fputs(result.output.text.c_str(), stdout);
            std::fflush(stdout);
        }
        report.results.push_back(std::move(result));
    }

    if (opts.writeArtifacts) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir, ec);
        auto writeFile = [&](const std::filesystem::path &path,
                             const std::string &contents) {
            std::ofstream f(path);
            if (!f) {
                MCLOCK_FATAL("cannot write artifact '%s'",
                             path.string().c_str());
            }
            f << contents;
        };
        for (const auto &r : report.results) {
            for (const auto &a : r.output.artifacts) {
                writeFile(std::filesystem::path(opts.outDir) / a.filename,
                          a.contents);
            }
            // Stats-mode artifacts are named per unit; namespace them by
            // scenario so a multi-scenario --stats run cannot collide.
            for (const auto &a : r.output.statsArtifacts) {
                // '/' appears in compound unit names (fig06's
                // "policy/kernel"); flatten for the filesystem.
                std::string name = r.name + "_" + a.filename;
                std::replace(name.begin(), name.end(), '/', '_');
                writeFile(std::filesystem::path(opts.outDir) / name,
                          a.contents);
            }
        }
    }

    for (const auto &r : report.results) {
        for (const auto &v : r.output.violations) {
            std::fprintf(stderr, "INVARIANT VIOLATION [%s] %s\n",
                         r.name.c_str(), v.c_str());
        }
    }

    // mclock-lint: wall-clock-ok(observation-only wall_seconds metric)
    report.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - runStart)
                             .count();
    if (opts.writeManifest)
        writeManifest(report, opts);
    return report;
}

ScenarioResult
runScenario(const std::string &name, const RunnerOptions &opts)
{
    const Scenario *sc = findScenario(name);
    if (!sc)
        MCLOCK_FATAL("unknown scenario '%s'", name.c_str());
    RunReport report = runScenarios({sc}, opts);
    return std::move(report.results.front());
}

}  // namespace harness
}  // namespace mclock
