#include "harness/benchmark.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <thread>

#include "base/logging.hh"
#include "harness/manifest.hh"

namespace mclock {
namespace harness {

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
rate(std::uint64_t count, double secs)
{
    return secs > 0.0 ? static_cast<double>(count) / secs : 0.0;
}

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

/** The host CPU's "model name" from /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

}  // namespace

double
BenchScenario::bestSeconds() const
{
    return wallSeconds.empty()
        ? 0.0
        : *std::min_element(wallSeconds.begin(), wallSeconds.end());
}

double
BenchScenario::meanSeconds() const
{
    if (wallSeconds.empty())
        return 0.0;
    const double sum = std::accumulate(wallSeconds.begin(),
                                       wallSeconds.end(), 0.0);
    return sum / static_cast<double>(wallSeconds.size());
}

double
BenchReport::totalBestSeconds() const
{
    double sum = 0.0;
    for (const auto &s : scenarios)
        sum += s.bestSeconds();
    return sum;
}

std::uint64_t
BenchReport::totalAppOps() const
{
    std::uint64_t sum = 0;
    for (const auto &s : scenarios)
        sum += s.appOps;
    return sum;
}

std::uint64_t
BenchReport::totalSimAccesses() const
{
    std::uint64_t sum = 0;
    for (const auto &s : scenarios)
        sum += s.simAccesses;
    return sum;
}

double
BenchReport::kernelMeanSeconds() const
{
    MCLOCK_ASSERT(!kernelSeconds.empty());
    return std::accumulate(kernelSeconds.begin(), kernelSeconds.end(),
                           0.0) /
           static_cast<double>(kernelSeconds.size());
}

double
BenchReport::calibrated(double raw) const
{
    return raw * kernelReferenceS / kernelMeanSeconds();
}

BenchReport
runBenchmark(const std::vector<const Scenario *> &scenarios,
             const BenchOptions &opts)
{
    MCLOCK_ASSERT(opts.kernel.measureS && opts.kernel.referenceS > 0.0);
    BenchReport report;
    report.repeat = std::max(1u, opts.repeat);
    report.warmup = opts.warmup;
    report.kernelReferenceS = opts.kernel.referenceS;

    RunnerOptions ro;
    ro.jobs = 1;
    ro.writeArtifacts = false;
    ro.writeManifest = false;
    ro.quiet = true;
    ro.context = opts.context;

    // One scenario at a time: with the shared pool a slow scenario's
    // units would overlap the next scenario's timing window.
    report.kernelSeconds.push_back(opts.kernel.measureS());
    for (const Scenario *sc : scenarios) {
        BenchScenario bench;
        bench.name = sc->name;
        const std::vector<const Scenario *> one{sc};
        for (unsigned i = 0; i < opts.warmup; ++i)
            runScenarios(one, ro);
        for (unsigned i = 0; i < report.repeat; ++i) {
            const auto start = std::chrono::steady_clock::now();
            RunReport rr = runScenarios(one, ro);
            const auto stop = std::chrono::steady_clock::now();
            MCLOCK_ASSERT(rr.results.size() == 1);
            ScenarioResult &result = rr.results.front();
            bench.wallSeconds.push_back(seconds(start, stop));
            const std::uint64_t fp = result.output.fingerprint();
            if (!result.output.violations.empty() ||
                (i > 0 && fp != bench.fingerprint))
                bench.clean = false;
            bench.fingerprint = fp;
            bench.units = result.units;
            bench.appOps = result.appOps;
            bench.simAccesses = result.simAccesses;
            bench.summary = std::move(result.output.summary);
        }
        report.scenarios.push_back(std::move(bench));
        report.kernelSeconds.push_back(opts.kernel.measureS());
    }
    return report;
}

Json
benchReportToJson(const BenchReport &report, const BenchOptions &opts,
                  const std::string &benchId)
{
    Json scenarios{Json::Object{}};
    for (const auto &s : report.scenarios) {
        const double best = s.bestSeconds();
        Json entry{Json::Object{}};
        entry.set("units", static_cast<double>(s.units));
        entry.set("app_ops", static_cast<double>(s.appOps));
        entry.set("sim_accesses", static_cast<double>(s.simAccesses));
        Json walls{Json::Array{}};
        for (double w : s.wallSeconds)
            walls.push(Json(w));
        entry.set("wall_seconds", std::move(walls));
        entry.set("best_seconds", best);
        entry.set("mean_seconds", s.meanSeconds());
        entry.set("calibrated_best_seconds", report.calibrated(best));
        entry.set("app_ops_per_sec", rate(s.appOps, best));
        entry.set("sim_accesses_per_sec", rate(s.simAccesses, best));
        entry.set("fingerprint", hex64(s.fingerprint));
        scenarios.set(s.name, std::move(entry));
    }

    const double totalBest = report.totalBestSeconds();
    Json suite{Json::Object{}};
    suite.set("scenarios", static_cast<double>(report.scenarios.size()));
    suite.set("total_app_ops", static_cast<double>(report.totalAppOps()));
    suite.set("total_sim_accesses",
              static_cast<double>(report.totalSimAccesses()));
    suite.set("total_best_seconds", totalBest);
    suite.set("total_calibrated_best_seconds", report.calibrated(totalBest));
    suite.set("app_ops_per_sec", rate(report.totalAppOps(), totalBest));
    suite.set("sim_accesses_per_sec",
              rate(report.totalSimAccesses(), totalBest));

    Json host{Json::Object{}};
    host.set("cpus", static_cast<double>(std::thread::hardware_concurrency()));
    host.set("model", cpuModel());
    host.set("compiler", kCompiler);
    host.set("kernel_s", report.kernelMeanSeconds());

    Json doc{Json::Object{}};
    doc.set("bench_id", benchId);
    doc.set("schema", "mclock-bench-v2");
    std::string sha = "unknown";
#ifdef MCLOCK_SOURCE_DIR
    sha = readGitSha(MCLOCK_SOURCE_DIR);
#endif
    doc.set("git_sha", sha);
    doc.set("golden_profile", Json(opts.context.golden));
    doc.set("seed", static_cast<double>(opts.context.seed));
    doc.set("shards", static_cast<double>(opts.context.shards));
    doc.set("repeat", static_cast<double>(report.repeat));
    doc.set("warmup", static_cast<double>(report.warmup));
    doc.set("host", std::move(host));
    doc.set("scenarios", std::move(scenarios));
    doc.set("suite", std::move(suite));
    return doc;
}

}  // namespace harness
}  // namespace mclock
