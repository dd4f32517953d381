#include "harness/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <queue>
#include <thread>

#include "base/logging.hh"
#include "base/sync.hh"
#include "harness/manifest.hh"

namespace mclock {
namespace harness {

namespace {

/**
 * Fixed-size pool draining a closed work queue. All queue/counter
 * state is guarded by mu_ and statically checked (base/sync.hh):
 * every access outside the lock is a compile error under
 * -Wthread-safety, so the lock scopes below are the whole story.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers)
    {
        for (unsigned i = 0; i < workers; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            base::MutexLock lock(mu_);
            closed_ = true;
        }
        cv_.notifyAll();
        for (auto &t : threads_)
            t.join();
    }

    void
    submit(std::function<void()> task) MCLOCK_EXCLUDES(mu_)
    {
        {
            base::MutexLock lock(mu_);
            queue_.push(std::move(task));
            ++pending_;
        }
        cv_.notifyOne();
    }

    /** Block until every submitted task has finished. */
    void
    drain() MCLOCK_EXCLUDES(mu_)
    {
        base::MutexLock lock(mu_);
        while (pending_ != 0)
            done_.wait(mu_);
    }

  private:
    void
    workerLoop() MCLOCK_EXCLUDES(mu_)
    {
        for (;;) {
            std::function<void()> task;
            {
                base::MutexLock lock(mu_);
                while (!closed_ && queue_.empty())
                    cv_.wait(mu_);
                if (queue_.empty())
                    return;  // closed and drained
                task = std::move(queue_.front());
                queue_.pop();
            }
            task();
            {
                base::MutexLock lock(mu_);
                if (--pending_ == 0)
                    done_.notifyAll();
            }
        }
    }

    base::Mutex mu_;
    base::CondVar cv_;    ///< work available (or pool closed)
    base::CondVar done_;  ///< pending_ hit zero
    std::queue<std::function<void()>> queue_ MCLOCK_GUARDED_BY(mu_);
    std::size_t pending_ MCLOCK_GUARDED_BY(mu_) = 0;
    bool closed_ MCLOCK_GUARDED_BY(mu_) = false;
    // mclock-lint: thread-ok(the --jobs pool: poolWidth() workers, joined by the destructor; each runs whole units)
    std::vector<std::thread> threads_;
};

}  // namespace

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
    // scenario runs under its own context, which checks every param()
    // read against the keys the scenario declares.
    struct Expanded
    {
        const Scenario *scenario;
        RunContext context;
        std::vector<RunUnit> units;
        std::vector<RunRecord> records;
    };
    std::vector<Expanded> expanded;
    expanded.reserve(scenarios.size());
    std::size_t unitCount = 0;
    for (const Scenario *sc : scenarios) {
        Expanded e;
        e.scenario = sc;
        e.context = opts.context;
        e.context.declared = &sc->params;
        e.units = sc->expand(e.context);
        e.records.resize(e.units.size());
        unitCount += e.units.size();
        expanded.push_back(std::move(e));
    }

    {
        ThreadPool pool(poolWidth(
            opts.jobs, std::thread::hardware_concurrency(), unitCount));
        for (auto &e : expanded) {
            for (std::size_t u = 0; u < e.units.size(); ++u) {
                RunUnit *unit = &e.units[u];
                RunRecord *slot = &e.records[u];
                const RunContext *ctx = &e.context;
                pool.submit([unit, slot, ctx] {
                    *slot = unit->run(*ctx);
                    slot->fingerprint = unitFingerprint(*slot);
                });
            }
        }
        pool.drain();
    }

    RunReport report;
    for (auto &e : expanded) {
        ScenarioResult result;
        result.name = e.scenario->name;
        result.units = e.units.size();
        for (const auto &rec : e.records) {
            result.appOps += rec.perfAppOps;
            result.simAccesses += rec.perfSimAccesses;
        }
        result.output = mergeRecords(e.units, e.records);
        e.scenario->reduce(e.context, e.records, result.output);
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
                for (char &c : name) {
                    if (c == '/')
                        c = '_';
                }
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
