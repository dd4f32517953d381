/**
 * @file
 * Unified experiment driver. Every paper experiment (figures, Table I,
 * ablations, microbenchmarks) is a registered scenario; this binary
 * lists, filters, and runs them on a thread pool with deterministic
 * output, and maintains the golden regression fixtures.
 *
 *   mclock_bench --list
 *   mclock_bench --filter fig05 --jobs 4 --out results/
 *   mclock_bench --golden --filter ablation
 *   mclock_bench --update-golden          # regenerate tests/golden/
 *   mclock_bench --check-golden           # what golden_test runs
 *   mclock_bench --bench --repeat 3       # wall-clock benchmark mode
 */

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/parse.hh"
#include "calibration.hh"
#include "harness/benchmark.hh"
#include "harness/golden.hh"
#include "harness/manifest.hh"
#include "harness/runner.hh"

using namespace mclock;
using namespace mclock::harness;

namespace {

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "selection:\n"
        "  --list            list registered scenarios and exit\n"
        "  --filter STR      run only scenarios whose name contains "
        "STR\n"
        "\n"
        "execution:\n"
        "  --jobs N          worker threads (default 1; 0 = all "
        "cores)\n"
        "  --shards N        worker threads for sharded scenarios "
        "(the\n"
        "                    shard_bigmem family; default 1). Pure\n"
        "                    execution width: results are bit-identical\n"
        "                    for any N\n"
        "  --out DIR         artifact/manifest directory (default .)\n"
        "  --seed N          base seed (default %llu)\n"
        "  --param K=V       integer scenario parameter (e.g. "
        "ops=100000);\n"
        "                    repeatable; K must be a key a selected\n"
        "                    scenario reads (--list shows them)\n"
        "  --golden          use the reduced-scale golden profiles\n"
        "  --stats           export kernel-style stats per unit: the\n"
        "                    vmstat time series (<scenario>_<unit>_"
        "vmstat.csv)\n"
        "                    and the tracepoint ring (..._trace.jsonl);\n"
        "                    counter totals land in run_manifest.json\n"
        "  --no-manifest     do not write run_manifest.json into "
        "--out\n"
        "  --quiet           suppress scenario text output\n"
        "\n"
        "golden regression:\n"
        "  --check-golden    run golden scenarios, compare with "
        "fixtures\n"
        "                    and print each scenario's fingerprint\n"
        "  --update-golden   regenerate fixtures (review the diff!)\n"
        "                    (both refuse --seed, --param, --stats,\n"
        "                    --out, --no-manifest and the --bench\n"
        "                    flags)\n"
        "  --golden-dir DIR  fixture directory (default: %s)\n"
        "\n"
        "wall-clock benchmarking:\n"
        "  --bench           benchmark the selected scenarios: run "
        "each\n"
        "                    --repeat times (after --warmup discarded\n"
        "                    runs), report raw and host-calibrated\n"
        "                    seconds, host ops/sec and simulated\n"
        "                    accesses/sec, write --bench-out. Runs at\n"
        "                    --jobs 1 and refuses any other --jobs\n"
        "                    (scenarios must not compete for cores\n"
        "                    while being timed; sharded scenarios still\n"
        "                    thread internally per --shards)\n"
        "  --repeat N        measured repeats per scenario (default "
        "3)\n"
        "  --warmup K        discarded warmup runs per scenario "
        "(default 1)\n"
        "  --bench-out FILE  report path (default <out>/BENCH.json);\n"
        "                    its stem is the report's bench_id\n",
        prog, static_cast<unsigned long long>(kDefaultSeed),
        defaultGoldenDir().c_str());
}

void
listScenarios()
{
    std::printf("%-24s %-10s %-7s %s\n", "name", "workload", "golden",
                "title");
    std::size_t count = 0;
    for (const auto &sc : allScenarios()) {
        std::printf("%-24s %-10s %-7s %s\n", sc.name.c_str(),
                    sc.workload.c_str(),
                    sc.goldenEligible ? "yes" : "no",
                    sc.title.c_str());
        if (!sc.params.empty()) {
            std::string keys;
            for (const ParamSpec &p : sc.params)
                keys += " " + p.key + " (" + p.describe() + ")";
            std::printf("%-24s --param keys:%s\n", "", keys.c_str());
        }
        ++count;
    }
    std::printf("\n%zu scenarios registered\n", count);
}

bool
parseParam(const char *text, RunContext &ctx)
{
    const char *eq = std::strchr(text, '=');
    std::uint64_t value = 0;
    if (!eq || eq == text || !parseUnsigned(eq + 1, UINT64_MAX, value))
        return false;
    ctx.params[std::string(text, eq)] = value;
    return true;
}

/** Run the golden suite; update or verify fixtures. Returns exit code. */
int
goldenPass(const std::string &dir, const std::string &filter,
           unsigned jobs, unsigned shards, bool update)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.context = goldenContext();
    opts.context.shards = shards;
    opts.writeArtifacts = false;
    opts.quiet = true;

    std::vector<const Scenario *> selected;
    for (const Scenario *sc : filterScenarios(filter)) {
        if (sc->goldenEligible)
            selected.push_back(sc);
    }
    if (selected.empty()) {
        std::fprintf(stderr, "no golden-eligible scenario matches "
                             "'%s'\n", filter.c_str());
        return 1;
    }

    const RunReport report = runScenarios(selected, opts);
    int failures = 0;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const auto &result = report.results[i];
        const std::string path = goldenPath(dir, result.name);
        if (update) {
            GoldenFile golden;
            golden.scenario = result.name;
            golden.seed = opts.context.seed;
            golden.tolerance = kGoldenDefaultTolerance;
            golden.metrics = result.output.summary;
            saveGolden(path, golden);
            std::printf("updated %s (%zu metrics)\n", path.c_str(),
                        golden.metrics.size());
            continue;
        }
        GoldenFile golden;
        std::string err;
        if (!loadGolden(path, golden, &err)) {
            std::printf("FAIL %-24s %s\n", result.name.c_str(),
                        err.c_str());
            ++failures;
            continue;
        }
        const auto diffs =
            compareGolden(golden, result.output.summary);
        if (diffs.empty()) {
            std::printf("ok   %-24s %zu metrics fingerprint %s\n",
                        result.name.c_str(), golden.metrics.size(),
                        hex64(result.output.fingerprint()).c_str());
        } else {
            std::printf("FAIL %-24s %zu mismatches\n",
                        result.name.c_str(), diffs.size());
            for (const auto &d : diffs)
                std::printf("     %s\n", d.c_str());
            ++failures;
        }
    }
    std::printf("%zu scenario(s), %zu unit(s) run, %.2fs wall\n",
                report.results.size(), report.unitsRun, report.wallSeconds);
    if (!report.clean()) {
        std::fprintf(stderr, "invariant violations detected\n");
        return 1;
    }
    if (!update && failures) {
        std::printf("\n%d scenario(s) diverged from golden fixtures "
                    "in %s\n(after an intended behaviour change: "
                    "mclock_bench --update-golden, review the diff, "
                    "commit)\n", failures, dir.c_str());
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool list = false, manifest = true, quiet = false;
    bool updateGolden = false, checkGolden = false, bench = false;
    std::string filter, outDir = ".";
    std::string goldenDir = defaultGoldenDir();
    std::string benchOut;
    unsigned jobs = 1, repeat = 3, warmup = 1;
    RunContext ctx;
    // Every flag named on the command line: several have defaults, so
    // a value alone cannot tell whether the flag was given.
    std::vector<std::string> given;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        given.push_back(arg);
        auto operand = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an operand\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&](const char *flag,
                          std::uint64_t max) -> std::uint64_t {
            const char *text = operand(flag);
            std::uint64_t value = 0;
            if (!parseUnsigned(text, max, value)) {
                std::fprintf(stderr,
                             "bad %s operand '%s' (want an integer in "
                             "[0, %llu])\n", flag, text,
                             static_cast<unsigned long long>(max));
                std::exit(2);
            }
            return value;
        };
        auto count = [&](const char *flag) {
            return static_cast<unsigned>(number(flag, UINT_MAX));
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--filter") {
            filter = operand("--filter");
        } else if (arg == "--jobs") {
            jobs = count("--jobs");
        } else if (arg == "--shards") {
            ctx.shards = count("--shards");
            if (ctx.shards == 0) {
                std::fprintf(stderr, "--shards must be >= 1\n");
                return 2;
            }
        } else if (arg == "--out") {
            outDir = operand("--out");
        } else if (arg == "--seed") {
            ctx.seed = number("--seed", UINT64_MAX);
        } else if (arg == "--param") {
            const char *p = operand("--param");
            if (!parseParam(p, ctx)) {
                std::fprintf(stderr, "bad --param '%s' (want K=V with "
                                     "integer V)\n", p);
                return 2;
            }
        } else if (arg == "--golden") {
            ctx.golden = true;
        } else if (arg == "--stats") {
            ctx.stats = true;
        } else if (arg == "--no-manifest") {
            manifest = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--update-golden") {
            updateGolden = true;
        } else if (arg == "--check-golden") {
            checkGolden = true;
        } else if (arg == "--golden-dir") {
            goldenDir = operand("--golden-dir");
        } else if (arg == "--bench") {
            bench = true;
        } else if (arg == "--repeat") {
            repeat = count("--repeat");
            if (repeat == 0) {
                std::fprintf(stderr, "--repeat must be >= 1\n");
                return 2;
            }
        } else if (arg == "--warmup") {
            warmup = count("--warmup");
        } else if (arg == "--bench-out") {
            benchOut = operand("--bench-out");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (list) {
        listScenarios();
        return 0;
    }
    const auto selected = filterScenarios(filter);
    for (const auto &[key, value] : ctx.params) {
        bool read = false;
        for (const Scenario *sc : selected) {
            for (const ParamSpec &p : sc->params) {
                if (p.key != key)
                    continue;
                read = true;
                if (!p.accepts(value)) {
                    std::fprintf(stderr,
                                 "bad --param %s=%llu (want %s) for "
                                 "scenario %s\n",
                                 key.c_str(),
                                 static_cast<unsigned long long>(value),
                                 p.describe().c_str(), sc->name.c_str());
                    return 2;
                }
            }
        }
        if (!read) {
            std::fprintf(stderr,
                         "unknown --param '%s': no selected scenario "
                         "reads it (see --list)\n",
                         key.c_str());
            return 2;
        }
    }
    for (const Scenario *sc : selected) {
        const std::string why =
            sc->checkParams ? sc->checkParams(ctx) : std::string();
        if (!why.empty()) {
            std::fprintf(stderr, "bad --param for scenario %s: %s\n",
                         sc->name.c_str(), why.c_str());
            return 2;
        }
    }
    if (updateGolden || checkGolden) {
        // The golden pass runs at the fixtures' pinned seed and scale
        // and writes no artifacts, so it would ignore these.
        static const char *const kRunOnly[] = {
            "--stats", "--param", "--seed", "--out", "--no-manifest",
            "--bench", "--repeat", "--warmup", "--bench-out"};
        for (const std::string &arg : given) {
            if (std::find(std::begin(kRunOnly), std::end(kRunOnly),
                          arg) == std::end(kRunOnly))
                continue;
            std::fprintf(stderr,
                         "%s does not apply to %s: the golden suite "
                         "runs at the fixtures' pinned seed and scale "
                         "and writes no artifacts\n",
                         arg.c_str(),
                         updateGolden ? "--update-golden"
                                      : "--check-golden");
            return 2;
        }
        return goldenPass(goldenDir, filter, jobs, ctx.shards,
                          updateGolden);
    }

    if (selected.empty()) {
        std::fprintf(stderr, "no scenario matches '%s' (see --list)\n",
                     filter.c_str());
        return 1;
    }

    if (bench) {
        if (jobs != 1) {
            std::fprintf(stderr,
                         "--bench runs at --jobs 1 (got --jobs %u): "
                         "scenarios are timed one at a time; use "
                         "--shards for a sharded scenario's width\n",
                         jobs);
            return 2;
        }
        const perfbench::Calibration calibration(1);
        BenchOptions bo;
        bo.repeat = repeat;
        bo.warmup = warmup;
        bo.kernel = {[&calibration] { return calibration.measureS(); },
                     perfbench::Calibration::kReferenceS};
        bo.context = ctx;

        if (benchOut.empty())
            benchOut = (std::filesystem::path(outDir) / "BENCH.json").string();
        const BenchReport report = runBenchmark(selected, bo);
        const Json doc = benchReportToJson(
            report, bo, std::filesystem::path(benchOut).stem().string());
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(benchOut).parent_path(), ec);
        std::ofstream f(benchOut);
        if (!f) {
            std::fprintf(stderr, "cannot write bench report '%s'\n",
                         benchOut.c_str());
            return 1;
        }
        f << doc.dump(2) << "\n";

        if (!quiet) {
            std::printf("%-24s %10s %10s %14s %14s\n", "scenario",
                        "best_s", "calib_s", "ops/sec", "accesses/sec");
            for (const auto &s : report.scenarios) {
                const double best = s.bestSeconds();
                std::printf("%-24s %10.3f %10.3f %14.0f %14.0f\n",
                            s.name.c_str(), best, report.calibrated(best),
                            best > 0 ? static_cast<double>(s.appOps) /
                                           best
                                     : 0.0,
                            best > 0
                                ? static_cast<double>(s.simAccesses) /
                                      best
                                : 0.0);
            }
            std::printf("\nsuite: %zu scenario(s), %.2fs best-total, "
                        "%.2fs calibrated (kernel %.4fs, reference "
                        "%.3fs)\nwrote %s\n",
                        report.scenarios.size(), report.totalBestSeconds(),
                        report.calibrated(report.totalBestSeconds()),
                        report.kernelMeanSeconds(), report.kernelReferenceS,
                        benchOut.c_str());
        }
        return report.clean() ? 0 : 1;
    }

    RunnerOptions opts;
    opts.jobs = jobs;
    opts.outDir = outDir;
    opts.writeManifest = manifest;
    opts.quiet = quiet;
    opts.context = ctx;

    const RunReport report = runScenarios(selected, opts);
    if (!quiet) {
        std::fprintf(stderr,
                     "\n%zu scenario(s), %zu unit(s) run, %.2fs wall\n",
                     report.results.size(), report.unitsRun,
                     report.wallSeconds);
    }
    return report.clean() ? 0 : 1;
}
