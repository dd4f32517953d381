/**
 * @file
 * mclock_perfbench: the repository benchmark binary.
 *
 *   mclock_perfbench --workload ycsb_seq|gapbs_pr|shard_kv --seed N
 *                    --seconds S --trace 0|1 [--tiny] [--trace-out F]
 *
 * After one unmeasured warm-up rep, repeats closed-loop repetitions of
 * one workload (same seed, so the same inputs every time) for about S
 * seconds of host time, at least once, and prints medians. --trace 0
 * prints the end-to-end metrics from untraced reps only, alternated
 * with the calibration kernel (calibration.hh), and one "rep" line per
 * rep with its calibrated and raw host times. --trace 1
 * alternates untraced and traced reps (plus width-1 reps for shard_kv)
 * and prints the per-layer metrics.
 * Every rep's simulated results must be bit-identical; the last line
 * of stdout is one JSON object {correct, attempted, failed, metrics}.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hh"
#include "spans.hh"
#include "workloads.hh"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    WorkloadId id = WorkloadId::YcsbSeq;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    bool trace = false;
    bool tiny = false;
    std::string traceOut;
};


bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            if (!parseWorkload(value, a.id))
                return false;
            a.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed" && parseUint(value, n)) {
            a.seed = n;
            haveSeed = true;
        } else if (flag == "--seconds" && parseUint(value, n) && n > 0) {
            a.seconds = n;
            haveSeconds = true;
        } else if (flag == "--trace" && parseUint(value, n) && n <= 1) {
            a.trace = n == 1;
            haveTrace = true;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            return false;
        }
    }
    return haveWorkload && haveSeed && haveSeconds && haveTrace;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * This process's peak resident set (VmHWM). Unlike getrusage's
 * ru_maxrss, which keeps the parent's peak across fork and exec, it
 * counts only this program's own memory.
 */
double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0.0;
}

/** FNV-1a over every simulated result a rep reports. */
std::uint64_t
fingerprint(const Rep &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(r.simTimeNs);
    mix(r.accesses);
    for (const auto &[name, value] : r.counts) {
        for (char c : name)
            mix(static_cast<unsigned char>(c));
        mix(value);
    }
    return h;
}

/** Name/value/unit lines plus the JSON metrics object. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        std::printf("metric %-36s %.17g %s\n", name.c_str(), value, unit);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json_.empty() ? "" : ", ", name.c_str(), value, unit);
        json_ += buf;
    }

    const std::string &json() const { return json_; }

  private:
    std::string json_;
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Top-level spans that make up a rep's timed phase. */
const std::set<std::string> kTimedSpans = {
    "workloads.ycsb_A", "workloads.ycsb_B",   "workloads.ycsb_C",
    "workloads.ycsb_F", "workloads.ycsb_W",   "workloads.ycsb_D",
    "workloads.gapbs_pr", "sim.sharded.run",
};

/** Σ top-level timed span durations / the rep's run_s. */
double
spanCoverage(const std::vector<Span> &spans, double runS)
{
    double covered = 0.0;
    for (const Span &s : spans) {
        if (s.parent == 0 && kTimedSpans.count(s.name))
            covered += static_cast<double>(s.end - s.start) / 1e9;
    }
    return ratio(covered, runS);
}

int
run(const Args &a)
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    RepOptions base;
    base.seed = a.seed;
    base.sizes = a.tiny ? Sizes::tiny() : Sizes{};
    base.width = a.id == WorkloadId::ShardKv ? nproc : 1;

    std::printf("perfbench workload=%s seed=%llu seconds=%llu trace=%d%s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(a.seconds), a.trace ? 1 : 0,
                a.tiny ? " tiny" : "");
    std::printf("host nproc=%u width=%u cpu=\"%s\" compiler=\"%s\" "
                "build=%s\n",
                nproc, base.width, cpuModel().c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE);
    std::printf("sizes %s\n", base.sizes.describe().c_str());
    std::printf("note the simulator is not validated against hardware; "
                "no accuracy figure is reported\n");

    std::vector<Rep> untraced, traced, narrow;
    std::vector<double> replayNs, coverage;
    std::vector<std::map<std::string, SpanTotal>> totals;
    std::unique_ptr<SpanRecorder> recorder;
    if (a.trace)
        recorder = std::make_unique<SpanRecorder>(spanLanes(a.id));

    // One warm-up rep first: a process's first rep also pays for the
    // host memory it faults in, and varies far more than later reps.
    // It is checked like every rep but not measured. After it, start
    // another rep (or traced cycle) only if one as long as the longest
    // so far still ends within --seconds; there is always at least one.
    const Rep warmup = runRep(a.id, base);
    // The workload's peak, read before the calibration buffers exist.
    const double rssMib = peakRssMib();
    std::unique_ptr<Calibration> calibration;
    if (!a.trace)
        calibration = std::make_unique<Calibration>(base.width);
    const std::int64_t start = hostNowNs();
    const auto elapsedS = [start] {
        return static_cast<double>(hostNowNs() - start) / 1e9;
    };
    double lastEnd = 0.0, longest = 0.0;
    const auto another = [&] {
        const double now = elapsedS();
        longest = std::max(longest, now - lastEnd);
        lastEnd = now;
        return now + longest <= static_cast<double>(a.seconds);
    };
    // Untraced reps alternate with the calibration kernel, which runs
    // before the first rep and after every rep.
    std::vector<double> kernelS;
    if (!a.trace) {
        kernelS.push_back(calibration->measureS());
        do {
            untraced.push_back(runRep(a.id, base));
            kernelS.push_back(calibration->measureS());
        } while (another());
    } else {
        std::uint32_t runId = 0;
        do {
            untraced.push_back(runRep(a.id, base));
            RepOptions t = base;
            t.spans = recorder.get();
            t.run = runId++;
            traced.push_back(runRep(a.id, t));
            const auto spans = recorder->runSpans(t.run);
            totals.push_back(selfTimes(spans));
            coverage.push_back(spanCoverage(spans, traced.back().runS));
            replayNs.push_back(llcReplayNsPerAccess(a.id, base));
            if (a.id == WorkloadId::ShardKv) {
                RepOptions n = base;
                n.width = 1;
                narrow.push_back(runRep(a.id, n));
            }
        } while (another());
    }

    // Correctness: every rep's checks, bit-identical simulated results
    // across reps, tracing and shard widths, and (traced) span coverage.
    Check check;
    const std::uint64_t fp = fingerprint(warmup);
    const auto absorb = [&](const std::vector<Rep> &reps, const char *what) {
        for (const Rep &r : reps) {
            check.attempted += r.check.attempted;
            check.failed += r.check.failed;
            check.messages.insert(check.messages.end(),
                                  r.check.messages.begin(),
                                  r.check.messages.end());
            check.expect(fingerprint(r) == fp,
                         std::string("simulated results differ: ") + what);
        }
    };
    absorb({warmup}, "warm-up rep");
    absorb(untraced, "untraced reps of one seed");
    absorb(traced, "traced vs untraced rep");
    absorb(narrow, "shard_kv width 1 vs width nproc");
    for (double c : coverage)
        check.expect(c >= 0.95 && c <= 1.05,
                     "top-level spans do not cover the traced run_s");

    std::printf("reps untraced=%zu traced=%zu width1=%zu wall_s=%.3f\n",
                untraced.size(), traced.size(), narrow.size(), elapsedS());
    std::printf("fingerprint %016llx\n", static_cast<unsigned long long>(fp));

    Report report;
    const Counts &c = warmup.counts;
    const auto count = [&c](const char *name) {
        return static_cast<double>(countOf(c, name));
    };
    std::vector<double> runS;
    for (const Rep &r : untraced)
        runS.push_back(r.runS);
    if (!a.trace) {
        // Host times in reference-host seconds (see calibration.hh). The
        // kernel's own run-to-run noise is larger than the host's drift
        // over one process, so every rep is scaled by the process's mean
        // kernel time rather than by the kernel runs next to it.
        double kernelMean = 0.0;
        for (const double k : kernelS)
            kernelMean += k / static_cast<double>(kernelS.size());
        const double scale = Calibration::kReferenceS / kernelMean;
        std::vector<double> setup, scaledRun, rate;
        for (std::size_t i = 0; i < untraced.size(); ++i) {
            const Rep &r = untraced[i];
            setup.push_back(r.setupS * scale);
            scaledRun.push_back(r.runS * scale);
            rate.push_back(
                ratio(static_cast<double>(r.accesses), scaledRun.back()));
            std::printf("rep %zu setup_s=%.17g run_s=%.17g "
                        "accesses_per_s=%.17g raw_setup_s=%.9f "
                        "raw_run_s=%.9f kernel_s=%.9f\n",
                        i, setup.back(), scaledRun.back(), rate.back(),
                        r.setupS, r.runS, kernelMean);
        }
        std::printf("calibration kernel_s=%.6f (mean of %zu runs; "
                    "reference %.3f)\n",
                    kernelMean, kernelS.size(), Calibration::kReferenceS);
        report.add("setup_s", median(setup), "s");
        report.add("run_s", median(scaledRun), "s");
        report.add("accesses_per_s", median(rate), "1/s");
        report.add("peak_rss_mib", rssMib, "MiB");
        report.add("sim_time_s", static_cast<double>(warmup.simTimeNs) / 1e9,
                   "s");
    } else {
        const auto span = [&totals](const char *name, bool calls) {
            std::vector<double> v;
            for (const auto &t : totals) {
                const auto it = t.find(name);
                const SpanTotal s = it == t.end() ? SpanTotal{} : it->second;
                v.push_back(calls ? static_cast<double>(s.calls) : s.selfS);
            }
            return median(v);
        };
        for (const char *n :
             {"load", "ycsb_A", "ycsb_B", "ycsb_C", "ycsb_F", "ycsb_W",
              "ycsb_D", "gapbs_pr", "keygen", "kv"}) {
            const std::string name = std::string("workloads.") + n;
            report.add(name + "_s", span(name.c_str(), false), "s");
        }

        report.add("mem.llc_ns_per_access", median(replayNs), "ns");
        for (const char *n : {"mem.llc_hits", "mem.llc_misses",
                              "mem.llc_writebacks"})
            report.add(n, count(n), "count");
        report.add("mem.llc_hit_ratio",
                   ratio(count("mem.llc_hits"),
                         count("mem.llc_hits") + count("mem.llc_misses")),
                   "ratio");

        report.add("policies.pressure_s", span("policies.pressure", false),
                   "s");
        report.add("policies.pressure_calls", span("policies.pressure", true),
                   "count");
        report.add("policies.fault_s", span("policies.fault", false), "s");
        report.add("policies.fault_calls", span("policies.fault", true),
                   "count");
        report.add("policies.kswapd_wake", count("policies.kswapd_wake"),
                   "count");

        report.add("core.kpromoted_wake", count("core.kpromoted_wake"),
                   "count");
        report.add("core.pgpromote_selected", count("core.pgpromote_selected"),
                   "count");
        report.add("core.promote_reaccess_ratio",
                   ratio(count("core.promoted_reaccessed"),
                         count("sim.migration.promotions")),
                   "ratio");

        for (const char *n : {"pfra.pgscan", "pfra.pgactivate",
                              "pfra.pgdeactivate", "pfra.pgrotated",
                              "pfra.pgsteal"})
            report.add(n, count(n), "count");

        report.add("sim.app_ops", count("sim.app_ops"), "count");
        report.add("sim.accesses", count("sim.accesses"), "count");
        report.add("sim.tier0_share",
                   ratio(count("sim.tier0_accesses"), count("sim.accesses")),
                   "ratio");
        report.add("sim.inline_overhead_ns", count("sim.inline_overhead_ns"),
                   "ns");
        report.add("sim.background_work_ns", count("sim.background_work_ns"),
                   "ns");
        for (const char *n : {"sim.migration.promotions",
                              "sim.migration.demotions",
                              "sim.migration.failed"})
            report.add(n, count(n), "count");
        report.add("sim.migration.promote_success_ratio",
                   ratio(count("sim.migration.promotions"),
                         count("sim.migration.promotions") +
                             count("sim.migration.failed")),
                   "ratio");

        for (const char *n : {"vm.pgfault", "vm.hint_faults", "vm.pswpin",
                              "vm.pswpout"})
            report.add(n, count(n), "count");

        // Shard coordination: run() wall time not spent in the busiest
        // worker's drivers, summed over epochs (0 off shard_kv).
        std::vector<double> coord, imbalance;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            double busiest = 0.0, spread = 0.0;
            for (const EpochLoad &e : traced[i].epochs) {
                busiest += e.busiestS;
                spread += e.busiestS - e.meanS;
            }
            const auto it = totals[i].find("sim.sharded.run");
            const bool sharded = it != totals[i].end();
            coord.push_back(sharded ? traced[i].runS - busiest : 0.0);
            imbalance.push_back(spread);
        }
        std::vector<double> narrowRun;
        for (const Rep &r : narrow)
            narrowRun.push_back(r.runS);
        report.add("sim.sharded.coord_s", median(coord), "s");
        report.add("sim.sharded.imbalance_s", median(imbalance), "s");
        report.add("sim.sharded.speedup",
                   ratio(median(narrowRun), median(runS)), "ratio");
        for (const char *n : {"sim.sharded.epochs",
                              "sim.sharded.merged_events",
                              "sim.sharded.pgpromote_deferred"})
            report.add(n, count(n), "count");

        std::vector<double> tracedRun;
        for (const Rep &r : traced)
            tracedRun.push_back(r.runS);
        report.add("trace.overhead", median(tracedRun) / median(runS) - 1.0,
                   "ratio");
        std::printf("trace.coverage %.6f (top-level timed spans / traced "
                    "run_s, median)\n",
                    median(coverage));
        if (!a.traceOut.empty() && !recorder->writeChromeTrace(a.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceOut.c_str());
    }

    std::printf("fail_frac %.17g ratio (failed %llu / attempted %llu)\n",
                ratio(static_cast<double>(check.failed),
                      static_cast<double>(check.attempted)),
                static_cast<unsigned long long>(check.failed),
                static_cast<unsigned long long>(check.attempted));
    for (std::size_t i = 0; i < check.messages.size() && i < 10; ++i)
        std::fprintf(stderr, "perfbench: FAIL %s\n",
                     check.messages[i].c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                check.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(check.attempted),
                static_cast<unsigned long long>(check.failed),
                report.json().c_str());
    std::fflush(stdout);
    return check.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload ycsb_seq|gapbs_pr|shard_kv "
                     "--seed N --seconds S --trace 0|1 [--tiny] "
                     "[--trace-out FILE]\n",
                     argv[0]);
        return 2;
    }
    return perfbench::run(args);
}
