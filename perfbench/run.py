#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ycsb_seq|gapbs_pr|shard_kv \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the library from src/) into .bench_build/perfbench, then runs
the mclock_perfbench binary as consecutive short processes (a warm-up
rep, then about 4 s of measured reps each) for --seconds in total. The
end-to-end host times (setup_s, run_s, accesses_per_s) are medians over
the calibrated reps of all processes; every other metric is the median
over the processes. The last line of stdout is the JSON result
{correct, attempted, failed, metrics}, with the cross-process and
reference fingerprint checks below folded into it.

Fingerprint checks: every process prints a hash of every simulated
result (simulated time and all exact counters); all processes must
agree, and perfbench/reference.json records, per workload and seed, the
hash a run of that seed must reproduce bit for bit.

Exit status: 0 when every check passed; 1 on a failed check (the result
line says correct=false); 1 without a result line when the build or
mclock_perfbench itself fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ycsb_seq", "gapbs_pr", "shard_kv")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PROCESS_SECONDS = 4  # host seconds one mclock_perfbench process measures


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure once, then (re)build; returns the binary's path."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "mclock_perfbench")


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def reference(workload, seed):
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def run_binary(cmd, deadline):
    """One mclock_perfbench process: (stdout lines, JSON result) or None."""
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: mclock_perfbench timed out", file=sys.stderr)
        return None
    sys.stderr.write(res.stderr)
    lines = res.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or res.returncode not in (0, 1):
        sys.stderr.write(res.stdout)
        print(f"perfbench: mclock_perfbench failed (exit {res.returncode})",
              file=sys.stderr)
        return None
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Host time also varies between processes, beyond the variation
    # between the reps of one process, so the run is split into several
    # processes. A process starts only if
    # one as long as the longest so far still ends within --seconds;
    # there is always at least one.
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    runs, longest = [], 0.0
    while not runs or time.monotonic() - start + longest <= args.seconds:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(PROCESS_SECONDS), "--trace", str(args.trace)]
        if args.trace and not runs:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        began = time.monotonic()
        out = run_binary(cmd, deadline)
        if out is None:
            return 1
        runs.append(out)
        longest = max(longest, time.monotonic() - began)
    procs = len(runs)

    def line_of(lines, prefix):
        return next((l for l in lines if l.startswith(prefix)), "")

    print(f"provenance git_sha={git_sha()} processes={procs}")
    first = runs[0][0]
    for line in first[:first.index(line_of(first, "reps "))]:
        print(line)
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    fps = []
    for i, (lines, result) in enumerate(runs):
        fps.append(line_of(lines, "fingerprint ").split()[1])
        print(f"process {i}: {line_of(lines, 'reps ')} "
              f"fingerprint={fps[-1]} failed={result['failed']}/"
              f"{result['attempted']} {line_of(lines, 'trace.coverage')}")
    # Every process must reproduce the same simulated results.
    attempted += procs - 1
    failed += sum(fp != fps[0] for fp in fps[1:])
    print(f"fingerprint {fps[0]}")
    ref = reference(args.workload, args.seed)
    if ref is not None:
        attempted += 1
        failed += fps[0] != ref
        print(f"reference fingerprint {ref}: "
              f"{'match' if fps[0] == ref else 'MISMATCH'}")
    else:
        print("reference fingerprint: none recorded for this seed")

    # Host time varies from one rep to the next, so the per-rep host
    # times of untraced runs pool the reps of every process; every other
    # metric is the median of the processes' values.
    reps = {}
    for lines, _ in runs:
        for line in lines:
            if line.startswith("rep "):
                for field in line.split()[2:]:
                    key, value = field.split("=")
                    reps.setdefault(key, []).append(float(value))
    if reps:
        print("raw medians over " + str(len(reps["run_s"])) + " reps: " +
              " ".join(f"{k}={statistics.median(reps[k]):.6f}"
                       for k in ("raw_setup_s", "raw_run_s", "kernel_s")))
    metrics = {}
    for name, m in runs[0][1]["metrics"].items():
        if name in reps:
            value, over = statistics.median(reps[name]), "reps"
        else:
            value = statistics.median(r["metrics"][name]["value"]
                                      for _, r in runs)
            over = "processes"
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"metric {name:<36} {value!r} {m['unit']} "
              f"(median over {over})")
    correct = failed == 0 and all(r["correct"] for _, r in runs)
    print(f"fail_frac {failed / attempted!r} ratio "
          f"(failed {failed} / attempted {attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
