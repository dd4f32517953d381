#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

Builds mclock_perfbench the way run.py does, then runs each workload with
--tiny in both modes (--trace 0 and --trace 1) and checks that:

  - mclock_perfbench exits 0 and its last stdout line is a JSON result with
    correct=true, attempted >= 1 and failed == 0 (fail_frac 0);
  - every metric BENCHMARK.json names for that mode is printed, both
    as a "metric <name> <value> <unit>" line and in the JSON, with the
    unit BENCHMARK.json gives it.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)


def check_mode(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    errors = []
    lines = res.stdout.splitlines()
    if res.returncode != 0:
        errors.append(f"exit {res.returncode}: {res.stderr.strip()}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["no JSON result line"]
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"failed checks: {result['failed']}")
    if result["attempted"] < 1:
        errors.append("no checked operations")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in expected:
        name, unit = m["name"], m["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            errors.append(f"{name}: JSON has {got}, want unit {unit}")
        if printed.get(name) != unit:
            errors.append(f"{name}: printed unit {printed.get(name)}")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    failures = 0
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errors = check_mode(binary, w["name"], trace, bench[key])
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']} --trace {trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
