#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, runs perfbench/run.py on tiny inputs untraced and
traced, and checks that the result line names every metric of
BENCHMARK.json for that mode with its unit, that the values are finite
numbers, and that every output check passed. Then runs each workload
with a seeded divergence (the reference interpreter gets a perturbed
Irnd seed) and checks that the run fails. Exits nonzero on the first
problem. Takes about a minute once the benchmark is built.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay", "serve", "startup")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.5", "--trace",
           str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output checks failed")
            if result["attempted"] < 1:
                problems.append(f"{label}: no checks attempted")
            for entry in spec[key]:
                got = result["metrics"].get(entry["name"])
                if got is None:
                    problems.append(f"{label}: {entry['name']} missing")
                elif got["unit"] != entry["unit"]:
                    problems.append(f"{label}: {entry['name']} unit "
                                    f"{got['unit']} != {entry['unit']}")
                elif not isinstance(got["value"], (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{label}: {entry['name']} = "
                                    f"{got['value']!r}")
            print(f"ok   {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checks")
        proc, result = run(workload, 0, "--inject-divergence")
        if proc.returncode == 0 or (result is not None and result["correct"]):
            problems.append(f"{workload}: a seeded divergence went unnoticed")
        else:
            print(f"ok   {workload}: seeded divergence fails the run")
    for problem in problems:
        print("FAIL " + problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
