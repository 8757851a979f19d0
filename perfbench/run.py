#!/usr/bin/env python3
"""Build and run the wall-clock benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay|serve|startup --seed N \
        --seconds S --trace 0|1 [--tiny] [--inject-divergence]

The first run configures and builds perfbench/ (which compiles the
repository's libraries from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check the build is up
to date. The benchmark binary then runs with every PEP_* variable
removed from its environment, so nothing outside the command line
changes what is measured.

Standard output carries the binary's own lines, one `stamp:` line
naming the machine, compiler, build and sources, and as its last line
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: every end-to-end metric of BENCHMARK.json with --trace 0,
every per-layer metric with --trace 1. The exit code is nonzero when a
build step fails, an output check fails, or a metric is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, what):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    if proc.returncode != 0:
        fail(f"{what} failed with exit code {proc.returncode}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: nothing to build")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    BUILD_TIMEOUT_S, "cmake configure")
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S, "cmake build")
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def stamp(build_dir, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "compiler": compiler,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "source": source_identity(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "serve", "startup"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-test only)")
    parser.add_argument("--inject-divergence", action="store_true",
                        help="perturb the reference run (self-test only)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", "--trace-out",
                os.path.join(build_dir,
                             f"spans-{args.workload}-{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_divergence:
        cmd.append("--inject-divergence")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEP_")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    print("stamp: " + json.dumps(stamp(build_dir, args), sort_keys=True))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"benchmark printed no result (exit code {proc.returncode})")

    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} missing")
        if got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} in {got['unit']}, "
                 f"expected {entry['unit']}")
        metrics[entry["name"]] = got
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
