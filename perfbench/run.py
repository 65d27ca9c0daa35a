#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

    python3 perfbench/run.py --workload grid|whatif|record --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. It builds sdsp_perfbench (a Release
build of the repository's libraries plus the three source files
here, see CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, runs one workload, and relays the program's report. The last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

printed only when it carries every metric BENCHMARK.json lists for the
mode (end_to_end for --trace 0, per_layer for --trace 1). Build output
goes to standard error. The exit code is non-zero, and no result is
printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "bench", "golden", "sdsp_bench_all_scale25.json")
# The whole run must end within this many seconds once the program
# is built (a first run, which builds, may take longer).
RUN_LIMIT_S = 170
BUILD_JOBS = 2


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configure (once) and build the benchmark; return its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources under " + ROOT)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "sdsp_perfbench",
                    "-j", str(BUILD_JOBS)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "sdsp_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "whatif", "record"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        program = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    spans = os.path.join(build_dir(), "spans",
                         "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [program, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--golden", GOLDEN,
               "--spans", spans]
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run went past %d s" % RUN_LIMIT_S,
              file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        print("perfbench: the run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return run.returncode or 1

    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: the run's last line is not JSON",
              file=sys.stderr)
        return 1
    missing = [name for name in expected_metrics(args.trace)
               if name not in result["metrics"]]
    if missing:
        print("perfbench: result lacks %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    print("perfbench: the run took %.1f s" % (time.monotonic() - start))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
