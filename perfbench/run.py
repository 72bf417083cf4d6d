#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <infer_batch|mltosql_dense|serve_zipf> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # the benchmark's own unit tests

The first call configures and builds perfbench/ (engine sources from src/)
in .bench_build/perfbench with CMake, Release; later calls rebuild only what
changed. The benchmark prints every metric by name and unit, the
correctness verdict, and as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 it also writes a
Chrome trace to .bench_build/traces/<workload>.trace.json (load it in
chrome://tracing or ui.perfetto.dev) and prints the total and self time of
every span name in it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("infer_batch", "mltosql_dense", "serve_zipf")
# The benchmark binary ends on its own well inside this; a hang is a failure.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"engine sources not found under {ROOT}/src")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    # Build logs go to stderr: the result must stay the last stdout line.
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, target)


def span_table(trace_path):
    """Total and self time per span name; self = duration minus the part
    of it that direct child spans on the same thread cover."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_thread = {}
    for e in events:
        by_thread.setdefault(e["tid"], []).append(e)
    stats = {}  # name -> [count, total_us, self_us]

    def close(entry):
        _, span, child_us = entry
        s = stats.setdefault(span["name"], [0, 0, 0])
        s[0] += 1
        s[1] += span["dur"]
        s[2] += span["dur"] - child_us

    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, span, child_us] of the open enclosing spans
        for e in spans:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([e["ts"] + e["dur"], e, 0])
        while stack:
            close(stack.pop())
    return len(events), stats


def run_bench(args):
    binary = build("perfbench")
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{args.workload}.trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines))
        fail("benchmark printed no result line")
    print("\n".join(lines[:-1]))
    if args.trace:
        try:
            count, stats = span_table(trace_path)
        except (OSError, ValueError, KeyError) as e:
            fail(f"trace {trace_path} does not load: {e}")
        print(f"chrome trace: {trace_path} ({count} spans)")
        print(f"  {'span':<28} {'count':>9} {'total_ms':>12} {'self_ms':>12}")
        for name, (n, total, self_us) in sorted(stats.items(),
                                                key=lambda kv: -kv[1][2]):
            print(f"  {name:<28} {n:>9} {total / 1e3:>12.1f} {self_us / 1e3:>12.1f}")
    print(json.dumps(result))


def run_tests():
    build("perfbench_test")
    proc = subprocess.run(["ctest", "--output-on-failure"], cwd=BUILD_DIR)
    sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.test:
        run_tests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run_bench(args)


if __name__ == "__main__":
    main()
