#!/usr/bin/env python3
"""A/B-compares two revisions on one perfbench workload in alternating pairs.

Run from anywhere inside the repository:

    python3 scripts/perf_ab.py --parent HEAD~1 --change HEAD \\
        --workload mltosql_dense --pairs 10 --seconds 25 --scratch /tmp/ab

Each side is exported into its own directory under --scratch (`git archive`
of the revision; `--change .` copies the working tree's tracked and
untracked, non-ignored files instead, so a change can be measured before it
is committed). Each copy builds perfbench in its own `.bench_build`. One
short warm-up run per side builds the binary and checks it; then pair i
runs both sides with seed i (or the i-th of --seeds), and the side that
runs first flips every pair, so slow drift of the host hits both sides
alike.

The result goes to BENCH_<workload>.json at the repository root (or --out)
in the committed format: workload, command, protocol, host, parent, change
(each with the full result of its first pair), pairs, and a summary per
end-to-end metric. An existing file's content is kept under "history".
The summary, also printed, gives each metric's medians with quartiles, the
number of pairs the change won, and whether the change's median stays
within the metric's BENCHMARK.json bound.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                      text=True, check=True,
                      cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def export(rev, dest):
    """Writes the files of `rev` (or of the working tree for ".") to dest.
    A previous export's perfbench build tree is kept, so a rerun rebuilds
    only what changed."""
    os.makedirs(dest, exist_ok=True)
    for entry in os.listdir(dest):
        if entry == ".bench_build":
            continue
        path = os.path.join(dest, entry)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    if rev == ".":
        for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
            src = os.path.join(ROOT, name)
            if not name or not os.path.isfile(src):
                continue
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return "working tree of " + git("rev-parse", "--short", "HEAD").strip()
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    return git("rev-parse", "--short", rev).strip()


def run(checkout, workload, seed, seconds):
    """One perfbench run; returns its last-line JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {' '.join(cmd)} failed in {checkout}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def flat(result):
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(failed=result["failed"], attempted=result["attempted"],
               correct=result["correct"])
    return out


def host():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        compiler = subprocess.run(["c++", "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "os": f"{platform.system()} {platform.machine()}",
            "compiler": compiler, "build": "Release (perfbench/run.py)"}


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs, bounds):
    summary = {}
    for name, (better, bound) in bounds.items():
        ps = [p["parent"][name] for p in pairs if name in p["parent"]]
        cs = [p["change"][name] for p in pairs if name in p["change"]]
        if not ps or len(ps) != len(cs):
            continue
        lower = better == "lower"
        wins = sum(1 for a, b in zip(ps, cs) if (b < a if lower else b > a))
        pm, cm = statistics.median(ps), statistics.median(cs)
        worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
        summary[name] = {"better": better, "parent_median": pm,
                         "parent_iqr": quartiles(ps), "change_median": cm,
                         "change_iqr": quartiles(cs),
                         "change_better": f"{wins}/{len(ps)}", "bound": bound,
                         "within_bound": worse <= bound}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the baseline")
    ap.add_argument("--change", required=True,
                    help='git revision of the change, or "." for the working tree')
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated seeds (default 1..pairs)")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--scratch", required=True,
                    help="directory for the two checkouts and their builds")
    ap.add_argument("--out", help="result file (default BENCH_<workload>.json)")
    args = ap.parse_args()

    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.pairs + 1)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}

    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        checkout = os.path.join(os.path.abspath(args.scratch), side)
        commit = export(rev, checkout)
        print(f"[perf_ab] {side}: {commit} in {checkout}; building", flush=True)
        warm = run(checkout, args.workload, 0, 1)
        if not warm["correct"] or warm["failed"]:
            sys.exit(f"perf_ab: {side} warm-up run is not correct: {warm}")
        sides[side] = {"checkout": checkout, "commit": commit}

    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result = run(sides[side]["checkout"], args.workload, seed, args.seconds)
            pair[side] = flat(result)
            sides[side].setdefault("result", result)
            sides[side].setdefault("seed", seed)
        pairs.append(pair)
        print(f"[perf_ab] pair {i + 1}/{len(seeds)} seed {seed}: " +
              ", ".join(f"{name} {pair['parent'].get(name, 0):.4g} -> "
                        f"{pair['change'].get(name, 0):.4g}"
                        for name in ("p50_ms", "peak_mem_mb")), flush=True)

    info = host()
    doc = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed <seed> --seconds {args.seconds}",
        "protocol": "parent and change built from their own checkouts on the same "
                    "host; runs alternate, the side that runs first flips every pair "
                    "(scripts/perf_ab.py)",
        "host": info,
    }
    for side in ("parent", "change"):
        doc[side] = {"commit": sides[side]["commit"], "seed": sides[side]["seed"],
                     "seconds": args.seconds, "host": info["cpu"],
                     "nproc": info["nproc"], "result": sides[side]["result"]}
    doc["pairs"] = pairs
    doc["summary"] = summarize(pairs, bounds)

    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    if os.path.isfile(out):
        with open(out) as f:
            old = json.load(f)
        history = old.pop("history", [])
        doc["history"] = [old] + history
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

    print(f"[perf_ab] {args.workload}, {len(pairs)} pairs -> {out}")
    print(f"{'metric':<12} {'parent median [IQR]':>28} {'change median [IQR]':>28} "
          f"{'wins':>6}  bound")
    for name, s in doc["summary"].items():
        p, c = s["parent_iqr"], s["change_iqr"]
        print(f"{name:<12} {s['parent_median']:>10.4g} [{p[0]:.4g}, {p[1]:.4g}]"
              f"{'':>3} {s['change_median']:>10.4g} [{c[0]:.4g}, {c[1]:.4g}]{'':>3} "
              f"{s['change_better']:>6}  {'ok' if s['within_bound'] else 'WORSE'} "
              f"({s['bound']:.0%}, {s['better']} is better)")


if __name__ == "__main__":
    main()
