#!/usr/bin/env python3
"""Regression read-out: compares two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--top N]

Each directory holds the records run.py writes to .bench_out/results/
(copy them aside after running the parent, then the change). For every
workload it prints each end-to-end metric's median and quartiles on both
sides, the change in the median and a verdict against the bound in
BENCHMARK.json; then the per-layer self times of the traced runs, largest
moves first, so that a regression points at the layer that moved.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """(workload, trace) -> list of records."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, change, better, bound):
    """Worse by more than the bound, inside it, or unresolved when the
    base's own spread is wider than the bound (unless every change run
    beats every base run)."""
    b1, b2, b3 = quartiles(base)
    c2 = statistics.median(change)
    sign = 1 if better == "higher" else -1
    worse_by = sign * (b2 - c2) / abs(b2) if b2 else 0.0
    if (b3 - b1) / abs(b2 if b2 else 1) > bound:
        beats = min(change) > max(base) if better == "higher" else max(change) < min(base)
        return "better (all runs)" if beats else "unresolved: base spread exceeds bound"
    if worse_by > bound:
        return f"REGRESSION (worse by {worse_by:.1%} > {bound:.0%})"
    return "ok"


def env_line(records):
    envs = [r["env"] for r in records]
    commits = sorted({e["commit"][:12] for e in envs})
    seeds = sorted({e["seed"] for e in envs})
    loads = [e["loadavg_start"][0] for e in envs]
    return (f"{len(records)} runs, commit {','.join(commits)}, seeds {seeds}, "
            f"nproc {envs[0]['nproc']}, {envs[0]['cpu_model']}, load1 {min(loads):.2f}-{max(loads):.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--top", type=int, default=12, help="per-layer rows shown per workload")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b, c = base.get((workload, 0), []), change.get((workload, 0), [])
        if not b or not c:
            continue
        print(f"\n== {workload} ==")
        print(f"  base:   {env_line(b)}")
        print(f"  change: {env_line(c)}")
        print(f"  {'metric':<16} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'delta':>8}  verdict")
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            cv = [r["metrics"][m["name"]]["value"] for r in c]
            b1, b2, b3 = quartiles(bv)
            c1, c2, c3 = quartiles(cv)
            delta = (c2 - b2) / b2 if b2 else 0.0
            v = verdict(bv, cv, m["better"], m["bound"])
            regressions += v.startswith("REGRESSION")
            print(f"  {m['name']:<16} {b2:>12.5g} [{b1:.5g}, {b3:.5g}]".ljust(52)
                  + f"{c2:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(35) + f"{delta:>+8.1%}  {v}")
        bt, ct = base.get((workload, 1), []), change.get((workload, 1), [])
        if not bt or not ct:
            print("  (no traced runs on both sides: per-layer deltas skipped)")
            continue
        rows = []
        for m in spec["per_layer"]:
            bm = statistics.median(r["metrics"][m["name"]]["value"] for r in bt)
            cm = statistics.median(r["metrics"][m["name"]]["value"] for r in ct)
            if bm or cm:
                rows.append((m["name"], m["unit"], bm, cm))
        times = sorted((r for r in rows if r[1] == "s" and not r[0].startswith("trace.")),
                       key=lambda r: -abs(r[3] - r[2]))
        print(f"  per-layer self time, largest moves first ({len(bt)} vs {len(ct)} traced runs):")
        for name, unit, bm, cm in times[: args.top]:
            rel = f"{(cm - bm) / bm:+.1%}" if bm else "new"
            print(f"    {name:<36} {bm:>10.4g} -> {cm:<10.4g} {unit:<5} {cm - bm:>+10.4g} ({rel})")
        moved = [r for r in rows if (r[1] != "s" or r[0].startswith("trace.")) and r[2] != r[3]]
        if moved:
            print("  counts and ratios that moved:")
            for name, unit, bm, cm in moved[: args.top]:
                print(f"    {name:<36} {bm:>10.4g} -> {cm:<10.4g} {unit}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
