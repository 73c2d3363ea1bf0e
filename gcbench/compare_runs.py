#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

Usage:

    python3 gcbench/compare_runs.py A.jsonl B.jsonl

A and B are JSON-lines files written by run_benchmark.py --out, A the
baseline (the parent commit) and B the change; only untraced runs are
read. Runs of one workload are paired by seed when both sides ran the same
seeds, and by order otherwise.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles (statistics.quantiles, n=4), the share of
pairs B wins (ties count for neither side), and a verdict against the
metric's bound:

    pass        B's median is not worse than A's by more than the bound
    FAIL        it is worse by more than the bound
    unresolved  the quartile spread of either side, as a share of its
                median, is wider than the bound, and B neither wins nor
                loses every pair

Exits 1 when any metric fails, 0 otherwise.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def pairs(a_runs, b_runs):
    a_seeds = [r["seed"] for r in a_runs]
    b_seeds = [r["seed"] for r in b_runs]
    if sorted(a_seeds) == sorted(b_seeds) and len(set(a_seeds)) == len(a_seeds):
        by_seed = {r["seed"]: r for r in b_runs}
        return [(r, by_seed[r["seed"]]) for r in a_runs]
    return list(zip(a_runs, b_runs))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_all, b_all = load(sys.argv[1]), load(sys.argv[2])
    failed = False
    header = (f"{'workload':11} {'metric':26} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'change':>8} {'B wins':>7}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs, b_runs = a_all.get(workload, []), b_all.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:11} (no runs on one side)")
            continue
        matched = pairs(a_runs, b_runs)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            a = [r["result"]["metrics"][name]["value"] for r in a_runs]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if lower else -change
            wins = ties = 0
            for ra, rb in matched:
                va = ra["result"]["metrics"][name]["value"]
                vb = rb["result"]["metrics"][name]["value"]
                if va == vb:
                    ties += 1
                elif (vb < va) == lower:
                    wins += 1
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            all_better = all((x < y) == lower and x != y for x in b for y in a)
            all_worse = all((x > y) == lower and x != y for x in b for y in a)
            if spread > bound and not (all_better or all_worse):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "FAIL"
                failed = True
            else:
                verdict = "pass"
            share = f"{wins}/{len(matched)}"
            print(f"{workload:11} {name:26} {cell(qa):>34} {cell(qb):>34} "
                  f"{change:>+8.2%} {share:>7}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
