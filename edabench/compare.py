#!/usr/bin/env python3
"""Compares two sets of edabench runs (or summarizes one).

    python3 edabench/compare.py RUNS_A [RUNS_B] [--benchmark BENCHMARK.json]

Each RUNS directory holds run.py outputs (*.out, as sweep.py saves
them). Per workload and metric it prints each side's median and first
and third quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median. Flags:

  SPREAD  a side's spread exceeds the metric's bound (setup_s exempt)
  NOISY   a side's spread exceeds a third of the bound
  WORSE   B's median is worse than A's by more than the bound
  FAILED  the share of failed operations differs between the sides

Exits 1 when any SPREAD, WORSE or FAILED flag is raised.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: [(detail, result), ...]} from the *.out files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            lines = f.read().strip().splitlines()
        if len(lines) < 2:
            sys.exit("%s: not a run.py output" % path)
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.setdefault(detail["workload"], []).append((detail, result))
    return runs


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def failed_share(runs):
    return sorted({r["failed"] / r["attempted"] for _, r in runs})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.runs) > 2:
        sys.exit("give one or two run directories")

    declared = {}
    if os.path.isfile(args.benchmark):
        with open(args.benchmark) as f:
            spec = json.load(f)
        for metric in spec.get("end_to_end", []) + spec.get("per_layer", []):
            declared[metric["name"]] = metric
    sides = [load_runs(d) for d in args.runs]
    bad = False
    for workload in sorted(set().union(*sides)):
        print("== %s" % workload)
        per_side = [side.get(workload, []) for side in sides]
        shares = [failed_share(runs) for runs in per_side]
        if len(per_side) == 2 and shares[0] != shares[1]:
            print("   FAILED share differs: %s vs %s" % tuple(shares))
            bad = True
        names = sorted({name for runs in per_side for _, r in runs
                        for name in r["metrics"]})
        for name in names:
            meta = declared.get(name, {})
            bound = meta.get("bound")
            better = meta.get("better", "lower")
            cells, flags, medians = [], [], []
            for runs in per_side:
                values = [r["metrics"][name]["value"] for _, r in runs
                          if name in r["metrics"]]
                if len(values) < 2:
                    cells.append("%d run(s)" % len(values))
                    medians.append(None)
                    continue
                median, q1, q3, spread = stats(values)
                medians.append(median)
                cells.append("med %.6g q1 %.6g q3 %.6g spread %.1f%%" %
                             (median, q1, q3, 100 * spread))
                if bound is not None and name != "setup_s":
                    if spread > bound:
                        flags.append("SPREAD")
                        bad = True
                    elif spread > bound / 3:
                        flags.append("NOISY")
            if len(per_side) == 2:
                by_seed = [{d["seed"]: r["metrics"][name]["value"]
                            for d, r in runs if name in r["metrics"]}
                           for runs in per_side]
                seeds = sorted(set(by_seed[0]) & set(by_seed[1]))
                wins = sum(1 for seed in seeds
                           if (by_seed[1][seed] > by_seed[0][seed]) ==
                           (better == "higher") and
                           by_seed[1][seed] != by_seed[0][seed])
                cells.append("B better in %d/%d pairs" % (wins, len(seeds)))
            if bound is not None and len(medians) == 2 and None not in medians:
                a, b = medians
                worse = (b - a) / a if better == "lower" else (a - b) / a
                if a and worse > bound:
                    flags.append("WORSE %+.1f%%" % (100 * worse))
                    bad = True
            unit = meta.get("unit", "")
            print("   %-32s %-10s %s %s" % (
                name, unit, " | ".join(cells),
                ("<" + ",".join(flags) + ">") if flags else ""))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
