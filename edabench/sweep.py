#!/usr/bin/env python3
"""Collects sets of edabench runs for compare.py.

    python3 edabench/sweep.py --out runs --sets a b --seeds 1-10 \
        [--workloads route_pipeline,filter_fanout,capture_cq] \
        [--seconds 20] [--trace 0]

For each workload and seed it runs edabench/run.py once per set,
alternating between the sets, so slow drift of the machine lands on
both sides alike. Each run's stdout is saved as
<out>/<set>/<workload>-seed<seed>.out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--sets", nargs="+", default=["a"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads",
                        default="route_pipeline,filter_fanout,capture_cq")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for name in args.sets:
                os.makedirs(os.path.join(args.out, name), exist_ok=True)
                path = os.path.join(args.out, name,
                                    "%s-seed%d.out" % (workload, seed))
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", args.seconds, "--trace", args.trace],
                    cwd=ROOT, capture_output=True, text=True)
                with open(path, "w") as f:
                    f.write(done.stdout)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    sys.exit("run failed: %s seed %d" % (workload, seed))
                result = json.loads(done.stdout.strip().splitlines()[-1])
                print("%s %s seed %d: correct=%s failed=%d/%d" % (
                    name, workload, seed, result["correct"], result["failed"],
                    result["attempted"]), flush=True)


if __name__ == "__main__":
    main()
