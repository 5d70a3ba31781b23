#!/usr/bin/env python3
"""Steadiness check of the EDMS benchmark across seeds.

    python3 edmsbench/spread.py --workloads dayahead_burst,schedule_bound \
        --seeds 1-10 [--seconds 40] [--trace 0]

Runs run.py once per (workload, seed), one after another, and prints per
end-to-end metric the median over seeds and the interquartile spread as a
share of the median (statistics.quantiles(values, n=4)), next to the bound
fixed in BENCHMARK.json when that file is present.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    bounds = {}
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = m["bound"]

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (
                workload, seed,
                " ".join("%s=%.5g" % (k, m["value"])
                         for k, m in result["metrics"].items())),
                flush=True)
        print("== %s" % workload)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "OK" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print("   %-26s median %-12.6g spread %6.2f%%  bound %s %s" % (
                name, med, 100 * spread,
                "-" if bound is None else "%.0f%%" % (100 * bound), flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
