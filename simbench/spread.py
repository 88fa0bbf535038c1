#!/usr/bin/env python3
"""Runs simbench once per seed and reports each metric's spread.

Run from the repository root:

    python3 simbench/spread.py --workload paper-dmr --seeds 1-10 --seconds 30

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json and a
third of it. Pass --log FILE to append every run's JSON line to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    bad = 0
    for s in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(s),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        line = out.strip().splitlines()[-1]
        if args.log:
            with open(args.log, "a") as f:
                f.write(f"{args.workload} {s} {line}\n")
        res = json.loads(line)
        if not res["correct"] or res["failed"]:
            bad += 1
            print(f"seed {s}: FAILED ({res['failed']} of {res['attempted']} jobs)")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{args.workload}: {len(seeds(args.seeds))} runs, {bad} failed")
    for name, xs in sorted(values.items()):
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = f" bound={bound} third={bound / 3:.4f}" + (" OVER-THIRD" if spread > bound / 3 else "")
        print(f"  {name:28s} median={med:<14.6g} spread={spread:.4f}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
