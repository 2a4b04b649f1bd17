#!/usr/bin/env python3
"""Steadiness check: runs one workload N times with distinct seeds and
prints, for each end-to-end metric, the median, the quartiles and the
spread (interquartile range as a share of the median) as a share of the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 flixbench/steady.py --workload dblp-hopi --runs 10

Run i uses seed i (1..N). The benchmark command and run length come from
BENCHMARK.json. A spread
above a third of the bound is flagged; `setup_s` is shown but, as a set-up
time, only its median is compared between sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {}
    shares = set()
    walls = []
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        t = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        walls.append(time.time() - t)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect answers\n{out.stderr[-2000:]}")
        shares.add(result["failed"] / result["attempted"])
        missing = set(bounds) - set(result["metrics"])
        if missing:
            sys.exit(f"seed {seed}: end-to-end metrics missing: {sorted(missing)}")
        for name, m in result["metrics"].items():
            declared = bounds.get(name)
            if declared is None or declared["unit"] != m["unit"]:
                sys.exit(f"seed {seed}: metric {name} ({m['unit']}) is not declared "
                         "with that unit in BENCHMARK.json end_to_end")
            values.setdefault(name, []).append(m["value"])
        values_line = " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {walls[-1]:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}: {values_line}", file=sys.stderr)

    print(f"workload {args.workload}: {args.runs} runs of {seconds} s "
          f"(wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
    print(f"failed share: {sorted(shares)}"
          + ("" if len(shares) == 1 else "  <-- differs between runs"))
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'/bound':>7}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name, {}).get("bound")
        share = spread / bound if bound else float("nan")
        flag = "  <-- above a third of the bound" if share > 1 / 3 else ""
        print(f"{name:<22} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} "
              f"{bound if bound is not None else '-':>6} {share:>7.2f}{flag}")


if __name__ == "__main__":
    main()
