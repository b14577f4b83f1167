#!/usr/bin/env python3
"""Per-metric quartiles across benchmark runs.

Each argument is a file holding one run's standard output; the last line is
the run's JSON result. For every metric the script prints the number of
runs, the median, the first and third quartiles (statistics.quantiles with
n=4) and the interquartile distance as a share of the median, and it flags
runs that were not correct.

    python3 perfbench/quartiles.py runs/repro-all-*.out
"""
import json
import statistics
import sys


def main(paths):
    values = {}
    for path in paths:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"{path}: incorrect, {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        if len(xs) < 2:
            print(f"{name:36s} n={len(xs):<3d} median={med:<12.6g}")
            continue
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36s} n={len(xs):<3d} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} iqr/median={spread:.4f}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
