#!/usr/bin/env python3
"""Run-to-run spread of the benchmark over several seeds.

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, and
prints for each end-to-end metric the median of the per-run values and the
spread: the distance between the first and third quartile
(``statistics.quantiles`` with ``n=4``) as a share of the median.  This is how ``baseline.json`` was
made.  Run from the repository root:

    python3 perfbench/spread.py --workload oracle-mix --seeds 101..110 --seconds 60
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(results: list[dict]) -> dict:
    """Median, quartile spread and extremes of every metric over runs."""
    names = results[0]["metrics"]
    summary = {
        "runs": len(results),
        "all_correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {},
    }
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values),
            "max": max(values),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101..110", metavar="A..B")
    parser.add_argument("--seconds", default="60")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(".."))
    results = []
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(json.dumps({args.workload: summarize(results)}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
