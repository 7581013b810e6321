"""Steadiness self-check: spread of every metric over seeded runs.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py --workload service-mix [--runs 10]
        [--first-seed 1] [--seconds S]

Runs the benchmark once per seed (seeds first-seed, first-seed+1, ...)
and prints, for each end-to-end metric and for the raw diagnostics,
the median, the quartiles and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  A metric is "steady" when its spread is below a
third of its bound in ``BENCHMARK.json``.  ``setup_s`` has no spread
limit; only its median has to hold from one set of runs to the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list] = {}
    failed = 0
    for n in range(args.runs):
        seed = args.first_seed + n
        lines = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True,
            text=True).stdout.splitlines()
        result = json.loads(lines[-1])
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        for line in lines:
            if line.startswith("diag "):
                _, name, value = line.split()
                values.setdefault(name, []).append(float(value))
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.4g}"
            for name, entry in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {failed} failed "
          f"operations")
    print(f"{'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name, series in values.items():
        median, q1, q3, share = spread(series)
        bound = bounds.get(name)
        if bound is None:
            verdict = "diagnostic"
        elif name == "setup_s":
            verdict = "median only"
        else:
            verdict = ("steady" if share < bound / 3 else
                       "within bound" if share <= bound else "TOO NOISY")
        print(f"{name:18s} {median:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{share:7.3f} {bound if bound is not None else '':>6}  "
              f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
