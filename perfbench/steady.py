"""Steadiness check: run one workload N times and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/steady.py --workload serve-tenants --runs 10 [--first-seed 1]
        [--seconds 10] [--trace 0]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...).  For
every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the relative spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and whether the spread is under a third of it.  It also
prints each run's failed share, which must be identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        if completed.returncode != 0:
            print(f"seed {seed}: run.py exited {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={shares[-1]}", flush=True)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:32} {mid:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {verdict}")
        print(f"{'':32} runs: {' '.join(f'{v:.4g}' for v in series)}")
    fractions = {a and f / a for f, a in (map(int, s.split("/")) for s in shares)}
    print(f"failed share identical across runs: {len(fractions) == 1} {sorted(fractions)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
