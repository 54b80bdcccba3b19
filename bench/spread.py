"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 bench/spread.py --workload aggregate-wide --seeds 1-10

Each run lasts ``run_seconds`` from BENCHMARK.json. For every metric it
prints the median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median. It also prints
the share of failed operations of each run, which must be the same in
every run. Runs go one after the other, never two at once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    found = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        found += range(int(low), int(high or low) + 1)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:34s} {median:12.6f} {q1:12.6f} {q3:12.6f} {spread:8.4f}")
    shares = {Fraction(run["failed"], run["attempted"]) for run in runs}
    print(f"failed share: {', '.join(str(share) for share in sorted(shares))}")
    print(f"all correct: {all(run['correct'] for run in runs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
