"""Steadiness check: run a workload once per seed and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 bench/steadiness.py --workload noisy --runs 10

Run from the repository root, with nothing else running.  The spread of a
metric is the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; it
must stay within the bound, and should stay below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect ({result['failed']} of {result['attempted']} failed)")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    steady = True
    for m in spec["end_to_end"]:
        series = values[m["name"]]
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        if spread > m["bound"]:
            steady = False
        print(f"{args.workload:8s} {m['name']:12s} median {median:12.4f} {m['unit']:4s} spread {spread:7.4f} "
              f"bound {m['bound']:.2f} {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
