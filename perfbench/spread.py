"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--seconds 30] [--first-seed 1] WORKLOAD...

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The bounds in
BENCHMARK.json were set from these figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    for workload in args.workloads:
        results = [run_once(workload, args.first_seed + k, args.seconds) for k in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        ok = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct={ok}, failed shares {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  spread {(q3 - q1) / med:.3f}"
                  f"  values {' '.join(f'{v:.3f}' for v in values)}", flush=True)


if __name__ == "__main__":
    main()
