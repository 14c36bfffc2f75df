"""Run the benchmark on several seeds and print each metric's spread.

    python3 bench/steadiness.py --workload modp-scan --runs 10 --seconds 30

The spread is the distance between the first and third quartiles of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median.  Every end-to-end metric except ``setup_s`` should stay below a
third of its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / statistics.median(vs)
        print(f"{name:12s} median {statistics.median(vs):.4g}  spread {spread:.4f}"
              f"  (bound {bounds[name]}, target < {bounds[name] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
