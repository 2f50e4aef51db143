"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py --workloads pm-random zielonka-wide --seeds 10

Runs bench/run.py once per seed and workload, one run at a time, and prints
for each end-to-end metric the median and the distance between the first
and third quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json, and the wall time of one run. A spread under a third of the
bound is the steadiness target.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            walls.append(time.perf_counter() - started)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"{workload:16s} {metric['name']:15s} median {med:.6g} {metric['unit']:4s} "
                  f"spread {spread:.4f} bound {metric['bound']} "
                  f"values {' '.join(f'{v:.5g}' for v in vals)}", flush=True)
        print(f"{workload:16s} run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
    print(f"worst spread / bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
