"""Time-to-verdict benchmark for paritysets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Writes the workload's game files from the
seed (untimed), measures set-up in fresh interpreters, runs the workload in
a fresh interpreter of its own, checks every emitted solution against the
explicit oracle, and prints one JSON object as the last line of stdout:
the end-to-end metrics untraced, the per-layer metrics traced. End-to-end
times are scaled to a fixed machine speed (see speed.py). Exits 1
when any verdict is wrong, raised or ran over the per-game limit, and 2
when the checkout has no `src/paritysets` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from speed import REFERENCE_S, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Fresh interpreters that only measure set-up; the workload process adds one
# more sample, and setup_s is the median.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, timeout=timeout,
        stdout=subprocess.PIPE, text=True, check=True,
    )


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, setups: list[float], correct: int) -> dict:
    """Times are scaled to the reference speed (see speed.py). Failed
    verdicts keep their time in the percentiles (a timeout counts as slow)
    and drop out of the rate."""
    times = scaled([d[1] for d in result["decisions"]], [d[2] for d in result["decisions"]])
    return {
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_p90": (quantile(times, 90), "s"),
        "verdicts_per_s": (correct / sum(times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "paritysets", "__init__.py")):
        print(f"error: no paritysets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, write_pool, verdict_ok

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        manifest = write_pool(WORKLOADS[args.workload], args.seed, work)
        manifest_path = os.path.join(work, "manifest.json")
        probes = [
            json.loads(_python(["--manifest", manifest_path, "--probe"], WORKER_TIMEOUT_S).stdout)
            for _ in range(SETUP_PROBES)
        ]
        out_path = os.path.join(work, "result.json")
        _python(["--manifest", manifest_path, "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out_path], WORKER_TIMEOUT_S)
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = manifest["expected"]
    output_ok = [verdict_ok(text, expected[f]) for f, text in result["outputs"]]
    attempted = len(result["decisions"])
    failed = 0
    for f, _, _, out, error in result["decisions"]:
        if error is not None or not output_ok[out]:
            failed += 1
            name = os.path.basename(manifest["files"][f])
            print(f"failed: {name}: {error or 'wrong verdict'}", file=sys.stderr)
    setups = [p["setup_s"] * REFERENCE_S / p["setup_ref"] for p in (*probes, result)]

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(result, setups, attempted - failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
