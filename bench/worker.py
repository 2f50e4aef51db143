"""One workload run in a fresh interpreter: set-up, then a closed loop.

    python3 bench/worker.py --manifest DIR/manifest.json --seconds S --trace 0|1 --out FILE
    python3 bench/worker.py --manifest DIR/manifest.json --probe

Set-up is the import of `paritysets` plus a warm-up solve of the sample game,
timed from inside this process. `--probe` stops there and prints it. One
client decides one game at a time through `paritysets.cli.main`, the code
behind `paritysets solve`, and keeps every distinct solution text for the
parent to check against the oracle. After each verdict, and after set-up,
the speed reference of speed.py is timed too.

Untraced (`--trace 0`), whole rounds over the catalogue are decided until
`--seconds` have passed and at least MIN_VERDICTS verdicts are in; no
wrapper is installed. Traced (`--trace 1`), a fixed subset of the catalogue
is decided once untraced and once under the tracer, which gives the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

from speed import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class GameTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise GameTimeout()


def set_up(manifest: dict) -> tuple[float, float]:
    """Import the library from the checkout and solve the sample game once;
    returns that time and the speed reference measured right after."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import paritysets
    import paritysets.cli

    if not os.path.abspath(paritysets.__file__).startswith(SRC + os.sep):
        raise ImportError(f"paritysets imported from {paritysets.__file__}, not {SRC}")
    with contextlib.redirect_stdout(io.StringIO()):
        if paritysets.cli.main(["solve", manifest["sample"], *manifest["flags"]]) != 0:
            raise RuntimeError("warm-up solve failed")
    setup_s = time.perf_counter() - started
    return setup_s, statistics.median(reference() for _ in range(5))


class Loop:
    """Closed-loop client: decide one file, record it, take the next."""

    def __init__(self, manifest: dict, limit_s: float):
        import paritysets.cli

        self.cli = paritysets.cli
        self.files = manifest["files"]
        self.argv_tail = list(manifest["flags"])
        self.limit_s = limit_s
        # [file, seconds, speed reference, output index or -1, error]
        self.decisions: list[list] = []
        self.outputs: list[list] = []  # [file, text], distinct per file
        self._seen: dict[tuple[int, str], int] = {}
        signal.signal(signal.SIGALRM, _on_alarm)

    def decide(self, f: int, tracer=None) -> float:
        sink = io.StringIO()
        error = None
        started = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(["solve", self.files[f], *self.argv_tail])
            if code != 0:
                error = f"exit code {code}"
        except GameTimeout:
            error = f"over the {self.limit_s:g} s limit"
        except Exception as exc:  # a solver fault is a failed verdict, not a crash
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end_game()
        out = -1
        if error is None:
            key = (f, sink.getvalue())
            out = self._seen.get(key, -1)
            if out < 0:
                out = self._seen[key] = len(self.outputs)
                self.outputs.append([f, key[1]])
        self.decisions.append([f, elapsed, reference(), out, error])
        return elapsed


def timed_run(manifest: dict, loop: Loop, seconds: float) -> None:
    """Decide whole rounds until `seconds` have passed and enough verdicts
    are in."""
    from workloads import MIN_VERDICTS, RELABELS, round_order

    entries = manifest["entries"]
    started = time.perf_counter()
    rnd = 0
    while True:
        for e in round_order(manifest["seed"], rnd, entries):
            loop.decide(e * RELABELS + rnd % RELABELS)
        rnd += 1
        if time.perf_counter() - started >= seconds and len(loop.decisions) >= MIN_VERDICTS:
            return


def traced_run(manifest: dict, loop: Loop, stride: int) -> dict:
    """Decide every stride-th structure untraced, then again traced."""
    from workloads import RELABELS
    from tracing import Tracer

    picked = [e * RELABELS for e in range(0, manifest["entries"], stride)]
    plain = sum(loop.decide(f) for f in picked)
    tracer = Tracer()
    tracer.calibrate()
    tracer.install()
    try:
        traced = sum(loop.decide(f, tracer) for f in picked)
    finally:
        tracer.uninstall()
    return tracer.metrics((traced - plain) / len(picked))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)

    setup_s, setup_ref = set_up(manifest)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_ref": setup_ref}))
        return 0

    from workloads import GAME_TIME_LIMIT_S, WORKLOADS

    loop = Loop(manifest, GAME_TIME_LIMIT_S)
    result = {"setup_s": setup_s, "setup_ref": setup_ref}
    if args.trace:
        stride = WORKLOADS[manifest["workload"]].trace_stride
        result["per_layer"] = traced_run(manifest, loop, stride)
    else:
        timed_run(manifest, loop, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["decisions"] = loop.decisions
    result["outputs"] = loop.outputs
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
