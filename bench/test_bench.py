"""Tests of the benchmark itself: python3 -m pytest -q bench

They check that the untraced loop runs on the library's own functions, that
tracing puts every original back, that a seed repeats its counts and
verdicts exactly, and that a wrong verdict is caught. Whether timings stay
within the bounds of BENCHMARK.json is checked by bench/spread.py.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from paritysets import parse_pgsolver, solve_explicit_pm  # noqa: E402


def _originals():
    return {(owner, attr): tracing.current(owner, attr) for owner, attr, _ in tracing.PATCH_POINTS}


def _unpatched(originals) -> bool:
    return all(tracing.current(owner, attr) is fn for (owner, attr), fn in originals.items())


def _declared(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _pool(tmp_path, name: str, entries: int = 2, seed: int = 5) -> dict:
    directory = tmp_path / f"{name}-{seed}"
    directory.mkdir()
    return workloads.write_pool(workloads.WORKLOADS[name], seed, str(directory), limit=entries)


def test_timed_run_uses_originals_and_traced_run_restores_them(tmp_path, monkeypatch):
    originals = _originals()
    manifest = _pool(tmp_path, "bigstep-random")
    seen = []

    class Watched(worker.Loop):
        def decide(self, f, tracer=None):
            seen.append((tracer is None, _unpatched(originals)))
            return super().decide(f, tracer)

    monkeypatch.setattr(workloads, "MIN_VERDICTS", 4)
    worker.timed_run(manifest, Watched(manifest, workloads.GAME_TIME_LIMIT_S), 0.0)
    worker.traced_run(manifest, Watched(manifest, workloads.GAME_TIME_LIMIT_S), 1)
    assert seen and all(unpatched == plain for plain, unpatched in seen)
    assert any(not plain for plain, _ in seen)
    assert _unpatched(originals)


COUNTS = ("measure.iterations", "bigstep.dominion_runs", "zielonka.solve_calls")


@pytest.mark.parametrize("name", ["bigstep-random", "zielonka-ladder"])
def test_same_seed_repeats_counts_and_verdicts(tmp_path, name):
    runs = []
    for attempt in range(2):
        directory = tmp_path / f"run{attempt}"
        directory.mkdir()
        manifest = workloads.write_pool(workloads.WORKLOADS[name], 7, str(directory), limit=2)
        loop = worker.Loop(manifest, workloads.GAME_TIME_LIMIT_S)
        metrics = worker.traced_run(manifest, loop, 1)
        counts = {k: v for k, v in metrics.items() if k.startswith("sets.") and v[1] == "count"}
        counts.update({k: metrics[k] for k in COUNTS})
        verdicts = [(loop.outputs[out][1] if out >= 0 else error) for _, _, _, out, error in loop.decisions]
        runs.append((counts, verdicts, [metrics[k][0] for k in metrics if k.endswith("_s")]))
        assert all(workloads.verdict_ok(text, manifest["expected"][f]) for f, text in loop.outputs)
    assert list(metrics) == _declared("per_layer")
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][0]["sets.cpre_ops"][0] > 0
    assert all(t >= 0 for t in runs[0][2])


def test_end_to_end_metrics_are_the_declared_ones():
    decisions = [[0, 0.01 * (i + 1), 0.002, 0, None] for i in range(100)]
    result = {"decisions": decisions, "peak_rss_mb": 20.0}
    metrics = run.end_to_end(result, [0.05, 0.06, 0.07], correct=100)
    assert list(metrics) == _declared("end_to_end")
    assert metrics["verdict_s_p50"][0] == pytest.approx(0.505)
    assert metrics["verdicts_per_s"][0] == pytest.approx(100 / 50.5)


def test_relabelled_files_keep_the_oracle_verdict(tmp_path):
    manifest = _pool(tmp_path, "pm-random", entries=1)
    game = workloads.WORKLOADS["pm-random"].catalogue()[0]
    winners = solve_explicit_pm(game).winning_even
    for f, path in enumerate(manifest["files"]):
        expected = manifest["expected"][f]
        assert sorted(expected) == sorted(0 if v in winners else 1 for v in range(game.vertex_count))
        with open(path, encoding="utf-8") as fh:
            relabelled = parse_pgsolver(fh.read())
        assert solve_explicit_pm(relabelled).winning_even == {
            v for v, w in enumerate(expected) if w == 0
        }


def test_wrong_verdicts_are_caught():
    winners = [0, 1, 1]
    good = "paritysol 2;\n0 0;\n1 1 2;\n2 1;\n"
    assert workloads.verdict_ok(good, winners)
    assert not workloads.verdict_ok(good.replace("0 0;", "0 1;"), winners)
    assert not workloads.verdict_ok("paritysol 2;\n0 0;\n1 1;\n", winners)
    assert not workloads.verdict_ok("garbage", winners)


def test_failed_game_counts_and_does_not_crash(tmp_path):
    manifest = _pool(tmp_path, "pm-random", entries=1)
    slow = worker.Loop(manifest, 1e-6)
    slow.decide(0)
    assert slow.decisions[0][3] == -1 and "limit" in slow.decisions[0][4]
    missing = worker.Loop(dict(manifest, files=[str(tmp_path / "missing.gm")]), 10.0)
    missing.decide(0)
    assert missing.decisions[0][3:] == [-1, "exit code 2"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "pm-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
