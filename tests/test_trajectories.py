"""Pinned operation trajectories of every symbolic solver.

Each record is one solve with strategies on: every `OpCounters` field, the
solver's diagnostics, the winners and both strategies. Records are compared
after a JSON round trip, and both backends must reproduce the same record.
A change that moves any of these is an algorithmic change; regenerate the
golden file with

    PYTHONPATH=src python tests/test_trajectories.py

and say so in CHANGES.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from paritysets import gen_random
from paritysets.bigstep import GammaPolicy, SqrtPolicy, symbolic_big_step
from paritysets.measure import solve_pm_symbolic
from paritysets.zielonka import classic_parity


GOLDEN = Path(__file__).parent / "data" / "trajectories.json"

SOLVERS = {
    "pm": lambda g, backend: solve_pm_symbolic(g, strategies=True, backend=backend),
    "zielonka": lambda g, backend: classic_parity(g, strategies=True, backend=backend),
    "bigstep-sqrt": lambda g, backend: symbolic_big_step(
        g, policy=SqrtPolicy(), strategies=True, backend=backend
    ),
    "bigstep-gamma": lambda g, backend: symbolic_big_step(
        g, policy=GammaPolicy(), strategies=True, backend=backend
    ),
}


def games():
    """24 seeded games, n 2..25 and c 1..7."""
    for i in range(24):
        yield f"n{2 + i}-c{1 + i % 7}-s{3000 + i}", gen_random(
            n=2 + i, c=1 + i % 7, min_deg=1, max_deg=3, seed=3000 + i
        )


def record(report) -> dict:
    out = {
        "counters": asdict(report.counters),
        "diagnostics": report.diagnostics,
        "winning_even": list(report.winning_even.ids()),
        "strategy_even": sorted(report.strategy_even.choice.items()),
        "strategy_odd": sorted(report.strategy_odd.choice.items()),
    }
    return json.loads(json.dumps(out))


def cases():
    return [(f"{name}/{solver}", game, solver) for name, game in games() for solver in SOLVERS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("backend", ["bits", "bdd"])
def test_trajectories_match_the_golden_file(golden, backend):
    keys = []
    for key, game, solver in cases():
        keys.append(key)
        assert record(SOLVERS[solver](game, backend)) == golden[key], key
    assert sorted(keys) == sorted(golden)


if __name__ == "__main__":
    data = {key: record(SOLVERS[solver](game, "bits")) for key, game, solver in cases()}
    GOLDEN.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {len(data)} records to {GOLDEN}")
