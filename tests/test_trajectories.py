"""Pinned operation trajectories of every symbolic solver.

Each record is one solve with strategies on: every `OpCounters` field, the
solver's diagnostics, the winners and both strategies. Records are compared
after a JSON round trip, and both backends must reproduce the same record.
A change that moves any of these is an algorithmic change; regenerate the
golden file with

    PYTHONPATH=src python tests/test_trajectories.py

which first prints, per solver, how many of its records moved in each
field against the old file, and per counter its sum over all records
before and after and how many records rose; say so in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritysets import build_game, gen_random
from paritysets.bigstep import GammaPolicy, SqrtPolicy, symbolic_big_step
from paritysets.measure import solve_pm_symbolic
from paritysets.zielonka import classic_parity

import fingerprint
from conftest import small_games


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
        "counters": dict(vars(report.counters)),
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


def _relabel(game, perm):
    """The same game with vertex v renamed perm[v]; successor order kept."""
    n = game.vertex_count
    owners, priorities, succs = [0] * n, [0] * n, [None] * n
    for v in range(n):
        owners[perm[v]] = int(game.owner[v])
        priorities[perm[v]] = game.priority[v]
        succs[perm[v]] = [perm[w] for w in game.successors[v]]
    return build_game(owners, priorities, succs)


@st.composite
def relabelled(draw, games):
    """(game, relabelling, backend): a game drawn from `games`, its vertices
    renamed at random, about a quarter of them on bdd."""
    game = draw(games)
    perm = draw(st.permutations(range(game.vertex_count)))
    return game, perm, "bdd" if draw(st.integers(0, 3)) == 1 else "bits"


# A few random games at n = 40-43, each drawn beside the small ones.
_LARGE_GAMES = [gen_random(40 + i, 5, 1, 3, 4400 + i) for i in range(4)]


@settings(derandomize=True, max_examples=80, database=None, deadline=None)
@given(relabelled(small_games() | st.sampled_from(_LARGE_GAMES)))
@example((_LARGE_GAMES[3], list(range(42, -1, -1)), "bdd"))
def test_counters_are_blind_to_vertex_ids(case):
    # The benchmark's fixed catalogue relies on this: relabelling a game's
    # vertices moves no counter of any solver, strategies included.
    game, perm, backend = case
    renamed = _relabel(game, perm)
    for solver, solve in SOLVERS.items():
        a, b = solve(game, backend), solve(renamed, backend)
        assert vars(a.counters) == vars(b.counters), solver
        assert sorted(perm[v] for v in a.winning_even.ids()) == list(b.winning_even.ids())


def test_fingerprint_prints_a_digest_per_catalogue_solver_and_mode(capsys):
    assert fingerprint.main(["--games", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = dict(reversed(line.split("  ", 1)) for line in lines)
    # 24 solver lines, 7 lines of single measure runs, then one loader line
    # per catalogue.
    assert len(digests) == len(lines) == 35
    assert "pm-random pm-run linear h=2 swap=1" in digests
    assert "zielonka-wide loader" in digests
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    # Both backends count and answer alike, so bdd repeats the bits lines.
    for solver in fingerprint.SOLVERS:
        assert (digests[f"pm-random {solver} strategies=1 backend=bdd"]
                == digests[f"pm-random {solver} strategies=1 backend=bits"])


def fields(rec: dict) -> dict:
    """A record flattened to named fields. A list of dicts (a big-step
    diagnostic) splits into one field per key, `name[*].key`, that holds
    the list of its values."""
    out = {f"counters.{k}": v for k, v in rec["counters"].items()}
    for k, v in rec["diagnostics"].items():
        if isinstance(v, list) and v and all(isinstance(item, dict) for item in v):
            for sub in sorted({s for item in v for s in item}):
                out[f"diagnostics.{k}[*].{sub}"] = [item.get(sub) for item in v]
        else:
            out[f"diagnostics.{k}"] = v
    for k in ("winning_even", "strategy_even", "strategy_odd"):
        out[k] = rec[k]
    return out


def moved(old: dict, new: dict) -> dict:
    """Per solver, then per field, how many records of `new` differ from
    `old` in it."""
    counts: dict = {}
    for key, rec in new.items():
        per_field = counts.setdefault(key.split("/")[1], {})
        before = fields(old[key]) if key in old else {}
        for name, value in fields(rec).items():
            per_field[name] = per_field.get(name, 0) + (before.get(name) != value)
    return counts


def counter_sums(old: dict, new: dict) -> dict:
    """Per `counters.*` field: (sum over `old`, sum over `new`, how many
    records present in both rose)."""
    out = {}
    for name in sorted({name for rec in new.values() for name in rec["counters"]}):
        before = {key: rec["counters"].get(name, 0) for key, rec in old.items()}
        after = {key: rec["counters"][name] for key, rec in new.items()}
        rose = sum(key in before and value > before[key] for key, value in after.items())
        out[f"counters.{name}"] = (sum(before.values()), sum(after.values()), rose)
    return out


if __name__ == "__main__":
    data = {key: record(SOLVERS[solver](game, "bits")) for key, game, solver in cases()}
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text())
        print(f"records: {len(old)} before, {len(data)} now, "
              f"{len(set(data) - set(old))} added, {len(set(old) - set(data))} removed")
        for solver, per_field in moved(old, data).items():
            total = sum(key.endswith(f"/{solver}") for key in data)
            changed = [f"{name} {count}" for name, count in sorted(per_field.items()) if count]
            print(f"{solver} ({total} records): {', '.join(changed) or 'no field moved'}")
        for name, (before, after, rose) in counter_sums(old, data).items():
            print(f"{name}: sum {before} -> {after}, {rose} records rose")
    GOLDEN.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {len(data)} records to {GOLDEN}")
