"""The four benchmark workloads and the game files they feed the solver.

Each workload is a fixed catalogue of game structures plus the solver flags
that `paritysets solve` gets. The run seed does not pick new structures: it
relabels vertex ids (RELABELS files per structure) and shuffles the order in
which a round visits the catalogue. The cost of one random game varies about
tenfold between structures, so drawing fresh structures per seed moved the
per-run p50 and p90 by 8-25% between seeds at 100-250 games a run; with a
fixed catalogue decided in whole rounds, the seed moves only the input text.
Relabelling does not change the work: every solver here is blind to vertex
ids, so the operation counts repeat exactly across seeds.

Verdicts are checked against the explicit oracle, solved once per structure
and mapped through each file's relabelling.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from paritysets import (
    ParityGame,
    ParseError,
    build_game,
    emit_pgsolver,
    gen_random,
    parse_solution,
    solve_explicit_pm,
)

# A verdict slower than this counts as failed.
GAME_TIME_LIMIT_S = 10.0
# Relabelled files written per catalogue structure.
RELABELS = 4
# p90 needs ten verdicts beyond it.
MIN_VERDICTS = 100

# The eight-vertex sample game of the test suite, used for the warm-up solve.
SAMPLE_GAME = """parity 7;
0 1 0 1;
1 0 1 0,3;
2 1 0 1,3;
3 0 0 5;
4 3 1 3;
5 4 1 6;
6 2 0 4;
7 1 0 2,6;
"""


def ladder(k: int) -> ParityGame:
    """Many-priority ladder: vertex i has priority i, belongs to the player
    of the other parity and moves to i and i-1 (vertex 0 only to itself)."""
    owners = [1 - i % 2 for i in range(k)]
    succs = [[i] if i == 0 else [i - 1, i] for i in range(k)]
    return build_game(owners, list(range(k)), succs)


def _random_games(sizes, seed0: int) -> list[ParityGame]:
    return [gen_random(n, 5, 1, 3, seed0 + i) for i, n in enumerate(sizes)]


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    catalogue: Callable[[], list[ParityGame]]
    # Every trace_stride-th catalogue entry is decided in the traced run; a
    # fixed choice keeps the traced games, and so the counts, off the clock.
    trace_stride: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pm-random", ("--algo", "pm"),
                 lambda: _random_games(range(64, 97), 1000), trace_stride=4),
        Workload("zielonka-wide", (),
                 lambda: _random_games([2048] * 8, 0), trace_stride=2),
        Workload("zielonka-ladder", (),
                 lambda: [ladder(k) for k in range(200, 381, 10)], trace_stride=3),
        Workload("bigstep-random", ("--algo", "bigstep", "--policy", "sqrt"),
                 lambda: _random_games(range(32, 65), 3000), trace_stride=4),
    )
}


def relabel(game: ParityGame, perm: list[int]) -> ParityGame:
    """The same game with vertex v renamed perm[v]."""
    n = game.vertex_count
    owners = [0] * n
    prios = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        u = perm[v]
        owners[u] = int(game.owner[v])
        prios[u] = game.priority[v]
        succs[u] = sorted(perm[w] for w in game.successors[v])
    return build_game(owners, prios, succs)


def round_order(seed: int, round_index: int, entries: int) -> list[int]:
    """The seeded order in which one round visits the catalogue."""
    order = list(range(entries))
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order


def write_pool(workload: Workload, seed: int, directory: str, limit: int | None = None) -> dict:
    """Write the seeded game files of a workload and return the manifest.

    Files are indexed entry * RELABELS + r. The manifest carries, per file,
    the winner (0 or 1) the oracle expects at each vertex id. `limit` keeps
    only the first catalogue entries (for tests).
    """
    games = workload.catalogue()[:limit]
    rng = random.Random(seed)
    files = []
    expected = []
    for e, game in enumerate(games):
        oracle = solve_explicit_pm(game).winning_even
        for r in range(RELABELS):
            perm = list(range(game.vertex_count))
            rng.shuffle(perm)
            path = os.path.join(directory, f"e{e:03d}_r{r}.gm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(emit_pgsolver(relabel(game, perm)))
            winners = [0] * game.vertex_count
            for v in range(game.vertex_count):
                winners[perm[v]] = 0 if v in oracle else 1
            files.append(path)
            expected.append(winners)
    sample = os.path.join(directory, "sample.gm")
    with open(sample, "w", encoding="utf-8") as fh:
        fh.write(SAMPLE_GAME)
    manifest = {
        "workload": workload.name,
        "seed": seed,
        "flags": list(workload.flags),
        "entries": len(games),
        "files": files,
        "sample": sample,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    manifest["expected"] = expected
    return manifest


def verdict_ok(text: str, winners: list[int]) -> bool:
    """True when an emitted solution names the oracle's winner at every vertex."""
    try:
        solution = parse_solution(text)
    except ParseError:
        return False
    if set(solution) != set(range(len(winners))):
        return False
    return all(solution[v][0] == w for v, w in enumerate(winners))
