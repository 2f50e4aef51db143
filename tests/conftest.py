"""Shared fixtures: the eight-vertex sample game and seeded corpora."""

from __future__ import annotations

import pytest

from paritysets import build_game, gen_random


# Eight vertices named a..h, two counters (odd priorities 1 and 3), one
# priority-4 vertex. Small enough to check every rank by hand, rich enough
# to exercise the roll-back path of the measure iteration.
SAMPLE_OWNERS = [0, 1, 0, 0, 1, 1, 0, 0]
SAMPLE_PRIOS = [1, 0, 1, 0, 3, 4, 2, 1]
SAMPLE_SUCCS = [[1], [0, 3], [1, 3], [5], [3], [6], [4], [2, 6]]
SAMPLE_NAMES = "abcdefgh"


@pytest.fixture
def sample_game():
    return build_game(SAMPLE_OWNERS, SAMPLE_PRIOS, SAMPLE_SUCCS, names=SAMPLE_NAMES)


def corpus(count: int, *, n_lo: int = 2, n_span: int = 11, c_span: int = 6,
           seed0: int = 0, max_deg: int = 3):
    """Deterministic stream of random games, one per seed."""
    for seed in range(count):
        yield gen_random(
            n=n_lo + seed % n_span,
            c=1 + seed % c_span,
            min_deg=1,
            max_deg=max_deg,
            seed=seed0 + seed,
        )


def ids(vertex_set) -> frozenset[int]:
    return frozenset(vertex_set.ids())


def ladder(k: int):
    """Many-priority ladder: vertex i has priority i, belongs to the player
    of the other parity and moves to i and i-1 (vertex 0 only to itself)."""
    owners = [1 - i % 2 for i in range(k)]
    succs = [[i] if i == 0 else [i - 1, i] for i in range(k)]
    return build_game(owners, list(range(k)), succs)
