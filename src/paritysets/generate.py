"""Seeded random game generation."""

from __future__ import annotations

import random

from .game import ParityGame, build_game


def gen_random(
    n: int, c: int, min_deg: int, max_deg: int, seed: int
) -> ParityGame:
    """Random game: owners and priorities uniform, out-degrees uniform in
    [min_deg, max_deg] with both ends capped at n, successors sampled without
    repetition.
    Same seed, same game.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if c < 1:
        raise ValueError("need at least one priority")
    if not 1 <= min_deg <= max_deg:
        raise ValueError("need 1 <= min_deg <= max_deg")
    rng = random.Random(seed)
    owners = [rng.randrange(2) for _ in range(n)]
    priorities = [rng.randrange(c) for _ in range(n)]
    succs = []
    for _ in range(n):
        deg = rng.randint(min(min_deg, n), min(max_deg, n))
        succs.append(sorted(rng.sample(range(n), deg)))
    return build_game(owners, priorities, succs)
