"""Explicit (per-vertex) progress measure solver.

This is the reference implementation the symbolic solvers are tested
against: a plain work-list least-fixpoint lift over the rank domain. With
the full domain the sub-TOP region is exactly the winning region of the
even player; with a bound h it is a dominion of the even player containing
every even dominion of at most h+1 vertices.
"""

from __future__ import annotations

from collections import deque

from .game import ParityGame, Player, normalize_priorities, subgame, swap_roles_increment
from .ranks import TOP, RankDomain


def best_rank(game: ParityGame, domain: RankDomain, rho, v: int):
    """Most favorable successor rank from v: min for Even's vertices, max for Odd's."""
    ranks = [rho[w] for w in game.successors[v]]
    pick = ranks[0]
    for r in ranks[1:]:
        sign = domain.compare(r, pick)
        if game.owner[v] is Player.EVEN:
            if sign < 0:
                pick = r
        elif sign > 0:
            pick = r
    return pick


def lift_rank(game: ParityGame, domain: RankDomain, rho, v: int):
    return domain.incr_at(best_rank(game, domain, rho, v), game.priority[v])


def lift_fixpoint(game: ParityGame, domain: RankDomain, order=None):
    """Least simultaneous fixpoint of the lift operator on `game`.

    Work-list with predecessor re-enqueueing; the result does not depend on
    `order`, a permutation of the vertex ids, because the fixpoint is least.
    Returns (rho, lift evaluations).
    """
    n = game.vertex_count
    rho: list = [domain.zero] * n
    queue = deque(range(n) if order is None else order)
    if order is not None and sorted(queue) != list(range(n)):
        raise ValueError("order is not a permutation of the vertex ids")
    queued = [False] * n
    for v in queue:
        queued[v] = True
    lifts = 0
    while queue:
        v = queue.popleft()
        queued[v] = False
        new = lift_rank(game, domain, rho, v)
        lifts += 1
        if domain.compare(new, rho[v]) > 0:
            rho[v] = new
            for u in game.predecessors[v]:
                if not queued[u]:
                    queued[u] = True
                    queue.append(u)
    return rho, lifts


class ExplicitResult:
    def __init__(self, game: ParityGame, domain: RankDomain, rho: tuple,
                 winning_even: frozenset[int], lift_count: int):
        self.game = game
        self.domain = domain
        self.rho = rho
        self.winning_even = winning_even
        self.lift_count = lift_count


def solve_explicit_pm(
    game: ParityGame,
    bound: int | None = None,
    order=None,
) -> ExplicitResult:
    """Explicit progress measure solve; normalizes first (idempotent)."""
    norm, _ = normalize_priorities(game)
    domain = RankDomain.for_game(norm, bound=bound)
    rho, lifts = lift_fixpoint(norm, domain, order)
    winning = frozenset(v for v in range(norm.vertex_count) if rho[v] is not TOP)
    return ExplicitResult(
        game=norm,
        domain=domain,
        rho=tuple(rho),
        winning_even=winning,
        lift_count=lifts,
    )


def _wins_everywhere(game: ParityGame, player: Player, vertices: frozenset[int]) -> bool:
    sub, _ = subgame(game, vertices)
    if player is Player.ODD:
        sub = swap_roles_increment(sub)
    return len(solve_explicit_pm(sub).winning_even) == len(vertices)

