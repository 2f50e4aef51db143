"""Certified solves at sizes the n <= 12 corpus never reaches.

The explicit oracle is too slow past a few dozen vertices, but a solve with
both strategies certifies itself: when the two regions partition the
vertices and each side's strategy wins its region under `verify_strategy`,
the answer is right. Every case below checks that, and that the solvers
agree on the winners.
"""

from __future__ import annotations

import pytest

from paritysets import Player
from paritysets.generate import gen_random
from paritysets.strategy import verify_strategy
from paritysets.zielonka import classic_parity

from conftest import ids, ladder
from fingerprint import SOLVERS


def certified_even(rep) -> frozenset[int]:
    """The even region of a solve whose regions and strategies certify it."""
    even, odd = ids(rep.winning_even), ids(rep.winning_odd)
    assert not even & odd and len(even | odd) == rep.game.vertex_count
    assert verify_strategy(rep.game, Player.EVEN, even, rep.strategy_even)
    assert verify_strategy(rep.game, Player.ODD, odd, rep.strategy_odd)
    return even


def agreed_even(game, solvers, backend="bits") -> frozenset[int]:
    winners = {certified_even(SOLVERS[name](game, strategies=True, backend=backend))
               for name in solvers}
    assert len(winners) == 1
    return winners.pop()


@pytest.mark.parametrize("n", [2048, 8192])
def test_zielonka_certifies_thousands_of_vertices(n):
    even = certified_even(classic_parity(gen_random(n, 5, 1, 3, 7), strategies=True))
    assert 0 < len(even) < n


# gamma's schedule spends about 1.5 s at n = 200, so it stops at 150.
@pytest.mark.parametrize("n, solvers", [
    (100, tuple(SOLVERS)),
    (150, tuple(SOLVERS)),
    (200, ("zielonka", "pm", "bigstep-sqrt")),
])
def test_solvers_agree_and_certify_on_random_games(n, solvers):
    agreed_even(gen_random(n, 5, 1, 3, n), solvers)


def test_zielonka_certifies_a_ladder_just_under_the_recursion_limit():
    # 600 nested levels, each won by even and certified with strategies.
    assert certified_even(classic_parity(ladder(600), strategies=True)) == frozenset(range(600))


@pytest.mark.parametrize("k", [9, 12, 16])
def test_solvers_agree_and_certify_on_ladders(k):
    # pm and big-step grow exponentially with the ladder's priorities.
    agreed_even(ladder(k), tuple(SOLVERS))


def test_solvers_agree_and_certify_on_bdd():
    # Small sizes: the bdd backend runs about 4-10x slower than bits per op.
    game = gen_random(64, 5, 1, 3, 1000)
    assert agreed_even(game, tuple(SOLVERS), backend="bdd") == agreed_even(game, tuple(SOLVERS))
    game = ladder(250)
    assert agreed_even(game, ("zielonka",), backend="bdd") == agreed_even(game, ("zielonka",))
