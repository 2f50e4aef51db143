"""The explicit lifting solver: the reference every other solver is held to."""

from __future__ import annotations

import random

import pytest

from paritysets import (
    Player,
    RankDomain,
    TOP,
    build_game,
    gen_random,
    solve_explicit_pm,
)
from paritysets.explicit import lift_fixpoint

from conftest import SAMPLE_NAMES, corpus
from oracles import enumerate_dominions_bruteforce, is_dominion


def by_name(result):
    return {SAMPLE_NAMES[v]: r for v, r in enumerate(result.rho)}


def test_sample_fixpoint_is_exact(sample_game):
    res = solve_explicit_pm(sample_game)
    assert by_name(res) == {
        "a": TOP,
        "b": TOP,
        "c": (1, 0),
        "d": (0, 0),
        "e": (0, 1),
        "f": (0, 0),
        "g": (0, 1),
        "h": (2, 0),
    }
    assert res.winning_even == frozenset({2, 3, 4, 5, 6, 7})
    assert res.lift_count > 0
    assert res.domain.caps == (3, 1)
    assert res.domain.size() == 9


def test_fixpoint_is_order_independent(sample_game):
    baseline = solve_explicit_pm(sample_game).rho
    rng = random.Random(5)
    order = list(range(8))
    for _ in range(6):
        rng.shuffle(order)
        assert solve_explicit_pm(sample_game, order=tuple(order)).rho == baseline
    assert solve_explicit_pm(sample_game, order=tuple(reversed(range(8)))).rho == baseline


def test_order_independence_on_random_games():
    rng = random.Random(6)
    for g in corpus(40, seed0=40):
        baseline = solve_explicit_pm(g).rho
        order = list(range(g.vertex_count))
        rng.shuffle(order)
        assert solve_explicit_pm(g, order=tuple(order)).rho == baseline


def test_order_must_be_a_permutation_of_the_vertex_ids():
    # Two odd self-loops: odd wins both, and an order that skips vertex 1
    # would leave it unlifted, below TOP, and so even's.
    g = build_game([0, 0], [1, 1], [[0], [1]])
    assert solve_explicit_pm(g, order=[1, 0]).winning_even == frozenset()
    for order in ([0], [0, 0], [0, 1, 2], [0, 2], [-1, 0]):
        with pytest.raises(ValueError, match="permutation"):
            solve_explicit_pm(g, order=order)
        with pytest.raises(ValueError, match="permutation"):
            lift_fixpoint(g, RankDomain(c=2, caps=(2,)), order)


def test_winning_sets_partition():
    for g in corpus(60, seed0=140):
        res = solve_explicit_pm(g)
        even = set(res.winning_even)
        assert even <= set(range(g.vertex_count))
        # a vertex below TOP is exactly a winning vertex
        for v in range(g.vertex_count):
            remapped_rank = res.rho[v]
            assert (remapped_rank is not TOP) == (v in even)


def test_lift_fixpoint_direct_call():
    # single even self-loop of priority 0: never lifted
    rho, lifts = lift_fixpoint(build_game([0], [0], [[0]]), RankDomain(c=1, caps=()))
    assert rho == [()]
    # single odd-priority self-loop: pumped to TOP
    rho, lifts = lift_fixpoint(build_game([0], [1], [[0]]), RankDomain(c=2, caps=(1,)))
    assert rho == [TOP]
    assert lifts >= 2


def test_brute_force_dominions_tiny():
    # even self-loop next to an odd-priority sink loop
    g = build_game([0, 0], [0, 1], [[0], [0, 1]])
    doms = enumerate_dominions_bruteforce(g, Player.EVEN, 2)
    assert frozenset({0}) in doms
    assert all(is_dominion(g, Player.EVEN, d) for d in doms)
    assert enumerate_dominions_bruteforce(g, Player.ODD, 2) == []


def test_brute_force_matches_is_dominion():
    for g in corpus(30, n_span=5, seed0=220):
        for player in (Player.EVEN, Player.ODD):
            doms = enumerate_dominions_bruteforce(g, player, 3)
            for d in doms:
                assert 0 < len(d) <= 3
                assert is_dominion(g, player, d)
            # anything reported dominion stays one when padded by a checkup
            full = frozenset(solve_explicit_pm(g).winning_even)
            if player is Player.EVEN:
                for d in doms:
                    assert d <= full


def test_players_given_as_ints_match_the_enum():
    g = gen_random(12, 5, 1, 3, 1)
    winning_even = solve_explicit_pm(g).winning_even
    regions = {Player.EVEN: winning_even, Player.ODD: frozenset(range(12)) - winning_even}
    for player, region in regions.items():
        doms = enumerate_dominions_bruteforce(g, int(player), 3)
        assert doms == enumerate_dominions_bruteforce(g, player, 3)
        assert is_dominion(g, int(player), region) and is_dominion(g, player, region)
        for d in doms:
            assert is_dominion(g, int(player), d)
    assert not is_dominion(g, 0, regions[Player.ODD])
    with pytest.raises(ValueError):
        is_dominion(g, 2, winning_even)
    with pytest.raises(ValueError):
        enumerate_dominions_bruteforce(g, 2, 1)


def test_bounded_solve_is_a_dominion_inside_the_full_answer():
    for g in corpus(40, n_span=6, seed0=260):
        full = frozenset(solve_explicit_pm(g).winning_even)
        for h in range(3):
            got = frozenset(solve_explicit_pm(g, bound=h).winning_even)
            assert got <= full
            if got:
                assert is_dominion(g, Player.EVEN, got)
        # brute-force dominions of size <= h+1 are always found
        for h in range(3):
            got = frozenset(solve_explicit_pm(g, bound=h).winning_even)
            for d in enumerate_dominions_bruteforce(g, Player.EVEN, h + 1):
                assert d <= got
