"""Attractors and the classic recursive solver."""

from __future__ import annotations

import random

from paritysets import Player, solve_explicit_pm
from paritysets.sets import SetSpace
import pytest

from paritysets.zielonka import RecursionDepthExceeded, attractor, classic_parity, is_trap

from conftest import corpus, ids, ladder


def test_attractor_on_the_sample(sample_game):
    space = SetSpace(sample_game)
    target = space.singleton(3)
    res = attractor(sample_game, Player.EVEN, target, keep_layers=True, want_strategy=True)
    assert ids(res.attractor) == frozenset({2, 3, 4, 5, 6, 7})
    assert [sorted(layer.ids()) for layer in res.layers] == [[3], [2, 4], [6, 7], [5]]
    # even-owned vertices point one layer inward; target and odd vertices get none
    assert res.strategy_edges == {2: 3, 6: 4, 7: 2}


def test_attractor_defaults_keep_nothing(sample_game):
    space = SetSpace(sample_game)
    target = space.singleton(3)
    res = attractor(sample_game, Player.EVEN, target)
    assert res.layers is None and res.strategy_edges is None
    space.release(res.attractor, target)


def test_attractor_respects_within(sample_game):
    space = SetSpace(sample_game)
    target = space.singleton(3)
    window = space.from_ids([2, 3, 4])
    res = attractor(sample_game, Player.EVEN, target, within=window)
    assert ids(res.attractor) == frozenset({2, 3, 4})


def test_attractor_one_step_budget():
    # one cpre per growth round plus the final emptiness check
    rng = random.Random(11)
    for g in corpus(40, seed0=800):
        space = SetSpace(g)
        seed = rng.randrange(g.vertex_count)
        target = space.singleton(seed)
        player = Player.EVEN if rng.random() < 0.5 else Player.ODD
        before = space.counters.cpre_ops
        res = attractor(g, player, target)
        spent = space.counters.cpre_ops - before
        grown = res.attractor.count() - target.count()
        assert spent <= grown + 2
        assert space.is_subset(target, res.attractor)


def test_winning_regions_are_traps_for_the_loser():
    for g in corpus(40, seed0=870):
        even_ids = solve_explicit_pm(g).winning_even
        space = SetSpace(g)
        w_even = space.from_ids(sorted(even_ids))
        w_odd = space.difference(space.full, w_even)
        if not space.is_empty(w_even):
            assert is_trap(g, Player.ODD, w_even)
        if not space.is_empty(w_odd):
            assert is_trap(g, Player.EVEN, w_odd)


def test_is_trap_detects_escapes(sample_game):
    space = SetSpace(sample_game)
    odd_region = space.from_ids([0, 1])
    assert is_trap(sample_game, Player.EVEN, odd_region)
    # vertex 1 is odd-owned and may step to 3, outside the region
    assert not is_trap(sample_game, Player.ODD, odd_region)
    assert is_trap(sample_game, Player.EVEN, space.full)
    assert is_trap(sample_game, Player.ODD, space.full)


def test_sample_solve_counts(sample_game):
    rep = classic_parity(sample_game)
    assert ids(rep.winning_even) == frozenset({2, 3, 4, 5, 6, 7})
    assert ids(rep.winning_odd) == frozenset({0, 1})
    assert rep.algorithm == "zielonka"
    c = rep.counters
    assert (c.cpre_ops, c.basic_total, c.peak_live_sets, c.live_sets) == (11, 68, 15, 11)


def test_sample_strategies(sample_game):
    rep = classic_parity(sample_game, strategies=True)
    assert rep.strategy_even.choice == {2: 3, 3: 5, 6: 4, 7: 2}
    assert rep.strategy_odd.choice == {1: 0}
    assert rep.trace is None  # the recursive solvers keep no iteration trace
    # every chosen edge exists and stays inside the owner's winning region
    even = ids(rep.winning_even)
    for v, w in rep.strategy_even.choice.items():
        assert w in rep.game.successors[v]
        assert v in even and w in even


def test_agrees_with_explicit_solver():
    for g in corpus(60, seed0=950):
        assert ids(classic_parity(g).winning_even) == solve_explicit_pm(g).winning_even


def test_peak_depends_on_priorities_not_size():
    for g in corpus(50, seed0=1100):
        rep = classic_parity(g)
        c = rep.counters
        assert c.peak_live_sets <= 4 * g.priority_count + 8
        # live at the end: both winning sets over the pinned base sets
        assert c.live_sets == (4 + rep.game.priority_count) + 2


def test_deep_ladder_raises_depth_error():
    # 1200 nested priorities outgrow Python's default stack of 1000 frames.
    with pytest.raises(RecursionDepthExceeded, match="1200 priorities") as err:
        classic_parity(ladder(1200))
    assert isinstance(err.value.__cause__, RecursionError)
