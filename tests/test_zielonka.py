"""Attractors and the classic recursive solver."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from paritysets import Player, bigstep, build_game, gen_random, solve_explicit_pm, zielonka
from paritysets.bigstep import symbolic_big_step
from paritysets.game import normalize_priorities
from paritysets.report import SolveReport
from paritysets.sets import SetSpace
from paritysets.strategy import extract_attractor_strategies, verify_strategy
import pytest

from paritysets.zielonka import (
    RecursionDepthExceeded,
    _solve,
    _top_priority,
    attractor,
    classic_parity,
)

from conftest import corpus, ids, ladder, small_games
from oracles import is_trap
from reference_zielonka import reference_solve


def test_attractor_on_the_sample(sample_game):
    space = SetSpace(sample_game)
    target = space.singleton(3)
    res = attractor(sample_game, Player.EVEN, target, want_strategy=True)
    assert ids(res.attractor) == frozenset({2, 3, 4, 5, 6, 7})
    # even-owned vertices point one layer inward; target and odd vertices get none
    assert res.strategy_edges == {2: 3, 6: 4, 7: 2}


def test_attractor_defaults_keep_nothing(sample_game):
    space = SetSpace(sample_game)
    target = space.singleton(3)
    res = attractor(sample_game, Player.EVEN, target)
    assert res.strategy_edges is None
    space.release(res.attractor, target)


def test_attractor_respects_within(sample_game):
    space = SetSpace(sample_game)
    target = space.singleton(3)
    window = space.from_ids([2, 3, 4])
    res = attractor(sample_game, Player.EVEN, target, within=window)
    assert ids(res.attractor) == frozenset({2, 3, 4})


def test_attractor_one_step_budget():
    # Each round spends one cpre and one containment test, and each round
    # that grows the set one union; the final containment test finds nothing
    # new. Nothing else is spent.
    rng = random.Random(11)
    for g in corpus(40, seed0=800):
        space = SetSpace(g)
        seed = rng.randrange(g.vertex_count)
        target = space.singleton(seed)
        player = Player.EVEN if rng.random() < 0.5 else Player.ODD
        before = space.counters.snapshot()
        res = attractor(g, player, target)
        c = space.counters
        spent = c.cpre_ops - before.cpre_ops
        grown = res.attractor.count() - target.count()
        assert spent <= grown + 2
        assert c.containment_tests - before.containment_tests == spent
        assert c.unions - before.unions == spent - 1
        assert c.differences == before.differences
        assert c.equality_tests == before.equality_tests
        assert c.intersections == before.intersections
        assert space.is_subset(target, res.attractor)


def test_players_given_as_ints_match_the_enum():
    g = gen_random(12, 5, 1, 3, 1)
    space = SetSpace(g)
    region = range(6)
    for player in Player:
        for v in range(g.vertex_count):
            target = space.singleton(v)
            by_int = attractor(g, int(player), target, want_strategy=True)
            by_enum = attractor(g, player, target, want_strategy=True)
            assert ids(by_int.attractor) == ids(by_enum.attractor)
            assert by_int.strategy_edges == by_enum.strategy_edges
        assert is_trap(g, int(player), region) == is_trap(g, player, region)
    with pytest.raises(ValueError):
        attractor(g, 2, space.singleton(0))


@pytest.mark.parametrize("player", list(Player))
def test_attractor_strategy_probes_only_the_new_vertices_successors(player):
    # The player owns every vertex; vertex v moves only to v - 1 and vertex
    # 0 to itself, so {0} grows by one vertex a round. Each attracted vertex
    # is probed once, in the round it joins, not on every round after.
    n = 12
    chain = build_game([int(player)] * n, [0] * n,
                       [[0]] + [[v - 1] for v in range(1, n)])
    space = SetSpace(chain)
    calls = []
    real = space._backend.first_successor_in
    space._backend.first_successor_in = lambda v, s: calls.append(v) or real(v, s)
    res = attractor(chain, player, space.singleton(0), want_strategy=True)
    assert ids(res.attractor) == frozenset(range(n))
    assert res.strategy_edges == {v: v - 1 for v in range(1, n)}
    assert calls == list(range(1, n))


def test_winning_regions_are_traps_for_the_loser():
    for g in corpus(40, seed0=870):
        w_even = solve_explicit_pm(g).winning_even
        w_odd = frozenset(range(g.vertex_count)) - w_even
        assert is_trap(g, Player.ODD, w_even)
        assert is_trap(g, Player.EVEN, w_odd)


def test_is_trap_detects_escapes(sample_game):
    odd_region = {0, 1}
    assert is_trap(sample_game, Player.EVEN, odd_region)
    # vertex 1 is odd-owned and may step to 3, outside the region
    assert not is_trap(sample_game, Player.ODD, odd_region)
    everything = range(sample_game.vertex_count)
    assert is_trap(sample_game, Player.EVEN, everything)
    assert is_trap(sample_game, Player.ODD, everything)


def test_sample_solve_counts(sample_game):
    rep = classic_parity(sample_game)
    assert ids(rep.winning_even) == frozenset({2, 3, 4, 5, 6, 7})
    assert ids(rep.winning_odd) == frozenset({0, 1})
    assert rep.algorithm == "zielonka"
    c = rep.counters
    assert (c.cpre_ops, c.basic_total, c.peak_live_sets, c.live_sets) == (11, 37, 15, 11)


def test_sample_strategies(sample_game):
    rep = classic_parity(sample_game, strategies=True)
    assert rep.strategy_even.choice == {2: 3, 3: 5, 6: 4, 7: 2}
    assert rep.strategy_odd.choice == {1: 0}
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


# (basic_total, cpre_ops) per ladder size. The test ids name k alone, so a
# change that re-pins the counts keeps the tests' names.
LADDER_COUNTS = {7: (51, 13), 8: (61, 16), 31: (231, 61), 200: (1501, 400), 201: (1506, 401)}


@pytest.mark.parametrize("backend", ["bits", "bdd"])
@pytest.mark.parametrize("k", sorted(LADDER_COUNTS))
def test_ladder_counts_are_linear_in_the_priorities(backend, k):
    # Each level scans only the classes below its parent's top priority, so
    # the scans cost O(k) ops in all, not one full rescan per level.
    basic, cpre = LADDER_COUNTS[k]
    c = classic_parity(ladder(k), backend=backend).counters
    assert (c.basic_total, c.cpre_ops, c.peak_live_sets) == (basic, cpre, 2 * k + 7)
    assert c.basic_total <= 8 * k


def test_top_priority_of_an_empty_set_costs_one_test():
    space = SetSpace(ladder(40))
    before = space.counters.snapshot()
    assert _top_priority(space, space.empty.payload, 39) == (-1, None)
    c = space.counters
    assert c.equality_tests - before.equality_tests == 1
    assert c.basic_total - before.basic_total == 1  # so no intersection
    assert (c.live_sets, c.peak_live_sets) == (before.live_sets, before.peak_live_sets)


def test_top_priority_scans_from_the_bound_down():
    space = SetSpace(ladder(40))
    live = space.from_ids(range(10))
    before = space.counters.snapshot()
    p, cls = _top_priority(space, live.payload, 12)
    assert p == 9 and space._backend.ids(cls) == (9,)
    # one emptiness test of live, then classes 12, 11, 10 and 9, one at a
    # time; the class found stays counted as a live set
    c = space.counters
    assert c.intersections - before.intersections == 4
    assert c.equality_tests - before.equality_tests == 5
    assert c.live_sets == before.live_sets + 1
    assert c.peak_live_sets == max(before.peak_live_sets, c.live_sets)


@pytest.mark.parametrize("backend", ["bits", "bdd"])
@pytest.mark.parametrize("n", [20, 40, 80])
def test_many_priorities_agree_and_strategies_verify(backend, n):
    # One priority per vertex on average: the bound on each level's scan
    # only matters when priorities are many, and the corpus stops at c <= 7.
    for seed in range(6):
        g = gen_random(n, n, 1, 3, seed)
        rep = classic_parity(g, strategies=True, backend=backend)
        even, odd = ids(rep.winning_even), ids(rep.winning_odd)
        # Regions that split the game, each won by its strategy, certify the
        # answer on their own.
        assert not even & odd and len(even | odd) == n
        assert verify_strategy(rep.game, Player.EVEN, even, rep.strategy_even)
        assert verify_strategy(rep.game, Player.ODD, odd, rep.strategy_odd)
        # The explicit lifting is exponential in the priority count and takes
        # seconds to minutes per game at n=80.
        if n <= 40:
            assert even == solve_explicit_pm(g).winning_even


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(small_games(), st.sampled_from(["bits", "bdd"]))
def test_winners_and_strategies_match_the_oracle(g, backend):
    rep = classic_parity(g, strategies=True, backend=backend)
    even, odd = ids(rep.winning_even), ids(rep.winning_odd)
    assert even == solve_explicit_pm(g).winning_even
    assert not even & odd and len(even | odd) == g.vertex_count
    assert verify_strategy(rep.game, Player.EVEN, even, rep.strategy_even)
    assert verify_strategy(rep.game, Player.ODD, odd, rep.strategy_odd)


def test_reports_never_share_a_diagnostics_dict(sample_game):
    first, second = classic_parity(sample_game), classic_parity(sample_game)
    first.diagnostics["seen"] = True
    assert second.diagnostics == {}
    built = [SolveReport(None, None, None, "x", 0.0, None) for _ in range(2)]
    built[0].diagnostics["seen"] = True
    assert built[1].diagnostics == {}


def _answer(rep) -> tuple:
    return (dict(vars(rep.counters)), ids(rep.winning_even), ids(rep.winning_odd),
            rep.strategy_even.choice, rep.strategy_odd.choice, rep.diagnostics)


def _repeats_the_reference(solve) -> bool:
    """Whether `solve()` answers as it does with both solvers recursing
    through `reference_solve`."""
    saved = zielonka._solve, bigstep._solve
    zielonka._solve = bigstep._solve = reference_solve
    try:
        expected = _answer(solve())
    finally:
        zielonka._solve, bigstep._solve = saved
    return _answer(solve()) == expected


# Random games of 2-40 vertices and 1-16 priorities, five seeds each. Many
# levels make several passes, and in about one game in twenty a level's
# later pass scans from below its first pass's bound.
_GRID = [gen_random(n, c, 1, 3, seed)
         for n in range(2, 41, 3) for c in range(1, 17, 3) for seed in range(5)]


@pytest.mark.parametrize("backend", ["bits", "bdd"])
def test_the_loop_repeats_the_set_level_recursion(backend):
    # Every counter, the peak included, every winner and choice, and
    # big-step's level log and dominion runs, as the recursion on sets
    # leaves them. Big-step, and bdd (several times slower per op), run on
    # the games of at most 14 vertices.
    for g in _GRID:
        small = g.vertex_count <= 14
        if small or backend == "bits":
            assert _repeats_the_reference(
                lambda: classic_parity(g, strategies=True, backend=backend))
        if small:
            assert _repeats_the_reference(
                lambda: symbolic_big_step(g, strategies=True, backend=backend))


class _Recording(dict):
    """A choice map that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_later_passes_write_over_the_choices_of_earlier_ones():
    # `_solve` keeps one map per player for the whole solve, and a pass
    # writes over the entries of the vertices it revisits. Over the grid some
    # entry is written more than once, and some entry is left standing
    # outside its owner's winning region; extraction drops those, and what it
    # keeps wins.
    rewritten = stale = 0
    for g in _GRID:
        norm = normalize_priorities(g)[0]
        space = SetSpace(norm)
        maps = (_Recording(), _Recording())
        wins = _solve(norm, space, space.copy(space.full), 0, norm.priority_count + 2, maps)
        regions = [frozenset() if wins[p] is None else ids(wins[p]) for p in Player]
        for p in Player:
            rewritten += any(n > 1 for n in maps[p].writes.values())
            stale += any(v not in regions[p] for v in maps[p])
        strategies = extract_attractor_strategies(norm, *regions, *maps)
        for p in Player:
            assert verify_strategy(norm, p, regions[p], strategies[p])
    assert rewritten and stale


def test_deep_ladder_solves():
    # 1200 nested levels, more than Python's default stack of 1000 frames:
    # the recursion runs on an explicit stack. The counts follow
    # LADDER_COUNTS' pattern: 7.5k + 1 basic ops, 2k cpre, peak 2k + 7.
    k = 1200
    rep = classic_parity(ladder(k))
    assert ids(rep.winning_even) == frozenset(range(k))
    c = rep.counters
    assert (c.basic_total, c.cpre_ops, c.peak_live_sets) == (9001, 2400, 2 * k + 7)


@pytest.mark.parametrize("max_depth", [0, 5, 30])
def test_solve_past_its_depth_limit_raises(max_depth):
    # ladder(40) nests 40 levels below the outermost one.
    game = ladder(40)
    space = SetSpace(game)
    with pytest.raises(RecursionDepthExceeded, match=f"exceeded {max_depth} levels"):
        _solve(game, space, space.copy(space.full), 0, max_depth, None)
    space = SetSpace(game)
    wins = _solve(game, space, space.copy(space.full), 0, 40, None)
    assert ids(wins[Player.EVEN]) == frozenset(range(40)) and wins[Player.ODD] is None
