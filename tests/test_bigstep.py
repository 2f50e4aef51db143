"""Dominion-accelerated recursion: exponent schedule, parameter policies, budgets."""

from __future__ import annotations

import inspect
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysets import Player, bigstep, gen_random, solve_explicit_pm
from paritysets.bigstep import (
    Fixed,
    GammaPolicy,
    SqrtPolicy,
    beta,
    choose_h,
    gamma,
    removal_violations,
    symbolic_big_step,
)
from paritysets.strategy import verify_strategy

from conftest import corpus, ids, ladder, small_games


def test_exponent_values_are_exact():
    assert gamma(3) == Fraction(1)
    assert gamma(4) == Fraction(3, 2)
    assert gamma(5) == Fraction(2)
    assert gamma(6) == Fraction(7, 3)
    assert beta(3) == Fraction(1, 2)
    assert beta(4) == Fraction(1, 2)
    assert beta(5) == Fraction(2, 3)
    with pytest.raises(ValueError):
        gamma(2)
    with pytest.raises(ValueError):
        beta(2)


def test_exponent_recurrences():
    for c in range(4, 65):
        assert gamma(c) == gamma(c - 1) + 1 - beta(c - 1)
        assert beta(c - 1) * math.ceil(c / 2) == gamma(c - 1)


def test_exponent_ranges():
    for c in range(3, 65):
        assert Fraction(1, 2) <= beta(c) <= Fraction(7, 10)
        assert Fraction(c, 3) <= gamma(c) <= Fraction(c, 3) + Fraction(1, 2)


def test_policy_names():
    assert str(SqrtPolicy()) == "sqrt"
    assert str(GammaPolicy()) == "gamma"
    assert str(Fixed(3)) == "fixed:3"


def test_policies_compare_and_hash_by_value():
    assert Fixed(3) == Fixed(3) and hash(Fixed(3)) == hash(Fixed(3))
    assert Fixed(3) != Fixed(4) and SqrtPolicy() == SqrtPolicy() != GammaPolicy()
    assert len({SqrtPolicy(), SqrtPolicy(), GammaPolicy(), Fixed(3), Fixed(3), Fixed(0)}) == 4
    assert repr(Fixed(3)) == "Fixed(h=3)" and repr(SqrtPolicy()) == "SqrtPolicy()"


def test_parameter_schedule():
    assert choose_h(SqrtPolicy(), 8, 8, 5) == math.ceil(math.sqrt(16)) - 2 == 2
    assert choose_h(SqrtPolicy(), 2, 2, 2) == 0
    assert choose_h(SqrtPolicy(), 1, 1, 1) == 0
    for n in (5, 13, 40, 200):
        assert choose_h(SqrtPolicy(), n, n, 4) == math.ceil(math.sqrt(2 * n)) - 2
    # with three or fewer priorities the bounded run may as well be exact
    assert choose_h(GammaPolicy(), 50, 10, 3) == 10
    raw = math.ceil(2 * 5 ** (1 / 3) * 50 ** float(beta(4)))
    assert choose_h(GammaPolicy(), 50, 40, 5) == min(raw, 40) == 25
    assert choose_h(Fixed(7), 10, 4, 3) == 4
    assert choose_h(Fixed(-2), 10, 4, 3) == 0
    with pytest.raises(TypeError):
        choose_h("nope", 1, 1, 3)


@pytest.mark.parametrize("priorities", [2, 5])
def test_unknown_policy_rejected_before_solving(monkeypatch, priorities):
    # With two priorities no level asks the policy for h, so only the
    # up-front check stops it; with five the recursion never starts.
    def no_solve(*args):
        raise AssertionError("solved with an unknown policy")

    monkeypatch.setattr(bigstep, "_solve", no_solve)
    with pytest.raises(TypeError, match="unknown policy 'nonsense'"):
        symbolic_big_step(gen_random(12, priorities, 1, 3, 1), policy="nonsense")


@pytest.mark.parametrize("h", [1.5, "2", None, True])
def test_non_integer_fixed_h_rejected_before_solving(monkeypatch, h):
    def no_solve(*args):
        raise AssertionError("solved with a non-integer h")

    monkeypatch.setattr(bigstep, "_solve", no_solve)
    with pytest.raises(TypeError, match="Fixed needs an int h"):
        symbolic_big_step(gen_random(12, 5, 1, 3, 1), policy=Fixed(h))


def test_sample_run(sample_game):
    rep = symbolic_big_step(sample_game)
    assert ids(rep.winning_even) == frozenset({2, 3, 4, 5, 6, 7})
    assert ids(rep.winning_odd) == frozenset({0, 1})
    assert rep.algorithm == "bigstep"
    c = rep.counters
    assert (c.cpre_ops, c.basic_total, c.peak_live_sets, c.live_sets) == (69, 429, 27, 11)
    d = rep.diagnostics
    assert d["policy"] == "sqrt"
    assert d["violations"] == []
    assert d["levels"] == [{"n_start": 8, "passes": [(2, 2)]}]
    (run,) = d["pm_runs"]
    assert run["n"] == 8 and run["h"] == 2 and run["domain_size"] == 9
    assert run["cpre_ops"] > 0 and run["basic_ops"] > 0


def test_sample_strategies(sample_game):
    rep = symbolic_big_step(sample_game, policy=GammaPolicy(), strategies=True)
    assert rep.strategy_even.choice == {2: 3, 3: 5, 6: 4, 7: 2}
    assert rep.strategy_odd.choice == {1: 0}
    assert rep.counters.live_sets == 11


def test_agreement_across_policies():
    for i, g in enumerate(corpus(45, seed0=1200)):
        expected = solve_explicit_pm(g).winning_even
        policy = (SqrtPolicy(), GammaPolicy(), Fixed(i % 4))[i % 3]
        rep = symbolic_big_step(g, policy=policy)
        assert ids(rep.winning_even) == expected
        assert rep.diagnostics["violations"] == []


def test_many_priorities_agree_and_strategies_verify():
    # One priority per vertex on average, where each level's scan bound and
    # the rescan after a dominion peel matter.
    for seed in range(10):
        g = gen_random(24, 24, 1, 3, seed)
        rep = symbolic_big_step(g, policy=SqrtPolicy(), strategies=True)
        even, odd = ids(rep.winning_even), ids(rep.winning_odd)
        assert even == solve_explicit_pm(g).winning_even
        assert verify_strategy(rep.game, Player.EVEN, even, rep.strategy_even)
        assert verify_strategy(rep.game, Player.ODD, odd, rep.strategy_odd)
        assert rep.diagnostics["violations"] == []


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(small_games(),
       st.sampled_from([SqrtPolicy(), GammaPolicy(), Fixed(0), Fixed(1), Fixed(2), Fixed(4)]),
       st.sampled_from(["bits", "bdd"]))
def test_winners_and_strategies_match_the_oracle(g, policy, backend):
    rep = symbolic_big_step(g, policy=policy, strategies=True, backend=backend)
    even, odd = ids(rep.winning_even), ids(rep.winning_odd)
    assert even == solve_explicit_pm(g).winning_even
    assert not even & odd and len(even | odd) == g.vertex_count
    assert verify_strategy(rep.game, Player.EVEN, even, rep.strategy_even)
    assert verify_strategy(rep.game, Player.ODD, odd, rep.strategy_odd)
    assert rep.diagnostics["violations"] == []


def test_space_stays_linear():
    for g in corpus(40, seed0=1300):
        rep = symbolic_big_step(g)
        assert rep.counters.peak_live_sets <= 4 * (g.vertex_count + g.priority_count)


def test_every_assisted_pass_is_recorded():
    for g in corpus(25, seed0=1400):
        rep = symbolic_big_step(g)
        levels = rep.diagnostics["levels"]
        assisted = sum(
            1 for lv in levels for h, _removed in lv["passes"] if h is not None
        )
        assert assisted == len(rep.diagnostics["pm_runs"])
        for entry in rep.diagnostics["pm_runs"]:
            assert 0 <= entry["h"] <= entry["n"]


def test_removal_violations_reads_the_level_log():
    levels = [
        {"n_start": 10, "passes": [(2, 3), (2, 4), (None, 1)]},  # pass 0 short
        {"n_start": 4, "passes": [(0, 1), (0, 1), (0, 1), (0, 0)]},  # over the cap
    ]
    assert removal_violations(levels) == [
        "level 0: pass 0 removed 3 < h+2 = 4",
        "level 1: pass 0 removed 1 < h+2 = 2",
        "level 1: pass 1 removed 1 < h+2 = 2",
        "level 1: pass 2 removed 1 < h+2 = 2",
        "level 1: 4 assisted passes exceed cap 3",
    ]


def test_fixed_zero_completes_under_a_low_stack_limit():
    # Fixed(0) nests k/2 levels on a ladder: 50 on ladder(100), more than
    # the 40 frames left above this one. The recursion runs on an explicit
    # stack, so the solve needs no Python frame per level.
    game = ladder(100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        rep = symbolic_big_step(game, policy=Fixed(0))
    finally:
        sys.setrecursionlimit(limit)
    assert ids(rep.winning_even) == solve_explicit_pm(game).winning_even
    assert rep.diagnostics["violations"] == []
