"""Strategy extraction, packaging, and the independent winning check."""

from __future__ import annotations

import pytest

from paritysets import Player, build_game, solve_explicit_pm
from paritysets.measure import solve_pm_symbolic, symbolic_parity_dominion
from paritysets.strategy import (
    IncompleteStrategy,
    Strategy,
    StrategyLeavesW,
    extract_strategy_from_pm,
    verify_strategy,
)
from paritysets.zielonka import classic_parity

from conftest import corpus, ids


EVEN_REGION = frozenset({2, 3, 4, 5, 6, 7})
ODD_REGION = frozenset({0, 1})


def test_extraction_from_the_sample_run(sample_game):
    run = symbolic_parity_dominion(sample_game)
    strat = extract_strategy_from_pm(run.game, run.state)
    assert strat.player is Player.EVEN
    assert strat.choice == {2: 3, 3: 5, 6: 4, 7: 2}
    assert strat.domain == frozenset({2, 3, 6, 7})
    assert verify_strategy(run.game, Player.EVEN, EVEN_REGION, strat)


def test_extracted_choices_respect_rank_order(sample_game):
    # each pick may not worsen the rank at the source's priority level:
    # strictly better after an odd priority, no worse after an even one
    res = solve_explicit_pm(sample_game)
    rep = solve_pm_symbolic(sample_game, strategies=True)
    dom = res.domain
    for v, w in rep.strategy_even.choice.items():
        level = sample_game.priority[v]
        cmp = dom.compare(res.rho[w], res.rho[v], level=level)
        assert cmp < 0 if level % 2 else cmp <= 0


def test_alternative_winning_strategy_fails_the_rank_order(sample_game):
    # g -> e wins but climbs in rank at g's even priority; the verifier
    # accepts it while the rank-order reading of the run never emits it
    alt = Strategy(player=Player.EVEN, domain=frozenset({2, 3, 6, 7}),
                   choice={2: 3, 3: 5, 6: 4, 7: 6})
    assert verify_strategy(sample_game, Player.EVEN, EVEN_REGION, alt)
    res = solve_explicit_pm(sample_game)
    dom = res.domain
    violations = []
    for v, w in alt.choice.items():
        level = sample_game.priority[v]
        cmp = dom.compare(res.rho[w], res.rho[v], level=level)
        if cmp >= (0 if level % 2 else 1):
            violations.append(v)
    assert violations == [7]


def test_odd_strategy_from_swapped_run(sample_game):
    rep = solve_pm_symbolic(sample_game, strategies=True)
    assert rep.strategy_odd.player is Player.ODD
    assert rep.strategy_odd.choice == {1: 0}
    assert verify_strategy(rep.game, Player.ODD, ODD_REGION, rep.strategy_odd)


def test_recursive_solver_strategies_verify():
    for g in corpus(35, seed0=1500):
        rep = classic_parity(g, strategies=True)
        even_ids = ids(rep.winning_even)
        odd_ids = ids(rep.winning_odd)
        assert verify_strategy(rep.game, Player.EVEN, even_ids, rep.strategy_even)
        assert verify_strategy(rep.game, Player.ODD, odd_ids, rep.strategy_odd)


def test_measure_solver_strategies_verify():
    for g in corpus(25, seed0=1600):
        rep = solve_pm_symbolic(g, strategies=True)
        assert verify_strategy(rep.game, Player.EVEN, ids(rep.winning_even), rep.strategy_even)
        assert verify_strategy(rep.game, Player.ODD, ids(rep.winning_odd), rep.strategy_odd)


def test_choice_map_must_cover_domain_exactly():
    with pytest.raises(IncompleteStrategy):
        Strategy(player=Player.EVEN, domain=frozenset({1, 2}), choice={1: 0})
    with pytest.raises(IncompleteStrategy):
        Strategy(player=Player.EVEN, domain=frozenset(), choice={1: 0})


def test_verify_rejects_wrong_player(sample_game):
    strat = Strategy(player=Player.EVEN, domain=frozenset(), choice={})
    with pytest.raises(ValueError):
        verify_strategy(sample_game, Player.ODD, EVEN_REGION, strat)


def test_verify_raises_when_a_choice_exits_the_region(sample_game):
    # d -> f replaced by nothing reachable inside: send c to b instead
    leaky = Strategy(player=Player.EVEN, domain=frozenset({2, 3, 6, 7}),
                     choice={2: 1, 3: 5, 6: 4, 7: 2})
    with pytest.raises(StrategyLeavesW) as err:
        verify_strategy(sample_game, Player.EVEN, EVEN_REGION, leaky)
    assert err.value.vertex == 2


def test_verify_fails_on_missing_or_losing_choices(sample_game):
    # missing pick at 7
    partial = Strategy(player=Player.EVEN, domain=frozenset({2, 3, 6}),
                       choice={2: 3, 3: 5, 6: 4})
    assert not verify_strategy(sample_game, Player.EVEN, EVEN_REGION, partial)
    # the opponent can escape any region missing vertex 3
    small = Strategy(player=Player.EVEN, domain=frozenset({6, 7}),
                     choice={6: 4, 7: 6})
    assert not verify_strategy(sample_game, Player.EVEN, frozenset({4, 6, 7}), small)
    # a pinned loop through the odd priority at e loses even though it stays inside
    looping = build_game([0, 1], [1, 0], [[0, 1], [0]])
    bad = Strategy(player=Player.EVEN, domain=frozenset({0}), choice={0: 0})
    assert not verify_strategy(looping, Player.EVEN, frozenset({0, 1}), bad)


def test_verify_accepts_empty_region(sample_game):
    strat = Strategy(player=Player.EVEN, domain=frozenset(), choice={})
    assert verify_strategy(sample_game, Player.EVEN, frozenset(), strat)


def test_packaging_rejects_gaps_and_foreign_edges(sample_game):
    from paritysets.strategy import extract_attractor_strategies

    with pytest.raises(IncompleteStrategy, match="lacks choices"):
        extract_attractor_strategies(
            sample_game,
            EVEN_REGION,
            ODD_REGION,
            {2: 3, 3: 5, 6: 4},  # 7 missing
            {1: 0},
        )
    with pytest.raises(IncompleteStrategy, match="not an edge"):
        extract_attractor_strategies(
            sample_game,
            EVEN_REGION,
            ODD_REGION,
            {2: 3, 3: 5, 6: 4, 7: 5},  # h -> f does not exist
            {1: 0},
        )
