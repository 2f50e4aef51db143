"""Strategy extraction, packaging, and the independent winning check."""

from __future__ import annotations

import pytest

from paritysets import (
    GameError,
    Player,
    build_game,
    gen_random,
    normalize_priorities,
    solve_explicit_pm,
)
from paritysets.bigstep import GammaPolicy, SqrtPolicy, symbolic_big_step
from paritysets.measure import _pm_run, solve_pm_symbolic, symbolic_parity_dominion
from paritysets.sets import SetSpace
from paritysets.strategy import (
    IncompleteStrategy,
    Strategy,
    StrategyLeavesW,
    extract_strategy_from_pm,
    verify_strategy,
)
from paritysets.zielonka import classic_parity

from conftest import corpus, ids
from reference_encoding import reference_extract_strategy_from_pm


EVEN_REGION = frozenset({2, 3, 4, 5, 6, 7})
ODD_REGION = frozenset({0, 1})


def test_extraction_from_the_sample_run(sample_game):
    run = symbolic_parity_dominion(sample_game)
    strat = extract_strategy_from_pm(run.state)
    assert strat.player is Player.EVEN
    assert strat.choice == {2: 3, 3: 5, 6: 4, 7: 2}
    assert strat.domain == frozenset({2, 3, 6, 7})
    assert verify_strategy(run.space.game, Player.EVEN, EVEN_REGION, strat)


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


def test_direct_runs_give_the_linear_strategies(sample_game):
    # Each encoding reads its ranks its own way, off its own sets.
    for g in [sample_game, *corpus(20, seed0=1700)]:
        norm, _ = normalize_priorities(g)
        for swap, player in ((False, Player.EVEN), (True, Player.ODD)):
            found = {}
            for representation in ("linear", "direct"):
                space = SetSpace(norm)
                run = _pm_run(space, space.full, swap=swap, representation=representation)
                found[representation] = extract_strategy_from_pm(run.state)
                assert verify_strategy(norm, player, ids(run.winning), found[representation])
            assert found["direct"] == found["linear"]


@pytest.mark.parametrize("backend", ["bits", "bdd"])
def test_strategies_move_no_counter_of_the_recursive_solvers(backend):
    # Zielonka's choice maps and big-step's extractions off its dominion
    # runs are uncounted, so asking for strategies changes no count.
    solvers = (classic_parity,
               lambda g, **kw: symbolic_big_step(g, policy=SqrtPolicy(), **kw),
               lambda g, **kw: symbolic_big_step(g, policy=GammaPolicy(), **kw))
    for g in corpus(20, n_lo=8, n_span=20, seed0=2200):
        for solve in solvers:
            plain = solve(g, backend=backend)
            assert solve(g, strategies=True, backend=backend).counters == plain.counters


@pytest.mark.parametrize("backend", ["bits", "bdd"])
@pytest.mark.parametrize("representation", ["linear", "direct"])
def test_extraction_picks_like_the_target_cascade_for_fewer_ops(backend, representation):
    # The reference reads the picks by targets: a cpre of each winning
    # vertex and a rank-set read per predecessor priority. The library
    # compares the ranks of one uncounted `ranks()` read; both keep the
    # lowest-id optimal successor, and the library moves no counter.
    for g in corpus(24, n_span=20, seed0=1900):
        norm, _ = normalize_priorities(g)
        for bound in (None, 0, 2):
            for swap in (False, True):
                space = SetSpace(norm, backend=backend)
                run = _pm_run(space, space.full, bound=bound, swap=swap,
                              representation=representation)
                before = space.counters.snapshot()
                got = extract_strategy_from_pm(run.state)
                assert space.counters == before, (bound, swap)
                live = space.counters.live_sets
                want = reference_extract_strategy_from_pm(run.state)
                assert space.counters.live_sets == live
                assert got == want, (bound, swap)


def test_extraction_rejects_a_rank_no_successor_justifies(sample_game):
    # c (vertex 2) is even's at odd priority 1 with rank (1, 0): its move to
    # d, at (0, 0), justifies it. Taking c out of position 0's upper rows,
    # uncounted, leaves it at (0, 0), which no move justifies at an odd
    # priority; both readings refuse, and neither leaves a set alive.
    for extract in (extract_strategy_from_pm, reference_extract_strategy_from_pm):
        run = symbolic_parity_dominion(sample_game)
        space, state = run.space, run.state
        backend = space._backend
        assert state.ranks()[2] == (1, 0)
        c = backend.from_ids([2])
        for cell in state.coordinate[0][1:]:
            cell.payload = backend.difference(cell.payload, c)
        assert state.ranks()[2] == (0, 0)
        live = space.counters.live_sets
        with pytest.raises(IncompleteStrategy, match=r"\b2\b"):
            extract(state)
        assert space.counters.live_sets == live


def test_choice_map_must_cover_domain_exactly():
    with pytest.raises(IncompleteStrategy):
        Strategy(player=Player.EVEN, domain=frozenset({1, 2}), choice={1: 0})
    with pytest.raises(IncompleteStrategy):
        Strategy(player=Player.EVEN, domain=frozenset(), choice={1: 0})


def test_verify_rejects_wrong_player(sample_game):
    strat = Strategy(player=Player.EVEN, domain=frozenset(), choice={})
    with pytest.raises(ValueError):
        verify_strategy(sample_game, Player.ODD, EVEN_REGION, strat)


def test_players_given_as_ints_match_the_enum():
    rep = solve_pm_symbolic(gen_random(12, 5, 1, 3, 1), strategies=True)
    sides = ((rep.winning_even, rep.strategy_even), (rep.winning_odd, rep.strategy_odd))
    for player, (region, strat) in zip(Player, sides):
        as_int = Strategy(player=int(player), domain=strat.domain, choice=strat.choice)
        assert as_int == strat and as_int.player is player
        assert verify_strategy(rep.game, int(player), region, strat)
        assert verify_strategy(rep.game, player, region, strat)
    with pytest.raises(ValueError):
        verify_strategy(rep.game, 2, rep.winning_even, rep.strategy_even)
    with pytest.raises(ValueError):
        Strategy(player=2, domain=frozenset(), choice={})


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


def test_verify_rejects_region_vertices_outside_the_game(sample_game):
    strat = Strategy(player=Player.EVEN, domain=frozenset(), choice={})
    for region in ({8}, {2, 3, 4, 5, 6, 7, 8}, {-1}):
        with pytest.raises(GameError, match="outside the game"):
            verify_strategy(sample_game, Player.EVEN, region, strat)


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
