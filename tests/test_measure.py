"""Set-based measure iteration: traces, the counter-coordinate encoding, budgets."""

from __future__ import annotations

import pytest

from paritysets import Player, RankDomain, TOP, build_game, solve_explicit_pm
from paritysets.measure import (
    LinearSpaceState,
    PreconditionViolated,
    _pm_run,
    dominion,
    solve_pm_symbolic,
    stderr_trace,
    symbolic_parity_dominion,
)
from paritysets.sets import SetSpace

from conftest import corpus, ids


EXPECTED_TRACE = [
    {"iteration": 1, "rank": (1, 0), "added": 4, "next_rank": (2, 0), "rolled_back": False},
    {"iteration": 2, "rank": (2, 0), "added": 2, "next_rank": (3, 0), "rolled_back": False},
    {"iteration": 3, "rank": (3, 0), "added": 2, "next_rank": (0, 1), "rolled_back": False},
    {"iteration": 4, "rank": (0, 1), "added": 4, "next_rank": (1, 0), "rolled_back": True},
    {"iteration": 5, "rank": (1, 0), "added": 0, "next_rank": (2, 0), "rolled_back": False},
    {"iteration": 6, "rank": (2, 0), "added": 1, "next_rank": (3, 0), "rolled_back": False},
    {"iteration": 7, "rank": (3, 0), "added": 0, "next_rank": (0, 1), "rolled_back": False},
    {"iteration": 8, "rank": (0, 1), "added": 0, "next_rank": (1, 1), "rolled_back": False},
    {"iteration": 9, "rank": (1, 1), "added": 2, "next_rank": (2, 1), "rolled_back": False},
    {"iteration": 10, "rank": (2, 1), "added": 2, "next_rank": (3, 1), "rolled_back": False},
    {"iteration": 11, "rank": (3, 1), "added": 2, "next_rank": TOP, "rolled_back": False},
    {"iteration": 12, "rank": TOP, "added": 2, "next_rank": None, "rolled_back": False},
]

EXPECTED_FAMILY = {
    (0, 0): frozenset(range(8)),
    (1, 0): frozenset({0, 1, 2, 4, 6, 7}),
    (2, 0): frozenset({0, 1, 4, 6, 7}),
    (3, 0): frozenset({0, 1, 4, 6}),
    (0, 1): frozenset({0, 1, 4, 6}),
    (1, 1): frozenset({0, 1}),
    (2, 1): frozenset({0, 1}),
    (3, 1): frozenset({0, 1}),
    TOP: frozenset({0, 1}),
}


def test_sample_trace_is_exact(sample_game):
    run = symbolic_parity_dominion(sample_game, keep_trace=True)
    assert run.trace == EXPECTED_TRACE
    assert run.iterations == 12
    assert ids(run.winning_even) == frozenset({2, 3, 4, 5, 6, 7})
    run.state.release_all()
    run.space.release(run.winning_even)


def test_sample_final_family(sample_game):
    run = symbolic_parity_dominion(sample_game, keep_trace=False)
    assert run.trace is None
    family = {}
    for r in run.domain.iterate():
        s, owned = run.state.read(r)
        family[r] = ids(s)
        if owned:
            run.space.release(s)
    assert family == EXPECTED_FAMILY
    run.state.release_all()
    run.space.release(run.winning_even)


def test_sample_coordinate_rows(sample_game):
    run = symbolic_parity_dominion(sample_game)
    state = run.state
    assert isinstance(state, LinearSpaceState)
    rows = [[ids(s) for s in row] for row in state.coordinate]
    assert rows == [
        [frozenset({3, 4, 5, 6}), frozenset({2}), frozenset({7}), frozenset()],
        [frozenset({2, 3, 5, 7}), frozenset({4, 6})],
    ]
    assert ids(state.top) == frozenset({0, 1})
    state.release_all()
    run.space.release(run.winning_even)


def test_sample_operation_counts(sample_game):
    run = symbolic_parity_dominion(sample_game)
    c = run.space.counters
    assert (c.cpre_ops, c.basic_total, c.peak_live_sets, c.live_sets) == (35, 470, 22, 17)
    run.state.release_all()
    run.space.release(run.winning_even)
    assert c.live_sets == 9  # the pinned base sets


def test_direct_representation_agrees(sample_game):
    linear = symbolic_parity_dominion(sample_game, keep_trace=True)
    direct = symbolic_parity_dominion(sample_game, representation="direct", keep_trace=True)
    assert direct.trace == linear.trace
    assert ids(direct.winning_even) == ids(linear.winning_even)
    # same one-step and containment work; only basic set algebra differs
    assert direct.space.counters.cpre_ops == linear.space.counters.cpre_ops == 35
    assert direct.space.counters.containment_tests == linear.space.counters.containment_tests


def test_direct_representation_on_random_games():
    for g in corpus(25, seed0=430):
        linear = symbolic_parity_dominion(g)
        direct = symbolic_parity_dominion(g, representation="direct")
        assert ids(direct.winning_even) == ids(linear.winning_even)
        assert direct.space.counters.cpre_ops == linear.space.counters.cpre_ops


def test_unknown_representation_rejected(sample_game):
    with pytest.raises(ValueError):
        symbolic_parity_dominion(sample_game, representation="compressed")


def test_trace_callback_sees_the_kept_events(sample_game):
    seen = []
    run = symbolic_parity_dominion(sample_game, trace=seen.append, keep_trace=True)
    assert seen == run.trace == EXPECTED_TRACE


def test_stderr_trace_format(capsys):
    stderr_trace(EXPECTED_TRACE[3])
    err = capsys.readouterr().err
    assert err == "pm-trace iter=4 rank=(0, 1) added=4 next=(1, 0) rollback=True\n"


def test_solve_report_shape(sample_game):
    rep = solve_pm_symbolic(sample_game)
    assert rep.algorithm == "pm"
    assert ids(rep.winning_even) == frozenset({2, 3, 4, 5, 6, 7})
    assert ids(rep.winning_odd) == frozenset({0, 1})
    assert rep.diagnostics == {"iterations": 12, "domain_size": 9}
    assert rep.strategy_even is None and rep.strategy_odd is None
    assert rep.wall_time >= 0.0
    c = rep.counters
    # one extra difference computes the odd region; the run state is freed
    assert (c.cpre_ops, c.basic_total, c.peak_live_sets, c.live_sets) == (35, 471, 22, 11)
    assert rep.winner_of(0) is Player.ODD
    assert rep.winner_of(5) is Player.EVEN


def test_solve_with_strategies_releases_everything(sample_game):
    rep = solve_pm_symbolic(sample_game, strategies=True)
    assert rep.strategy_even.choice == {2: 3, 3: 5, 6: 4, 7: 2}
    assert rep.strategy_odd.choice == {1: 0}
    c = rep.counters
    assert c.peak_live_sets == 24
    assert c.live_sets == 11  # two result sets over the pinned nine


def test_agrees_with_explicit_solver():
    for g in corpus(60, seed0=500):
        expected = solve_explicit_pm(g).winning_even
        rep = solve_pm_symbolic(g)
        assert ids(rep.winning_even) == expected


def test_bdd_backend_same_answers_and_counts(sample_game):
    bits = solve_pm_symbolic(sample_game)
    bdd = solve_pm_symbolic(sample_game, backend="bdd")
    assert ids(bdd.winning_even) == ids(bits.winning_even)
    assert bdd.counters.cpre_ops == bits.counters.cpre_ops
    assert bdd.counters.basic_total == bits.counters.basic_total
    for g in corpus(15, seed0=640):
        assert ids(solve_pm_symbolic(g, backend="bdd").winning_even) == ids(
            solve_pm_symbolic(g).winning_even
        )


def test_invariant_checks_pass_on_clean_runs(sample_game):
    symbolic_parity_dominion(sample_game, check_invariants=True)
    symbolic_parity_dominion(sample_game, representation="direct", check_invariants=True)
    for g in corpus(20, seed0=700):
        symbolic_parity_dominion(g, check_invariants=True)


def test_invariant_checker_needs_a_closed_universe(sample_game):
    space = SetSpace(sample_game)
    # vertex 0 moves only to 1, which lies outside
    with pytest.raises(PreconditionViolated, match="universe not closed at vertex 0"):
        _pm_run(space, space.from_ids([0, 2]), swap=True, check_invariants=True)


def test_bounded_dominions(sample_game):
    assert dominion(sample_game, Player.EVEN, 0) == frozenset()
    assert dominion(sample_game, Player.ODD, 0) == frozenset()
    assert dominion(sample_game, Player.EVEN, 1) == frozenset({2, 3, 4, 5, 6, 7})
    assert dominion(sample_game, Player.ODD, 1) == frozenset({0, 1})
    assert dominion(sample_game, Player.EVEN, 3) == frozenset({2, 3, 4, 5, 6, 7})


def _tiny_state():
    g = build_game([0, 0], [1, 1], [[1], [0]])
    space = SetSpace(g)
    state = LinearSpaceState(space, RankDomain(c=2, caps=(1,)), space.full)
    return space, state


def test_state_update_and_rank_queries():
    space, state = _tiny_state()
    assert state.rank_of(0) == (0,) and state.raw_rank_of(1) == (0,)
    one = space.singleton(0)
    state.update((1,), one)
    space.release(one)
    assert state.rank_of(0) == (1,)
    assert state.rank_of(1) == (0,)
    top_set = space.singleton(1)
    state.update(TOP, top_set)
    space.release(top_set)
    assert state.rank_of(1) is TOP
    assert state.raw_rank_of(1) is TOP


def test_rank_sets_may_only_grow():
    space, state = _tiny_state()
    one = space.singleton(0)
    state.update((1,), one)
    space.release(one)
    empty = space.empty_set()
    with pytest.raises(PreconditionViolated, match="only grow"):
        state.update((1,), empty)


def test_top_vertices_cannot_rejoin_finite_ranks():
    space, state = _tiny_state()
    top_set = space.singleton(0)
    state.update(TOP, top_set)
    space.release(top_set)
    with pytest.raises(PreconditionViolated, match="finite rank"):
        state.commit((1,), space.singleton(0), space.empty_set(), ())
