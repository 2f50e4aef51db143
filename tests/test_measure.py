"""Set-based measure iteration: traces, the counter-coordinate encoding, budgets."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysets import Player, RankDomain, TOP, build_game, gen_random, solve_explicit_pm
from paritysets import measure, strategy
from paritysets.bigstep import Fixed, GammaPolicy, SqrtPolicy, symbolic_big_step
from paritysets.explicit import lift_fixpoint
from paritysets.game import swap_roles_increment
from paritysets.measure import (
    InvariantViolation,
    LinearSpaceState,
    PreconditionViolated,
    _InvariantChecker,
    _View,
    _pm_run,
    dominion,
    solve_pm_symbolic,
    stderr_trace,
    symbolic_parity_dominion,
)
from paritysets.sets import SetSpace, _BitsBackend
from paritysets.strategy import extract_strategy_from_pm

from conftest import corpus, ids, small_games
from reference_encoding import ReferenceLinearState, reference_pm_run


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
    events = []
    run = symbolic_parity_dominion(sample_game, trace=events.append)
    assert events == EXPECTED_TRACE
    assert run.iterations == 12
    assert ids(run.winning) == frozenset({2, 3, 4, 5, 6, 7})
    run.state.release_all()
    run.space.release(run.winning)


def _family(run) -> dict:
    family = {}
    for r in run.domain.iterate():
        s = run.state.read(r)
        family[r] = ids(s)
        run.space.release(s)
    return family


def test_sample_final_family(sample_game):
    run = symbolic_parity_dominion(sample_game)
    assert _family(run) == EXPECTED_FAMILY
    run.state.release_all()
    run.space.release(run.winning)


def test_sample_coordinate_rows(sample_game):
    run = symbolic_parity_dominion(sample_game)
    state = run.state
    assert isinstance(state, LinearSpaceState)
    # Row x holds the vertices whose counter there is at least x.
    rows = [[ids(s) for s in row] for row in state.coordinate]
    assert rows == [
        [frozenset({2, 3, 4, 5, 6, 7}), frozenset({2, 7}), frozenset({7}), frozenset()],
        [frozenset({2, 3, 4, 5, 6, 7}), frozenset({4, 6})],
    ]
    assert ids(state.top) == frozenset({0, 1})
    state.release_all()
    run.space.release(run.winning)


def test_sample_operation_counts(sample_game):
    run = symbolic_parity_dominion(sample_game)
    c = run.space.counters
    assert (c.cpre_ops, c.basic_total, c.peak_live_sets, c.live_sets) == (35, 180, 24, 17)
    assert c.equality_tests == 0  # commits never probe a row
    run.state.release_all()
    run.space.release(run.winning)
    assert c.live_sets == 9  # the pinned base sets


def test_direct_representation_agrees(sample_game):
    linear_events, direct_events = [], []
    linear = symbolic_parity_dominion(sample_game, trace=linear_events.append)
    direct = symbolic_parity_dominion(
        sample_game, representation="direct", trace=direct_events.append
    )
    assert direct_events == linear_events
    assert ids(direct.winning) == ids(linear.winning)
    # same one-step and containment work; only basic set algebra differs
    assert direct.space.counters.cpre_ops == linear.space.counters.cpre_ops == 35
    assert direct.space.counters.containment_tests == linear.space.counters.containment_tests


@pytest.mark.parametrize("kwargs, counts", [
    ({}, (97, 35, 35, 25)),
    ({"bound": 1}, (43, 16, 14, 20)),
    ({"swap": True}, (224, 82, 82, 30)),
])
def test_direct_operation_counts(sample_game, kwargs, counts):
    # The golden trajectories cover only the linear encoding; these pin the
    # direct one: basic ops, cpre, containment tests and peak live sets.
    space = SetSpace(sample_game)
    _pm_run(space, space.full, representation="direct", **kwargs)
    c = space.counters
    assert (c.basic_total, c.cpre_ops, c.containment_tests, c.peak_live_sets) == counts


def test_direct_representation_on_random_games():
    # Bounded and swapped runs roll back to floors at many distances below decr(r).
    for g in corpus(25, seed0=430):
        for bound in (None, 0, 1, 2, 3):
            for swap in (False, True):
                runs = {}
                for representation in ("linear", "direct"):
                    space = SetSpace(g)
                    events = []
                    run = _pm_run(space, space.full, bound=bound, swap=swap,
                                  representation=representation, trace=events.append)
                    c = space.counters
                    runs[representation] = (events, c.cpre_ops, c.containment_tests,
                                            ids(run.winning), _family(run))
                assert runs["linear"] == runs["direct"], (bound, swap)


def _games_c1_to_c8():
    """Games with c = 1..8; for c >= 3 also the same game with its class
    c - 2 moved up to c - 1, which leaves an empty class just below the top."""
    for c in range(1, 9):
        for i in range(3):
            g = gen_random(6 + 3 * i, c, 1, 3, 5200 + 10 * c + i)
            yield g
            if c >= 3:
                priorities = [c - 1 if p == c - 2 else p for p in g.priority]
                yield build_game(list(g.owner), priorities, [list(s) for s in g.successors])


@pytest.mark.parametrize("representation", ["linear", "direct"])
def test_finished_runs_leave_only_the_pinned_sets(representation):
    # Every read hands out a set its caller releases, and the run-level
    # `above` unions die with the run, so a run holds only its state and
    # winning set; once those are released only the base sets stay live.
    for g in [*corpus(20, seed0=880), *_games_c1_to_c8()]:
        for bound in (None, 0, 2):
            for swap in (False, True):
                space = SetSpace(g)
                pinned = space.counters.live_sets
                run = _pm_run(space, space.full, bound=bound, swap=swap,
                              representation=representation)
                state = run.state
                held = (len(state.sets) if representation == "direct"
                        else sum(map(len, state.coordinate)) + 1)
                assert space.counters.live_sets == pinned + held + 1, (bound, swap)
                extract_strategy_from_pm(run.state)
                run.state.release_all()
                space.release(run.winning)
                assert space.counters.live_sets == pinned, (bound, swap)


def test_solves_hold_only_their_results_and_the_pinned_sets():
    for g in _games_c1_to_c8():
        reports = [solve_pm_symbolic(g, strategies=True)]
        reports += [symbolic_big_step(g, policy=policy, strategies=True)
                    for policy in (SqrtPolicy(), GammaPolicy(), Fixed(1))]
        for rep in reports:
            # full, evens, odds, empty and one per class, plus both regions
            assert rep.counters.live_sets == 4 + rep.game.priority_count + 2, rep.algorithm


def test_runs_step_down_only_in_the_roll_back_walk(monkeypatch):
    # decr(r) is carried between iterations: decr(incr(x)) is x, so the next
    # rank's decr is r, or the floor after a roll-back. The walk from decr(r)
    # down to the floor is then the only caller of decr, and it jumps: it
    # steps down once per position-0 block it leaves, so a walk over ranks
    # whose counters from position 1 up take k values calls decr k - 1 times.
    calls = []
    real_decr = RankDomain.decr

    def decr(self, r):
        calls.append(r)
        return real_decr(self, r)

    monkeypatch.setattr(RankDomain, "decr", decr)
    walked = left = 0
    for g in corpus(30, seed0=940):
        for bound, swap in ((None, False), (2, False), (None, True)):
            space = SetSpace(g)
            events = []
            calls.clear()
            run = _pm_run(space, space.full, bound=bound, swap=swap, trace=events.append)
            ranks = list(run.domain.iterate())
            index = {r: i for i, r in enumerate(ranks)}
            blocks = 0
            for e in events:
                if e["rolled_back"]:
                    # From decr(r) down to the floor, decr(next_rank).
                    span = ranks[index[e["next_rank"]] - 1:index[e["rank"]]]
                    blocks += len({q[1:] for q in span}) - 1
                    walked += len(span) - 1
            assert len(calls) == blocks, (bound, swap)
            left += blocks
    assert walked > 100
    assert 0 < left < walked // 2


def test_runs_unite_the_priority_classes_once(monkeypatch):
    # Only the run-level `above` sets unite priority classes, which are
    # pinned. One descending pass over levels c - 1 .. 2 builds them all,
    # c - 3 unions whatever the iteration count; a run that starts at TOP
    # never reads them and builds none.
    class_unions = []
    real_union = SetSpace.union

    def union(self, a, b):
        if a.pinned or b.pinned:
            class_unions.append((a, b))
        return real_union(self, a, b)

    monkeypatch.setattr(SetSpace, "union", union)
    for g in _games_c1_to_c8():
        for bound in (None, 0, 1):
            for swap in (False, True):
                space = SetSpace(g)
                class_unions.clear()
                run = _pm_run(space, space.full, bound=bound, swap=swap)
                domain = run.domain
                want = 0 if domain.incr(domain.zero) is TOP else max(domain.c - 3, 0)
                assert len(class_unions) == want, (bound, swap, run.iterations)


@pytest.mark.parametrize("bound", [None, 3])
def test_reads_cost_three_ops_per_position(bound):
    g = gen_random(96, 5, 1, 3, 7)
    space = SetSpace(g)
    run = _pm_run(space, space.full, bound=bound)
    budget = 3 * run.domain.positions + 1
    for r in run.domain.iterate():
        if r is TOP:
            continue
        before = space.counters.snapshot()
        space.release(run.state.read(r))
        after = space.counters
        assert after.cpre_ops == before.cpre_ops
        assert after.basic_total - before.basic_total <= budget, r


def _finished_sample_run(sample_game, representation="linear"):
    run = symbolic_parity_dominion(sample_game, representation=representation)
    checker = _InvariantChecker(run.state.view, run.domain)
    checker.boundary(run.state, TOP, None, False, None)
    return run, checker


def test_invariant_checker_catches_rows_out_of_nesting(sample_game):
    run, checker = _finished_sample_run(sample_game)
    row = run.state.coordinate[0]
    # Drop vertex 7 from row 1 but not from row 2, which holds only it.
    run.space.release(row[1])
    row[1] = run.space.from_ids([2])
    with pytest.raises(InvariantViolation, match="coordinate 0 not nested at row 2"):
        checker.boundary(run.state, TOP, None, False, None)


def test_invariant_checker_catches_a_short_row_zero(sample_game):
    run, checker = _finished_sample_run(sample_game)
    row = run.state.coordinate[1]
    run.space.release(row[0])
    row[0] = run.space.from_ids([2, 3, 4, 5, 6])
    with pytest.raises(InvariantViolation, match="coordinate 1 row 0"):
        checker.boundary(run.state, TOP, None, False, None)


def test_invariant_checker_catches_a_family_out_of_order(sample_game):
    run, checker = _finished_sample_run(sample_game, "direct")
    sets = run.state.sets
    # S_(2,0) gains vertex 3, which S_(1,0) lacks.
    grown = run.space.union(sets[(2, 0)], run.space.singleton(3))
    run.space.release(sets[(2, 0)])
    sets[(2, 0)] = grown
    with pytest.raises(InvariantViolation, match=r"family not anti-monotone at \(2, 0\)"):
        checker.boundary(run.state, TOP, None, False, None)


def test_invariant_checker_catches_a_vertex_missing_from_zero(sample_game):
    run, checker = _finished_sample_run(sample_game, "direct")
    sets = run.state.sets
    # Vertex 3 ranks (0, 0), so no other set holds it either.
    run.space.release(sets[(0, 0)])
    sets[(0, 0)] = run.space.from_ids([0, 1, 2, 4, 5, 6, 7])
    with pytest.raises(InvariantViolation, match="vertex 3 lost from the rank state"):
        checker.boundary(run.state, TOP, None, False, None)


def test_unknown_representation_rejected(sample_game):
    with pytest.raises(ValueError):
        symbolic_parity_dominion(sample_game, representation="compressed")


def test_dominion_takes_players_as_ints():
    g = gen_random(12, 5, 1, 3, 1)
    for h in (0, 1, 3):
        assert dominion(g, 0, h) == dominion(g, Player.EVEN, h)
        assert dominion(g, 1, h) == dominion(g, Player.ODD, h)
    assert dominion(g, 0, 3) != dominion(g, 1, 3)
    with pytest.raises(ValueError):
        dominion(g, 2, 1)


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
    assert (c.cpre_ops, c.basic_total, c.peak_live_sets, c.live_sets) == (35, 181, 24, 11)


def test_solve_with_strategies_releases_everything(sample_game):
    rep = solve_pm_symbolic(sample_game, strategies=True)
    assert rep.strategy_even.choice == {2: 3, 3: 5, 6: 4, 7: 2}
    assert rep.strategy_odd.choice == {1: 0}
    c = rep.counters
    assert c.peak_live_sets == 24
    assert c.live_sets == 11  # two result sets over the pinned nine


def test_odd_strategy_run_shares_the_space_and_covers_the_odd_region(monkeypatch):
    spaces, calls = [], []
    real_space, real_run = measure.SetSpace, measure._pm_run

    def space_recorder(*args, **kwargs):
        spaces.append(real_space(*args, **kwargs))
        return spaces[-1]

    def run_recorder(space, universe, **kwargs):
        calls.append((space, ids(universe), kwargs))
        return real_run(space, universe, **kwargs)

    monkeypatch.setattr(measure, "SetSpace", space_recorder)
    monkeypatch.setattr(measure, "_pm_run", run_recorder)
    rep = solve_pm_symbolic(gen_random(12, 5, 1, 3, 1), strategies=True)
    assert len(spaces) == 1 and len(calls) == 2
    space, universe, kwargs = calls[1]
    assert space is spaces[0] and space.counters is rep.counters
    assert universe == ids(rep.winning_odd) != frozenset()
    assert kwargs["swap"] is True


@pytest.mark.parametrize("strategies, want", [(False, 10), (True, 220)])
def test_wall_time_runs_from_normalization_to_the_last_counted_op(
        monkeypatch, strategies, want):
    # A fake clock that only the wrapped steps advance: normalizing costs 1,
    # each run 10 and each strategy reading 100.
    clock = [0]
    monkeypatch.setattr(measure, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    def costing(real, cost):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            clock[0] += cost
            return out
        return call

    # solve_pm_symbolic imports the strategy reader from its module when asked.
    for module, name, cost in ((measure, "normalize_priorities", 1), (measure, "_pm_run", 10),
                               (strategy, "extract_strategy_from_pm", 100)):
        monkeypatch.setattr(module, name, costing(getattr(module, name), cost))
    rep = solve_pm_symbolic(gen_random(12, 5, 1, 3, 1), strategies=strategies)
    assert rep.wall_time == want


def test_agrees_with_explicit_solver():
    for g in corpus(60, seed0=500):
        expected = solve_explicit_pm(g).winning_even
        rep = solve_pm_symbolic(g)
        assert ids(rep.winning_even) == expected


@pytest.mark.parametrize("backend", ["bits", "bdd"])
@pytest.mark.parametrize("representation", ["linear", "direct"])
def test_finished_ranks_are_the_explicit_fixpoint(backend, representation):
    # The role-swapped game is solved as a game: a swapped view's ranks keep
    # an empty position that the explicit solver's normalization drops.
    for g in corpus(60, seed0=2100):
        for game in (g, swap_roles_increment(g)):
            for bound in (None, 0, 1, 2):
                run = symbolic_parity_dominion(game, bound=bound, backend=backend,
                                               representation=representation)
                want = solve_explicit_pm(game, bound).rho
                assert run.state.ranks() == dict(enumerate(want)), bound


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


@pytest.mark.parametrize("representation", ["linear", "direct"])
def test_invariant_checks_leave_the_counters_alone(representation):
    # The checker reads raw membership only, the carried set included.
    for g in corpus(12, seed0=760):
        for bound, swap in ((None, False), (2, False), (None, True), (1, True)):
            counters = []
            for check in (False, True):
                space = SetSpace(g)
                _pm_run(space, space.full, bound=bound, swap=swap,
                        representation=representation, check_invariants=check)
                counters.append(space.counters)
            assert counters[0] == counters[1], (bound, swap)


def test_invariant_checker_catches_a_stale_carried_set(sample_game):
    run, checker = _finished_sample_run(sample_game)
    # After the first iteration the carried set is S_(1,0), not the universe.
    stale = run.space.full.payload
    with pytest.raises(InvariantViolation, match=r"carried set is not the set of rank \(1, 0\)"):
        checker.boundary(run.state, (1, 0), (2, 0), False, stale)


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
    # A bound past the caps' sum is the unbounded run, however large.
    assert dominion(sample_game, Player.EVEN, 10**18) == dominion(sample_game, Player.EVEN, 8)


def _tiny_state():
    g = build_game([0, 0], [1, 1], [[1], [0]])
    space = SetSpace(g)
    state = LinearSpaceState(_View(space, space.full, False), RankDomain(c=2, caps=(1,)))
    return space, state


def _payload(space, vertices):
    return space._backend.from_ids(vertices)


def _grow(state, r, vertices, floor=None):
    """Commit S_r grown to exactly `vertices`. The added vertices must rank
    between `floor`, the rank a roll-back walk stopped at, and decr(r);
    without a floor nothing rolled back and it is decr(r) itself."""
    d = state.domain.decr(r)
    old, _ = state._reconstruct(r)
    state.commit(r, _payload(state.space, vertices), old, d, d if floor is None else floor)


def test_state_update_and_rank_queries():
    space, state = _tiny_state()
    assert state.ranks() == {0: (0,), 1: (0,)}
    _grow(state, (1,), [0])
    assert state.ranks() == {0: (1,), 1: (0,)}
    _grow(state, TOP, [1], floor=(0,))
    assert state.ranks() == {0: (1,), 1: TOP}


def test_commits_walk_every_row_they_change():
    # One counter with cap 3; each roll-back commit below moves a vertex over
    # several rows, all of which must change.
    g = build_game([0, 0, 0], [1, 1, 1], [[1], [2], [0]])
    space = SetSpace(g)
    state = LinearSpaceState(_View(space, space.full, False), RankDomain(c=2, caps=(3,)))

    def rows():
        return [ids(s) for s in state.coordinate[0]]

    _grow(state, (2,), [0], floor=(0,))
    assert rows() == [{0, 1, 2}, {0}, {0}, set()]
    _grow(state, (3,), [0, 1], floor=(0,))
    assert rows() == [{0, 1, 2}, {0, 1}, {0, 1}, {0, 1}]
    _grow(state, TOP, [1], floor=(0,))
    assert rows() == [{0, 2}, {0}, {0}, {0}]
    assert ids(state.top) == {1}
    assert state.ranks() == dict(enumerate([(3,), TOP, (0,)]))


def test_commits_without_a_roll_back_touch_known_rows():
    # Counters capped at 2 and 1: (0,0) < (1,0) < (2,0) < (0,1) < (1,1) < (2,1) < TOP.
    g = build_game([0, 0, 0], [1, 1, 1], [[1], [2], [0]])
    space = SetSpace(g)
    state = LinearSpaceState(_View(space, space.full, False), RankDomain(c=4, caps=(2, 1)))

    def rows():
        return [[ids(s) for s in row] for row in state.coordinate]

    def commit(r, vertices):
        """Commit without a roll-back; the ops the commit itself spends."""
        old, _ = state._reconstruct(r)
        before = space.counters.snapshot()
        d = state.domain.decr(r)
        state.commit(r, _payload(space, vertices), old, d, d)
        c = space.counters
        return (c.unions - before.unions, c.differences - before.differences,
                c.intersections - before.intersections, c.equality_tests - before.equality_tests)

    # From (0,0) to (1,0): the delta joins row 1 at position 0.
    assert commit((1, 0), [0, 1, 2]) == (1, 1, 0, 0)
    assert commit((2, 0), [0, 1]) == (1, 1, 0, 0)
    assert rows() == [[{0, 1, 2}, {0, 1, 2}, {0, 1}], [{0, 1, 2}, set()]]
    # A carry from (2,0) to (0,1): vertex 0 leaves rows 2 and 1 at position 0
    # and joins row 1 at position 1.
    assert commit((0, 1), [0]) == (1, 3, 0, 0)
    assert rows() == [[{0, 1, 2}, {1, 2}, {1}], [{0, 1, 2}, {0}]]
    assert state.ranks() == dict(enumerate([(0, 1), (2, 0), (1, 0)]))
    commit((1, 1), [0])
    commit((2, 1), [0])
    # A TOP commit from (2,1): vertex 0 leaves every row.
    assert commit(TOP, [0]) == (1, 6, 0, 0)
    assert rows() == [[{1, 2}, {1, 2}, {1}], [{1, 2}, set()]]
    assert ids(state.top) == {0}
    assert state.ranks() == dict(enumerate([TOP, (2, 0), (1, 0)]))
    # Without a roll-back the delta must come from decr(r): vertex 2 sits at (1,0).
    with pytest.raises(PreconditionViolated, match="decr"):
        _grow(state, (0, 1), [0, 1, 2])


def _three_counter_state():
    """Counters capped at 2, 3 and 1. Vertices 0..3 sit at (2,2,0), (1,1,0),
    (2,1,0) and (0,2,0); vertex 4 stays at zero."""
    g = build_game([0] * 5, [1] * 5, [[1], [2], [3], [4], [0]])
    space = SetSpace(g)
    state = LinearSpaceState(_View(space, space.full, False), RankDomain(c=6, caps=(2, 3, 1)))
    for r, vertices in (((1, 0, 0), [0, 1, 2, 3]), ((2, 0, 0), [0, 1, 2, 3]),
                        ((0, 1, 0), [0, 1, 2, 3]), ((1, 1, 0), [0, 1, 2, 3]),
                        ((2, 1, 0), [0, 2, 3]), ((0, 2, 0), [0, 3]), ((1, 2, 0), [0]),
                        ((2, 2, 0), [0])):
        _grow(state, r, vertices)
    return space, state


def test_roll_back_commits_bound_counters_by_the_floor():
    space, state = _three_counter_state()
    assert state.ranks() == dict(enumerate([
        (2, 2, 0), (1, 1, 0), (2, 1, 0), (0, 2, 0), (0, 0, 0)]))

    def rows():
        return [[ids(s) for s in row] for row in state.coordinate]

    every = set(range(5))
    assert rows() == [[every, {0, 1, 2}, {0, 2}], [every, {0, 1, 2, 3}, {0, 3}, set()],
                      [every, set()]]
    # Rolling back from (0,3,0) to the floor (1,1,0): floor and decr(r) =
    # (2,2,0) agree at position 2, so the delta's counter there is 0; they
    # differ at position 1, where it lies in [1, 2]; at position 0 it is
    # anywhere in [0, 2]. The delta joins rows 2..3 at position 1 and leaves
    # rows 1..2 at position 0; no row is probed.
    old, _ = state._reconstruct((0, 3, 0))
    before = space.counters.snapshot()
    state.commit((0, 3, 0), _payload(space, [0, 1, 2, 3]), old, (2, 2, 0), (1, 1, 0))
    c = space.counters
    assert (c.unions - before.unions, c.differences - before.differences,
            c.intersections - before.intersections,
            c.equality_tests - before.equality_tests) == (2, 3, 0, 0)
    four = {0, 1, 2, 3}
    assert rows() == [[every, set(), set()], [every, four, four, four], [every, set()]]
    assert state.ranks() == dict(enumerate([(0, 3, 0)] * 4 + [(0, 0, 0)]))
    # Vertex 4 sits at (0,0,0), below the claimed floor (2,2,0).
    with pytest.raises(PreconditionViolated, match="between the floor and decr"):
        _grow(state, (1, 3, 0), list(range(5)), floor=(2, 2, 0))


def test_rank_sets_may_only_grow():
    space, state = _tiny_state()
    _grow(state, (1,), [0])
    with pytest.raises(PreconditionViolated, match="only grow"):
        _grow(state, (1,), [])
    # and so does the direct encoding
    direct = measure.DirectFamilyState(state.view, state.domain)
    _grow(direct, (1,), [0])
    with pytest.raises(PreconditionViolated, match="only grow"):
        _grow(direct, (1,), [])


def test_top_vertices_cannot_rejoin_finite_ranks():
    space, state = _tiny_state()
    _grow(state, TOP, [0], floor=(0,))
    with pytest.raises(PreconditionViolated, match="finite rank"):
        state.commit((1,), _payload(space, [0]), _payload(space, []), (0,), (0,))


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(small_games(), st.none() | st.integers(0, 4), st.booleans())
def test_checked_encodings_agree_with_the_oracle(g, bound, swap):
    # The oracle: the bounded least fixpoint of the view's game.
    view_game = swap_roles_increment(g) if swap else g
    rho, _ = lift_fixpoint(view_game, RankDomain.for_game(view_game, bound))
    want = frozenset(v for v, rank in enumerate(rho) if rank is not TOP)
    runs = {}
    for representation in ("linear", "direct"):
        space = SetSpace(g)
        events = []
        run = _pm_run(space, space.full, bound=bound, swap=swap, representation=representation,
                      check_invariants=True, trace=events.append)
        assert ids(run.winning) == want, representation
        c = space.counters
        runs[representation] = (events, c.cpre_ops, c.containment_tests)
    assert runs["linear"] == runs["direct"]


def _run_fingerprint(run_pm, g, backend, bound, swap, representation="linear"):
    space = SetSpace(g, backend=backend)
    events = []
    run = run_pm(space, space.full, bound=bound, swap=swap, representation=representation,
                 trace=events.append)
    state = run.state
    if representation == "linear":
        sets = [[s.ids() for s in row] for row in state.coordinate], state.top.ids()
    else:
        sets = {r: s.ids() for r, s in state.sets.items()}
    return space.counters, run.iterations, events, run.winning.ids(), sets


# (backend, n, c, seed, with the unbounded swapped run): past the golden
# file's n <= 25 and c <= 7. Two games skip that run, which takes 17k and
# 27k iterations there. n None stands for every run of `_games_c1_to_c8`
# that starts at TOP, bound 0 included; a c = 1 game's run seeds nothing.
_REFERENCE_CASES = [
    ("bits", 64, 5, 4069, True), ("bits", 96, 5, 4091, False),
    ("bits", 64, 7, 6070, True), ("bits", 68, 9, 6100, False),
    ("bdd", 24, 5, 4129, True), ("bdd", 30, 7, 4137, True),
    ("bits", None, None, None, True), ("bdd", None, None, None, True),
]


def _reference_runs(n, c, seed, swapped_unbounded):
    """(game, bound, swap) of each run one reference case makes."""
    if n is None:
        for g in _games_c1_to_c8():
            for bound in (None, 0, 2):
                for swap in (False, True):
                    space = SetSpace(g)
                    view = _View(space, space.full, swap)
                    domain = RankDomain(c=view.c, caps=view.caps, bound=bound)
                    if domain.incr(domain.zero) is TOP:
                        yield g, bound, swap
        return
    g = gen_random(n, c, 1, 3, seed)
    for bound in (None, 2):
        for swap in (False, True):
            if bound is not None or not swap or swapped_unbounded:
                yield g, bound, swap


@pytest.mark.parametrize("backend, n, c, seed, swapped_unbounded", _REFERENCE_CASES)
def test_payload_encoding_counts_like_the_set_level_reference(
        backend, n, c, seed, swapped_unbounded):
    # Each iteration, reads and commits included, runs on raw payloads and
    # counts in one tally; the reference loop and encodings build and
    # release every intermediate set.
    runs = list(_reference_runs(n, c, seed, swapped_unbounded))
    assert runs
    for g, bound, swap in runs:
        for representation in ("linear", "direct"):
            got = _run_fingerprint(_pm_run, g, backend, bound, swap, representation)
            want = _run_fingerprint(reference_pm_run, g, backend, bound, swap, representation)
            assert got == want, (bound, swap, representation)


def _step_walk(state, w, below, d):
    """The roll-back walk rank by rank from d down, each read counted."""
    is_subset = state.space._backend.is_subset
    floor, held, tests = d, below, 1
    while not is_subset(w, held):
        floor = state.domain.decr(floor)
        held, _ = state._reconstruct(floor)
        tests += 1
    return floor, held, tests


# The longest roll-back walk, in ranks stepped, of each reference case's runs.
_LONGEST_WALKS = {4069: 189, 4091: 14, 6070: 2111, 6100: 839, 4129: 35, 4137: 143, None: 0}


@pytest.mark.parametrize("backend, n, c, seed, swapped_unbounded", _REFERENCE_CASES)
def test_the_walk_jumps_to_the_step_walks_floor(monkeypatch, backend, n, c, seed,
                                                 swapped_unbounded):
    # On every walk of the linear encoding, the jump finds the step walk's
    # floor, S_floor's payload and test count, adds to each counter what the
    # step walk's reads add, and reads one set, S_floor, when it rolls back.
    jump = LinearSpaceState._floor
    reads = _counting_calls(monkeypatch, LinearSpaceState, "_reconstruct")
    walks = []

    def checked(self, w, below, d):
        c = self.space.counters
        before = c.snapshot()
        want = _step_walk(self, w, below, d)
        stepped = c.snapshot()
        reads.clear()
        got = jump(self, w, below, d)
        after = c.snapshot()
        assert got == want, d
        assert len(reads) == (got[0] != d)
        step = {f: getattr(stepped, f) - getattr(before, f) for f in vars(before)}
        assert step == {f: getattr(after, f) - getattr(stepped, f) for f in vars(before)}, d
        # Leave the counters as one walk left them.
        for f, rise in step.items():
            setattr(c, f, getattr(after, f) - rise)
        walks.append(got[2] - 1)
        return got

    monkeypatch.setattr(LinearSpaceState, "_floor", checked)
    for g, bound, swap in _reference_runs(n, c, seed, swapped_unbounded):
        space = SetSpace(g, backend=backend)
        _pm_run(space, space.full, bound=bound, swap=swap)
    assert max(walks) == _LONGEST_WALKS[seed]


def test_the_floor_is_the_least_rank_outside_the_set_of_d():
    # Every vertex set against every d. The rest's least rank need not be
    # least at each position: vertex 1 at (1,1,0) is below vertex 3 at
    # (0,2,0), so the search keeps only the rest's vertices at a position's
    # counter. Loop runs have not produced such a rest, but `_floor` is the
    # step walk for any w.
    space, state = _three_counter_state()
    for d in state.domain.iterate():
        if d is TOP:
            continue
        below, _ = state._reconstruct(d)
        for k in range(32):
            w = _payload(space, [v for v in range(5) if k >> v & 1])
            want = _rise(space, lambda: _step_walk(state, w, below, d))
            assert _rise(space, lambda: state._floor(w, below, d)) == want, (d, k)


@pytest.mark.parametrize("representation", ["linear", "direct"])
def test_the_walk_refuses_a_vertex_outside_the_universe(representation):
    # A fault that let closure add such a vertex would otherwise send the
    # walk on forever, as decr(zero) is zero.
    g = build_game([0, 0, 0], [1, 2, 1], [[0], [1], [2]])
    space = SetSpace(g)
    run = _pm_run(space, space.from_ids([0, 1]), representation=representation)
    state, domain = run.state, run.domain
    assert state.ranks() == {0: TOP, 1: (0,)}
    w = _payload(space, [0, 1, 2])
    for d in (domain.zero, domain.decr(TOP)):
        below, _ = state._reconstruct(d)
        with pytest.raises(AssertionError, match="left the universe"):
            state._floor(w, below, d)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(small_games(max_n=16), st.sampled_from([None, 0, 1, 2, 3]), st.booleans(),
       st.sampled_from(["linear", "direct"]))
def test_pm_runs_match_the_set_level_reference(g, bound, swap, representation):
    # Counters, trace events, rank states and winners, stationary
    # iterations included, on games no fixed case reaches.
    got = _run_fingerprint(_pm_run, g, "bits", bound, swap, representation)
    want = _run_fingerprint(reference_pm_run, g, "bits", bound, swap, representation)
    assert got == want


def _counting_calls(monkeypatch, cls, name):
    """A list that grows by one per call of the method `name` of `cls`."""
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(None)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_stationary_iterations_skip_the_kernel(monkeypatch):
    # An iteration whose S_r is the carried, already closed S_decr(r) and
    # that seeds from position 0 alone runs no `cpre` but counts both.
    calls = _counting_calls(monkeypatch, _BitsBackend, "cpre")
    report = solve_pm_symbolic(gen_random(64, 5, 1, 3, 1000))
    assert report.diagnostics["iterations"] == 260
    assert report.counters.cpre_ops == 544
    assert len(calls) < 544 // 2


# Read one at a time, these runs make 277 and 578 reads (331 and 937 when
# the roll-back walk also read rank by rank). On seed 5, vertices ranked
# above r's higher counters sit in position 0's rows, and a stretch that
# let them end it would stop too soon.
@pytest.mark.parametrize("seed, iterations, cpre_ops, reads",
                         [(1000, 260, 544, 62), (5, 517, 1264, 385)])
def test_stationary_stretches_are_jumped(monkeypatch, seed, iterations, cpre_ops, reads):
    # After a stationary iteration the rest of its stretch is neither read
    # nor committed rank by rank, and no count moves. The exact read count
    # also catches a stretch that ends too soon, which is correct but slow.
    calls = _counting_calls(monkeypatch, LinearSpaceState, "_reconstruct")
    commits = _counting_calls(monkeypatch, LinearSpaceState, "commit")
    report = solve_pm_symbolic(gen_random(64, 5, 1, 3, seed))
    assert report.diagnostics["iterations"] == iterations
    assert report.counters.cpre_ops == cpre_ops
    assert len(calls) == reads
    assert len(commits) < iterations


@pytest.mark.parametrize("representation", ["linear", "direct"])
def test_stationary_iterations_reach_the_invariant_checker(monkeypatch, representation):
    # Every stationary iteration, a stretch's first and its jumped ones
    # alike, gets its trace event and its boundary check, and observing a
    # run moves no count. Only the linear encoding jumps stretches.
    g = gen_random(16, 5, 1, 3, 2)
    plain = SetSpace(g)
    _pm_run(plain, plain.full, representation=representation)
    calls = _counting_calls(monkeypatch, _BitsBackend, "cpre")
    boundaries = _counting_calls(monkeypatch, _InvariantChecker, "boundary")
    encoding = LinearSpaceState if representation == "linear" else measure.DirectFamilyState
    commits = _counting_calls(monkeypatch, encoding, "commit")
    space = SetSpace(g)
    events = []
    run = _pm_run(space, space.full, representation=representation, check_invariants=True,
                  trace=events.append)
    assert len(calls) < space.counters.cpre_ops  # some iterations were stationary
    if representation == "linear":
        assert len(commits) < run.iterations  # some were jumped
    else:
        assert len(commits) == run.iterations  # none was jumped
    assert len(boundaries) == run.iterations
    assert [e["iteration"] for e in events] == list(range(1, run.iterations + 1))
    assert space.counters == plain.counters


@pytest.mark.parametrize("swap", [False, True])
def test_bounded_stretches_stop_at_the_sum_bound(monkeypatch, swap):
    # With h = 3, linear stretches end at the sum bound below position 0's
    # cap, and at the last row, whose read joins no segment at position 0.
    stops = []
    stretch = LinearSpaceState._stretch

    def recorded(self, r, end):
        last = stretch(self, r, end)
        if last > r[0]:
            stops.append((last == end < self.domain.caps[0], last == self.eff_caps[0]))
        return last

    monkeypatch.setattr(LinearSpaceState, "_stretch", recorded)
    g = gen_random(20, 5, 1, 3, 11)
    for representation in ("linear", "direct"):
        got = _run_fingerprint(_pm_run, g, "bits", 3, swap, representation)
        want = _run_fingerprint(reference_pm_run, g, "bits", 3, swap, representation)
        assert got == want, representation
    assert any(at_bound for at_bound, _ in stops)
    assert any(at_last_row for _, at_last_row in stops)


@pytest.mark.parametrize("representation", ["linear", "direct"])
def test_stretches_start_below_their_end(monkeypatch, representation):
    # `_stretch` takes a stationary rank r with r[0] < end: a stretch that
    # starts at its end has nothing to scan, and the loop skips the call.
    cls = LinearSpaceState if representation == "linear" else measure.DirectFamilyState
    stretch = cls._stretch
    starts = []

    def checked(self, r, end):
        assert r[0] < end, (r, end)
        starts.append(r)
        return stretch(self, r, end)

    monkeypatch.setattr(cls, "_stretch", checked)
    for seed in range(4):
        g = gen_random(16, 5, 1, 3, 300 + seed)
        for bound in (None, 0, 1, 2, 3):
            for swap in (False, True):
                space = SetSpace(g)
                _pm_run(space, space.full, bound=bound, swap=swap, representation=representation)
    assert starts


# (solver, backend, n, seed), each solved with strategies. Kernel calls
# inside pm runs read 16-70% of these solves' cpre ops without the memo,
# and 2-7% with it.
_MEMO_CASES = [
    (solve_pm_symbolic, "bits", 64, 1000), (solve_pm_symbolic, "bits", 64, 5),
    (solve_pm_symbolic, "bdd", 24, 4129),
    (symbolic_big_step, "bits", 52, 3020), (symbolic_big_step, "bdd", 32, 3008),
]


@pytest.mark.parametrize("solve, backend, n, seed", _MEMO_CASES)
def test_runs_ask_the_kernel_once_per_recent_target(monkeypatch, solve, backend, n, seed):
    # A run's cpre calls share one player and view, so the run answers a
    # target among its last 64 distinct ones from memory and still counts
    # the op. Strategies add pm's role-swapped run over the odd region in
    # the same space; big-step's hook runs each have their own universe.
    runs = []
    inside = []
    pm_run = measure._pm_run

    def observed(space, *args, **kwargs):
        backend_ = space._backend
        if "cpre" not in vars(backend_):
            kernel = backend_.cpre

            def cpre(mine, b, within):
                if inside:
                    runs[-1].append(b)
                return kernel(mine, b, within)

            backend_.cpre = cpre
        runs.append([])
        inside.append(None)
        try:
            return pm_run(space, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(measure, "_pm_run", observed)
    monkeypatch.setattr("paritysets.bigstep._pm_run", observed)
    report = solve(gen_random(n, 5, 1, 3, seed), strategies=True, backend=backend)
    assert len(runs) >= 2
    for targets in runs:
        for i, b in enumerate(targets):
            assert b not in targets[max(0, i - 64):i], i
    calls = sum(map(len, runs))
    assert calls * 8 < report.counters.cpre_ops


def _rise(space, call):
    """call()'s result and what it adds to each counter, the peak read as
    its rise over the live sets at the call."""
    c = space.counters
    c.peak_live_sets = c.live_sets
    before = c.snapshot()
    result = call()
    after = c.snapshot()
    rise = {f: getattr(after, f) - getattr(before, f) for f in vars(after)}
    rise["peak_live_sets"] = after.peak_live_sets - before.live_sets
    return result, rise


def test_reads_count_like_the_reference_read_by_read():
    g = gen_random(64, 7, 1, 3, 6070)
    space = SetSpace(g)
    run = _pm_run(space, space.full)
    peaks = set()
    for r in run.domain.iterate():
        costs = []
        for read in (LinearSpaceState.read, ReferenceLinearState.read):
            s, rise = _rise(space, lambda: read(run.state, r))
            costs.append((s.ids(), rise))
            space.release(s)
        assert costs[0] == costs[1], r
        # The loop reads by `_reconstruct`, whose `held` is the peak's rise.
        want, rise = costs[1]
        payload, held = run.state._reconstruct(r)
        assert (space._backend.ids(payload), held) == (want, rise["peak_live_sets"]), r
        peaks.add(held)
    # TOP's read is a copy; a segment joined beside a narrowed set holds four.
    assert peaks == {1, 3, 4}


def test_commits_count_like_the_reference_commit_by_commit():
    g = build_game([0] * 5, [1] * 5, [[1], [2], [3], [4], [0]])
    steps = [((1, 0, 0), [0, 1, 2, 3], None), ((2, 0, 0), [0, 1, 2, 3], None),
             ((0, 1, 0), [0, 1, 2, 3], None), ((1, 1, 0), [0, 1, 2, 3], None),
             ((2, 1, 0), [0, 2, 3], None), ((0, 2, 0), [0, 3], None),
             ((1, 2, 0), [0], None), ((2, 2, 0), [0], None),
             ((0, 3, 0), [0, 1, 2, 3], (1, 1, 0)), ((1, 3, 0), [0, 1], None),
             (TOP, [1], (0, 0, 0))]
    logs = []
    for cls in (LinearSpaceState, ReferenceLinearState):
        space = SetSpace(g)
        state = cls(_View(space, space.full, False), RankDomain(c=6, caps=(2, 3, 1)))
        log = []
        for r, vertices, floor in steps:
            d = state.domain.decr(r)
            old = state.read(r)
            working = space.from_ids(vertices)
            if cls is LinearSpaceState:
                def call():
                    state.commit(r, working.payload, old.payload, d, floor or d)
                    space.release(working, old)
            else:
                def call():
                    state.commit(r, working, old, d, floor or d)
            _, rise = _rise(space, call)
            rows = [[s.ids() for s in row] for row in state.coordinate]
            log.append((rise, rows, state.top.ids()))
        logs.append(log)
    peaks = [{rise.pop("peak_live_sets") for rise, _, _ in log} for log in logs]
    assert logs[0] == logs[1]
    # The reference's delta is the one set alive beside `working` and `old`;
    # the loop counts it in the closure's offset. The library holds no set.
    assert peaks == [{0}, {1}]
