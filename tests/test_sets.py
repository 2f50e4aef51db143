"""Set spaces: operator semantics, op counting, lifetime discipline."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysets import (
    OpCounters, Player, SetSpace, UniverseMismatch, build_game, classic_parity, gen_random,
    sets,
)
from paritysets.pgsolver import parse_pgsolver
from paritysets.sets import _mask
from paritysets.zielonka import attractor

from conftest import corpus, ids, ladder, small_games
from oracles import attractor_layers


@pytest.fixture
def space(sample_game):
    return SetSpace(sample_game)


def test_pinned_base_sets(space):
    assert ids(space.full) == frozenset(range(8))
    assert ids(space.owned[Player.EVEN]) == {0, 2, 3, 6, 7}
    assert ids(space.owned[Player.ODD]) == {1, 4, 5}
    assert ids(space.empty) == frozenset()
    assert ids(space.priority_sets[1]) == {0, 2, 7}
    assert len(space.priority_sets) == 5


@pytest.mark.parametrize("backend", ["bits", "bdd"])
def test_empty_priority_classes_share_the_empty_set(backend):
    # Priorities 1 and 10**6 leave every other class empty: each reads as
    # the pinned empty set, still counted as one live set as its own set
    # would be, and none is stored.
    g = build_game([0, 1], [1, 10**6], [[0], [1]])
    space = SetSpace(g, backend=backend)
    classes = space.priority_sets
    assert sorted(classes) == [1, 10**6]
    assert ids(classes[1]) == {0} and ids(classes[10**6]) == {1}
    assert all(classes[p] is space.empty for p in (0, 2, 500_000, 10**6 - 1))
    assert sorted(classes) == [1, 10**6]  # reads store nothing
    assert space.counters.live_sets == space.counters.peak_live_sets == 4 + 10**6 + 1


def test_each_operation_counts_once(space):
    a = space.from_ids((0, 1, 2))
    b = space.from_ids((2, 3))
    c = space.counters
    assert (c.unions, c.intersections, c.differences) == (0, 0, 0)
    u = space.union(a, b)
    i = space.intersect(a, b)
    d = space.difference(a, b)
    assert (c.unions, c.intersections, c.differences) == (1, 1, 1)
    assert ids(u) == {0, 1, 2, 3}
    assert ids(i) == {2}
    assert ids(d) == {0, 1}
    assert space.is_subset(i, a)
    assert not space.is_subset(u, a)
    assert c.containment_tests == 2
    assert not space.equals(a, b)
    assert c.equality_tests == 1
    assert space.is_empty(space.empty)
    assert c.equality_tests == 2  # emptiness is an equality test
    assert c.basic_total == 7
    assert c.pre_ops == 0 and c.cpre_ops == 0


def test_a_snapshot_equals_the_counters_and_stays_as_it_was(space):
    space.union(space.from_ids((0,)), space.from_ids((1,)))
    live = space.counters
    before = live.snapshot()
    assert before == live and before is not live
    space.cpre(Player.EVEN, space.full)
    assert before != live
    assert (before.cpre_ops, live.cpre_ops) == (0, 1)
    assert live.snapshot() == live


def test_counters_build_from_keywords_and_list_their_fields():
    c = OpCounters(unions=3)
    assert (c.unions, c.intersections, c.peak_live_sets) == (3, 0, 0)
    assert c == OpCounters(3) and c != OpCounters(unions=3, cpre_ops=1)
    assert repr(c) == (
        "OpCounters(unions=3, intersections=0, differences=0, containment_tests=0, "
        "equality_tests=0, pre_ops=0, cpre_ops=0, live_sets=0, peak_live_sets=0)")
    assert list(vars(c)) == [
        "unions", "intersections", "differences", "containment_tests", "equality_tests",
        "pre_ops", "cpre_ops", "live_sets", "peak_live_sets"]


def test_live_and_peak_accounting(space):
    base = space.counters.live_sets
    a = space.from_ids((0,))
    b = space.from_ids((1,))
    assert space.counters.live_sets == base + 2
    assert space.counters.peak_live_sets >= base + 2
    space.release(a, b)
    assert space.counters.live_sets == base


def test_tally_counts_a_batch_as_if_it_built_its_sets(space):
    c = space.counters
    live = c.live_sets
    assert space.tally(unions=2, intersections=1, differences=3, containment_tests=4,
                       cpre_ops=5, held=2) is None
    assert (c.unions, c.intersections, c.differences) == (2, 1, 3)
    assert (c.containment_tests, c.cpre_ops, c.equality_tests, c.pre_ops) == (4, 5, 0, 0)
    assert (c.live_sets, c.peak_live_sets) == (live, live + 2)
    # A batch's result joins the live count through _new; `held` counts it.
    space.tally(unions=1, held=1)
    s = space._new(space.priority_sets[1].payload)
    assert ids(s) == {0, 2, 7} and not s.pinned
    assert (c.unions, c.live_sets, c.peak_live_sets) == (3, live + 1, live + 2)
    space.release(s)
    assert c.live_sets == live


# Every counted set-level op by name, with the number of sets it takes
# (cpre also takes a player first; pre and cpre take a view second), and
# each operand position of each.
_COUNTED_OPS = {
    "union": 2, "intersect": 2, "difference": 2, "is_subset": 2, "equals": 2,
    "is_empty": 1, "pre": 2, "cpre": 2, "copy": 1,
}
_OPERAND_CASES = [(op, i) for op, k in _COUNTED_OPS.items() for i in range(k)]


def _refused(space, op, position, bad):
    """Call `op` with `bad` at `position` and pinned sets elsewhere; return
    the exception it raised, checking that no counter moved."""
    operands = [space.full] * _COUNTED_OPS[op]
    operands[position] = bad
    if op == "cpre":
        operands.insert(0, Player.EVEN)
    before = space.counters.snapshot()
    with pytest.raises(Exception) as refused:
        getattr(space, op)(*operands)
    assert space.counters == before, (op, position)
    return refused.value


def test_release_discipline(sample_game):
    for backend in ("bits", "bdd"):
        space = SetSpace(sample_game, backend)
        a = space.from_ids((0,))
        space.release(a)
        with pytest.raises(ValueError):
            space.release(a)
        with pytest.raises(ValueError):
            space.release(space.full)
        # Every counted op refuses a released operand before a counter moves.
        for op, position in _OPERAND_CASES:
            error = _refused(space, op, position, a)
            assert type(error) is ValueError and "released" in str(error), (backend, op, position)


def test_spaces_do_not_mix(sample_game):
    for backend in ("bits", "bdd"):
        one = SetSpace(sample_game, backend)
        two = SetSpace(sample_game, backend)
        before = two.counters.snapshot()
        for op, position in _OPERAND_CASES:
            error = _refused(one, op, position, two.full)
            assert type(error) is UniverseMismatch, (backend, op, position)
        assert two.counters == before
        # nor does a release
        with pytest.raises(UniverseMismatch):
            one.release(two.from_ids((0,)))


def test_uncounted_helpers_cost_nothing(space):
    s = space.from_ids((1, 5, 7))
    before = space.counters.basic_total
    assert s.count() == 3
    assert s.ids() == (1, 5, 7)
    assert s.contains(5) and not s.contains(6)
    assert space.raw_ids(s) == (1, 5, 7)
    assert space.counters.basic_total == before


def pre_oracle(game, b, within):
    return frozenset(
        v for v in within if any(s in b for s in game.successors[v])
    )


def cpre_oracle(game, player, b, within):
    out = set()
    for v in within:
        succ_in = [s for s in game.successors[v] if s in within]
        if game.owner[v] is player:
            if any(s in b for s in succ_in):
                out.add(v)
        elif succ_in and all(s in b for s in succ_in):
            out.add(v)
    return frozenset(out)


@pytest.mark.parametrize("backend", ["bits", "bdd"])
def test_step_operators_match_the_definition(backend):
    rng = random.Random(21)
    for g in corpus(40, seed0=50):
        space = SetSpace(g, backend=backend)
        n = g.vertex_count
        for _ in range(4):
            b_ids = frozenset(v for v in range(n) if rng.random() < 0.5)
            w_ids = frozenset(v for v in range(n) if rng.random() < 0.7)
            b = space.from_ids(b_ids)
            w = space.from_ids(w_ids)
            got_pre = space.pre(b, within=w)
            assert ids(got_pre) == pre_oracle(g, b_ids, w_ids)
            for player in (Player.EVEN, Player.ODD):
                got = space.cpre(player, b, within=w)
                assert ids(got) == cpre_oracle(g, player, b_ids, w_ids)
                space.release(got)
            space.release(b, w, got_pre)


def test_backends_agree_on_random_walks():
    rng = random.Random(33)
    for g in corpus(25, seed0=77):
        bits = SetSpace(g, backend="bits")
        bdd = SetSpace(g, backend="bdd")
        pairs = [(bits.full, bdd.full)]
        for _ in range(12):
            op = rng.choice(("union", "intersect", "difference", "cpre", "pre", "new"))
            if op == "new":
                chosen = frozenset(
                    v for v in range(g.vertex_count) if rng.random() < 0.5
                )
                pairs.append((bits.from_ids(chosen), bdd.from_ids(chosen)))
                continue
            a1, a2 = pairs[rng.randrange(len(pairs))]
            b1, b2 = pairs[rng.randrange(len(pairs))]
            if op == "cpre":
                player = rng.choice((Player.EVEN, Player.ODD))
                pairs.append((bits.cpre(player, a1, within=b1), bdd.cpre(player, a2, within=b2)))
            elif op == "pre":
                pairs.append((bits.pre(a1, within=b1), bdd.pre(a2, within=b2)))
            else:
                pairs.append((getattr(bits, op)(a1, b1), getattr(bdd, op)(a2, b2)))
        for s1, s2 in pairs:
            assert ids(s1) == ids(s2)
        assert bits.counters.basic_total == bdd.counters.basic_total
        assert bits.counters.cpre_ops == bdd.counters.cpre_ops


def test_unknown_backend_rejected(sample_game):
    with pytest.raises(ValueError):
        SetSpace(sample_game, backend="cubes")


def test_cpre_without_within_uses_the_full_game(sample_game):
    space = SetSpace(sample_game)
    b = space.from_ids((3,))
    got = space.cpre(Player.ODD, b)
    want = cpre_oracle(sample_game, Player.ODD, {3}, frozenset(range(8)))
    assert ids(got) == want


@pytest.mark.parametrize("backend", ["bits", "bdd"])
def test_cpre_reads_0_and_1_as_the_players_and_refuses_other_values(backend):
    # The players' values act as the players, as attractor takes them; no
    # other value may pass for the odd player.
    g = gen_random(12, 5, 1, 3, 1)
    space = SetSpace(g, backend=backend)
    t = space.priority_sets[2]
    for player in Player:
        by_int = space.cpre(int(player), t)
        assert ids(by_int) == ids(space.cpre(player, t))
        assert ids(by_int) == cpre_oracle(g, player, ids(t), range(12))
    assert ids(space.cpre(0, t)) == {9, 11}
    for bad in (2, -1, "0", None, [0]):
        with pytest.raises(ValueError):
            space.cpre(bad, t)
    assert space.counters.cpre_ops == 5


class _CountingList(list):
    """A successor or predecessor mask list that counts its lookups."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def _memo_script(n, rng):
    """cpre calls that take each path of the bits backend's memo: b growing
    one vertex at a time (hits), the same b again (an empty growth), a
    smaller and an incomparable b, the other player, and a wider view or the
    whole game as view (misses, which recheck against the same player's
    last call or start from scratch)."""
    big = frozenset(v for v in range(n) if rng.random() < 0.8)
    small = frozenset(v for v in big if rng.random() < 0.7)
    some = frozenset(v for v in range(n) if rng.random() < 0.5)
    calls = []
    for player in (Player.EVEN, Player.ODD):
        for within in (small, big, None):
            order = list(range(n))
            rng.shuffle(order)
            for k in range(1, n + 1):
                calls.append((player, frozenset(order[:k]), within))
            calls.append(calls[-1])
            calls.append((player, frozenset(order[: n // 2]), within))
            calls.append((player, frozenset(order[n // 2:]), within))
        for within in (small, big, None):
            calls.append((player, some, within))
    calls.append((Player.EVEN, some, None))
    return calls


def test_bits_cpre_memo_matches_the_definition_and_bdd():
    rng = random.Random(5)
    for g in corpus(30, seed0=400):
        n = g.vertex_count
        bits = SetSpace(g, backend="bits")
        bdd = SetSpace(g, backend="bdd")
        for player, b_ids, w_ids in _memo_script(n, rng):
            if w_ids is None:
                w1 = w2 = None
                w_ids = range(n)
            else:
                w1, w2 = bits.from_ids(w_ids), bdd.from_ids(w_ids)
            got = bits.cpre(player, bits.from_ids(b_ids), within=w1)
            want = bdd.cpre(player, bdd.from_ids(b_ids), within=w2)
            assert ids(got) == ids(want) == cpre_oracle(g, player, b_ids, w_ids)
        assert bits.counters.cpre_ops == bdd.counters.cpre_ops


@st.composite
def _cpre_sequences(draw):
    """A game of up to 40 vertices and cpre calls on it, each by either
    player: the target grows, shrinks, jumps or stays between calls, and the
    view gains or loses vertices, stays, or is the whole game. Views cut
    edges, so some vertices have no move inside them."""
    n = draw(st.integers(1, 40))
    owners = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    succs = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
             for _ in range(n)]
    vertices = st.frozensets(st.integers(0, n - 1))
    few = st.frozensets(st.integers(0, n - 1), max_size=3)
    b, view = frozenset(), frozenset(range(n))
    calls = []
    for _ in range(draw(st.integers(1, 30))):
        step = draw(st.sampled_from(("grow", "shrink", "jump", "stay")))
        if step == "grow":
            b |= draw(few)
        elif step == "shrink":
            b -= draw(few)
        elif step == "jump":
            b = draw(vertices)
        step = draw(st.sampled_from(("gain", "lose", "stay", "whole")))
        if step == "gain":
            view |= draw(few)
        elif step == "lose":
            view -= draw(few)
        calls.append((draw(st.sampled_from(Player)), b, None if step == "whole" else view))
    return build_game(owners, [0] * n, succs), calls


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(_cpre_sequences())
def test_bits_cpre_matches_a_from_scratch_reference(case):
    # Every path of the kernel: the growth of the last call, the recheck
    # against the same player's last call, and the call from scratch. A bdd
    # space gives the same answers on the small games.
    game, calls = case
    n = game.vertex_count
    spaces = [SetSpace(game)]
    if n <= 12:
        spaces.append(SetSpace(game, backend="bdd"))
    for player, b_ids, w_ids in calls:
        want = cpre_oracle(game, player, b_ids, range(n) if w_ids is None else w_ids)
        for space in spaces:
            within = None if w_ids is None else space.from_ids(w_ids)
            assert ids(space.cpre(player, space.from_ids(b_ids), within=within)) == want


def test_bits_cpre_memo_skips_work_on_an_unchanged_target(sample_game):
    space = SetSpace(sample_game)
    succ = space._backend.succ = _CountingList(space._backend.succ)
    b = space.from_ids((3, 5))
    first = space.cpre(Player.ODD, b)
    # A miss takes the predecessors of the target inside the view, {1, 2, 3,
    # 4}, and looks up only the opponent's: odd's 1 and 4 qualify unread.
    assert succ.lookups == 2
    again = space.cpre(Player.ODD, b)
    assert succ.lookups == 2  # nothing grew, nothing to recheck
    assert ids(again) == ids(first)
    other = space.cpre(Player.EVEN, b)
    assert succ.lookups == 4  # another player misses: odd's 1 and 4
    assert ids(other) == cpre_oracle(sample_game, Player.EVEN, {3, 5}, range(8))


@pytest.mark.parametrize("player", [Player.EVEN, Player.ODD])
def test_bits_cpre_miss_checks_only_predecessors_of_the_target(player):
    # On the ladder, vertex 1000's predecessors are 1000 and 1001, one of
    # each player, so a first cpre of {1000} over all 2000 vertices looks up
    # only the opponent's mask.
    g = ladder(2000)
    space = SetSpace(g)
    bdd = SetSpace(g, backend="bdd")
    succ = space._backend.succ = _CountingList(space._backend.succ)
    got = space.cpre(player, space.singleton(1000))
    assert succ.lookups == 1
    want = bdd.cpre(player, bdd.singleton(1000))
    assert ids(got) == ids(want) == cpre_oracle(g, player, {1000}, range(2000))


@pytest.mark.parametrize("player", [Player.EVEN, Player.ODD])
def test_bits_cpre_of_a_target_outside_the_view_looks_up_nothing(player):
    g = ladder(2000)
    space = SetSpace(g)
    bdd = SetSpace(g, backend="bdd")
    succ = space._backend.succ = _CountingList(space._backend.succ)
    # Vertex 1700 moves into the target, but only b & within counts.
    view, target = range(1700, 2000), range(1600, 1700)
    got = space.cpre(player, space.from_ids(target), within=space.from_ids(view))
    assert succ.lookups == 0
    assert ids(got) == frozenset()
    want = bdd.cpre(player, bdd.from_ids(target), within=bdd.from_ids(view))
    assert ids(want) == cpre_oracle(g, player, set(target), view) == frozenset()


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(small_games(), st.sampled_from(["bits", "bdd"]), st.sampled_from(list(Player)), st.data())
def test_closure_matches_the_per_vertex_attractor(g, backend, player, data):
    # One round per layer that grows the set and a last one that finds it
    # contained: a cpre and a containment test each, a union per growing
    # round, and a peak of the seed's copy, the step and their union.
    vertices = st.frozensets(st.integers(0, g.vertex_count - 1))
    seed = data.draw(vertices, label="seed")
    within = data.draw(st.none() | vertices, label="within")
    want, want_edges, layers = attractor_layers(g, player, seed, within)
    space = SetSpace(g, backend=backend)
    backend_ = space._backend
    view = None if within is None else backend_.from_ids(sorted(within))
    for edges in (None, {}):
        before = space.counters.snapshot()
        got = space.closure(player, backend_.from_ids(sorted(seed)), view, edges)
        c = space.counters
        assert frozenset(backend_.ids(got)) == want
        assert edges is None or edges == want_edges
        assert c.cpre_ops - before.cpre_ops == layers + 1
        assert c.containment_tests - before.containment_tests == layers + 1
        assert c.unions - before.unions == layers
        assert c.basic_total - before.basic_total == 2 * layers + 1
        assert c.live_sets == before.live_sets + 1
        assert c.peak_live_sets == max(before.peak_live_sets,
                                       before.live_sets + (3 if layers else 2))


def test_bits_attractor_kernel_work_is_linear_on_a_chain():
    # Vertex i moves only to i-1 and vertex 0 to itself, so the attractor of
    # {0} grows by one vertex per round: n cpre calls. Recomputing each over
    # the whole view would look up n * n successor masks.
    n = 2000
    chain = build_game([v % 2 for v in range(n)], [0] * n,
                       [[0]] + [[v - 1] for v in range(1, n)])
    for player in (Player.EVEN, Player.ODD):
        space = SetSpace(chain)
        succ = space._backend.succ = _CountingList(space._backend.succ)
        result = attractor(chain, player, space.singleton(0))
        assert result.attractor.count() == n
        assert space.counters.cpre_ops == n
        assert succ.lookups <= 2 * n


@pytest.mark.parametrize("make", [lambda: ladder(300), lambda: gen_random(2048, 5, 1, 3, 0)],
                         ids=["ladder-300", "random-2048"])
def test_bits_cpre_decodes_dense_and_sparse_masks_alike(make, monkeypatch):
    # A miss reads its growth and its candidates, both dense here, in one
    # pass each; growing the target by one vertex then leaves one-bit masks
    # to the low-bit loop. Either player, the whole game or a view that cuts
    # edges.
    g = make()
    n = g.vertex_count
    read = []
    one_pass = sets._set_bits
    monkeypatch.setattr(sets, "_set_bits", lambda a: read.append(a) or one_pass(a))
    rng = random.Random(17)
    bits = SetSpace(g, backend="bits")
    bdd = SetSpace(g, backend="bdd")
    cut = frozenset(v for v in range(n) if rng.random() < 0.7)
    for player in (Player.EVEN, Player.ODD):
        for w_ids in (None, cut):
            view = frozenset(range(n)) if w_ids is None else w_ids
            w1 = w2 = None
            if w_ids is not None:
                w1, w2 = bits.from_ids(w_ids), bdd.from_ids(w_ids)
            b_ids = {v for v in view if rng.random() < 0.5}
            growth = rng.sample(sorted(view - b_ids), 3)
            for k, v in enumerate([None, *growth]):
                if v is not None:
                    b_ids.add(v)
                target = bits.from_ids(b_ids)
                read.clear()
                got = bits.cpre(player, target, within=w1)
                assert len(read) == (0 if k else 2), (player, w_ids is None, k)
                want = bdd.cpre(player, bdd.from_ids(b_ids), within=w2)
                assert ids(got) == ids(want) == cpre_oracle(g, player, b_ids, view)


def test_bits_kernel_lookups_on_a_ladder_solve(monkeypatch):
    # The recursion alternates players from level to level, so nearly every
    # call misses the last one; falling back to the same player's last call
    # rechecks only what changed. Walking each target from scratch instead
    # reads 11,625 successor and 22,950 predecessor masks here: O(k^2).
    backends = []

    class Counted(sets._BitsBackend):
        def __init__(self, game):
            super().__init__(game)
            self.succ = _CountingList(self.succ)
            self.pred = _CountingList(self.pred)
            backends.append(self)

    monkeypatch.setattr(sets, "_BitsBackend", Counted)
    report = classic_parity(ladder(300))
    assert len(backends) == 1
    assert backends[0].succ.lookups == 620
    assert backends[0].pred.lookups == 798
    assert report.counters.cpre_ops == 600


def _loader_games():
    """Random games up to n = 2048, a ladder, a game of 300 priorities with
    several vertices per priority, and parsed hand-made games with duplicate
    edges, out-of-order lines, names and self-loop repair."""
    games = [gen_random(n, 5, 1, 3, seed) for seed, n in enumerate((1, 2, 7, 64, 65, 300, 2048))]
    games += corpus(40, seed0=2300)
    games.append(ladder(300))
    # Past 255 priorities the classes are grouped a vertex at a time: two
    # vertices for each priority but 299, which holds 152, in shuffled order.
    rng = random.Random(12)
    priorities = [p % 300 for p in range(600)] + [299] * 150
    rng.shuffle(priorities)
    games.append(build_game([rng.randrange(2) for _ in priorities], priorities,
                            [rng.sample(range(750), 3) for _ in priorities]))
    games.append(parse_pgsolver(
        'parity 4;\n3 2 1 0,0,3 ;\n0 4 0 1,1 "zero";\n1 0 1 3, 0,3 "one";\n'
        '2 1 0 2;\n4 3 1 4,4,0;\n'))
    games.append(parse_pgsolver("1 3 0 ;\n0 0 1 4,2,4;\n", add_self_loops=True))
    return games


def _mask_bit_by_bit(ids) -> int:
    m = 0
    for v in ids:
        m |= 1 << v
    return m


def test_bits_masks_match_the_id_lists():
    for g in _loader_games():
        space = SetSpace(g)
        backend = space._backend
        evens = [v for v, o in enumerate(g.owner) if o is Player.EVEN]
        odds = [v for v, o in enumerate(g.owner) if o is Player.ODD]
        assert backend.succ == [_mask_bit_by_bit(succs) for succs in g.successors]
        assert backend.pred == [_mask_bit_by_bit(preds) for preds in g.predecessors]
        assert space.owned[Player.EVEN].payload == _mask_bit_by_bit(evens)
        assert space.owned[Player.ODD].payload == _mask_bit_by_bit(odds)
        assert [space.priority_sets[q].payload for q in range(g.priority_count)] == [
            _mask_bit_by_bit(v for v, p in enumerate(g.priority) if p == q)
            for q in range(g.priority_count)
        ]


def test_mask_matches_the_bit_loop():
    rng = random.Random(9)
    cases = [(), (0,), (2047,), range(2048), [5, 5, 0, 5]]
    # a few to a thousand ids, in any order, with repeats
    for k in (127, 128, 129, 1000):
        ids = rng.sample(range(3000), k)
        cases += [ids, sorted(ids), ids + ids[: k // 3]]
    for ids in cases:
        assert _mask(ids) == _mask_bit_by_bit(ids)
        assert _mask(iter(ids)) == _mask_bit_by_bit(ids)
    for bad in ([-1], list(range(200)) + [-1]):
        with pytest.raises((ValueError, IndexError)):
            _mask(bad)


def _ids_bit_by_bit(a: int) -> tuple[int, ...]:
    out = []
    while a:
        low = a & -a
        out.append(low.bit_length() - 1)
        a ^= low
    return tuple(out)


def test_bits_ids_match_the_bit_loop():
    backend = SetSpace(gen_random(2048, 5, 1, 3, 0))._backend
    rng = random.Random(8)
    masks = [0, 1, 1 << 2047, (1 << 2048) - 1, rng.getrandbits(2048), rng.getrandbits(70)]
    masks += [_mask_bit_by_bit(rng.sample(range(2048), k)) for k in (1, 2, 64, 500, 2000)]
    for a in masks:
        assert backend.ids(a) == _ids_bit_by_bit(a)
        assert backend.count(a) == len(backend.ids(a))


def test_bdd_count_and_ids_match_the_probe():
    # Widths on either side of a power of two, where the full set is the
    # true terminal; random sets and the cpre results built from them.
    rng = random.Random(8)
    for n in (1, 2, 3, 7, 8, 9, 64, 100):
        space = SetSpace(gen_random(n, 3, 1, 3, n), backend="bdd")
        backend = space._backend
        payloads = [backend.empty(), backend.full()]
        payloads += [backend.from_ids(v for v in range(n) if rng.random() < q)
                     for q in (0.1, 0.5, 0.9)]
        payloads += [backend.cpre(space.owned[p].payload, a, backend.full())
                     for p in Player for a in payloads[2:]]
        for a in payloads:
            probe = tuple(v for v in range(n) if backend.contains(a, v))
            assert backend.ids(a) == probe
            assert backend.count(a) == len(probe)
