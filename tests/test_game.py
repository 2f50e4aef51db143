"""Graph construction, validation, priority normalization, role swap."""

from __future__ import annotations

import random

import pytest

from paritysets import (
    DanglingEdge,
    GameError,
    NotClosed,
    ParityGame,
    Player,
    PriorityOutOfRange,
    SetSpace,
    VertexWithoutSuccessor,
    build_game,
    gen_random,
    normalize_priorities,
    solve_explicit_pm,
    subgame,
    swap_roles_increment,
)

from conftest import corpus


def test_build_basic_shape(sample_game):
    g = sample_game
    assert g.vertex_count == 8
    assert g.priority_count == 5
    assert g.owner[0] is Player.EVEN
    assert g.owner[1] is Player.ODD
    assert g.successors[7] == (2, 6)
    assert g.names[0] == "a"
    assert g.names[7] == "h"


def test_predecessors_are_inverted_edges(sample_game):
    g = sample_game
    for v in range(g.vertex_count):
        for w in g.successors[v]:
            assert v in g.predecessors[w]
    assert set(g.predecessors[3]) == {1, 2, 4}


def test_priority_classes(sample_game):
    sets = SetSpace(sample_game).priority_sets
    assert [sets[p].ids() for p in range(5)] == [(1, 3), (0, 2, 7), (6,), (4,), (5,)]


def test_duplicate_edges_are_dropped():
    g = build_game([0], [0], [[0, 0, 0]])
    assert g.successors[0] == (0,)
    # the first occurrence keeps its place
    g = build_game([0, 1], [0, 1], [[1, 0, 1, 1, 0], [1, 1]])
    assert g.successors == ((1, 0), (1,))
    assert g.predecessors == ((0,), (0, 1))


def test_missing_successor_rejected():
    with pytest.raises(VertexWithoutSuccessor) as err:
        build_game([0, 1], [0, 1], [[1], []])
    assert err.value.vertex == 1


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge) as err:
        build_game([0, 1], [0, 1], [[1], [2]])
    assert (err.value.source, err.value.target) == (1, 2)


def test_negative_priority_rejected():
    with pytest.raises(PriorityOutOfRange):
        build_game([0], [-1], [[0]])


def test_owners_are_players_and_bad_owners_rejected():
    g = build_game([Player.ODD, 0, True], [0, 1, 2], [[1], [2], [0]])
    assert g.owner == (Player.ODD, Player.EVEN, Player.ODD)
    assert all(type(o) is Player for o in g.owner)
    for bad in (2, -1, None, "1"):
        with pytest.raises(ValueError, match="not a valid Player"):
            build_game([0, bad], [0, 1], [[1], [0]])


def test_the_first_bad_vertex_is_blamed():
    # the checks run vertex by vertex, a dangling edge before an empty list
    with pytest.raises(VertexWithoutSuccessor) as err:
        build_game([0, 1, 0], [0, 1, 2], [[1], [], [5]])
    assert err.value.vertex == 1
    with pytest.raises(DanglingEdge) as err:
        build_game([0, 1, 0], [0, 1, 2], [[1], [0, -1, 7], []])
    assert (err.value.source, err.value.target) == (1, -1)
    with pytest.raises(PriorityOutOfRange) as err:
        build_game([0, 1, 0], [0, -2, -1], [[0], [1], [2]])
    assert (err.value.vertex, err.value.priority) == (1, -2)


def test_unequal_columns_rejected():
    with pytest.raises(GameError, match="must have equal length"):
        build_game([0, 1], [0], [[0], [0]])
    with pytest.raises(GameError, match="names must match the vertex count"):
        build_game([0], [0], [[0]], names="ab")


def _normalize_by_shifting(priorities):
    """The former normalization: close the smallest interior gap by shifting
    every priority above it down by 2, until no gap is left."""
    current = list(priorities)
    remap = {p: p for p in set(priorities)}
    while True:
        c = max(current) + 1 if current else 0
        present = set(current)
        gap = next((i for i in range(1, c) if i not in present), None)
        if gap is None:
            break
        for v, p in enumerate(current):
            if p > gap:
                current[v] = p - 2
        for old, new in list(remap.items()):
            if new > gap:
                remap[old] = new - 2
    return tuple(current), remap


def test_normalize_matches_the_shifting_loop():
    rng = random.Random(14)
    for _ in range(3000):
        n = rng.randint(1, 8)
        top = rng.choice((3, 10, 40))
        priorities = [rng.randint(0, top) for _ in range(n)]
        g = ParityGame(owner=(Player.EVEN,) * n, priority=tuple(priorities),
                       successors=tuple((v,) for v in range(n)))
        norm, remap = normalize_priorities(g)
        assert (norm.priority, remap) == _normalize_by_shifting(priorities)
        assert (norm is g) == (norm.priority == g.priority)


def test_normalize_closes_every_gap():
    g = build_game([0, 1, 0], [0, 0, 4], [[1], [2], [0]])
    norm, remap = normalize_priorities(g)
    assert norm.priority == (0, 0, 0)
    assert remap == {0: 0, 4: 0}
    # one step per distinct priority, however far apart they are
    g = build_game([0, 1, 0], [10**12, 10**12 + 1, 10**15 + 4], [[1], [0], [2]])
    norm, remap = normalize_priorities(g)
    assert norm.priority == (0, 1, 2)
    assert remap == {10**12: 0, 10**12 + 1: 1, 10**15 + 4: 2}


def test_normalize_keeps_parity_and_order():
    for g in corpus(120):
        norm, remap = normalize_priorities(g)
        assert norm.priority_count <= g.priority_count
        for old, new in remap.items():
            assert old % 2 == new % 2
            assert new <= old
        # no empty class strictly inside the range
        assert set(range(1, norm.priority_count)) <= set(norm.priority)
        # normalizing again changes nothing
        again, remap2 = normalize_priorities(norm)
        assert again.priority == norm.priority
        assert all(k == v for k, v in remap2.items())


def test_normalize_preserves_winners():
    for g in corpus(60, seed0=300):
        norm, _ = normalize_priorities(g)
        assert solve_explicit_pm(g).winning_even == solve_explicit_pm(norm).winning_even


def test_swap_roles_increment_flips_the_winner():
    for g in corpus(60, seed0=900):
        flipped = swap_roles_increment(g)
        assert flipped.successors == g.successors
        assert all(
            a is b.opponent() for a, b in zip(flipped.owner, g.owner)
        )
        assert all(p == q + 1 for p, q in zip(flipped.priority, g.priority))
        win_even = set(solve_explicit_pm(g).winning_even)
        win_even_flipped = set(solve_explicit_pm(flipped).winning_even)
        assert win_even_flipped == set(range(g.vertex_count)) - win_even


def test_subgame_reindexes_and_checks_closure(sample_game):
    g = sample_game
    sub, kept = subgame(g, {3, 4, 5, 6})
    assert kept == (3, 4, 5, 6)
    assert isinstance(sub, ParityGame)
    assert sub.priority == (0, 3, 4, 2)
    # edges survive under the new ids
    assert sub.successors[kept.index(3)] == (kept.index(5),)
    # edges leaving the region are dropped; b keeps only its move to a
    sub2, kept2 = subgame(g, {0, 1})
    assert sub2.successors == ((1,), (0,))
    with pytest.raises(NotClosed) as err:
        subgame(g, {0, 3})  # a's only move leaves the region
    assert err.value.vertex == 0
    with pytest.raises(GameError, match="vertex 3 outside the game"):
        subgame(build_game([0], [0], [[0]]), [3])
