"""Rank vectors: ordering, stepping, projection, domain sizes."""

from __future__ import annotations

import random
from itertools import product
from math import comb

import pytest

from paritysets import RankDomain, TOP


def full_domain():
    # two counters capped at 3 and 1, five priorities
    return RankDomain(c=5, caps=(3, 1))


def random_domain(rng: random.Random) -> RankDomain:
    positions = rng.randint(0, 3)
    caps = tuple(rng.randint(0, 3) for _ in range(positions))
    c = 2 * positions + 1 if positions == 0 or rng.random() < 0.5 else 2 * positions
    bound = rng.choice([None, 0, 1, 2, 3])
    return RankDomain(c=c, caps=caps, bound=bound)


def test_full_iteration_order_is_fixed():
    dom = full_domain()
    assert list(dom.iterate()) == [
        (0, 0), (1, 0), (2, 0), (3, 0),
        (0, 1), (1, 1), (2, 1), (3, 1),
        TOP,
    ]
    assert dom.size() == 9


def test_bounded_domains_shrink():
    dom1 = RankDomain(c=5, caps=(3, 1), bound=1)
    assert list(dom1.iterate()) == [(0, 0), (1, 0), (0, 1), TOP]
    assert dom1.size() == 4
    dom0 = RankDomain(c=5, caps=(3, 1), bound=0)
    assert list(dom0.iterate()) == [(0, 0), TOP]
    assert dom0.size() == 2


def test_cap_mismatch_rejected():
    with pytest.raises(ValueError):
        RankDomain(c=5, caps=(3,))


def test_domains_compare_and_hash_by_value():
    dom = RankDomain(c=5, caps=(3, 1), bound=2)
    assert dom == RankDomain(5, (3, 1), 2) and hash(dom) == hash(RankDomain(5, (3, 1), 2))
    assert dom != RankDomain(c=5, caps=(3, 1)) and dom != RankDomain(c=6, caps=(3, 1, 0))
    assert len({dom, RankDomain(5, (3, 1), 2), full_domain(), full_domain()}) == 2
    assert dom.positions == 2
    assert repr(dom) == "RankDomain(c=5, caps=(3, 1), bound=2)"


def test_top_is_a_shared_singleton():
    assert repr(TOP) == "TOP"
    assert (TOP == (0, 0)) is False
    tiny = RankDomain(c=1, caps=())
    ranks = list(tiny.iterate())
    assert ranks == [(), TOP]
    assert ranks[-1] is TOP


def test_compare_and_iterate_agree():
    rng = random.Random(7)
    for _ in range(120):
        dom = random_domain(rng)
        ranks = list(dom.iterate())
        assert ranks[-1] is TOP
        for i, a in enumerate(ranks):
            assert dom.compare(a, a) == 0
            for b in ranks[i + 1:]:
                assert dom.compare(a, b) < 0
                assert dom.compare(b, a) > 0


def test_incr_decr_walk_the_order():
    rng = random.Random(8)
    for _ in range(120):
        dom = random_domain(rng)
        ranks = list(dom.iterate())
        for a, b in zip(ranks, ranks[1:]):
            assert dom.incr(a) == b
            assert dom.decr(b) == a


def test_size_matches_enumeration_and_bound():
    rng = random.Random(9)
    for _ in range(200):
        dom = random_domain(rng)
        ranks = list(dom.iterate())
        assert dom.size() == len(ranks)
        assert dom.size() <= dom.size_upper_bound()
        if dom.bound is not None:
            assert dom.size_upper_bound() == comb(dom.bound + dom.positions, dom.bound) + 1
        for r in ranks[:-1]:
            assert dom.contains(r)
            assert all(x <= cap for x, cap in zip(r, dom.caps))
            if dom.bound is not None:
                assert sum(r) <= dom.bound


def test_size_ignores_a_bound_above_the_caps_sum():
    # The count must not scale with the bound: one at or above the caps' sum
    # bounds nothing, so even 10**18 is counted at once.
    unbounded = RankDomain(c=6, caps=(3, 4, 2))
    assert RankDomain(c=6, caps=(3, 4, 2), bound=10**18).size() == unbounded.size() == 61
    assert RankDomain(c=6, caps=(3, 4, 2), bound=9).size() == 61
    assert RankDomain(c=6, caps=(3, 4, 2), bound=8).size() == 60


def test_projection_zeroes_low_positions():
    dom = full_domain()
    assert dom.project((3, 1), 0) == (3, 1)
    assert dom.project((3, 1), 1) == (3, 1)
    assert dom.project((3, 1), 2) == (0, 1)
    assert dom.project((3, 1), 3) == (0, 1)
    assert dom.project((3, 1), 4) == (0, 0)
    assert dom.project(TOP, 2) is TOP


def test_level_compare_uses_projection():
    rng = random.Random(10)
    for _ in range(80):
        dom = random_domain(rng)
        ranks = list(dom.iterate())
        for a in ranks:
            for b in ranks:
                for level in range(dom.c):
                    want = dom.compare(dom.project(a, level), dom.project(b, level))
                    assert dom.compare(a, b, level=level) == want


def test_restricted_steps_on_the_sample_domain():
    dom = full_domain()
    # even level: plain projection, never past TOP
    assert dom.incr_at((3, 1), 2) == (0, 1)
    assert dom.incr_at((3, 1), 0) == (3, 1)
    assert dom.incr_at(TOP, 2) is TOP
    # odd level: strictly up in the projected order
    assert dom.incr_at((0, 0), 1) == (1, 0)
    assert dom.incr_at((3, 0), 1) == (0, 1)
    assert dom.incr_at((3, 1), 1) is TOP
    assert dom.incr_at((0, 0), 3) == (0, 1)
    assert dom.incr_at((0, 1), 3) is TOP
    # stepping down from TOP lands on the highest surviving vector
    assert dom.decr_at(TOP, 1) == (3, 1)
    assert dom.decr_at(TOP, 3) == (0, 1)
    assert dom.decr_at((0, 1), 1) == (3, 0)
    assert dom.decr_at((0, 1), 3) == (0, 0)


def test_restricted_steps_bounded_domain():
    dom = RankDomain(c=5, caps=(3, 1), bound=1)
    assert dom.decr_at((0, 1), 1) == (1, 0)
    assert dom.decr_at(TOP, 1) == (0, 1)
    assert dom.incr_at((1, 0), 1) == (0, 1)
    assert dom.incr_at((0, 1), 1) is TOP


def test_restricted_step_identities():
    rng = random.Random(11)
    for _ in range(150):
        dom = random_domain(rng)
        ranks = list(dom.iterate())
        for x in ranks[:-1]:
            for level in range(dom.c):
                up = dom.incr_at(x, level)
                if level % 2 == 0:
                    assert up == dom.project(x, level)
                    continue
                if up is TOP:
                    continue
                # decr_at is the least preimage of incr_at
                down = dom.decr_at(up, level)
                assert dom.incr_at(down, level) == up
                if dom.project(x, level) != dom.zero:
                    assert dom.decr_at(dom.incr_at(x, level), level) == dom.project(x, level)


def test_decr_undoes_incr_and_level_one_steps_like_decr():
    # The measure loop carries S_decr(r) into the next iteration and seeds
    # position 0 from S_decr_at(r, 1); both rest on these two identities.
    ranks = 0
    for caps in product(range(4), repeat=3):
        for bound in (None, 0, 1, 2, 3, 5):
            dom = RankDomain(c=6, caps=caps, bound=bound)
            for r in dom.iterate():
                assert dom.decr_at(r, 1) == dom.decr(r), (caps, bound, r)
                if r is not TOP:
                    assert dom.decr(dom.incr(r)) == r, (caps, bound, r)
                    ranks += 1
    assert ranks == 3231


def test_max_vector_and_edges():
    dom = full_domain()
    assert dom.max_vector() == (3, 1)
    assert dom.incr((3, 1)) is TOP
    assert dom.decr(TOP) == (3, 1)
    assert dom.incr(TOP) is TOP
