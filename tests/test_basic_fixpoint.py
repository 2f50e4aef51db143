"""The basic nested fixpoint as a counted comparator for the measure iteration."""

from __future__ import annotations

import pytest

from paritysets import solve_explicit_pm, solve_pm_symbolic

from basic_fixpoint import basic_fixpoint
from conftest import corpus, ids, ladder


def test_agrees_with_the_explicit_solver_on_the_corpus():
    for g in corpus(200):
        even, space = basic_fixpoint(g)
        assert ids(even) == solve_explicit_pm(g).winning_even
        # Only the pinned sets and the answer outlive the run.
        assert space.counters.live_sets == 4 + space.game.priority_count + 1


@pytest.mark.parametrize("k, cpre_ops, peak", [(6, 672, 19), (8, 5_248, 23), (10, 39_040, 27)])
def test_ladder_counts(k, cpre_ops, peak):
    # cpre grows about 7.5x per two priorities; the peak is the pinned sets
    # (the full set, both players' sets, the empty set and one class per
    # priority), one set per variable and the body's three intermediates.
    even, space = basic_fixpoint(ladder(k))
    assert ids(even) == frozenset(range(k))
    c = space.counters
    assert (c.cpre_ops, c.peak_live_sets) == (cpre_ops, peak)
    assert peak == 4 + k + k + 3
    # The measure iteration decides the same ladder in a small fraction of
    # the basic algorithm's cpre ops.
    assert solve_pm_symbolic(ladder(k)).counters.cpre_ops * 3 < cpre_ops
