"""The basic nested fixpoint, counted: the paper's O(n^c) baseline.

    W_even = sZ_{c-1} ... sZ_0 . U_j (P_j & cpre_even(Z_j))

with a greatest fixpoint at even j and a least one at odd j, the highest
priority outermost. It runs over a `SetSpace`, so its counters read on the
same cost model as the solvers': c `cpre` ops per evaluation of the body
and, as live sets, one per variable plus the body's three intermediates.

Inner fixpoints are not warm-started: every outer round restarts each inner
variable from the empty set (least) or all vertices (greatest), as in the
basic algorithm, so the `cpre` count is the O(n^c) one. It is a comparator
for tests, not a solver.
"""

from __future__ import annotations

from paritysets import Player
from paritysets.game import ParityGame, normalize_priorities
from paritysets.sets import SetSpace


def basic_fixpoint(game: ParityGame, backend: str = "bits"):
    """The even player's winning region and the space that counted it."""
    norm, _ = normalize_priorities(game)
    space = SetSpace(norm, backend=backend)
    env = [None] * norm.priority_count
    return _fixpoint(space, env, len(env) - 1), space


def _fixpoint(space: SetSpace, env: list, j: int):
    """sZ_j with the variables above j held in `env`; a fresh set."""
    z = space.copy(space.full) if j % 2 == 0 else space.empty_set()
    while True:
        env[j] = z
        new = _body(space, env) if j == 0 else _fixpoint(space, env, j - 1)
        if space.equals(new, z):
            space.release(new)
            return z
        space.release(z)
        z = new


def _body(space: SetSpace, env: list):
    acc = None
    for j, z in enumerate(env):
        step = space.cpre(Player.EVEN, z)
        part = space.intersect(space.priority_sets[j], step)
        space.release(step)
        if acc is None:
            acc = part
        else:
            joined = space.union(acc, part)
            space.release(acc, part)
            acc = joined
    return acc
