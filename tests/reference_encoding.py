"""References for the measure iteration's loop, the encodings' reads and
commits, and the measure strategy reading.

`reference_pm_run` runs the iteration one counted `SetSpace` operation at a
time, and `ReferenceLinearState` and `ReferenceDirectState` do the same for
the encodings' reads and commits: each intermediate is a `VertexSet` that is
built, counted, then released, and each changed row or rank set is a new
set. The library computes on raw payloads and counts them in place on the
space's counters; both must leave the same counters, trace events, rank
states and answers.

`reference_extract_strategy_from_pm` reads a finished run's strategy by
targets: for each winning vertex v it takes the controlled predecessors of
{v} and, per predecessor priority, the set of the rank a move to v would
justify, with each vertex's rank from one uncounted `ranks()` read. The
library compares ranks instead; both must pick the same successors, and
the library may move no counter.
"""

from __future__ import annotations

from paritysets.game import Player
from paritysets.measure import (
    DirectFamilyState,
    LinearSpaceState,
    PmRun,
    PreconditionViolated,
    _View,
)
from paritysets.ranks import TOP, RankDomain
from paritysets.sets import SetSpace, VertexSet
from paritysets.strategy import IncompleteStrategy, Strategy


class ReferenceDirectState(DirectFamilyState):
    def read(self, r) -> VertexSet:
        return self.space.copy(self.sets[r])

    def commit(self, r, working: VertexSet, old: VertexSet, d, floor) -> None:
        space = self.space
        if not space._backend.is_subset(old.payload, working.payload):
            raise PreconditionViolated("rank set may only grow")
        rp = d
        while rp != floor:
            grown = space.union(self.sets[rp], working)
            space.release(self.sets[rp])
            self.sets[rp] = grown
            rp = self.domain.decr(rp)
        space.release(self.sets[r], old)
        self.sets[r] = working


class ReferenceLinearState(LinearSpaceState):
    def read(self, r) -> VertexSet:
        space = self.space
        if r is TOP:
            return space.copy(self.top)
        acc = space.copy(self.top)
        running = None
        for p in range(len(self.eff_caps) - 1, -1, -1):
            row = self.coordinate[p]
            x = r[p]
            if x < self.eff_caps[p]:
                seg = (space.copy(row[x + 1]) if running is None
                       else space.intersect(running, row[x + 1]))
                joined = space.union(acc, seg)
                space.release(acc, seg)
                acc = joined
            if x:
                narrowed = (space.copy(row[x]) if running is None
                            else space.intersect(running, row[x]))
                if running is not None:
                    space.release(running)
                running = narrowed
        if running is None:
            running = space.copy(self.universe)
        joined = space.union(acc, running)
        space.release(acc, running)
        return joined

    def commit(self, r, working: VertexSet, old: VertexSet, d, floor) -> None:
        space = self.space
        backend = space._backend
        if not backend.is_subset(old.payload, working.payload):
            raise PreconditionViolated("rank set may only grow")
        delta = space.difference(working, old)
        space.release(working, old)
        empty = backend.empty()
        if r is not TOP and backend.intersect(delta.payload, self.top.payload) != empty:
            raise PreconditionViolated("a TOP vertex cannot take a finite rank")
        split = False
        for p in range(len(self.coordinate) - 1, -1, -1):
            row = self.coordinate[p]
            if split:
                lo, hi = 0, len(row) - 1
            else:
                lo, hi = floor[p], d[p]
                split = lo != hi
            if not backend.is_subset(delta.payload, row[lo].payload) or (
                hi + 1 < len(row)
                and backend.intersect(delta.payload, row[hi + 1].payload) != empty
            ):
                raise PreconditionViolated("the delta must sit between the floor and decr(r)")
            y = -1 if r is TOP else r[p]
            for i in range(min(lo, y) + 1, max(hi, y) + 1):
                changed = (space.union if i <= y else space.difference)(row[i], delta)
                space.release(row[i])
                row[i] = changed
        if r is TOP:
            grown = space.union(self.top, delta)
            space.release(self.top)
            self.top = grown
        space.release(delta)


def reference_pm_run(space: SetSpace, universe: VertexSet, bound: int | None = None,
                     swap: bool = False, representation: str = "linear",
                     trace=None) -> PmRun:
    """`_pm_run` without invariant checks, one counted set operation at a time."""
    view = _View(space, universe, swap)
    domain = RankDomain(c=view.c, caps=view.caps, bound=bound)
    encodings = {"linear": ReferenceLinearState, "direct": ReferenceDirectState}
    state = encodings[representation](view, domain)
    positions = domain.positions
    classes = view.classes
    r = domain.incr(domain.zero)
    above: list[VertexSet | None] = [None] * (positions + 1)
    if r is not TOP:
        acc = None
        for level in range(view.c - 1, 1, -1):
            joined = classes[level] if acc is None else space.union(acc, classes[level])
            if level % 2 == 0:
                if acc is not None and not acc.pinned:
                    space.release(acc)
                above[level // 2] = joined
            acc = joined
    d = domain.zero
    below = space.copy(universe)
    iterations = 0
    while True:
        iterations += 1
        old = state.read(r)
        working = space.copy(old)

        if r is TOP:
            max_pos = positions
        else:
            max_pos = 1
            while not r[max_pos - 1]:
                max_pos += 1
        for p in range(max_pos):
            level = 2 * p + 1
            source = state.read(domain.decr_at(r, level)) if p else below
            step = space.cpre(view.odd_role, source, within=universe)
            if p:
                space.release(source)
            seeded = space.intersect(step, classes[level])
            grown = space.union(working, seeded)
            space.release(step, seeded, working)
            working = grown

        forbidden = None if r is TOP else above[max_pos]
        while True:
            step = space.cpre(view.odd_role, working, within=universe)
            if forbidden is not None:
                add = space.difference(step, forbidden)
                space.release(step)
            else:
                add = step
            if space.is_subset(add, working):
                space.release(add)
                break
            grown = space.union(working, add)
            space.release(add, working)
            working = grown

        floor = d
        held = below
        while not space.is_subset(working, held):
            floor = domain.decr(floor)
            space.release(held)
            held = state.read(floor)
        rolled_back = floor != d

        if rolled_back:
            next_rank = domain.incr(floor)
        elif r is TOP:
            next_rank = None
        else:
            next_rank = domain.incr(r)
        if trace is not None:
            trace({"iteration": iterations, "rank": r, "added": working.count() - old.count(),
                   "next_rank": next_rank, "rolled_back": rolled_back})
        if not rolled_back:
            space.release(held)
            held = space.copy(working) if next_rank is not None else None
        below = held
        state.commit(r, working, old, d, floor)
        if next_rank is None:
            break
        r, d = next_rank, floor if rolled_back else r

    space.release(*(s for s in above if s is not None and not s.pinned))
    top_set = state.read(TOP)
    winning = space.difference(universe, top_set)
    space.release(top_set)
    return PmRun(space=space, winning=winning, state=state, domain=domain,
                 iterations=iterations)


def reference_extract_strategy_from_pm(state) -> Strategy:
    """Each winning vertex v, ascending, is the pick of every uncovered
    player vertex u of priority l that has an edge to it and
    rank(u) = incr_at(rank(v), l): the lowest-id optimal successor."""
    view = state.view
    space = state.space
    domain = state.domain
    player = Player.ODD if view.swap else Player.EVEN
    mine = space.owned[player]
    priority, shift = space.game.priority, view.shift

    top_set = state.read(TOP)
    uncovered = space.difference(view.universe, top_set)
    space.release(top_set)
    rank = state.ranks()
    choice: dict[int, int] = {}
    for v in uncovered.ids():
        rank_v = rank[v]
        one = space.singleton(v)
        preds = space.cpre(view.odd_role.opponent(), one, within=view.universe)
        space.release(one)
        levels = sorted({priority[u] + shift for u in space.game.predecessors[v]})
        for level in levels:
            target = domain.incr_at(rank_v, level)
            if target is TOP:
                continue
            cls = view.classes[level]
            if cls is None:
                continue
            holders = state.read(target)
            cand = space.intersect(preds, holders)
            space.release(holders)
            cand2 = space.intersect(cand, mine)
            cand3 = space.intersect(cand2, cls)
            cand4 = space.intersect(cand3, uncovered)
            space.release(cand, cand2, cand3)
            for u in cand4.ids():
                choice[u] = v
            shrunk = space.difference(uncovered, cand4)
            space.release(uncovered, cand4)
            uncovered = shrunk
        space.release(preds)
    leftover = space.intersect(uncovered, mine)
    incomplete = not space.is_empty(leftover)
    missing = leftover.ids()
    space.release(leftover, uncovered)
    if incomplete:
        raise IncompleteStrategy(f"no choice assigned for vertices {missing}")
    return Strategy(player=player, domain=frozenset(choice), choice=choice)
