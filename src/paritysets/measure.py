"""Set-based progress measure iteration.

The solver never touches individual ranks of vertices. It maintains, for
the current candidate rank r, the set S_r of vertices whose rank is at
least r, and walks ranks upward, seeding S_r from the sets of the
appropriate predecessor ranks, closing it under the odd player's controlled
predecessor, and rolling back to lower ranks whenever the grown S_r is not
contained in them (their sets are then updated too).

Two interchangeable encodings of the whole family {S_r}:

* DirectFamilyState stores one set per rank (exponentially many sets).
* LinearSpaceState stores, per odd priority, one set per counter value
  (the set of vertices whose rank has at least that counter there), plus
  the set of TOP vertices: linear space, and each position's rows are
  nested. Any S_r is reconstructed on demand in at most 3c/2 + 1 basic
  operations. An update raises vertices whose ranks lie between the rank
  the roll-back walk stopped at and decr(r) (the same rank without a
  roll-back), which bounds each position's old counter; the update
  touches the rows between those bounds and the new counter and probes
  none. Updating rank r's set implicitly updates every lower rank's set,
  which is what makes a roll-back free of explicit unions in this encoding.
  Rows change in place.

Both encodings are built from the run's view and run through the same
control loop, which needs three operations of them, all on payloads and all
adding their own operations to the space's counters: `_reconstruct(r)`
gives S_r and the most sets reading it would have held at once,
`_floor(w, below, d)` runs the roll-back walk (below), and `commit(r, w,
old, d, floor)` stores S_r's growth from `old` to `w`, given the ranks the
walk holds: d = decr(r) and the floor it stopped at. The linear encoding
adds the block operations below. So preimage and containment counts agree
between them by construction. `read(r)` hands callers outside
the loop a fresh S_r, and `ranks()` every vertex's rank, read off raw
payloads and counted nowhere: strategy extraction and the invariant checker
read ranks through it alone.

Each iteration is one payload transaction that makes and releases no set:
the loop counts the rest of its operations and the iteration's peak in
place on the space's counters, so the counters and the peak read as if
every intermediate had been a set, and reports after its commit: a trace
event, and a boundary check when checking invariants. The peak is seeding's, as
no other phase holds more; a view with no odd priority never seeds and
peaks in closure.

Every `cpre` of a run has the same player and view, so the loop asks the
kernel through a per-run memo keyed by the target payload alone (a bit
mask, or a canonical BDD node id). It keeps the last _CPRE_MEMO (64)
distinct targets' results and drops the oldest first, O(64 n) bits at most.
Roll-backs re-read unchanged lower rank sets, and a closure's last round
targets the S_r the next iteration seeds from, so most calls repeat. A hit
counts as the op it stands for in the iteration's count: counters, peak
and trace are those of a run without the memo.

The loop carries decr(r) and S_decr(r) between iterations. S_decr(r) seeds
position 0 (decr_at(r, 1) is decr(r)) and is the first set the roll-back
walk tests, which the loop makes itself; it calls `_floor` only when w
fails it. The walk steps down from decr(r), reading and testing one set
per rank, until a set holds the grown S_r, w. Every lower set holds w's part
in S_decr(r), so the floor is the least rank in the rest of w. The linear
`_floor` reads it off the rows with uncounted payload ops, counts the
skipped reads per block of ranks in which only r[0] moves, as `_stretch`
does, and reads S_floor; the direct one steps, as its reads count nothing.
Both raise `AssertionError` for a w that leaves the universe, where a step
walk would loop at zero. As decr(incr(x)) is x, both are in hand for the
next rank: r and the committed S_r when nothing rolled back, else the
walk's floor and S_floor, which the commit leaves unchanged. Per run, one
descending pass of c - 3 unions builds the at most c/2 sets of classes
closure may not add.

The closure lemma. Write cpre for the view's odd player's controlled
predecessor and `low` for the universe outside above[1], the view's classes
0 and 1. At the start of every turn at r, with d = decr(r), cpre of the
carried S_d meets `low` only inside S_d. On a run's first turn S_d is the
universe. A stationary stretch (below) carries S_d on as it found it.
Otherwise let r' be the turn before, which leaves S_d in one of two ways:
- r' did not roll back. S_d is its w, whose final closure round found
  cpre(w) minus above[m], m >= 1, inside w, and above[m] lies in above[1].
- r' rolled back to its floor f = d and left S_f as it was. Suppose some v
  in `low` outside S_f lay in cpre(S_f). Then v's best successor rank,
  best(v), is at least f and above v's rank, so before r' v was not at a
  lift fixpoint, and the boundary invariant that
  `_InvariantChecker.boundary` checks put its lift at r' or above. In
  class 1 the lift is incr(best(v)), so best(v) >= decr(r'), and the
  position-0 seeding of r', cpre(S_decr(r')) within class 1, put v into w.
  In class 0 the lift is best(v) itself, so v lay in cpre(S_r'), inside
  cpre(w) and outside every set closure forbids, and the closure of r' put
  v into w. Either way v lay in w, inside S_f: a contradiction.
Take a turn at a finite r = (x, high) with x > 0. It has d = (x - 1, high),
seeds from position 0 alone and closes under above[1]. Its w starts at S_r,
inside S_d, and while w lies in S_d each vertex that seeding or closure
adds lies in `low` and, as cpre is monotone, in cpre(S_d): the lemma keeps
w inside S_d. Hence (a) the turn never rolls back, as the walk's one test
holds; and (b) with S_r equal to S_d it is stationary: seeding adds
nothing to S_r, one closure round under above[1] adds nothing, and the
walk's one test holds.

By (b), a turn at such an r is stationary when S_r equals the carried S_d,
which one uncounted payload equality tells. (A growing last turn leaves S_r
strictly inside S_decr(r), so the equality also says it was idle.) TOP
never is: its closure forbids nothing. Stationary iterations come in
stretches, in which only r[0] moves and the rank state stays as it is: with
high = r[1:], S_(x+1, high) is S_(x, high) less the vertices of rank (x,
high), so a stretch runs on while no vertex holds the rank just processed,
and ends there, at position 0's cap or at a bounded domain's sum bound.
From a stationary iteration of a linear run, `_stretch(r, end, fold)` finds
its stretch's end with uncounted payload ops and counts each later rank's
read and idle commit. The loop commits r idly and counts every rank up to
the jump's end as a stationary iteration, so counters, peak, trace and
iteration count stay as they were. A direct run, the exponential-space
baseline, skips nothing: its stationary iterations run seeding, closure and
the walk in full, which count the same.

A linear run takes its turns in blocks: the ranks (x, high) that share
their higher counters high = r[1:]. A turn at (x, high) with x > 0 whose
walk test held has w inside S_d, so its delta, w minus S_r, lies in S_d
minus S_r: the vertices of rank exactly d, in row x - 1 of position 0 and
outside row x, at high's counters above, never TOP. Raising them to r joins
the delta into row x of position 0 and changes nothing else, which is
`commit(r, w, old, d, d)` with its one union and one difference; the loop
does that in place. So the loop keeps two constants from the block's first
such turn until a commit of another kind, which goes to `commit` (at x = 0,
at TOP, or after a failed walk test, which (a) rules out in a block): the
fold of positions >= 1 (`_fold(r, 1)`), with which S_(x, high) is acc
joined with running's meet with row x, one meet and one join counted as the
full read; and position 0's end, at which the next rank leaves the block by
a carry, and below which it is (x + 1, high) without `incr`. The loop calls
`report` only when traced or checked. On the benchmark's catalogues 6,881
of pm-random's 8,316 loop turns (83%) and 7,569 of bigstep-random's 11,980
(63%) are in-block.

Subgame restriction and role swapping are handled as views: the run is
confined to a universe set (which must be closed: every vertex keeps a
successor inside), and under a swapped view priority i of the view reads
the game's class i-1 while the view's "odd" player is the game's even one.
This avoids rebuilding games and keeps all sets in one counted space.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from collections.abc import Callable

from .game import (
    NotClosed,
    ParityGame,
    Player,
    normalize_priorities,
    subgame,
    swap_roles_increment,
)
from .ranks import TOP, RankDomain
from .report import SolveReport
from .sets import SetSpace, VertexSet


class PreconditionViolated(Exception):
    pass


class InvariantViolation(Exception):
    pass


# -- Views ---------------------------------------------------------------------


class _View:
    """A run's window onto the game: universe mask, optional role swap."""

    def __init__(self, space: SetSpace, universe: VertexSet, swap: bool):
        self.space = space
        self.universe = universe
        self.swap = swap
        # The view's odd player forces ranks up; under a swap that role is
        # played by the game's even player.
        self.odd_role = Player.EVEN if swap else Player.ODD
        # View priority = game priority + shift.
        self.shift = 1 if swap else 0
        # One uncounted meet per game class sizes it within the universe,
        # which gives the view's priority count and its counter caps.
        classes = space.priority_sets
        count, meet, within = space._backend.count, space._backend.intersect, universe.payload
        counts = {p: n for p, s in classes.items() if (n := count(meet(s.payload, within)))}
        self.c = max(counts) + 1 + self.shift if counts else 0
        self.caps = tuple(counts.get(2 * p + 1 - self.shift, 0) for p in range(self.c // 2))
        # The game's class at each view level, None below the game's
        # priorities; every game priority has one, in the universe or not.
        levels = range(max(classes, default=-1) + 1)
        self.classes = (None,) * self.shift + tuple(map(classes.__getitem__, levels))


# -- Rank-state encodings ---------------------------------------------------------


class _RankState:
    """What both encodings share: the set-returning read."""

    def read(self, r) -> VertexSet:
        """A fresh S_r that the caller releases."""
        payload, held = self._reconstruct(r)
        c = self.space.counters
        if c.live_sets + held > c.peak_live_sets:
            c.peak_live_sets = c.live_sets + held
        return self.space._new(payload)


class DirectFamilyState(_RankState):
    """One stored set per rank. Exponential in sets; the baseline encoding."""

    def __init__(self, view: _View, domain: RankDomain):
        self.view = view
        self.space = space = view.space
        self.domain = domain
        self.sets = {r: space.copy(view.universe) if r == domain.zero else space.empty_set()
                     for r in domain.iterate()}

    def _reconstruct(self, r):
        # As a set, S_r's copy.
        return self.sets[r].payload, 1

    def _floor(self, w, below, d):
        """The roll-back walk (module docstring) for a w outside `below`,
        S_d's payload, rank by rank, as reads count nothing in this
        encoding."""
        floor, tests, is_subset = d, 1, self.space._backend.is_subset
        while True:
            if floor == self.domain.zero:
                raise AssertionError("the roll-back walk left the universe")
            floor = self.domain.decr(floor)
            held = self.sets[floor].payload
            tests += 1
            if is_subset(w, held):
                return floor, held, tests

    def commit(self, r, w, old, d, floor) -> None:
        """Store the payload `w` as S_r and join it into every set from d
        down to, not including, floor; each join is one counted union."""
        space = self.space
        if not space._backend.is_subset(old, w):
            raise PreconditionViolated("rank set may only grow")
        rp = d
        while rp != floor:
            s = self.sets[rp]
            s.payload = space._backend.union(s.payload, w)
            space.counters.unions += 1
            rp = self.domain.decr(rp)
        self.sets[r].payload = w

    def ranks(self) -> dict:
        """Every universe vertex's rank, off raw payloads; counts nothing.
        A vertex's rank is the last rank whose set holds it. Refuses a
        family that is not anti-monotone."""
        raw_ids = self.space.raw_ids
        rank = {}
        prev = None
        for r in self.domain.iterate():
            cur = frozenset(raw_ids(self.sets[r]))
            if prev is not None and not cur <= prev:
                raise InvariantViolation(f"family not anti-monotone at {r}")
            rank.update(dict.fromkeys(cur, r))
            prev = cur
        return rank

    def release_all(self) -> None:
        for s in self.sets.values():
            self.space.release(s)
        self.sets.clear()


class LinearSpaceState(_RankState):
    """Counter-coordinate encoding: per odd priority one set per counter value.

    coordinate[p][x] holds the vertices whose rank has value at least x at
    position p (odd priority 2p+1); vertices at TOP live only in `top`. Per
    position the rows are nested: row 0 is universe minus top, and each row
    lies inside the one before it.
    """

    def __init__(self, view: _View, domain: RankDomain):
        self.view = view
        self.space = space = view.space
        self.universe = view.universe
        self.domain = domain
        self.eff_caps = tuple(
            cap if domain.bound is None else min(cap, domain.bound) for cap in domain.caps
        )
        self.coordinate: list[list[VertexSet]] = []
        for cap in self.eff_caps:
            row = [space.copy(self.universe)]
            row.extend(space.empty_set() for _ in range(cap))
            self.coordinate.append(row)
        self.top = space.empty_set()

    def _reconstruct(self, r):
        """S_r's payload from the coordinates, and the most sets it would
        have held at once: vertices at least r at every more significant
        position and above r at this one, plus vertices at least r
        everywhere, plus TOP. At most three operations per position, added
        to the space's counters here."""
        if r is TOP:
            # As a set, the TOP set's copy.
            return self.top.payload, 1
        acc, running, unions, intersections, held = self._fold(r, 0)
        c = self.space.counters
        c.unions += unions
        c.intersections += intersections
        if running is None:
            running = self.universe.payload
        return self.space._backend.union(acc, running), held

    def _fold(self, r, stop):
        """The part of S_r that r's counters from position `stop` up fix:
        the accumulator, `running`, and the unions (the final one included),
        intersections and peak of reading S_r that those positions make."""
        backend = self.space._backend
        union, intersect = backend.union, backend.intersect
        caps, coordinate = self.eff_caps, self.coordinate
        acc = self.top.payload
        # Vertices at least r at every position so far. It may keep TOP
        # vertices, which S_r holds anyway, so a zero counter narrows nothing.
        # None stands for the untouched universe, whose meet with a row is
        # the row itself.
        running = None
        unions = 1
        intersections = 0
        # As sets, the accumulator, `running`, a segment and their union
        # would be alive at once; without `running`, or at the last union,
        # three of them.
        held = 3
        for p in range(len(caps) - 1, stop - 1, -1):
            row = coordinate[p]
            x = r[p]
            if x < caps[p]:
                seg = row[x + 1].payload
                if running is not None:
                    seg = intersect(running, seg)
                    intersections += 1
                    held = 4
                acc = union(acc, seg)
                unions += 1
            if x:
                if running is None:
                    running = row[x].payload
                else:
                    running = intersect(running, row[x].payload)
                    intersections += 1
        return acc, running, unions, intersections, held

    def _stretch(self, r, end, fold):
        """The last x <= end with S_(x, r[1:]) equal to S_r, by uncounted
        payload ops; r is a stationary rank, r[0] <= end and `fold` is
        `_fold(r, 1)`. The counters gain what the reads and idle commits of
        the ranks after r up to that one would have added."""
        backend = self.space._backend
        acc, running = fold[0], fold[1]
        row = self.coordinate[0]
        x = r[0]
        # S_(y, r[1:]) is acc joined with running's meet with row y. It stays
        # S_r while row y keeps what S_r holds outside acc.
        kept = row[x].payload if running is None else backend.intersect(running, row[x].payload)
        kept = backend.difference(kept, acc)
        last = x
        while last < end and backend.is_subset(kept, row[last + 1].payload):
            last += 1
        # Per jumped rank a read and an idle commit: a row union and a difference.
        n = self._count_reads(fold, x + 1, last)
        c = self.space.counters
        c.unions += n
        c.differences += n
        return last

    def _count_reads(self, fold, lo, hi):
        """Count the reads of S_(x, high), x = lo..hi >= lo - 1, and return
        their number; `fold` is `_fold((0, *high), 1)`. Beside the fold's ops
        a read joins x's segment (none at the last row) and narrows by row x
        (not at 0), each narrowed by the fold's `running` when it has one."""
        n = hi - lo + 1
        if n:
            _, running, unions, intersections, _ = fold
            segments = n - (hi == self.eff_caps[0])
            c = self.space.counters
            c.unions += n * unions + segments
            c.intersections += n * intersections + (
                0 if running is None else segments + n - (lo == 0))
        return n

    def _floor(self, w, below, d):
        """The roll-back walk (module docstring) for a w outside `below`,
        S_d's payload, as one jump to its floor: the least rank in w minus
        S_d, read off the rows by uncounted payload ops. The reads strictly
        between floor and d are counted block by block."""
        backend, domain = self.space._backend, self.domain
        rest = backend.difference(w, below)
        # Per position, most significant first, the counter is the last row
        # holding `rest`, which then keeps only the vertices it counts.
        floor = ()
        for row in reversed(self.coordinate):
            x = -1
            while x + 1 < len(row) and backend.is_subset(rest, row[x + 1].payload):
                x += 1
            if x < 0:
                raise AssertionError("the roll-back walk left the universe")
            floor = (x, *floor)
            if x + 1 < len(row):
                rest = backend.difference(rest, row[x + 1].payload)
        if not domain.contains(floor) or domain.compare(floor, d) >= 0:
            raise AssertionError("the roll-back walk found no floor below decr(r)")
        tests, high, hi = 2, d[1:], d[0] - 1
        while high != floor[1:]:
            tests += self._count_reads(self._fold((0, *high), 1), 0, hi)
            top = domain.decr((0, *high))
            high, hi = top[1:], top[0]
        tests += self._count_reads(self._fold(floor, 1), floor[0] + 1, hi)
        return floor, self._reconstruct(floor)[0], tests

    def commit(self, r, w, old, d, floor) -> None:
        """Raise the vertices the payload `w` gains over `old` to rank r.

        d is decr(r) and floor the rank the roll-back walk stopped at (d
        itself without a roll-back). The raised vertices lie outside S_r and
        inside S_floor, so their ranks lie in [floor, d]. Scanning from the
        most significant position, the counter is d[p] while floor and d
        agree, in [floor[p], d[p]] where they first differ, and anywhere in
        [0, cap] below that. At each position the delta joins rows
        lo+1..r[p] and leaves rows r[p]+1..hi of its counter's range
        [lo, hi], with no probes; a TOP commit counts as counter -1.
        The ranks between floor and r need no work of their own: raising the
        delta's counters to r also moves it, implicitly, into their sets.
        """
        space = self.space
        backend = space._backend
        c = space.counters
        if backend.equals(w, old):
            # Idle: every check holds on the empty delta and no row changes,
            # but the commit counts the row ops the rule below would run.
            # floor is d: w is S_r, inside S_decr(r), so the walk never rolled back.
            unions = 1 if r is TOP else 0
            differences = 1
            for p, x in enumerate(d):
                y = -1 if r is TOP else r[p]
                if y > x:
                    unions += y - x
                else:
                    differences += x - y
            c.unions += unions
            c.differences += differences
            return
        if not backend.is_subset(old, w):
            raise PreconditionViolated("rank set may only grow")
        union, intersect, difference = backend.union, backend.intersect, backend.difference
        delta = difference(w, old)
        empty = backend.empty()
        if r is not TOP and intersect(delta, self.top.payload) != empty:
            raise PreconditionViolated("a TOP vertex cannot take a finite rank")
        # Each changed row is one counted op, added to the space's counters
        # here; rows change in place.
        unions = 0
        differences = 1
        split = False
        coordinate = self.coordinate
        for p in range(len(coordinate) - 1, -1, -1):
            row = coordinate[p]
            if split:
                lo, hi = 0, len(row) - 1
            else:
                lo, hi = floor[p], d[p]
                split = lo != hi
            if not backend.is_subset(delta, row[lo].payload) or (
                hi + 1 < len(row) and intersect(delta, row[hi + 1].payload) != empty
            ):
                raise PreconditionViolated("the delta must sit between the floor and decr(r)")
            y = -1 if r is TOP else r[p]
            if y > lo:
                for cell in row[lo + 1:y + 1]:
                    cell.payload = union(cell.payload, delta)
                unions += y - lo
            if hi > y:
                for cell in row[y + 1:hi + 1]:
                    cell.payload = difference(cell.payload, delta)
                differences += hi - y
        if r is TOP:
            self.top.payload = union(self.top.payload, delta)
            unions += 1
        c.unions += unions
        c.differences += differences

    def ranks(self) -> dict:
        """Every universe vertex's rank, off raw payloads; counts nothing. A
        finite counter is the number of rows holding the vertex, less 1.
        Refuses rows that are not nested below universe minus top."""
        raw_ids = self.space.raw_ids
        top = frozenset(raw_ids(self.top))
        rest = frozenset(raw_ids(self.universe)) - top
        held = []
        for p, row in enumerate(self.coordinate):
            cells = [frozenset(raw_ids(cell)) for cell in row]
            if cells[0] != rest:
                raise InvariantViolation(f"coordinate {p} row 0 is not universe minus top")
            for x in range(1, len(cells)):
                if not cells[x] <= cells[x - 1]:
                    raise InvariantViolation(f"coordinate {p} not nested at row {x}")
            held.append(Counter(v for cell in cells for v in cell))
        rank = {v: tuple(n[v] - 1 for n in held) for v in rest}
        rank.update(dict.fromkeys(top, TOP))
        return rank

    def release_all(self) -> None:
        for row in self.coordinate:
            for s in row:
                self.space.release(s)
        self.coordinate.clear()
        self.space.release(self.top)


# -- Invariant checking (debug; uncounted reads) -----------------------------------


class _InvariantChecker:
    """Boundary checks against the explicit solver on the same view.

    The oracle is the explicit least fixpoint on the view's game: the
    universe's subgame, role-swapped under a swapped view. The ranks come
    from the state's uncounted `ranks()`, which also checks the encoding's
    shape, and the carried set is read raw, so debug runs report the same
    counts as plain runs.
    """

    def __init__(self, view: _View, domain: RankDomain):
        from .explicit import lift_fixpoint

        self.domain = domain
        try:
            game, self.ids = subgame(view.space.game, view.space.raw_ids(view.universe))
        except NotClosed as exc:
            raise PreconditionViolated(f"universe not closed at vertex {exc.vertex}") from exc
        self.game = swap_roles_increment(game) if view.swap else game
        self.oracle, _ = lift_fixpoint(self.game, domain)

    def boundary(self, state, processed_rank, next_rank, rolled_back, below) -> None:
        """`below` is the payload of the set carried into the next iteration."""
        from .explicit import lift_rank

        domain = self.domain
        rank_at = state.ranks()
        # Ranks by subgame position: position i is vertex self.ids[i].
        ranks = []
        for v in self.ids:
            if v not in rank_at:
                raise InvariantViolation(f"vertex {v} lost from the rank state")
            ranks.append(rank_at[v])
        # The carried set is S_decr(next_rank).
        if next_rank is not None:
            floor = domain.decr(next_rank)
            want = {v for v, rank in zip(self.ids, ranks) if domain.compare(rank, floor) >= 0}
            if set(state.space._backend.ids(below)) != want:
                raise InvariantViolation(f"carried set is not the set of rank {floor}")
        # Never above the explicit least fixpoint.
        for v, rank, bound in zip(self.ids, ranks, self.oracle):
            if domain.compare(rank, bound) > 0:
                raise InvariantViolation(
                    f"vertex {v} ranked {rank} above the explicit fixpoint {bound}"
                )
        # Closure: between iterations every vertex either lifts at least to
        # the rank about to be processed or already sits at a lift fixpoint.
        # The stronger point check (everything lifting exactly to the
        # processed rank is in its set) only holds when the iteration did not
        # roll back; a roll-back revisits those ranks with the grown sets.
        for i, v in enumerate(self.ids):
            lifted = lift_rank(self.game, domain, ranks, i)
            at_fixpoint = domain.compare(lifted, ranks[i]) == 0
            if next_rank is None:
                if not at_fixpoint:
                    raise InvariantViolation(
                        f"terminated while vertex {v} still lifts from "
                        f"{ranks[i]} to {lifted}"
                    )
                continue
            if not at_fixpoint and domain.compare(lifted, next_rank) < 0:
                raise InvariantViolation(
                    f"vertex {v} lifts to {lifted} below the next rank "
                    f"{next_rank} without being at a fixpoint"
                )
            if (
                not rolled_back
                and domain.compare(lifted, processed_rank) == 0
                and domain.compare(ranks[i], processed_rank) < 0
            ):
                raise InvariantViolation(
                    f"vertex {v} lifts to {processed_rank} but is not in its set"
                )


# -- The iteration ------------------------------------------------------------------


class PmRun:
    """One measure run: its space, winning set, final rank state and domain."""

    def __init__(self, space: SetSpace, winning: VertexSet, state, domain: RankDomain,
                 iterations: int):
        self.space = space
        self.winning = winning
        self.state = state
        self.domain = domain
        self.iterations = iterations


# Entries of a run's cpre memo (module docstring). On the pm-random
# catalogue 92% of the loop's kernel calls repeat a target of their run (93%
# on bigstep-random). Time per game against no memo:
#
#     entries          16     64     256    unbounded
#     pm-random       0.81   0.77   0.76   0.76
#     bigstep-random  0.82   0.73   0.72   0.73
#
# 64 is at the knee and keeps the memo's extra storage at O(64 n) bits.
_CPRE_MEMO = 64


def _pm_run(
    space: SetSpace,
    universe: VertexSet,
    bound: int | None = None,
    swap: bool = False,
    representation: str = "linear",
    check_invariants: bool = False,
    trace: Callable | None = None,
) -> PmRun:
    """One measure run over `universe`; `trace` receives one event per
    iteration, and defaults to `stderr_trace` when PARITY_TRACE=1."""
    if trace is None and os.environ.get("PARITY_TRACE") == "1":
        trace = stderr_trace
    view = _View(space, universe, swap)
    domain = RankDomain(c=view.c, caps=view.caps, bound=bound)
    encodings = {"linear": LinearSpaceState, "direct": DirectFamilyState}
    if representation not in encodings:
        raise ValueError(f"unknown representation {representation!r}")
    state = encodings[representation](view, domain)
    checker = _InvariantChecker(view, domain) if check_invariants else None

    positions = domain.positions
    classes = view.classes
    guard = (universe.count() + 1) * domain.size() + 2
    r = domain.incr(domain.zero)
    # above[m] unites the classes from level 2m up, which closure may not add
    # once seeding stopped at position m - 1; a lone class is its pinned set.
    # A run that starts at TOP stays there and never reads them.
    above: list[VertexSet | None] = [None] * (positions + 1)
    if r is not TOP:
        acc = None
        for level in range(view.c - 1, 1, -1):
            joined = classes[level] if acc is None else space.union(acc, classes[level])
            if level % 2 == 0:
                # The odd level's union above only led here.
                if acc is not None and not acc.pinned:
                    space.release(acc)
                above[level // 2] = joined
            acc = joined
    # The iteration runs on payloads and counts in place.
    backend = space._backend
    union, intersect, difference = backend.union, backend.intersect, backend.difference
    is_subset, kernel, equals = backend.is_subset, backend.cpre, backend.equals
    reconstruct, commit = state._reconstruct, state.commit
    c = space.counters
    mine = space.owned[view.odd_role].payload
    within = universe.payload
    memo: dict = {}

    def cpre(b):
        # The run's kernel calls, memoized by target (_CPRE_MEMO).
        out = memo.get(b)
        if out is None:
            out = memo[b] = kernel(mine, b, within)
            if len(memo) > _CPRE_MEMO:
                del memo[next(iter(memo))]
        return out

    observed = trace is not None or checker is not None

    def report(iteration, rank, next_rank, rolled_back, w, old, below):
        # An iteration's trace event and boundary check, after its commit;
        # `below` is the set carried into the next iteration.
        if trace is not None:
            trace({"iteration": iteration, "rank": rank,
                   "added": backend.count(w) - backend.count(old),
                   "next_rank": next_rank, "rolled_back": rolled_back})
        if checker is not None:
            checker.boundary(state, rank, next_rank, rolled_back, below)

    odd_classes = [classes[2 * p + 1].payload for p in range(positions)]
    # Linear turns at ranks (x, high) with x > 0 run on their block's
    # constants (module docstring): `fold`, None until the block's first such
    # turn and again after any other commit, and position 0's `end`.
    blocks = representation == "linear" and positions > 0
    if blocks:
        rows = state.coordinate[0]
    fold = None
    # decr(r) and S_decr(r)'s payload, carried from one iteration to the
    # next. As a set, S_decr(r) would stay alive from a copy of the universe
    # on; each iteration's count includes it.
    d = domain.zero
    below = within
    iterations = 0
    while True:
        iterations += 1
        if iterations > guard:
            raise AssertionError("progress measure iteration exceeded its bound")
        in_block = blocks and r is not TOP and r[0]
        if in_block:
            # r = (x, high) and d = (x - 1, high).
            x = r[0]
            if fold is None:
                high = r[1:]
                fold = acc, running, _, _, _ = state._fold(r, 1)
                end = domain.caps[0] if bound is None else min(domain.caps[0], bound - sum(high))
            # S_r is acc joined with running's meet with row x, counted as
            # `_reconstruct` counts it.
            old = rows[x].payload if running is None else intersect(running, rows[x].payload)
            old = union(acc, old)
            state._count_reads(fold, x, x)
            if equals(old, below):
                # Stationary (module docstring), as is every rank of r's
                # stretch up to `last`. r's commit is idle (a row union and a
                # difference); each rank counts as run (seeding's cpre, one
                # closure round under above[1] and the walk's one test; peak
                # 6) and is reported, S_r being its grown, old and carried
                # set. A stretch never ends the run, so the next turn's bound
                # check comes first.
                last = state._stretch(r, end, fold)
                n = last - x + 1
                c.cpre_ops += 2 * n
                c.intersections += n
                c.unions += n + 1
                c.differences += (0 if above[1] is None else n) + 1
                c.containment_tests += 2 * n
                if c.live_sets + 6 > c.peak_live_sets:
                    c.peak_live_sets = c.live_sets + 6
                if observed:
                    for y in range(x, last + 1):
                        rank = (y,) + high
                        report(iterations + y - x, rank, domain.incr(rank), False, old, old, old)
                iterations += last - x
                d = (last,) + high
                r = (last + 1,) + high if last < end else domain.incr(d)
                continue
        else:
            old, _ = reconstruct(r)

        # Seed from the sets one step down at each odd priority up to the
        # highest level r survives projection at (r's lowest nonzero
        # counter; a finite r is never zero), lowest priority first.
        w = old
        seeded = 0
        if r is TOP:
            max_pos = positions
        else:
            max_pos = 1
            while not r[max_pos - 1]:
                max_pos += 1
        for p in range(max_pos):
            # decr_at(r, 1) is decr(r), so position 0 steps down from `below`.
            if p:
                source, h = reconstruct(domain.decr_at(r, 2 * p + 1))
                if h > seeded:
                    seeded = h
                step = cpre(source)
            else:
                step = cpre(below)
            w = union(w, intersect(step, odd_classes[p]))

        # Close under the rank-raising player's moves; vertices whose
        # priority exceeds the level cannot join at a finite rank this way.
        forbidden = None if r is TOP or above[max_pos] is None else above[max_pos].payload
        rounds = 0
        while True:
            rounds += 1
            add = cpre(w)
            if forbidden is not None:
                add = difference(add, forbidden)
            if is_subset(add, w):
                break
            w = union(w, add)

        # The ranks from decr(r) down to the walk's floor must absorb the
        # grown set (directly, or implicitly through the commit).
        if is_subset(w, below):
            floor, held, tests = d, below, 1
        else:
            floor, held, tests = state._floor(w, below, d)
        c.cpre_ops += max_pos + rounds
        c.intersections += max_pos
        c.unions += max_pos + rounds - 1
        if forbidden is not None:
            c.differences += rounds
        c.containment_tests += rounds + tests
        # The peak as if every payload had been a set; the 1 is `below`.
        # Beside `old` and `w`, seeding holds a read (2 + seeded), then its
        # step, seeded part and union (5). A view with no odd priority never
        # seeds; its one iteration holds one closure step (3). No other phase
        # holds more: a read holds at most 4 sets (a walk read replaces
        # `below`), and closure at most 4, the commit's delta included.
        peak = c.live_sets + 1 + max(2 + seeded, 5 if max_pos else 3)
        if peak > c.peak_live_sets:
            c.peak_live_sets = peak
        rolled_back = floor != d
        # The next iteration's `below` is S_decr(next_rank). After a roll-back
        # that is S_floor, which the commit leaves alone since `w` lies inside
        # it; otherwise it is S_r, which the commit makes `w`.
        below = held if rolled_back else w

        if in_block and not rolled_back:
            # The walk's one test put the delta at rank d (module docstring),
            # so the commit joins it into row x of position 0 alone, and the
            # block's constants hold: a row union and a difference, as counted.
            if not equals(w, old):
                rows[x].payload = union(rows[x].payload, difference(w, old))
            c.unions += 1
            c.differences += 1
        else:
            commit(r, w, old, d, floor)
            fold = None
        # decr(next rank), and the next rank: in the block below its end.
        d = floor if rolled_back else r
        if d is TOP:
            next_rank = None
        elif fold is not None and d[0] < end:
            next_rank = (d[0] + 1,) + high
        else:
            next_rank = domain.incr(d)
        if observed:
            report(iterations, r, next_rank, rolled_back, w, old, below)
        if next_rank is None:
            break
        r = next_rank

    space.release(*(s for s in above if s is not None and not s.pinned))
    top_set = state.read(TOP)
    winning = space.difference(universe, top_set)
    space.release(top_set)
    return PmRun(
        space=space,
        winning=winning,
        state=state,
        domain=domain,
        iterations=iterations,
    )


def stderr_trace(event: dict) -> None:
    print(
        "pm-trace iter={iteration} rank={rank} added={added} next={next_rank} "
        "rollback={rolled_back}".format(**event),
        file=sys.stderr,
    )


# -- Public entry points ----------------------------------------------------------


def symbolic_parity_dominion(
    game: ParityGame,
    bound: int | None = None,
    representation: str = "linear",
    backend: str = "bits",
    check_invariants: bool = False,
    trace: Callable | None = None,
) -> PmRun:
    """Run the set-based measure iteration on the whole game.

    With bound=None the result is the even player's full winning region;
    with bound=h it is an even dominion containing every even dominion of
    at most h+1 vertices (possibly empty).
    """
    norm, _ = normalize_priorities(game)
    space = SetSpace(norm, backend=backend)
    return _pm_run(
        space,
        space.full,
        bound=bound,
        representation=representation,
        check_invariants=check_invariants,
        trace=trace,
    )


def dominion(game: ParityGame, player: Player, h: int, backend: str = "bits") -> frozenset[int]:
    """A dominion of `player` containing all of that player's dominions of
    size at most h+1; vertex ids of the input game."""
    player = Player(player)
    norm, _ = normalize_priorities(game)
    space = SetSpace(norm, backend=backend)
    run = _pm_run(space, space.full, bound=h, swap=player is Player.ODD)
    return frozenset(run.winning.ids())


def solve_pm_symbolic(
    game: ParityGame,
    strategies: bool = False,
    backend: str = "bits",
    check_invariants: bool = False,
):
    """Full solve via the set-based measure iteration.

    Reported counters and wall time cover every counted operation of the
    solve. When strategies are requested, the odd player's strategy comes
    from a role-swapped run in the same space over the odd region alone:
    that region is closed and the odd player wins all of it.
    """
    norm, _ = normalize_priorities(game)
    if strategies:  # imported only when asked for, outside the timed solve
        from .strategy import extract_strategy_from_pm
    started = time.perf_counter()
    space = SetSpace(norm, backend=backend)
    run = _pm_run(space, space.full, check_invariants=check_invariants)
    winning_odd = space.difference(space.full, run.winning)
    strategy_even = extract_strategy_from_pm(run.state) if strategies else None
    run.state.release_all()
    strategy_odd = None
    if strategies:
        run_odd = _pm_run(space, winning_odd, swap=True, check_invariants=check_invariants)
        strategy_odd = extract_strategy_from_pm(run_odd.state)
        run_odd.state.release_all()
        space.release(run_odd.winning)
    elapsed = time.perf_counter() - started
    return SolveReport(
        winning_even=run.winning,
        winning_odd=winning_odd,
        counters=space.counters,
        algorithm="pm",
        wall_time=elapsed,
        game=space.game,
        strategy_even=strategy_even,
        strategy_odd=strategy_odd,
        diagnostics={"iterations": run.iterations, "domain_size": run.domain.size()},
    )
