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
  (the set of vertices whose rank has exactly that counter there), plus the
  set of TOP vertices. Any S_r is reconstructed on demand in O(n + c) basic
  operations, and an update touches O(n + c) sets. Updating rank r's set
  implicitly updates every lower rank's set, which is what makes the
  roll-back walk free of explicit unions in this encoding.

Both encodings run through the same control loop, so preimage and
containment counts agree between them by construction.

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
from dataclasses import dataclass
from typing import Callable

from .explicit import lift_fixpoint, lift_rank
from .game import (
    NotClosed,
    ParityGame,
    Player,
    normalize_priorities,
    subgame,
    swap_roles_increment,
)
from .ranks import TOP, RankDomain
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
        # One uncounted pass over the universe gives the view's priority
        # count and, per odd view priority, its counter cap.
        priority = space.game.priority
        counts = Counter(priority[v] for v in space.raw_ids(universe))
        self.c = max(counts) + 1 + self.shift if counts else 0
        self.caps = tuple(counts[2 * p + 1 - self.shift] for p in range(self.c // 2))

    def class_at(self, level: int) -> VertexSet | None:
        base = level - self.shift
        if base < 0 or base >= len(self.space.priority_sets):
            return None
        return self.space.priority_sets[base]

    def priority_of(self, v: int) -> int:
        return self.space.game.priority[v] + self.shift


# -- Rank-state encodings ---------------------------------------------------------


class DirectFamilyState:
    """One stored set per rank. Exponential in sets; the baseline encoding."""

    kind = "direct"

    def __init__(self, space: SetSpace, domain: RankDomain, universe: VertexSet):
        self.space = space
        self.domain = domain
        self.universe = universe
        self.sets: dict = {}
        for r in domain.iterate():
            self.sets[r] = space.copy(universe) if r == domain.zero else space.empty_set()

    def snapshot(self, r) -> VertexSet:
        return self.space.copy(self.sets[r])

    def read(self, r) -> tuple[VertexSet, bool]:
        return self.sets[r], False

    def commit(self, r, working: VertexSet, old: VertexSet, chain) -> None:
        space = self.space
        if not space._backend.is_subset(old.payload, working.payload):
            raise PreconditionViolated("rank set may only grow")
        for rp in chain:
            grown = space.union(self.sets[rp], working)
            space.release(self.sets[rp])
            self.sets[rp] = grown
        space.release(self.sets[r], old)
        self.sets[r] = working

    def update(self, r, s_new: VertexSet) -> None:
        self.commit(r, self.space.copy(s_new), self.snapshot(r), ())

    def rank_of(self, v: int):
        probe = self.space.singleton(v)
        rank = None
        for r in self.domain.iterate():
            if not self.space.is_subset(probe, self.sets[r]):
                break
            rank = r
        self.space.release(probe)
        if rank is None:
            raise PreconditionViolated(f"vertex {v} missing from the base rank set")
        return rank

    def raw_rank_of(self, v: int):
        rank = None
        for r in self.domain.iterate():
            if not self.sets[r].contains(v):
                break
            rank = r
        return rank

    def release_all(self) -> None:
        for s in self.sets.values():
            self.space.release(s)
        self.sets.clear()


class LinearSpaceState:
    """Counter-coordinate encoding: per odd priority one set per counter value.

    coordinate[p][x] holds the vertices whose rank has value x at position p
    (odd priority 2p+1); vertices at TOP live only in `top`. Per position the
    coordinate sets partition universe minus top.
    """

    kind = "linear"

    def __init__(self, space: SetSpace, domain: RankDomain, universe: VertexSet):
        self.space = space
        self.domain = domain
        self.universe = universe
        self.eff_caps = tuple(
            cap if domain.bound is None else min(cap, domain.bound) for cap in domain.caps
        )
        self.coordinate: list[list[VertexSet]] = []
        for cap in self.eff_caps:
            row = [space.copy(universe)]
            row.extend(space.empty_set() for _ in range(cap))
            self.coordinate.append(row)
        self.top = space.empty_set()

    def snapshot(self, r) -> VertexSet:
        return self._reconstruct(r)

    def read(self, r) -> tuple[VertexSet, bool]:
        if r is TOP:
            return self.top, False
        return self._reconstruct(r), True

    def _reconstruct(self, r) -> VertexSet:
        """S_r from the coordinates: vertices above r at some position and equal
        at all more significant ones, plus vertices equal everywhere, plus TOP."""
        space = self.space
        if r is TOP:
            return space.copy(self.top)
        union = space.union
        intersect = space.intersect
        release = space.release
        acc = space.copy(self.top)
        running = space.copy(self.universe)
        for p in range(len(self.eff_caps) - 1, -1, -1):
            row = self.coordinate[p]
            if r[p] < self.eff_caps[p]:
                above = space.copy(row[r[p] + 1])
                for x in range(r[p] + 2, self.eff_caps[p] + 1):
                    grown = union(above, row[x])
                    release(above)
                    above = grown
                seg = intersect(running, above)
                release(above)
                joined = union(acc, seg)
                release(acc, seg)
                acc = joined
            narrowed = intersect(running, row[r[p]])
            release(running)
            running = narrowed
        joined = union(acc, running)
        release(acc, running)
        return joined

    def commit(self, r, working: VertexSet, old: VertexSet, chain) -> None:
        # `chain` is unused: moving the delta to coordinate r also moves it,
        # implicitly, into every reconstruction at lower ranks.
        space = self.space
        if not space._backend.is_subset(old.payload, working.payload):
            raise PreconditionViolated("rank set may only grow")
        delta = space.difference(working, old)
        space.release(working, old)
        if r is not TOP and space._backend.intersect(delta.payload, self.top.payload) != space._backend.empty():
            raise PreconditionViolated("a TOP vertex cannot take a finite rank")
        union = space.union
        difference = space.difference
        release = space.release
        for p, row in enumerate(self.coordinate):
            target = None if r is TOP else r[p]
            for x in range(len(row)):
                if x == target:
                    changed = union(row[x], delta)
                else:
                    changed = difference(row[x], delta)
                release(row[x])
                row[x] = changed
        if r is TOP:
            grown = space.union(self.top, delta)
            space.release(self.top)
            self.top = grown
        space.release(delta)

    def update(self, r, s_new: VertexSet) -> None:
        self.commit(r, self.space.copy(s_new), self.snapshot(r), ())

    def rank_of(self, v: int):
        space = self.space
        probe = space.singleton(v)
        if space.is_subset(probe, self.top):
            space.release(probe)
            return TOP
        vec = []
        for p, row in enumerate(self.coordinate):
            hit = None
            for x in range(len(row)):
                if space.is_subset(probe, row[x]):
                    hit = x
                    break
            if hit is None:
                space.release(probe)
                raise PreconditionViolated(f"vertex {v} missing from coordinate {p}")
            vec.append(hit)
        space.release(probe)
        return tuple(vec)

    def raw_rank_of(self, v: int):
        if self.top.contains(v):
            return TOP
        vec = []
        for row in self.coordinate:
            hit = next((x for x in range(len(row)) if row[x].contains(v)), None)
            if hit is None:
                return None
            vec.append(hit)
        return tuple(vec)

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
    universe's subgame, role-swapped under a swapped view. All reads go
    through raw membership, never counted operations, so debug runs report
    the same operation counts as plain runs.
    """

    def __init__(self, view: _View, domain: RankDomain):
        self.domain = domain
        try:
            game, self.ids = subgame(view.space.game, view.space.raw_ids(view.universe))
        except NotClosed as exc:
            raise PreconditionViolated(f"universe not closed at vertex {exc.vertex}") from exc
        self.game = swap_roles_increment(game) if view.swap else game
        self.oracle, _ = lift_fixpoint(
            self.game.owner, self.game.priority, self.game.successors, domain
        )

    def boundary(self, state, processed_rank, next_rank, rolled_back) -> None:
        domain = self.domain
        # Ranks by subgame position: position i is vertex self.ids[i].
        ranks = []
        for v in self.ids:
            rv = state.raw_rank_of(v)
            if rv is None:
                raise InvariantViolation(f"vertex {v} lost from the rank state")
            ranks.append(rv)
        # Never above the explicit least fixpoint.
        for v, rank, bound in zip(self.ids, ranks, self.oracle):
            if domain.compare(rank, bound) > 0:
                raise InvariantViolation(
                    f"vertex {v} ranked {rank} above the explicit fixpoint {bound}"
                )
        # The family is anti-monotone / the coordinates partition the universe.
        if state.kind == "direct":
            prev = None
            for r in domain.iterate():
                cur = frozenset(state.space.raw_ids(state.sets[r]))
                if prev is not None and not cur <= prev:
                    raise InvariantViolation(f"family not anti-monotone at {r}")
                prev = cur
        else:
            rest = sorted(frozenset(self.ids) - frozenset(state.space.raw_ids(state.top)))
            for p, row in enumerate(state.coordinate):
                # Each vertex below TOP sits in exactly one cell of the row.
                if sorted(v for cell in row for v in state.space.raw_ids(cell)) != rest:
                    raise InvariantViolation(f"coordinate {p} does not partition")
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


@dataclass
class PmRun:
    winning: VertexSet
    state: object
    domain: RankDomain
    view: _View
    iterations: int
    trace: list | None = None


def _pm_run(
    space: SetSpace,
    universe: VertexSet,
    bound: int | None = None,
    swap: bool = False,
    representation: str = "linear",
    check_invariants: bool = False,
    trace: Callable | None = None,
    keep_trace: bool = False,
) -> PmRun:
    view = _View(space, universe, swap)
    domain = RankDomain(c=view.c, caps=view.caps, bound=bound)
    if representation == "linear":
        state = LinearSpaceState(space, domain, universe)
    elif representation == "direct":
        state = DirectFamilyState(space, domain, universe)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    state.view = view  # strategy extraction reads the run's window from here
    checker = _InvariantChecker(view, domain) if check_invariants else None
    events: list | None = [] if keep_trace else None

    positions = domain.positions
    guard = (universe.count() + 1) * domain.size() + 2
    r = domain.incr(domain.zero)
    iterations = 0
    while True:
        iterations += 1
        if iterations > guard:
            raise AssertionError("progress measure iteration exceeded its bound")
        old = state.snapshot(r)
        old_count = old.count()
        working = space.copy(old)

        # Seed from the sets one step down at each odd priority up to the
        # highest level r survives projection at, lowest priority first.
        if r is TOP:
            max_pos = positions
        else:
            lowest = next((p for p in range(positions) if r[p] > 0), positions)
            max_pos = min(lowest + 1, positions)
        for p in range(max_pos):
            level = 2 * p + 1
            cls = view.class_at(level)
            if cls is None:
                continue
            source, owned = state.read(domain.decr_at(r, level))
            step = space.cpre(view.odd_role, source, within=universe)
            if owned:
                space.release(source)
            seeded = space.intersect(step, cls)
            grown = space.union(working, seeded)
            space.release(step, seeded, working)
            working = grown

        # Close under the rank-raising player's moves; vertices whose priority
        # exceeds the level cannot join at a finite rank this way.
        forbidden = None
        if r is not TOP:
            level_cap = 2 * (max_pos - 1) + 1
            for i in range(level_cap + 1, view.c):
                cls = view.class_at(i)
                if cls is None:
                    continue
                if forbidden is None:
                    forbidden = space.copy(cls)
                else:
                    grown = space.union(forbidden, cls)
                    space.release(forbidden)
                    forbidden = grown
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
        if forbidden is not None:
            space.release(forbidden)

        # Walk down while the grown set is not yet contained; those ranks'
        # sets must absorb it (directly, or implicitly through the commit).
        chain = []
        rp = domain.decr(r)
        while True:
            held, owned = state.read(rp)
            contained = space.is_subset(working, held)
            if owned:
                space.release(held)
            if contained:
                break
            chain.append(rp)
            rp = domain.decr(rp)

        added = working.count() - old_count
        if chain:
            next_rank = domain.incr(rp)
        elif r is TOP:
            next_rank = None
        else:
            next_rank = domain.incr(r)
        if trace is not None or events is not None:
            event = {
                "iteration": iterations,
                "rank": r,
                "added": added,
                "next_rank": next_rank,
                "rolled_back": bool(chain),
            }
            if trace is not None:
                trace(event)
            if events is not None:
                events.append(event)

        state.commit(r, working, old, tuple(chain))
        if checker is not None:
            checker.boundary(state, r, next_rank, bool(chain))
        if next_rank is None:
            break
        r = next_rank

    top_set, owned = state.read(TOP)
    winning = space.difference(universe, top_set)
    if owned:
        space.release(top_set)
    return PmRun(
        winning=winning,
        state=state,
        domain=domain,
        view=view,
        iterations=iterations,
        trace=events,
    )


def stderr_trace(event: dict) -> None:
    print(
        "pm-trace iter={iteration} rank={rank} added={added} next={next_rank} "
        "rollback={rolled_back}".format(**event),
        file=sys.stderr,
    )


def _env_trace() -> Callable | None:
    return stderr_trace if os.environ.get("PARITY_TRACE") == "1" else None


# -- Public entry points ----------------------------------------------------------


@dataclass
class DominionRun:
    game: ParityGame
    space: SetSpace
    winning_even: VertexSet
    state: object
    domain: RankDomain
    iterations: int
    trace: list | None = None


def symbolic_parity_dominion(
    game: ParityGame,
    bound: int | None = None,
    representation: str = "linear",
    backend: str = "bits",
    check_invariants: bool = False,
    trace: Callable | None = None,
    keep_trace: bool = False,
) -> DominionRun:
    """Run the set-based measure iteration on the whole game.

    With bound=None the result is the even player's full winning region;
    with bound=h it is an even dominion containing every even dominion of
    at most h+1 vertices (possibly empty).
    """
    norm, _ = normalize_priorities(game)
    space = SetSpace(norm, backend=backend)
    run = _pm_run(
        space,
        space.full,
        bound=bound,
        representation=representation,
        check_invariants=check_invariants,
        trace=trace if trace is not None else _env_trace(),
        keep_trace=keep_trace,
    )
    return DominionRun(
        game=norm,
        space=space,
        winning_even=run.winning,
        state=run.state,
        domain=run.domain,
        iterations=run.iterations,
        trace=run.trace,
    )


def dominion(game: ParityGame, player: Player, h: int, backend: str = "bits") -> frozenset[int]:
    """A dominion of `player` containing all of that player's dominions of
    size at most h+1; vertex ids of the input game."""
    target = game if player is Player.EVEN else swap_roles_increment(game)
    run = symbolic_parity_dominion(target, bound=h, backend=backend)
    return frozenset(run.winning_even.ids())


def solve_pm_symbolic(
    game: ParityGame,
    strategies: bool = False,
    representation: str = "linear",
    backend: str = "bits",
    check_invariants: bool = False,
    trace: Callable | None = None,
    keep_trace: bool = False,
):
    """Full solve via the set-based measure iteration.

    Reported counters cover the even-side run; when strategies are requested
    the odd player's strategy comes from a second, role-swapped run in its
    own operation space.
    """
    from .report import SolveReport

    norm, _ = normalize_priorities(game)
    started = time.perf_counter()
    space = SetSpace(norm, backend=backend)
    run = _pm_run(
        space,
        space.full,
        representation=representation,
        check_invariants=check_invariants,
        trace=trace if trace is not None else _env_trace(),
        keep_trace=keep_trace,
    )
    winning_odd = space.difference(space.full, run.winning)
    elapsed = time.perf_counter() - started
    strategy_even = strategy_odd = None
    if strategies:
        from .strategy import extract_strategy_from_pm

        strategy_even = extract_strategy_from_pm(norm, run.state)
        space_odd = SetSpace(norm, backend=backend)
        run_odd = _pm_run(
            space_odd,
            space_odd.full,
            swap=True,
            representation=representation,
            check_invariants=check_invariants,
        )
        strategy_odd = extract_strategy_from_pm(norm, run_odd.state)
        run_odd.state.release_all()
        space_odd.release(run_odd.winning)
    run.state.release_all()
    return SolveReport(
        winning_even=run.winning,
        winning_odd=winning_odd,
        counters=space.counters,
        algorithm="pm",
        wall_time=elapsed,
        game=norm,
        strategy_even=strategy_even,
        strategy_odd=strategy_odd,
        trace=run.trace,
        diagnostics={"iterations": run.iterations, "domain_size": run.domain.size()},
    )
