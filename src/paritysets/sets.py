"""Counted vertex-set algebra over one fixed game.

A SetSpace owns every VertexSet for one solver run: the universe, the two
ownership sets and one set per priority are materialized up front and stay
pinned; everything else is created by counted operations and must be
released by the code that created it. Live-set accounting feeds the peak
space measurements, so leaks show up as budget violations, not just waste.
One rule, `_count_new`, counts a set into it: `_new` applies it to every
set the space builds, and payload loops that keep a value as a set would
(Zielonka's recursion) apply it directly.

Two interchangeable representations sit behind the same interface: plain
int bit masks (default) and a small reduced ordered BDD. A backend holds only
the edges and the payload algebra; its cpre gets the acting player's set from
the space's `owned`. Counters record logical operations, never representation
internals; in particular the BDD controlled-predecessor costs one cpre_op even
though it is assembled from two relational preimages. Code that runs a batch of
operations on raw payloads counts them in place on the counters, by the
counters' own names, raises the peak to what the batch's intermediates would
have reached had each been built as a set, and counts a result it keeps as
one more live set. `closure`, the attractor on payloads, counts once per
call; the measure iteration once per iteration, beside what its encoding's
reads and commits add; Zielonka's loop at each step.

count()/ids()/contains() on a VertexSet, and a backend's
first_successor_in(), are uncounted instrumentation for tests, traces, IO
and strategy edges. The measure iteration also decides by payload ops it
does not count: `commit`'s precondition tests, `_floor`'s and `_stretch`'s
row scans, and its loop's stationary and idle tests. The rest of solver
logic runs on counted operations.
"""

from __future__ import annotations

from itertools import compress

from .game import ParityGame, Player, _Record


class UniverseMismatch(Exception):
    pass


class OpCounters(_Record):
    """A space's counted ops and live sets. Hot path: no code in `src/` reads
    `vars()` or `__dict__` of live counters, a game or a domain. On CPython
    3.11 that moves the instance off its inline values; a `snapshot()` that
    copied `__dict__` made big-step's per-run hook 9% slower on the bench."""

    _fields = ("unions", "intersections", "differences", "containment_tests",
               "equality_tests", "pre_ops", "cpre_ops", "live_sets", "peak_live_sets")
    __hash__ = None

    def __init__(self, unions: int = 0, intersections: int = 0, differences: int = 0,
                 containment_tests: int = 0, equality_tests: int = 0, pre_ops: int = 0,
                 cpre_ops: int = 0, live_sets: int = 0, peak_live_sets: int = 0):
        self.unions = unions
        self.intersections = intersections
        self.differences = differences
        self.containment_tests = containment_tests
        self.equality_tests = equality_tests
        self.pre_ops = pre_ops
        self.cpre_ops = cpre_ops
        self.live_sets = live_sets
        self.peak_live_sets = peak_live_sets

    @property
    def basic_total(self) -> int:
        return (
            self.unions
            + self.intersections
            + self.differences
            + self.containment_tests
            + self.equality_tests
        )

    def snapshot(self) -> "OpCounters":
        return OpCounters(self.unions, self.intersections, self.differences,
                          self.containment_tests, self.equality_tests, self.pre_ops,
                          self.cpre_ops, self.live_sets, self.peak_live_sets)


class VertexSet:
    __slots__ = ("space", "payload", "alive", "pinned")

    def __init__(self, space: "SetSpace", payload, pinned: bool = False):
        self.space = space
        self.payload = payload
        self.alive = True
        self.pinned = pinned

    # Instrumentation; not counted.
    def count(self) -> int:
        return self.space._backend.count(self.payload)

    def ids(self) -> tuple[int, ...]:
        return self.space._backend.ids(self.payload)

    def contains(self, v: int) -> bool:
        return self.space._backend.contains(self.payload, v)

    def __repr__(self) -> str:
        state = "" if self.alive else " (released)"
        return f"VertexSet{{{','.join(map(str, self.ids()))}}}{state}"


# bin() digits to the bytes 0 and 1, for compress().
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _mask(ids) -> int:
    m = 0
    for v in ids:
        m |= 1 << v
    return m


def _label_masks(labels) -> dict[int, int]:
    """The mask of each label's vertices, by label, where vertex v carries
    labels[v]. Labels below 256 are read as one byte string: per label, one
    translate turns it into binary digits and one int() reads them, with no
    step per vertex. Larger labels (many-priority games) are grouped one
    vertex at a time."""
    try:
        digits = bytes(labels)[::-1]
    except ValueError:
        ids: dict[int, list[int]] = {}
        for v, x in enumerate(labels):
            ids.setdefault(x, []).append(v)
        return {x: _mask(vs) for x, vs in ids.items()}
    return {x: int(digits.translate(b"0" * x + b"1" + b"0" * (255 - x)), 2) for x in set(digits)}


# cpre reads a mask with more than one set bit in _DENSE_SHARE of its width
# through _set_bits, and a sparser one a low bit at a time. Each step of that
# loop copies the mask, while _set_bits reads all of its width once: the two
# are about level at one bit in 8 on masks 256-2,048 bits wide, one in 4 at
# 64 bits and one in 32 at 8,192.
_DENSE_SHARE = 8
# A cpre call that is no growth of the last call rechecks what changed since
# the same player's last call when fewer than one in _DELTA_SHARE of its
# target's vertices changed, and starts from scratch otherwise; a target of
# at most _DELTA_SHARE vertices always starts from scratch. Timed per game
# against a kernel without the recheck: 4, 8 and 16 cut the many-priority
# ladders' solves (k = 200-380) to 0.64-0.69 of the time and left random games
# at n = 32-96 (pm, big-step) within 1%; 2 slowed big-step by about 2%.
_DELTA_SHARE = 8


def _set_bits(a: int):
    """The ids of a's set bits in ascending order, from one pass over the
    binary digits, bit v being the v-th from the right."""
    bits = bin(a)[:1:-1].encode().translate(_BIT_VALUES)
    return compress(range(len(bits)), bits)


def _low_bits(a: int):
    while a:
        low = a & -a
        yield low.bit_length() - 1
        a ^= low


def _bits(a: int):
    """a's set bits, read as cpre reads them: dense masks in one pass, sparse
    ones a low bit at a time."""
    return _set_bits(a) if a.bit_count() * _DENSE_SHARE > a.bit_length() else _low_bits(a)


class _BitsBackend:
    def __init__(self, game: ParityGame):
        n = game.vertex_count
        self.full_mask = (1 << n) - 1
        # One pass over the edges gives both the successor and the
        # predecessor masks.
        succ = []
        pred = [0] * n
        for v, succs in enumerate(game.successors):
            bit = 1 << v
            m = 0
            for w in succs:
                m |= 1 << w
                pred[w] |= bit
            succ.append(m)
        self.succ = succ
        self.pred = pred
        # (mine, within, b & within, result) of the last cpre call, and of the
        # last call whose mine was another mask.
        self._last_cpre = None
        self._other_cpre = None

    def empty(self):
        return 0

    def full(self):
        return self.full_mask

    def from_ids(self, ids):
        return _mask(ids)

    def from_mask(self, mask: int):
        return mask

    def union(self, a, b):
        return a | b

    def intersect(self, a, b):
        return a & b

    def difference(self, a, b):
        return a & ~b

    def is_subset(self, a, b) -> bool:
        return a & ~b == 0

    def equals(self, a, b) -> bool:
        return a == b

    def count(self, a) -> int:
        return a.bit_count()

    def ids(self, a) -> tuple[int, ...]:
        # Clearing the low bit one at a time would copy the mask per bit.
        return tuple(_set_bits(a))

    def contains(self, a, v: int) -> bool:
        return bool(a >> v & 1)

    def first_successor_in(self, v: int, s) -> int:
        """v's lowest-id successor in s, which must hold one."""
        m = self.succ[v] & s
        return (m & -m).bit_length() - 1

    def pre(self, b, within):
        out = 0
        m = within
        succ = self.succ
        while m:
            low = m & -m
            if succ[low.bit_length() - 1] & b:
                out |= low
            m ^= low
        return out

    def cpre(self, mine, b, within):
        # v of the acting player (in mine): some successor inside the view lands in b;
        # v of the opponent: at least one successor stays inside and every
        # one that does lands in b. Vertices with no move inside the view
        # never qualify, matching the relational (BDD) formulation.
        #
        # Only b & within (bw) matters, and every vertex that qualifies has a
        # successor there. cpre is monotone in it: after a call with the same
        # player and view whose bw is contained in this one's, the last result
        # stays in and only predecessors of the growth inside the view can
        # newly qualify, so just those are candidates. Each has a successor in
        # the growth, which lies in bw: the acting player's candidates all
        # qualify, and an opponent's qualifies unless it can leave b inside
        # the view. A call from scratch takes an empty last result, where all
        # of bw is growth.
        #
        # Any other call falls back to the same player's last call, whatever
        # its view and target (_recheck), when fewer than one in _DELTA_SHARE
        # of bw's vertices changed since it, and starts from scratch
        # otherwise. A target of at most _DELTA_SHARE vertices, which could
        # pass only if nothing changed, skips the test: most misses on small
        # random games are such.
        bw = b & within
        last = self._last_cpre
        if (last is not None and mine is last[0] and last[1] == within
                and last[2] & ~bw == 0):
            out = last[3]
            grew = bw ^ last[2]
        else:
            out = 0
            grew = bw
            same = last
            if last is None or mine is not last[0]:
                same = self._other_cpre
                self._other_cpre = last
            size = bw.bit_count()
            if size > _DELTA_SHARE and same is not None and mine is same[0]:
                changed = bw ^ same[2] | within ^ same[1]
                if changed.bit_count() * _DELTA_SHARE < size:
                    return self._recheck(mine, b, within, bw, same, changed)
        m = 0
        pred = self.pred
        if grew.bit_count() * _DENSE_SHARE > grew.bit_length():
            for v in _set_bits(grew):
                m |= pred[v]
        else:
            while grew:
                low = grew & -grew
                m |= pred[low.bit_length() - 1]
                grew ^= low
        m &= within & ~out
        out |= m & mine
        m &= ~mine
        leave = within & ~b
        succ = self.succ
        if m.bit_count() * _DENSE_SHARE > m.bit_length():
            for v in _set_bits(m):
                if not succ[v] & leave:
                    out |= 1 << v
        else:
            while m:
                low = m & -m
                if not succ[low.bit_length() - 1] & leave:
                    out |= low
                m ^= low
        self._last_cpre = (mine, within, bw, out)
        return out

    def _recheck(self, mine, b, within, bw, same, changed):
        """cpre from the same player's last call `same`, given
        changed = (bw ^ its bw) | (within ^ its within).

        A vertex's status depends only on whether it is in the view, on
        succ[v] & bw and on succ[v] & within & ~bw. So only vertices entering
        the view and predecessors of `changed` can change status: they are
        checked in full against this view and target, and the rest keep the
        last result.
        """
        check = within & ~same[1]
        pred = self.pred
        for v in _bits(changed):
            check |= pred[v]
        check &= within
        out = same[3] & within & ~check
        leave = within & ~b
        succ = self.succ
        for v in _bits(check & mine):
            if succ[v] & bw:
                out |= 1 << v
        for v in _bits(check & ~mine):
            s = succ[v]
            if s & bw and not s & leave:
                out |= 1 << v
        self._last_cpre = (mine, within, bw, out)
        return out


def _count_new(c: OpCounters) -> None:
    """The live-set rule: one more live set, raising the peak if passed."""
    c.live_sets += 1
    if c.live_sets > c.peak_live_sets:
        c.peak_live_sets = c.live_sets


class _Classes(dict):
    """Priority classes by priority; a missing priority reads as `empty`."""

    __slots__ = ("empty",)

    def __missing__(self, priority: int) -> VertexSet:
        return self.empty


class SetSpace:
    """Operation context for one run: counters plus the pinned base sets."""

    def __init__(self, game: ParityGame, backend: str = "bits"):
        self.game = game
        self.counters = OpCounters()
        if backend == "bits":
            self._backend = _BitsBackend(game)
        elif backend == "bdd":
            from .bdd import BddBackend

            self._backend = BddBackend(game)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.full = self._new(self._backend.full(), pinned=True)
        from_mask = self._backend.from_mask
        evens = from_mask(_label_masks(game.owner).get(Player.EVEN, 0))
        odds = self._backend.difference(self.full.payload, evens)
        # Each player's vertices, keyed by Player; its values 0 and 1 work too.
        self.owned = {Player.EVEN: self._new(evens, pinned=True),
                      Player.ODD: self._new(odds, pinned=True)}
        self.empty = self._new(self._backend.empty(), pinned=True)
        classes = _label_masks(game.priority)
        self.priority_sets = _Classes(
            (p, self._new(from_mask(classes[p]), pinned=True)) for p in sorted(classes)
        )
        # A missing priority reads as the pinned empty set and costs nothing
        # but one more live set in the count, as its own set would.
        self.priority_sets.empty = self.empty
        c = self.counters
        c.live_sets = c.peak_live_sets = c.live_sets + game.priority_count - len(classes)

    # -- lifecycle -----------------------------------------------------------

    def _new(self, payload, pinned: bool = False) -> VertexSet:
        """A fresh set of `payload`, counted by the live-set rule."""
        _count_new(self.counters)
        return VertexSet(self, payload, pinned)

    def release(self, *sets: VertexSet) -> None:
        c = self.counters
        for s in sets:
            if s.space is not self or s.pinned or not s.alive:
                self._release_error(s)
            s.alive = False
            c.live_sets -= 1

    def _release_error(self, s: VertexSet):
        if s.space is not self:
            raise UniverseMismatch("set belongs to another space")
        if s.pinned:
            raise ValueError("cannot release a pinned base set")
        raise ValueError("double release")

    def _arg(self, s: VertexSet):
        if s.space is not self:
            raise UniverseMismatch("set belongs to another space")
        if not s.alive:
            raise ValueError("operation on a released set")
        return s.payload

    # -- creation ------------------------------------------------------------

    def empty_set(self) -> VertexSet:
        return self._new(self._backend.empty())

    def from_ids(self, ids) -> VertexSet:
        return self._new(self._backend.from_ids(ids))

    def singleton(self, v: int) -> VertexSet:
        return self._new(self._backend.from_ids((v,)))

    def copy(self, s: VertexSet) -> VertexSet:
        return self._new(self._arg(s))

    # -- counted operations ----------------------------------------------------

    def union(self, a: VertexSet, b: VertexSet) -> VertexSet:
        a, b = self._arg(a), self._arg(b)
        self.counters.unions += 1
        return self._new(self._backend.union(a, b))

    def intersect(self, a: VertexSet, b: VertexSet) -> VertexSet:
        a, b = self._arg(a), self._arg(b)
        self.counters.intersections += 1
        return self._new(self._backend.intersect(a, b))

    def difference(self, a: VertexSet, b: VertexSet) -> VertexSet:
        a, b = self._arg(a), self._arg(b)
        self.counters.differences += 1
        return self._new(self._backend.difference(a, b))

    def is_subset(self, a: VertexSet, b: VertexSet) -> bool:
        a, b = self._arg(a), self._arg(b)
        self.counters.containment_tests += 1
        return self._backend.is_subset(a, b)

    def equals(self, a: VertexSet, b: VertexSet) -> bool:
        a, b = self._arg(a), self._arg(b)
        self.counters.equality_tests += 1
        return self._backend.equals(a, b)

    def is_empty(self, s: VertexSet) -> bool:
        return self.equals(s, self.empty)

    def pre(self, b: VertexSet, within: VertexSet | None = None) -> VertexSet:
        b = self._arg(b)
        w = self._arg(within) if within is not None else self._backend.full()
        self.counters.pre_ops += 1
        return self._new(self._backend.pre(b, w))

    def cpre(self, player: Player, b: VertexSet, within: VertexSet | None = None) -> VertexSet:
        try:
            mine = self.owned[player].payload
        except (KeyError, TypeError):
            raise ValueError(f"not a player: {player!r}") from None
        b = self._arg(b)
        w = self._arg(within) if within is not None else self._backend.full()
        self.counters.cpre_ops += 1
        return self._new(self._backend.cpre(mine, b, w))

    def closure(self, player: Player, seed, within=None, edges: dict | None = None):
        """The payload of `player`'s attractor to the payload `seed` inside
        the payload `within` (the whole game when None): the least fixpoint
        of seed + cpre, grown until a cpre step is contained in it.

        It counts what the loop on sets would: one cpre and one containment
        test per round, one union per round that grows, and a peak of the
        seed's copy, the step and their union. The result counts as one live
        set that the caller gives back. When `edges` is a dict, each
        attracted vertex of `player` gets its lowest-id successor one layer
        closer to the seed; seed vertices get none.
        """
        backend = self._backend
        mine = self.owned[player].payload
        if within is None:
            within = backend.full()
        cpre, is_subset, union = backend.cpre, backend.is_subset, backend.union
        current = seed
        rounds = 1
        step = cpre(mine, current, within)
        while not is_subset(step, current):
            if edges is not None:
                new = backend.intersect(backend.difference(step, current), mine)
                for v in backend.ids(new):
                    edges[v] = backend.first_successor_in(v, current)
            current = union(current, step)
            rounds += 1
            step = cpre(mine, current, within)
        c = self.counters
        c.unions += rounds - 1
        c.containment_tests += rounds
        c.cpre_ops += rounds
        peak = c.live_sets + (3 if rounds > 1 else 2)
        if peak > c.peak_live_sets:
            c.peak_live_sets = peak
        c.live_sets += 1
        return current

    # -- uncounted helpers for debug checks ------------------------------------

    def raw_ids(self, s: VertexSet) -> tuple[int, ...]:
        return self._backend.ids(self._arg(s))
