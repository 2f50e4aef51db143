"""Rank domain for progress measures.

A rank is either TOP or a tuple of counters, one per odd priority, lowest
odd priority first. Counter p (for odd priority 2p+1) is capped by the
number of vertices carrying that priority. The order is lexicographic with
the LOWEST odd priority least significant, i.e. tuples compare by their
reversed form; TOP is the unique maximum.

An optional bound h restricts vectors to counter sums <= h, which shrinks
the domain to the small one used for dominion search. Successor/predecessor
use carry-with-skip so positions whose cap is 0 (empty priority class, e.g.
in a masked subgame view) freeze out naturally.
"""

from __future__ import annotations

from math import comb, prod

from .game import _Record


class _Top:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()


class RankDomain(_Record):
    """All ranks for a game with c priorities, counter caps, optional sum bound."""

    _fields = ("c", "caps", "bound")

    def __init__(self, c: int, caps: tuple[int, ...], bound: int | None = None):
        if len(caps) != c // 2:
            raise ValueError("need one counter cap per odd priority")
        if any(k < 0 for k in caps):
            raise ValueError("caps must be naturals")
        if bound is not None and bound < 0:
            raise ValueError("bound must be a natural")
        self.c = c
        self.caps = caps
        self.bound = bound
        # Number of counters, stored once: every step reads it.
        self.positions = len(caps)

    @classmethod
    def for_game(cls, game, bound: int | None = None) -> "RankDomain":
        c = game.priority_count
        caps = tuple(
            sum(1 for p in game.priority if p == 2 * pos + 1) for pos in range(c // 2)
        )
        return cls(c=c, caps=caps, bound=bound)

    # -- basic shape -------------------------------------------------------

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.positions

    def contains(self, r) -> bool:
        if r is TOP:
            return True
        if len(r) != self.positions:
            return False
        if any(not 0 <= x <= k for x, k in zip(r, self.caps)):
            return False
        return self.bound is None or sum(r) <= self.bound

    def size(self) -> int:
        """Number of ranks including TOP. A bound at or above the caps' sum
        bounds nothing, so the counting never costs more than that sum."""
        if self.bound is None or self.bound >= sum(self.caps):
            return prod(k + 1 for k in self.caps) + 1
        ways = [0] * (self.bound + 1)
        ways[0] = 1
        for cap in self.caps:
            nxt = [0] * (self.bound + 1)
            for s, w in enumerate(ways):
                if not w:
                    continue
                for x in range(0, min(cap, self.bound - s) + 1):
                    nxt[s + x] += w
            ways = nxt
        return sum(ways) + 1

    def size_upper_bound(self) -> int:
        """Binomial bound for the bounded domain: C(h + positions, h) + 1."""
        if self.bound is None:
            return self.size()
        return comb(self.bound + self.positions, self.bound) + 1

    # -- order -------------------------------------------------------------

    def compare(self, a, b, level: int = 0) -> int:
        """Sign of a - b after projecting both to counters at priorities >= level."""
        a = self.project(a, level)
        b = self.project(b, level)
        if a is TOP:
            return 0 if b is TOP else 1
        if b is TOP:
            return -1
        ra, rb = a[::-1], b[::-1]
        return (ra > rb) - (ra < rb)

    def project(self, r, level: int):
        """Zero the counters of odd priorities below level; TOP stays TOP."""
        if r is TOP:
            return TOP
        cut = min(level // 2, self.positions)
        if cut == 0:
            return tuple(r)
        return (0,) * cut + tuple(r[cut:])

    def max_vector(self) -> tuple[int, ...]:
        """Largest non-TOP rank: greedy fill from the most significant position."""
        return self._fill_from(0, ())

    def _fill_from(self, lo: int, tail: tuple[int, ...]) -> tuple[int, ...]:
        # Greedy max below `tail`, which occupies positions >= some point; here
        # tail is the fixed suffix and we fill positions lo..len-1 of the gap.
        budget = None if self.bound is None else self.bound - sum(tail)
        out = [0] * (self.positions - len(tail) - lo)
        for i in range(len(out) - 1, -1, -1):
            cap = self.caps[lo + i]
            take = cap if budget is None else min(cap, budget)
            out[i] = take
            if budget is not None:
                budget -= take
        return (0,) * lo + tuple(out) + tail

    # -- successor / predecessor --------------------------------------------

    def incr(self, r):
        """Next rank in the order; TOP is absorbing."""
        if r is TOP:
            return TOP
        return self._succ(tuple(r), 0)

    def _succ(self, r: tuple[int, ...], start: int):
        # Carry with skip: positions below `start` in the candidate are zero.
        suffix_sum = sum(r[start:])
        for i in range(start, self.positions):
            x = r[i] + 1
            suffix_sum -= r[i]
            if x <= self.caps[i] and (self.bound is None or x + suffix_sum <= self.bound):
                return (0,) * i + (x,) + r[i + 1 :]
        return TOP

    def decr(self, r):
        """Previous rank; decr(TOP) is the largest vector, decr(zero) is zero."""
        if r is TOP:
            return self.max_vector()
        r = tuple(r)
        return self._pred(r, 0)

    def _pred(self, r: tuple[int, ...], start: int):
        for j in range(start, self.positions):
            if r[j]:
                return self._fill_from(start, (r[j] - 1,) + r[j + 1 :])
        return r

    def incr_at(self, r, level: int):
        """Smallest rank that beats r at `level`: >= for even, > for odd."""
        if r is TOP:
            return TOP
        if level % 2 == 0:
            return self.project(r, level)
        p = level // 2
        base = self.project(r, level)
        return self._succ(base, p)  # type: ignore[arg-type]

    def decr_at(self, r, level: int):
        """Inverse of incr_at on its image: predecessor within the sub-domain of
        counters at priorities >= level. r must satisfy r == project(r, level)."""
        if level % 2 == 0:
            return self.project(r, level)
        p = level // 2
        if r is TOP:
            return self._fill_from(p, ())
        r = tuple(r)
        return self._pred(r, p)

    # -- iteration -----------------------------------------------------------

    def iterate(self):
        """All ranks in ascending order, ending with TOP."""
        r = self.zero
        while r is not TOP:
            yield r
            r = self.incr(r)
        yield TOP
