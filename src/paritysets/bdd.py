"""Reduced ordered BDD backend for the vertex-set interface.

Vertex ids are encoded in binary over k current-state variables, interleaved
with k next-state variables (bit j of the id maps to variable 2j, its primed
copy to 2j+1). One transition relation over both ranks is built up front;
preimages are relational products, and the controlled predecessor is
assembled from two preimages but still reported as a single operation by the
counting layer. The backend holds only the relation and the node algebra: cpre
gets the acting player's set from the space, which owns it.

Node ids are ints: 0 is the false terminal, 1 the true terminal. Sets are
always interpreted relative to the domain predicate (valid vertex ids), so
complements go through difference, never raw negation.
"""

from __future__ import annotations

from .game import ParityGame
from .sets import _set_bits


class _Manager:
    def __init__(self, nvars: int):
        # Terminals carry a past-the-end var so the order test stays uniform.
        self.var = [nvars, nvars]
        self.lo = [0, 0]
        self.hi = [1, 1]
        self.unique: dict[tuple[int, int, int], int] = {}
        self.apply_cache: dict[tuple, int] = {}

    def mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        found = self.unique.get(key)
        if found is not None:
            return found
        idx = len(self.var)
        self.var.append(var)
        self.lo.append(lo)
        self.hi.append(hi)
        self.unique[key] = idx
        return idx

    def apply(self, op: str, a: int, b: int) -> int:
        # Short circuits keep the caches small; they also settle every pair
        # of terminals.
        if op == "and":
            if a == 0 or b == 0:
                return 0
            if a == 1:
                return b
            if b == 1:
                return a
            if a == b:
                return a
        elif op == "or":
            if a == 1 or b == 1:
                return 1
            if a == 0:
                return b
            if b == 0:
                return a
            if a == b:
                return a
        else:
            if a == 0 or b == 1:
                return 0
            if b == 0:
                return a
            if a == b:
                return 0
        key = (op, a, b)
        found = self.apply_cache.get(key)
        if found is not None:
            return found
        va, vb = self.var[a], self.var[b]
        v = min(va, vb)
        a0, a1 = (self.lo[a], self.hi[a]) if va == v else (a, a)
        b0, b1 = (self.lo[b], self.hi[b]) if vb == v else (b, b)
        out = self.mk(v, self.apply(op, a0, b0), self.apply(op, a1, b1))
        self.apply_cache[key] = out
        return out

    def shift_to_next(self, a: int) -> int:
        """Rename every current variable 2j to its primed copy 2j+1.

        The map is monotone in the order, so a plain recursive rebuild stays
        canonical. Only valid on nodes free of primed variables.
        """
        if a < 2:
            return a
        key = ("shift", a)
        found = self.apply_cache.get(key)
        if found is not None:
            return found
        v = self.var[a]
        out = self.mk(v + 1, self.shift_to_next(self.lo[a]), self.shift_to_next(self.hi[a]))
        self.apply_cache[key] = out
        return out

    def exists_next(self, a: int) -> int:
        """Existentially quantify all primed variables."""
        if a < 2:
            return a
        key = ("exn", a)
        found = self.apply_cache.get(key)
        if found is not None:
            return found
        v = self.var[a]
        lo = self.exists_next(self.lo[a])
        hi = self.exists_next(self.hi[a])
        out = self.apply("or", lo, hi) if v % 2 else self.mk(v, lo, hi)
        self.apply_cache[key] = out
        return out


class BddBackend:
    def __init__(self, game: ParityGame):
        n = game.vertex_count
        self.n = n
        self.bits = max(1, (n - 1).bit_length()) if n else 1
        self.man = _Manager(2 * self.bits)
        self.full_node = self.from_ids(range(n))
        self.sorted_succs = [sorted(succs) for succs in game.successors]
        trans = 0
        for v, succs in enumerate(game.successors):
            row = 0
            for w in succs:
                row = self.man.apply("or", row, self._minterm(w, primed=True))
            trans = self.man.apply("or", trans, self.man.apply("and", self._minterm(v), row))
        self.trans = trans

    def _minterm(self, v: int, primed: bool = False) -> int:
        node = 1
        for j in range(self.bits - 1, -1, -1):
            var = 2 * j + (1 if primed else 0)
            bit = v >> j & 1
            node = self.man.mk(var, 0, node) if bit else self.man.mk(var, node, 0)
        return node

    # -- set interface ---------------------------------------------------------

    def empty(self):
        return 0

    def full(self):
        return self.full_node

    def from_ids(self, ids):
        node = 0
        for v in ids:
            node = self.man.apply("or", node, self._minterm(v))
        return node

    def from_mask(self, mask: int):
        """The set of mask's bits, joined in ascending id order."""
        return self.from_ids(_set_bits(mask))

    def union(self, a, b):
        return self.man.apply("or", a, b)

    def intersect(self, a, b):
        return self.man.apply("and", a, b)

    def difference(self, a, b):
        return self.man.apply("diff", a, b)

    def is_subset(self, a, b) -> bool:
        return self.man.apply("diff", a, b) == 0

    def equals(self, a, b) -> bool:
        return a == b

    # count and ids walk a's nodes instead of probing every id. A set holds
    # only valid ids, so each of its models is one. Bit j of an id is
    # variable 2j, the lowest bit at the root: var // 2 is a node's bit (the
    # id's width at the terminals), and a bit that a path skips is free.

    def count(self, a) -> int:
        var, lo, hi = self.man.var, self.man.lo, self.man.hi
        models = {0: 0, 1: 1}

        def below(node):
            # Models over the variables from node's down.
            found = models.get(node)
            if found is None:
                v = var[node]
                found = sum(below(c) << (var[c] - v - 2) // 2 for c in (lo[node], hi[node]))
                models[node] = found
            return found

        return below(a) << var[a] // 2

    def ids(self, a) -> tuple[int, ...]:
        var, lo, hi = self.man.var, self.man.lo, self.man.hi
        out = []

        def walk(node, j, value):
            # value holds the id's bits below j; those from j to node's are free.
            k = var[node] // 2
            if node == 1:
                out.extend(value | x << j for x in range(1 << k - j))
            elif node:
                for x in range(1 << k - j):
                    walk(lo[node], k + 1, value | x << j)
                    walk(hi[node], k + 1, value | x << j | 1 << k)

        walk(a, 0, 0)
        return tuple(sorted(out))

    def contains(self, a, v: int) -> bool:
        node = a
        while node >= 2:
            var = self.man.var[node]
            bit = v >> (var // 2) & 1
            node = self.man.hi[node] if bit else self.man.lo[node]
        return node == 1

    def first_successor_in(self, v: int, s) -> int:
        """v's lowest-id successor in s, which must hold one."""
        return next(w for w in self.sorted_succs[v] if self.contains(s, w))

    def _preimage(self, b) -> int:
        primed = self.man.shift_to_next(b)
        return self.man.exists_next(self.man.apply("and", self.trans, primed))

    def pre(self, b, within):
        return self.man.apply("and", within, self._preimage(b))

    def cpre(self, mine, b, within):
        # within AND [ pre(within AND b) minus (pre(within minus b) minus mine) ]
        may = self._preimage(self.man.apply("and", within, b))
        escape = self._preimage(self.man.apply("diff", within, b))
        forced = self.man.apply("diff", may, self.man.apply("diff", escape, mine))
        return self.man.apply("and", within, forced)
