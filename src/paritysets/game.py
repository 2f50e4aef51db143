"""Parity game structure: vertices, ownership, priorities, edges.

Games are immutable once built. Every vertex must have at least one
successor (infinite plays only). Priorities are naturals; the priority
count c is one past the largest priority in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import chain


class GameError(Exception):
    pass


class VertexWithoutSuccessor(GameError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no successor")


class PriorityOutOfRange(GameError):
    def __init__(self, vertex: int, priority: int):
        self.vertex = vertex
        self.priority = priority
        super().__init__(f"vertex {vertex} has invalid priority {priority}")


class DanglingEdge(GameError):
    def __init__(self, source: int, target: int):
        self.source = source
        self.target = target
        super().__init__(f"edge {source} -> {target} leaves the vertex range")


class NotClosed(GameError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no successor inside the subset")


class Player(IntEnum):
    EVEN = 0
    ODD = 1

    def opponent(self) -> "Player":
        return Player.ODD if self is Player.EVEN else Player.EVEN


_PLAYERS = {0: Player.EVEN, 1: Player.ODD}


@dataclass(frozen=True)
class ParityGame:
    owner: tuple[Player, ...]
    priority: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    names: tuple[str | None, ...] | None = None

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """The inverted edges, built on first use."""
        preds: list[list[int]] = [[] for _ in range(len(self.owner))]
        for v, succs in enumerate(self.successors):
            for w in succs:
                preds[w].append(v)
        return tuple(map(tuple, preds))

    @property
    def vertex_count(self) -> int:
        return len(self.owner)

    @property
    def priority_count(self) -> int:
        """c: one past the largest priority present (0 for the empty game)."""
        return max(self.priority) + 1 if self.priority else 0


def build_game(
    owners: list[int] | list[Player],
    priorities: list[int],
    successor_lists: list[list[int]],
    names: list[str | None] | None = None,
) -> ParityGame:
    """Validate and freeze a game.

    Duplicate edges are dropped (first occurrence kept). Raises
    VertexWithoutSuccessor, PriorityOutOfRange or DanglingEdge, and
    ValueError for an owner that is not a player.
    """
    n = len(owners)
    if not (len(priorities) == len(successor_lists) == n):
        raise GameError("owners, priorities and successor lists must have equal length")
    if names is not None and len(names) != n:
        raise GameError("names must match the vertex count")
    if priorities and min(priorities) < 0:
        v = next(v for v, p in enumerate(priorities) if p < 0)
        raise PriorityOutOfRange(v, priorities[v])
    cleaned = list(map(tuple, successor_lists))
    targets = list(chain.from_iterable(cleaned))
    distinct = list(map(len, map(set, cleaned)))
    if sum(distinct) < len(targets):
        # Rebuild only the lists whose set is shorter.
        cleaned = [succs if k == len(succs) else tuple(dict.fromkeys(succs))
                   for succs, k in zip(cleaned, distinct)]
    if not all(cleaned) or targets and (min(targets) < 0 or max(targets) >= n):
        for v, succs in enumerate(cleaned):  # blame the first bad vertex
            for w in succs:
                if not 0 <= w < n:
                    raise DanglingEdge(v, w)
            if not succs:
                raise VertexWithoutSuccessor(v)
    try:
        owner = tuple(map(_PLAYERS.__getitem__, owners))
    except (KeyError, TypeError):
        owner = tuple(Player(o) for o in owners)  # ValueError naming the bad owner
    return ParityGame(
        owner=owner,
        priority=tuple(priorities),
        successors=tuple(cleaned),
        names=tuple(names) if names is not None else None,
    )


def normalize_priorities(game: ParityGame) -> tuple[ParityGame, dict[int, int]]:
    """Compact priorities so every class strictly between 0 and c-1 is nonempty.

    One pass over the distinct priorities in ascending order: the smallest p
    maps to p % 2, and each next one to its predecessor's new value, plus 1
    when their parities differ. Parity of every vertex and the order of the
    classes are preserved, so winners and strategies are unchanged.
    Returns the new game and the old-priority -> new-priority map. Idempotent.
    """
    remap: dict[int, int] = {}
    prev = None
    for p in sorted(set(game.priority)):
        remap[p] = p % 2 if prev is None else remap[prev] + (p - prev) % 2
        prev = p
    priority = tuple(map(remap.__getitem__, game.priority))
    if priority == game.priority:
        return game, remap
    out = ParityGame(
        owner=game.owner,
        priority=priority,
        successors=game.successors,
        names=game.names,
    )
    return out, remap


def swap_roles_increment(game: ParityGame) -> ParityGame:
    """Flip ownership and add 1 to every priority.

    In the shifted game the roles of the players are exchanged: a set is
    winning for one player there exactly when it is winning for the other
    player here.
    """
    return ParityGame(
        owner=tuple(o.opponent() for o in game.owner),
        priority=tuple(p + 1 for p in game.priority),
        successors=game.successors,
        names=game.names,
    )


def subgame(game: ParityGame, vertices) -> tuple[ParityGame, tuple[int, ...]]:
    """Restrict to a vertex subset, remapping ids densely.

    Every kept vertex must keep at least one successor, otherwise NotClosed.
    Returns the subgame and the new-id -> old-id table.
    """
    keep = sorted(set(int(v) for v in vertices))
    for v in keep:
        if not 0 <= v < game.vertex_count:
            raise GameError(f"vertex {v} outside the game")
    new_id = {old: i for i, old in enumerate(keep)}
    succs: list[tuple[int, ...]] = []
    for old in keep:
        inside = tuple(new_id[w] for w in game.successors[old] if w in new_id)
        if not inside:
            raise NotClosed(old)
        succs.append(inside)
    sub = ParityGame(
        owner=tuple(game.owner[old] for old in keep),
        priority=tuple(game.priority[old] for old in keep),
        successors=tuple(succs),
        names=tuple(game.names[old] for old in keep) if game.names else None,
    )
    return sub, tuple(keep)
