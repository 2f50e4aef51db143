"""Memoryless strategies: extraction and independent verification.

The measure-based extraction never reads ranks vertex by vertex over the
whole game; for each winning vertex v (ascending id) it takes the even-side
controlled predecessors of {v} once and intersects them, per predecessor
priority, with the set of the rank that an optimal move to v would justify.
A predecessor u of priority l picks v exactly when rank(u) = incr_l(rank(v)),
which by the fixpoint property makes v an optimal successor of u; the
covered bookkeeping keeps the first (lowest-id) optimal successor.

Verification is explicit and independent of the solvers: check the choices
stay inside the claimed region, check the opponent cannot leave it, then
solve the one-player restriction and require the player to win everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import ParityGame, Player, build_game, swap_roles_increment
from .explicit import solve_explicit_pm
from .ranks import TOP


class IncompleteStrategy(Exception):
    pass


class StrategyLeavesW(Exception):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"strategy sends vertex {vertex} outside the claimed region")


@dataclass(frozen=True)
class Strategy:
    player: Player
    domain: frozenset[int]
    choice: dict[int, int]

    def __post_init__(self):
        if frozenset(self.choice) != self.domain:
            raise IncompleteStrategy("choice map does not cover the domain exactly")


def extract_strategy_from_pm(game: ParityGame, state) -> Strategy:
    """Read a winning strategy for the rank-bounded player off a finished run.

    `state` is a rank state produced by a measure run; under a swapped view
    the extracted strategy belongs to the odd player of the base game. One
    controlled-predecessor operation per winning vertex.
    """
    view = state.view
    space = state.space
    domain = state.domain
    player = Player.ODD if view.swap else Player.EVEN
    mine = space.odds if view.swap else space.evens

    top_set, top_owned = state.read(TOP)
    uncovered = space.difference(view.universe, top_set)
    if top_owned:
        space.release(top_set)
    choice: dict[int, int] = {}
    for v in uncovered.ids():
        rank_v = state.rank_of(v)
        one = space.singleton(v)
        preds = space.cpre(view.odd_role.opponent(), one, within=view.universe)
        space.release(one)
        levels = sorted({view.priority_of(u) for u in game.predecessors[v]})
        for level in levels:
            target = domain.incr_at(rank_v, level)
            if target is TOP:
                continue
            cls = view.class_at(level)
            if cls is None:
                continue
            holders, owned = state.read(target)
            cand = space.intersect(preds, holders)
            if owned:
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


def extract_attractor_strategies(
    game: ParityGame, winning_even, winning_odd, choices_even, choices_odd
) -> tuple[Strategy, Strategy]:
    """Package the raw choice maps recorded by the recursive solvers.

    Takes each player's winning region as vertex ids and their choice map.
    Each map must cover exactly the player's vertices inside their winning
    region, with every choice an existing edge; choices outside it are dropped.
    """
    out = []
    for player, winning, raw in (
        (Player.EVEN, winning_even, choices_even),
        (Player.ODD, winning_odd, choices_odd),
    ):
        needed = {v for v in winning if game.owner[v] is player}
        kept = {v: w for v, w in raw.items() if v in needed}
        missing = needed - set(kept)
        if missing:
            raise IncompleteStrategy(
                f"{player.name} lacks choices at {sorted(missing)}"
            )
        for v, w in kept.items():
            if w not in game.successors[v]:
                raise IncompleteStrategy(f"choice {v} -> {w} is not an edge")
        out.append(Strategy(player=player, domain=frozenset(kept), choice=kept))
    return out[0], out[1]


def _region_ids(region) -> frozenset[int]:
    if hasattr(region, "ids"):
        return frozenset(region.ids())
    return frozenset(int(v) for v in region)


def verify_strategy(game: ParityGame, player: Player, region, strategy: Strategy) -> bool:
    """True iff `strategy` wins every play from `region` for `player`.

    Raises StrategyLeavesW when a choice exits the region. Returns False
    when a player vertex lacks a choice, when the opponent can leave the
    region, or when some play consistent with the strategy loses.
    """
    if strategy.player is not player:
        raise ValueError("strategy belongs to the other player")
    w = _region_ids(region)
    if not w:
        return True
    for v in w:
        if game.owner[v] is player:
            pick = strategy.choice.get(v)
            if pick is None:
                return False
            if pick not in game.successors[v]:
                return False
            if pick not in w:
                raise StrategyLeavesW(v)
        else:
            if any(s not in w for s in game.successors[v]):
                return False
    # One-player restriction: the player's moves are pinned, the opponent
    # keeps every region-internal edge.
    order = sorted(w)
    index = {v: i for i, v in enumerate(order)}
    owners = []
    priorities = []
    succs = []
    for v in order:
        owners.append(game.owner[v])
        priorities.append(game.priority[v])
        if game.owner[v] is player:
            succs.append([index[strategy.choice[v]]])
        else:
            succs.append([index[s] for s in game.successors[v]])
    restricted = build_game(owners, priorities, succs)
    if player is Player.ODD:
        restricted = swap_roles_increment(restricted)
    return len(solve_explicit_pm(restricted).winning_even) == len(order)
