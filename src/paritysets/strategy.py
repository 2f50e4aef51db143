"""Memoryless strategies: extraction and independent verification.

The measure-based extraction reads the least fixpoint directly, as in
Jurdziński's small progress measures: each winning vertex u of the
rank-bounded player, at view level l, moves to its lowest-id successor w
with incr_at(rank(w), l) = rank(u). Those successors are the ones inside
the view and outside one rank set, that is, ranked below its rank: at an
odd level rank(u) projected to l, and at an even level the least rank that
beats rank(u) at l + 1. The extraction reads every rank once through the
state's uncounted `ranks()`, so, like the recursive solvers' choice maps,
it adds nothing to the counters.

Verification is explicit and independent of the solvers: check the choices
stay inside the claimed region, check the opponent cannot leave it, then
solve the one-player restriction and require the player to win everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import GameError, ParityGame, Player
from .explicit import _wins_everywhere
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
        object.__setattr__(self, "player", Player(self.player))
        if frozenset(self.choice) != self.domain:
            raise IncompleteStrategy("choice map does not cover the domain exactly")


def extract_strategy_from_pm(state) -> Strategy:
    """Read a winning strategy for the rank-bounded player off a finished run.

    `state` is a finished run's rank state, which carries the run's view;
    under a swapped view the strategy belongs to the base game's odd player.
    One uncounted read of every rank; the run's counters do not move.
    """
    view = state.view
    domain = state.domain
    game = state.space.game
    player = Player.ODD if view.swap else Player.EVEN
    rank = state.ranks()

    choice: dict[int, int] = {}
    for u in view.universe.ids():
        rank_u = rank[u]
        if game.owner[u] is not player or rank_u is TOP:
            continue
        level = game.priority[u] + view.shift
        # w justifies rank_u exactly when incr_at(rank(w), level) == rank_u,
        # which at the fixpoint means w lies outside S_target: below target.
        if level % 2:
            target = domain.project(rank_u, level)
        else:
            target = domain.incr_at(rank_u, level + 1)
        picks = [w for w in game.successors[u]
                 if w in rank and domain.compare(rank[w], target) < 0]
        if not picks:
            raise IncompleteStrategy(f"no successor justifies the rank of vertex {u}")
        choice[u] = min(picks)
    return Strategy(player=player, domain=frozenset(choice), choice=choice)


def extract_attractor_strategies(
    game: ParityGame, winning_even, winning_odd, choices_even, choices_odd
) -> tuple[Strategy, Strategy]:
    """Package the raw choice maps recorded by the recursive solvers.

    Takes each player's winning region as vertex ids and their choice map.
    Each map must cover the player's vertices inside their winning region,
    with every choice there an existing edge. A map may also hold entries
    outside the region, which a solve leaves behind; those are dropped.
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

    Raises GameError for a region vertex the game lacks and StrategyLeavesW
    when a choice exits the region. Returns False when a player vertex lacks
    a choice, when the opponent can leave the region, or when some play
    consistent with the strategy loses.
    """
    player = Player(player)
    if strategy.player is not player:
        raise ValueError("strategy belongs to the other player")
    w = _region_ids(region)
    if not w:
        return True
    for v in sorted(w):
        if not 0 <= v < game.vertex_count:
            raise GameError(f"vertex {v} outside the game")
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
    pinned = ParityGame(
        owner=game.owner,
        priority=game.priority,
        successors=tuple(
            (strategy.choice[v],) if v in w and game.owner[v] is player else succs
            for v, succs in enumerate(game.successors)
        ),
    )
    return _wins_everywhere(pinned, player, w)
