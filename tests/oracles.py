"""Explicit attractor, dominion and trap checks the tests hold the solvers to.

Each reads the game vertex by vertex and counts nothing. The dominion
checks solve the one-player-won region with the explicit lifting solver;
`enumerate_dominions_bruteforce` is exponential, for small games only.
"""

from __future__ import annotations

from itertools import combinations

from paritysets.explicit import _wins_everywhere
from paritysets.game import ParityGame, Player


def is_trap(game: ParityGame, player: Player, vertices) -> bool:
    """True when `player` cannot force the play out of `vertices`: each of
    the player's vertices there stays inside, and each of the opponent's
    can."""
    player = Player(player)
    vertices = frozenset(vertices)
    for v in vertices:
        succs = game.successors[v]
        if game.owner[v] is player:
            if any(w not in vertices for w in succs):
                return False
        elif all(w not in vertices for w in succs):
            return False
    return True


def attractor_layers(game: ParityGame, player: Player, seed, within=None):
    """`player`'s attractor to `seed` inside `within` (every vertex when
    None), grown one layer at a time: (vertices, edges, layers), with the
    number of layers that added a vertex. A vertex of `within` joins a layer
    when it is the player's and moves into the set so far inside `within`,
    or the opponent's with a move inside `within` and every such move into
    the set. Each joining vertex of the player gets its lowest-id successor
    in the set so far as its edge."""
    player = Player(player)
    region = frozenset(range(game.vertex_count) if within is None else within)
    attr = frozenset(seed)
    edges = {}
    layers = 0
    while True:
        new = set()
        for v in region - attr:
            inside = [w for w in game.successors[v] if w in region]
            if game.owner[v] is player:
                if any(w in attr for w in inside):
                    new.add(v)
                    edges[v] = min(w for w in game.successors[v] if w in attr)
            elif inside and all(w in attr for w in inside):
                new.add(v)
        if not new:
            return attr, edges, layers
        attr |= new
        layers += 1


def is_dominion(game: ParityGame, player: Player, vertices) -> bool:
    """Nonempty opponent trap on which `player` wins everywhere."""
    player = Player(player)
    cand = frozenset(vertices)
    if not cand:
        return False
    return is_trap(game, player.opponent(), cand) and _wins_everywhere(game, player, cand)


def enumerate_dominions_bruteforce(
    game: ParityGame, player: Player, max_size: int
) -> list[frozenset[int]]:
    """All dominions of `player` with at most max_size vertices."""
    player = Player(player)
    out = []
    n = game.vertex_count
    for size in range(1, min(max_size, n) + 1):
        for combo in combinations(range(n), size):
            cand = frozenset(combo)
            # The opponent-trap check also guarantees the subgame is closed.
            if is_trap(game, player.opponent(), cand) and _wins_everywhere(game, player, cand):
                out.append(cand)
    return out
