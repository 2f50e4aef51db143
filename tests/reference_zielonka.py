"""Reference for Zielonka's recursion, one counted `SetSpace` operation at a
time.

`reference_solve` takes `_solve`'s arguments and recurses in Python: each
intermediate is a `VertexSet` built by a counted operation and released by
the code that made it, and each attractor grows by `SetSpace.cpre` and
`is_subset`. Strategies are built functionally: each level returns its
own choice maps and its parent merges the parts it keeps. The library runs
one loop over an explicit stack on raw payloads and writes into one map per
player; both must leave the same counters, peak included, winners,
strategies, level logs and dominion-hook calls.
"""

from __future__ import annotations

from paritysets.game import Player
from paritysets.zielonka import RecursionDepthExceeded


def reference_attractor(space, player, target, within, edges):
    """`player`'s attractor to `target` inside `within`, a fresh set; each
    attracted vertex of `player` gets its lowest-id successor in the set so
    far in `edges`, unless `edges` is None."""
    succs = space.game.successors
    current = space.copy(target)
    while True:
        step = space.cpre(player, current, within=within)
        if space.is_subset(step, current):
            space.release(step)
            return current
        if edges is not None:
            mine = space.owned[player]
            for v in step.ids():
                if mine.contains(v) and not current.contains(v):
                    edges[v] = min(w for w in succs[v] if current.contains(w))
        grown = space.union(current, step)
        space.release(current, step)
        current = grown


def _top_priority(space, live, hi):
    if space.is_empty(live):
        return -1, None
    for i in range(hi, -1, -1):
        cls = space.intersect(space.priority_sets[i], live)
        if not space.is_empty(cls):
            return i, cls
        space.release(cls)
    return -1, None


def reference_solve(game, space, live, depth, max_depth, maps, dominion_hook=None,
                    level_sink=None):
    """`_solve`'s answer, recursing on sets.

    The hook writes its dominion's picks into `maps` itself; the levels'
    merged choices are written over them once the outermost level returns."""
    wins, choices = _reference_level(game, space, live, depth, max_depth, maps is not None,
                                     dominion_hook, level_sink, None)
    if maps is not None:
        for p in Player:
            maps[p].update(choices[p])
    return wins


def _reference_level(game, space, live, depth, max_depth, record, dominion_hook, level_sink,
                     hi):
    """One level's (wins, choices), both keyed by Player."""
    if depth > max_depth:
        space.release(live)
        raise RecursionDepthExceeded(f"recursion exceeded {max_depth} levels")
    wins = {Player.EVEN: None, Player.ODD: None}
    choices = {Player.EVEN: {}, Player.ODD: {}}

    def absorb(player, region):
        if wins[player] is None:
            wins[player] = space.copy(region)
        else:
            joined = space.union(wins[player], region)
            space.release(wins[player])
            wins[player] = joined

    def peel(player, current, region):
        absorb(player, region)
        shrunk = space.difference(current, region)
        space.release(current, region)
        return shrunk

    current = live
    top = game.priority_count - 1 if hi is None else hi
    level = None
    while True:
        p_star, cls = _top_priority(space, current, top)
        if p_star < 0:
            space.release(current)
            break
        if level_sink is not None and level is None:
            level = {"n_start": current.count(), "passes": []}
            level_sink.append(level)
        removed = 0
        hook_h = None
        if dominion_hook is not None and p_star >= 2:
            space.release(cls)
            op = Player.ODD if p_star % 2 == 0 else Player.EVEN
            dom, hook_h = dominion_hook(space, current, op, p_star + 1)
            if not space.is_empty(dom):
                edges = {} if record else None
                grab = reference_attractor(space, op, dom, current, edges)
                if record:
                    choices[op].update(edges)
                removed += grab.count()
                current = peel(op, current, grab)
            space.release(dom)
            p_star, cls = _top_priority(space, current, p_star)
            if p_star < 0:
                if level is not None:
                    level["passes"].append((hook_h, removed))
                space.release(current)
                break
        top = p_star
        pl = Player.EVEN if p_star % 2 == 0 else Player.ODD
        op = pl.opponent()
        pull_edges = {} if record else None
        pull = reference_attractor(space, pl, cls, current, pull_edges)
        pl_cls = [v for v in cls.ids() if game.owner[v] is pl]
        space.release(cls)
        rest = space.difference(current, pull)
        space.release(pull)
        sub_wins, sub_choices = _reference_level(game, space, rest, depth + 1, max_depth,
                                                 record, dominion_hook, level_sink, p_star - 1)
        if sub_wins[op] is None:
            space.release(*(s for s in sub_wins.values() if s is not None))
            if record:
                choices[pl].update(sub_choices[pl])
                choices[pl].update(pull_edges)
                for v in pl_cls:
                    choices[pl][v] = min(w for w in game.successors[v] if current.contains(w))
            absorb(pl, current)
            space.release(current)
            if level is not None:
                level["passes"].append((hook_h, removed))
            break
        edges = {} if record else None
        grab = reference_attractor(space, op, sub_wins[op], current, edges)
        space.release(*(s for s in sub_wins.values() if s is not None))
        if record:
            choices[op].update(sub_choices[op])
            choices[op].update(edges)
        removed += grab.count()
        current = peel(op, current, grab)
        if level is not None:
            level["passes"].append((hook_h, removed))
    return wins, choices
