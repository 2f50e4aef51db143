"""Attractor computation and the classic recursive solver.

The recursion works on live-vertex masks inside one operation space; no
subgames are ever rebuilt. Each level finds the highest priority present,
attracts to its class for that priority's player, recurses on the rest and
peels the opponent's winnings until they vanish. The search for that
priority scans only the classes below the parent level's top priority, and
each later pass only those up to the level's last one: on a k-priority
ladder the scans of a whole solve cost O(k) operations, not O(k^2). A hook
point ahead of the classic body lets the big-step solver peel an opponent
dominion first; the plain solver passes no hook.

The recursion runs as one loop over an explicit stack of suspended levels,
so its depth is bounded by the priority count, not by Python's stack, and
it works on raw payloads: attractors go through `SetSpace.closure`, and the
loop counts every other operation and live set as the same recursion on
`VertexSet`s would. Set lifetimes are kept deliberately short: a level
consumes its input mask, winning accumulators are allocated on first use (a
side that wins nothing stays None, never an empty set), and the class and
attractor sets of a pass are dropped before descending. The peak number of
live sets stays linear in the priority count.

Strategies go into one choice dict per player that the caller owns for the
whole solve. A vertex is decided by the last pass that touches it, and each
pass writes over the entries of what it covers: attractor edges, and for the
class's own-player vertices their lowest-id successor in the pass's set.
Entries left behind lie outside their owner's winning region, and
extraction drops them.
"""

from __future__ import annotations

import time

from .game import ParityGame, Player, normalize_priorities
from .report import SolveReport
from .sets import SetSpace, VertexSet, _count_new


class RecursionDepthExceeded(Exception):
    pass


_PLAYERS = (Player.EVEN, Player.ODD)


class AttractorResult:
    def __init__(self, attractor: VertexSet, strategy_edges: dict | None = None):
        self.attractor = attractor
        self.strategy_edges = strategy_edges


def attractor(
    game: ParityGame,
    player: Player,
    target: VertexSet,
    within: VertexSet | None = None,
    want_strategy: bool = False,
) -> AttractorResult:
    """Least fixpoint of target + controlled predecessor for `player`.

    One cpre and one containment test per growth round, and one more of each
    for the final containment test. Strategy edges send each attracted
    vertex of `player` to its lowest-id successor one layer closer to the
    target; target vertices get no edge here. A set-level wrapper over
    `SetSpace.closure`.
    """
    player = Player(player)
    space = target.space
    seed = space._arg(target)
    view = None if within is None else space._arg(within)
    edges: dict[int, int] | None = {} if want_strategy else None
    # closure counted its result as a live set.
    found = VertexSet(space, space.closure(player, seed, view, edges))
    return AttractorResult(attractor=found, strategy_edges=edges)


def _top_priority(space: SetSpace, live, hi: int):
    """Highest priority present in the payload `live`, scanning classes `hi`
    down to 0, and the payload of its restricted class, which counts as one
    live set for the caller to give back; (-1, None) when `live` is empty.
    A priority above `hi` in `live` raises `AssertionError`. Counted as on
    sets: one emptiness test of `live`, then per class scanned one
    intersection and one emptiness test, with one class alive at a time."""
    backend, c = space._backend, space.counters
    equals, empty = backend.equals, space.empty.payload
    if equals(live, empty):
        c.equality_tests += 1
        return -1, None
    intersect = backend.intersect
    classes = space.priority_sets
    for i in range(hi, -1, -1):
        cls = intersect(classes[i].payload, live)
        if not equals(cls, empty):
            c.intersections += hi - i + 1
            c.equality_tests += hi - i + 2
            _count_new(c)
            return i, cls
    raise AssertionError(f"`live` holds a priority above the scan's bound {hi}")


def _absorb(c, union, wins: list, p: int, region) -> None:
    """Join `region` to p's winnings: a copy when p has won nothing yet, else
    a counted union that replaces the old winnings."""
    _count_new(c)
    if wins[p] is None:
        wins[p] = region
    else:
        c.unions += 1
        wins[p] = union(wins[p], region)
        c.live_sets -= 1


def _peel(c, union, difference, wins: list, p: int, current, region):
    """Give `region`, a fresh set inside `current`, to p and return a fresh
    `current` without it; `current` and `region` are given back."""
    _absorb(c, union, wins, p, region)
    c.differences += 1
    _count_new(c)
    c.live_sets -= 2
    return difference(current, region)


def _solve(
    game: ParityGame,
    space: SetSpace,
    live: VertexSet,
    depth: int,
    max_depth: int,
    choices: tuple[dict, dict] | None,
    dominion_hook=None,
    level_sink=None,
):
    """Returns the wins, a dict keyed by Player.

    Takes ownership of `live` and releases it. A win is a fresh set, or None
    when that side won nothing. `choices` is None or the caller's pair of
    choice dicts, Even's then Odd's, which the passes write into. When
    `level_sink` is a list, each level appends `{"n_start": ..., "passes":
    [(h, removed), ...]}` with h the dominion hook's parameter (None when the
    hook did not run). The hook, `hook(space, live, player, priority_count)`,
    writes its dominion's picks into `choices` and returns `(dominion, h)`.
    `live` is at nesting `depth`, and a level nested deeper than `max_depth`
    raises RecursionDepthExceeded.
    """
    if depth > max_depth:
        space.release(live)
        raise RecursionDepthExceeded(f"recursion exceeded {max_depth} levels")
    c = space.counters
    backend = space._backend
    union, difference, intersect = backend.union, backend.difference, backend.intersect
    equals, count, ids = backend.equals, backend.count, backend.ids
    first, closure, empty = backend.first_successor_in, space.closure, space.empty.payload
    edges = choices or (None, None)
    # From here on every set is a payload. Each that a set-level recursion
    # would hold counts as one live set in `c.live_sets`, so the counts and
    # the peak repeat its own; `live` stays counted as the level's `current`.
    current = live.payload
    space.release(live)
    c.live_sets += 1
    # Suspended levels, innermost last, over a sentinel for the caller. A
    # level holds its current set, its scan bound, its pass's player, both
    # players' win payloads, its level record, and its pass's start size
    # (kept with a level record only) and hook parameter.
    frames = [None]
    top = game.priority_count - 1
    wins = [None, None]
    level = n0 = None
    done = None  # the wins of a finished level, for the one it returns to
    while True:
        if done is not None:
            frame = frames.pop()
            if frame is None:
                break
            sub_wins, done = done, None
            current, top, pl, wins, level, n0, hook_h = frame
            op = 1 - pl
            sub_sets = (sub_wins[0] is not None) + (sub_wins[1] is not None)
            if sub_wins[op] is None:
                # Final pass: everything still live belongs to pl.
                c.live_sets -= sub_sets
                if level is not None:
                    level["passes"].append((hook_h, n0 - count(current)))
                _absorb(c, union, wins, pl, current)
                c.live_sets -= 1  # current
                done = wins
                continue
            grab = closure(op, sub_wins[op], current, edges[op])
            c.live_sets -= sub_sets
            current = _peel(c, union, difference, wins, op, current, grab)
            if level is not None:
                level["passes"].append((hook_h, n0 - count(current)))
        p_star, cls = _top_priority(space, current, top)
        if p_star < 0:
            c.live_sets -= 1  # current
            done = wins
            continue
        if level_sink is not None:
            n0 = count(current)
            if level is None:
                level = {"n_start": n0, "passes": []}
                level_sink.append(level)
        hook_h = None
        if dominion_hook is not None and p_star >= 2:
            c.live_sets -= 1  # cls
            op = 1 - p_star % 2
            # The hook sees `current` through a view that is not a new set.
            dom, hook_h = dominion_hook(space, VertexSet(space, current), _PLAYERS[op],
                                        p_star + 1)
            c.equality_tests += 1
            if not equals(dom.payload, empty):
                grab = closure(op, dom.payload, current, edges[op])
                current = _peel(c, union, difference, wins, op, current, grab)
            space.release(dom)
            # The peel may have emptied the top class; rescan.
            p_star, cls = _top_priority(space, current, p_star)
            if p_star < 0:
                if level is not None:
                    level["passes"].append((hook_h, n0 - count(current)))
                c.live_sets -= 1  # current
                done = wins
                continue
        # A peel never raises the top priority, so the next pass scans from
        # this one's.
        top = p_star
        pl = p_star % 2
        mine = edges[pl]
        pull = closure(pl, cls, current, mine)
        if mine is not None:
            # The class's pl vertices; a final pass leaves these entries standing.
            for v in ids(intersect(cls, space.owned[pl].payload)):
                mine[v] = first(v, current)
        c.live_sets -= 1  # cls
        c.differences += 1
        _count_new(c)
        rest = difference(current, pull)
        c.live_sets -= 1  # pull
        if depth + len(frames) > max_depth:
            c.live_sets -= 1  # rest
            raise RecursionDepthExceeded(f"recursion exceeded {max_depth} levels")
        frames.append((current, top, pl, wins, level, n0, hook_h))
        # The attractor took the whole p_star class, so `rest` lies below it.
        current, top = rest, p_star - 1
        wins = [None, None]
        level = None
    return {p: None if w is None else VertexSet(space, w) for p, w in zip(_PLAYERS, wins)}


def _report(norm, space, started, algorithm, choices, solve):
    """Run `solve(live, max_depth)`, a recursive solve that fills `choices`
    (None for no strategies), from the full set under the depth limit both
    solvers share; stop the clock before strategy extraction and package
    the answer."""
    wins = solve(space.copy(space.full), norm.priority_count + 2)
    w_even, w_odd = (space.empty_set() if wins[p] is None else wins[p] for p in Player)
    elapsed = time.perf_counter() - started
    strategy_even = strategy_odd = None
    if choices is not None:
        from .strategy import extract_attractor_strategies

        strategy_even, strategy_odd = extract_attractor_strategies(
            norm, w_even.ids(), w_odd.ids(), *choices)
    return SolveReport(winning_even=w_even, winning_odd=w_odd, counters=space.counters,
                       algorithm=algorithm, wall_time=elapsed, game=norm,
                       strategy_even=strategy_even, strategy_odd=strategy_odd)


def classic_parity(
    game: ParityGame,
    strategies: bool = False,
    backend: str = "bits",
) -> "SolveReport":
    """Classic recursive solve. Its depth never exceeds the priority count
    and needs no Python stack frame per level."""
    norm, _ = normalize_priorities(game)
    started = time.perf_counter()
    space = SetSpace(norm, backend=backend)
    choices = ({}, {}) if strategies else None
    return _report(norm, space, started, "zielonka", choices,
                   lambda live, depth: _solve(norm, space, live, 0, depth, choices))
