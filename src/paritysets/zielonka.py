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

Strategy fragments are produced functionally: every level hands back the
winning sets together with choice maps for both players. Opponent-side
fragments are final when produced (their regions are peeled and never
revisited); player-side fragments are kept only from the level's final
iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .game import ParityGame, Player, normalize_priorities
from .report import SolveReport
from .sets import SetSpace, VertexSet, _count_new


class RecursionDepthExceeded(Exception):
    pass


_PLAYERS = (Player.EVEN, Player.ODD)


@dataclass
class AttractorResult:
    attractor: VertexSet
    strategy_edges: dict | None = None


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
    `live` must hold no priority above `hi`. Counted as on sets: one
    emptiness test of `live`, then per class scanned one intersection and
    one emptiness test, with one class alive at a time."""
    backend = space._backend
    equals, empty = backend.equals, space.empty.payload
    if equals(live, empty):
        space.tally(equality_tests=1)
        return -1, None
    intersect = backend.intersect
    classes = space.priority_sets
    for i in range(hi, -1, -1):
        cls = intersect(classes[i].payload, live)
        if not equals(cls, empty):
            space.tally(intersections=hi - i + 1, equality_tests=hi - i + 2, held=1)
            space.counters.live_sets += 1
            return i, cls
    space.tally(intersections=hi + 1, equality_tests=hi + 2, held=1 if hi >= 0 else 0)
    return -1, None


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
    record: bool,
    dominion_hook=None,
    level_sink=None,
):
    """Returns (wins, choices), two dicts keyed by Player.

    Takes ownership of `live` and releases it. A win is a fresh set, or None
    when that side won nothing; choice dicts are populated only when
    `record`. When `level_sink` is a list, each level appends `{"n_start":
    ..., "passes": [(h, removed), ...]}` with h the dominion hook's parameter
    (None when the hook did not run). `live` is at nesting `depth`, and a
    level nested deeper than `max_depth` raises RecursionDepthExceeded.
    """
    if depth > max_depth:
        space.release(live)
        raise RecursionDepthExceeded(f"recursion exceeded {max_depth} levels")
    c = space.counters
    backend = space._backend
    union, difference, intersect = backend.union, backend.difference, backend.intersect
    equals, count, ids = backend.equals, backend.count, backend.ids
    first, closure, empty = backend.first_successor_in, space.closure, space.empty.payload
    owned = (space.owned[Player.EVEN].payload, space.owned[Player.ODD].payload)
    # From here on every set is a payload. Each that a set-level recursion
    # would hold counts as one live set in `c.live_sets`, so the counts and
    # the peak repeat its own; `live` stays counted as the level's `current`.
    current = live.payload
    space.release(live)
    c.live_sets += 1
    # Suspended levels, innermost last, over a sentinel for the caller. A
    # level holds its current set, its scan bound, its pass's player, both
    # players' win payloads and choices, its level record and its pass state.
    frames = [None]
    top = game.priority_count - 1
    wins = [None, None]
    choices = ({}, {}) if record else None
    level = None
    done = None  # (wins, choices) of a finished level, for the one it returns to
    while True:
        if done is not None:
            frame = frames.pop()
            if frame is None:
                break
            sub_wins, sub_choices = done
            current, top, pl, wins, choices, level, removed, hook_h, pl_cls, pull_edges = frame
            op = 1 - pl
            sub_sets = (sub_wins[0] is not None) + (sub_wins[1] is not None)
            if sub_wins[op] is None:
                # Final pass: everything still live belongs to pl.
                c.live_sets -= sub_sets
                if record:
                    mine = choices[pl]
                    mine.update(sub_choices[pl])
                    mine.update(pull_edges)
                    for v in ids(pl_cls):
                        mine[v] = first(v, current)
                _absorb(c, union, wins, pl, current)
                c.live_sets -= 1  # current
                if level is not None:
                    level["passes"].append((hook_h, removed))
                done = wins, choices
                continue
            edges = {} if record else None
            grab = closure(op, sub_wins[op], current, edges)
            c.live_sets -= sub_sets
            if record:
                choices[op].update(sub_choices[op])
                choices[op].update(edges)
            removed += count(grab)
            current = _peel(c, union, difference, wins, op, current, grab)
            if level is not None:
                level["passes"].append((hook_h, removed))
            done = None
        p_star, cls = _top_priority(space, current, top)
        if p_star < 0:
            c.live_sets -= 1  # current
            done = wins, choices
            continue
        if level_sink is not None and level is None:
            level = {"n_start": count(current), "passes": []}
            level_sink.append(level)
        removed = 0
        hook_h = None
        if dominion_hook is not None and p_star >= 2:
            c.live_sets -= 1  # cls
            op = 1 - p_star % 2
            # The hook sees `current` through a view that is not a new set.
            dom, dom_choices, hook_h = dominion_hook(space, VertexSet(space, current),
                                                     _PLAYERS[op], p_star + 1)
            c.equality_tests += 1
            if not equals(dom.payload, empty):
                edges = {} if record else None
                grab = closure(op, dom.payload, current, edges)
                if record:
                    choices[op].update(edges)
                    choices[op].update(dom_choices or {})
                removed += count(grab)
                current = _peel(c, union, difference, wins, op, current, grab)
            space.release(dom)
            # The peel may have emptied the top class; rescan.
            p_star, cls = _top_priority(space, current, p_star)
            if p_star < 0:
                if level is not None:
                    level["passes"].append((hook_h, removed))
                c.live_sets -= 1  # current
                done = wins, choices
                continue
        # A peel never raises the top priority, so the next pass scans from
        # this one's.
        top = p_star
        pl = p_star % 2
        # The class's pl vertices, each of which a final pass gives an edge.
        pl_cls = intersect(cls, owned[pl]) if record else None
        pull_edges = {} if record else None
        pull = closure(pl, cls, current, pull_edges)
        c.live_sets -= 1  # cls
        c.differences += 1
        _count_new(c)
        rest = difference(current, pull)
        c.live_sets -= 1  # pull
        if depth + len(frames) > max_depth:
            c.live_sets -= 1  # rest
            raise RecursionDepthExceeded(f"recursion exceeded {max_depth} levels")
        frames.append((current, top, pl, wins, choices, level, removed, hook_h, pl_cls,
                       pull_edges))
        # The attractor took the whole p_star class, so `rest` lies below it.
        current, top = rest, p_star - 1
        wins = [None, None]
        choices = ({}, {}) if record else None
        level = None
    return ({p: None if w is None else VertexSet(space, w) for p, w in zip(_PLAYERS, wins)},
            dict(zip(_PLAYERS, choices or ({}, {}))))


def _report(norm, space, started, algorithm, strategies, solve):
    """Run `solve(live, max_depth)`, a recursive solve, from the full set
    under the depth limit both solvers share; stop the clock before strategy
    extraction and package the answer."""
    wins, choices = solve(space.copy(space.full), norm.priority_count + 2)
    w_even, w_odd = (space.empty_set() if wins[p] is None else wins[p] for p in Player)
    elapsed = time.perf_counter() - started
    strategy_even = strategy_odd = None
    if strategies:
        from .strategy import extract_attractor_strategies

        strategy_even, strategy_odd = extract_attractor_strategies(
            norm, w_even.ids(), w_odd.ids(), choices[Player.EVEN], choices[Player.ODD]
        )
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
    return _report(norm, space, started, "zielonka", strategies,
                   lambda live, depth: _solve(norm, space, live, 0, depth, strategies))
