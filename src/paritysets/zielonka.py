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

Set lifetimes are kept deliberately short: the recursion consumes its input
mask, winning accumulators are allocated on first use (a side that wins
nothing stays None, never an empty set), and the class and attractor sets of
a pass are dropped before recursing. The peak number of live sets stays
linear in the priority count.

Strategy fragments are produced functionally: every recursive call returns
the winning sets together with choice maps for both players. Opponent-side
fragments are final when produced (their regions are peeled and never
revisited); player-side fragments are kept only from the level's final
iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .game import ParityGame, Player, normalize_priorities
from .report import SolveReport
from .sets import SetSpace, VertexSet
from .strategy import extract_attractor_strategies


class RecursionDepthExceeded(Exception):
    pass


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
    target; target vertices get no edge here.
    """
    player = Player(player)
    space = target.space
    current = space.copy(target)
    edges: dict[int, int] | None = {} if want_strategy else None
    succs = game.successors
    backend = space._backend
    mine = space.owned[player].payload
    while True:
        step = space.cpre(player, current, within=within)
        if space.is_subset(step, current):
            space.release(step)
            break
        if edges is not None:
            new = backend.intersect(backend.difference(step.payload, current.payload), mine)
            for v in backend.ids(new):
                edges[v] = min(w for w in succs[v] if current.contains(w))
        grown = space.union(current, step)
        space.release(current, step)
        current = grown
    return AttractorResult(attractor=current, strategy_edges=edges)


def _top_priority(space: SetSpace, live: VertexSet, hi: int) -> tuple[int, VertexSet | None]:
    """Highest priority present in `live`, scanning classes `hi` down to 0,
    and its restricted class (owned). `live` must hold no priority above `hi`."""
    if space.is_empty(live):
        return -1, None
    for i in range(hi, -1, -1):
        cls = space.intersect(space.priority_sets[i], live)
        if not space.is_empty(cls):
            return i, cls
        space.release(cls)
    return -1, None


def _solve(
    game: ParityGame,
    space: SetSpace,
    live: VertexSet,
    depth: int,
    max_depth: int,
    record: bool,
    dominion_hook=None,
    level_sink=None,
    hi=None,
):
    """Returns (wins, choices), two dicts keyed by Player.

    Takes ownership of `live` and releases it. A win is a fresh set, or None
    when that side won nothing; choice dicts are populated only when
    `record`. When `level_sink` is a list, each level appends `{"n_start":
    ..., "passes": [(h, removed), ...]}` with h the dominion hook's parameter
    (None when the hook did not run). `hi` bounds the priorities in `live`.
    """
    if depth > max_depth:
        space.release(live)
        raise RecursionDepthExceeded(f"recursion exceeded {max_depth} levels")
    wins: dict[Player, VertexSet | None] = {Player.EVEN: None, Player.ODD: None}
    choices: dict[Player, dict[int, int]] = {Player.EVEN: {}, Player.ODD: {}}

    def absorb(player: Player, region: VertexSet) -> None:
        if wins[player] is None:
            wins[player] = space.copy(region)
        else:
            joined = space.union(wins[player], region)
            space.release(wins[player])
            wins[player] = joined

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
        removed_this_pass = 0
        hook_h = None
        if dominion_hook is not None and p_star >= 2:
            space.release(cls)
            op = Player.ODD if p_star % 2 == 0 else Player.EVEN
            dom, dom_choices, hook_h = dominion_hook(space, current, op, p_star + 1)
            if not space.is_empty(dom):
                grab = attractor(game, op, dom, within=current, want_strategy=record)
                if record:
                    choices[op].update(grab.strategy_edges)
                    choices[op].update(dom_choices or {})
                removed_this_pass += grab.attractor.count()
                absorb(op, grab.attractor)
                shrunk = space.difference(current, grab.attractor)
                space.release(current, grab.attractor)
                current = shrunk
            space.release(dom)
            # The peel may have emptied the top class; rescan.
            p_star, cls = _top_priority(space, current, p_star)
            if p_star < 0:
                if level is not None:
                    level["passes"].append((hook_h, removed_this_pass))
                space.release(current)
                break
        # A peel never raises the top priority, so the next pass scans from
        # this one's.
        top = p_star
        pl = Player.EVEN if p_star % 2 == 0 else Player.ODD
        op = pl.opponent()
        # The class's pl vertices, each of which a final pass gives an edge.
        pl_cls = space._backend.intersect(cls.payload, space.owned[pl].payload) if record else None
        pull = attractor(game, pl, cls, within=current, want_strategy=record)
        space.release(cls)
        rest = space.difference(current, pull.attractor)
        pull_edges = pull.strategy_edges
        space.release(pull.attractor)
        # The attractor took the whole p_star class, so `rest` lies below it.
        sub_wins, sub_choices = _solve(
            game, space, rest, depth + 1, max_depth, record, dominion_hook, level_sink,
            p_star - 1,
        )
        if sub_wins[op] is None:
            # Final pass: everything still live belongs to pl.
            space.release(*(s for s in sub_wins.values() if s is not None))
            if record:
                choices[pl].update(sub_choices[pl])
                choices[pl].update(pull_edges)
                for v in space._backend.ids(pl_cls):
                    choices[pl][v] = min(w for w in game.successors[v] if current.contains(w))
            absorb(pl, current)
            space.release(current)
            if level is not None:
                level["passes"].append((hook_h, removed_this_pass))
            break
        grab = attractor(game, op, sub_wins[op], within=current, want_strategy=record)
        space.release(*(s for s in sub_wins.values() if s is not None))
        if record:
            choices[op].update(sub_choices[op])
            choices[op].update(grab.strategy_edges)
        removed_this_pass += grab.attractor.count()
        absorb(op, grab.attractor)
        shrunk = space.difference(current, grab.attractor)
        space.release(current, grab.attractor)
        current = shrunk
        if level is not None:
            level["passes"].append((hook_h, removed_this_pass))
    return wins, choices


def _report(norm, space, started, algorithm, strategies, solve):
    """Run `solve(live, max_depth)`, a recursive solve, from the full set
    under the depth limit and stack-overflow error both solvers share; stop
    the clock before strategy extraction and package the answer."""
    try:
        wins, choices = solve(space.copy(space.full), norm.priority_count + 2)
    except RecursionError as exc:
        raise RecursionDepthExceeded(f"{norm.priority_count} priorities nest deeper "
                                     "than Python's stack allows") from exc
    w_even, w_odd = (space.empty_set() if wins[p] is None else wins[p] for p in Player)
    elapsed = time.perf_counter() - started
    strategy_even = strategy_odd = None
    if strategies:
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
    """Classic recursive solve. Depth never exceeds the priority count; past
    Python's recursion limit it raises RecursionDepthExceeded."""
    norm, _ = normalize_priorities(game)
    started = time.perf_counter()
    space = SetSpace(norm, backend=backend)
    return _report(norm, space, started, "zielonka", strategies,
                   lambda live, depth: _solve(norm, space, live, 0, depth, strategies))
