"""Attractor computation and the classic recursive solver.

The recursion works on live-vertex masks inside one operation space; no
subgames are ever rebuilt. Each level finds the highest priority present,
attracts to its class for that priority's player, recurses on the rest and
peels the opponent's winnings until they vanish. A hook point ahead of the
classic body lets the big-step solver peel an opponent dominion first; the
plain solver passes no hook.

Set lifetimes are kept deliberately short: the recursion consumes its input
mask, winning accumulators are allocated on first use, and the class and
attractor sets of a pass are dropped before recursing. The peak number of
live sets stays linear in the priority count.

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
from .sets import SetSpace, VertexSet


class RecursionDepthExceeded(Exception):
    pass


@dataclass
class AttractorResult:
    attractor: VertexSet
    layers: list | None = None
    strategy_edges: dict | None = None


def attractor(
    game: ParityGame,
    player: Player,
    target: VertexSet,
    within: VertexSet | None = None,
    want_strategy: bool = False,
    keep_layers: bool = False,
) -> AttractorResult:
    """Least fixpoint of target + controlled predecessor for `player`.

    One cpre per growth round plus one for the final emptiness check. Only
    the newest layer is kept unless keep_layers is set. Strategy edges send
    each attracted vertex of `player` to its lowest-id successor one layer
    closer to the target; target vertices get no edge here.
    """
    space = target.space
    current = space.copy(target)
    layers = [space.copy(target)] if keep_layers else None
    edges: dict[int, int] | None = {} if want_strategy else None
    succs = game.successors
    owner = game.owner
    while True:
        step = space.cpre(player, current, within=within)
        delta = space.difference(step, current)
        space.release(step)
        if space.is_empty(delta):
            space.release(delta)
            break
        if edges is not None:
            for v in delta.ids():
                if owner[v] is player:
                    edges[v] = next(w for w in sorted(succs[v]) if current.contains(w))
        if layers is not None:
            layers.append(space.copy(delta))
        grown = space.union(current, delta)
        space.release(current, delta)
        current = grown
    return AttractorResult(attractor=current, layers=layers, strategy_edges=edges)


def is_trap(game: ParityGame, player: Player, region: VertexSet) -> bool:
    """True when `player` cannot force the play out of `region`."""
    space = region.space
    held = space.cpre(player.opponent(), region)
    ok = space.is_subset(region, held)
    space.release(held)
    return ok


def _top_priority(space: SetSpace, live: VertexSet) -> tuple[int, VertexSet | None]:
    """Highest priority present in `live` and its restricted class (owned)."""
    for i in range(len(space.priority_sets) - 1, -1, -1):
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
):
    """Returns (winning_even, winning_odd, choices_even, choices_odd).

    Takes ownership of `live` and releases it. The returned sets are fresh;
    choice dicts are populated only when `record`. When `level_sink` is a
    list, each level appends `{"n_start": ..., "passes": [(h, removed), ...]}`
    with h the dominion hook's parameter (None when the hook did not run).
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
    level = None
    while True:
        p_star, cls = _top_priority(space, current)
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
            p_star, cls = _top_priority(space, current)
            if p_star < 0:
                if level is not None:
                    level["passes"].append((hook_h, removed_this_pass))
                space.release(current)
                break
        pl = Player.EVEN if p_star % 2 == 0 else Player.ODD
        op = pl.opponent()
        cls_ids = space.raw_ids(cls) if record else ()
        pull = attractor(game, pl, cls, within=current, want_strategy=record)
        space.release(cls)
        rest = space.difference(current, pull.attractor)
        pull_edges = pull.strategy_edges
        space.release(pull.attractor)
        sub_even, sub_odd, sub_ce, sub_co = _solve(
            game, space, rest, depth + 1, max_depth, record, dominion_hook, level_sink
        )
        sub_wins = {Player.EVEN: sub_even, Player.ODD: sub_odd}
        sub_choices = {Player.EVEN: sub_ce, Player.ODD: sub_co}
        if space.is_empty(sub_wins[op]):
            # Final pass: everything still live belongs to pl.
            space.release(sub_even, sub_odd)
            if record:
                choices[pl].update(sub_choices[pl])
                choices[pl].update(pull_edges)
                for v in cls_ids:
                    if game.owner[v] is pl:
                        choices[pl][v] = next(
                            w for w in sorted(game.successors[v]) if current.contains(w)
                        )
            absorb(pl, current)
            space.release(current)
            if level is not None:
                level["passes"].append((hook_h, removed_this_pass))
            break
        grab = attractor(game, op, sub_wins[op], within=current, want_strategy=record)
        space.release(sub_even, sub_odd)
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
    out_even = wins[Player.EVEN] if wins[Player.EVEN] is not None else space.empty_set()
    out_odd = wins[Player.ODD] if wins[Player.ODD] is not None else space.empty_set()
    return out_even, out_odd, choices[Player.EVEN], choices[Player.ODD]


def _report(norm, space, started, algorithm, solved, strategies, diagnostics=None):
    """Stop the clock on a recursive solve and package what `_solve` returned."""
    from .report import SolveReport

    w_even, w_odd, ce, co = solved
    elapsed = time.perf_counter() - started
    strategy_even = strategy_odd = None
    if strategies:
        from .strategy import extract_attractor_strategies

        strategy_even, strategy_odd = extract_attractor_strategies(
            norm, w_even.ids(), w_odd.ids(), ce, co
        )
    return SolveReport(
        winning_even=w_even,
        winning_odd=w_odd,
        counters=space.counters,
        algorithm=algorithm,
        wall_time=elapsed,
        game=norm,
        strategy_even=strategy_even,
        strategy_odd=strategy_odd,
        diagnostics=diagnostics or {},
    )


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
    max_depth = norm.priority_count + 2
    try:
        solved = _solve(norm, space, space.copy(space.full), 0, max_depth, strategies)
    except RecursionError as exc:
        raise RecursionDepthExceeded(
            f"{norm.priority_count} priorities nest deeper than Python's stack allows"
        ) from exc
    return _report(norm, space, started, "zielonka", solved, strategies)
