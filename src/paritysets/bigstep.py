"""Big-step solver: the classic recursion accelerated by bounded dominions.

At every level with three or more priorities, a bounded progress measure
run over the live subgame (role-swapped when the opponent is the even
player) finds an opponent dominion that subsumes every opponent dominion of
at most h+1 vertices; its attractor is peeled before the classic body runs.
Every pass of a level except the last therefore removes at least h+2
vertices, which caps the passes per level and, with the right h schedule,
the total work.

The parameter schedule is pluggable. SqrtPolicy balances the pass count
against the bounded-domain size around sqrt(2n); GammaPolicy uses the
exponent-balancing schedule that yields the n^gamma(c) bound; Fixed pins h.
gamma and beta are exact rationals.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from .game import ParityGame, normalize_priorities, Player, _Record
from .measure import _pm_run
from .sets import SetSpace
from .zielonka import _report, _solve


def gamma(c: int) -> Fraction:
    """Exponent of n in the dominion-accelerated bound, for c >= 3 priorities."""
    if c < 3:
        raise ValueError("gamma is defined for c >= 3")
    if c % 2:
        return Fraction(c, 3) + Fraction(1, 2) - Fraction(4, c * c - 1)
    return Fraction(c, 3) + Fraction(1, 2) - Fraction(1, 3 * c) - Fraction(4, c * c)


def beta(c: int) -> Fraction:
    """Per-counter share of gamma: gamma(c) / (floor(c/2) + 1)."""
    return gamma(c) / (c // 2 + 1)


class SqrtPolicy(_Record):
    def __str__(self) -> str:
        return "sqrt"


class GammaPolicy(_Record):
    def __str__(self) -> str:
        return "gamma"


class Fixed(_Record):
    _fields = ("h",)

    def __init__(self, h: int):
        if not isinstance(h, int) or isinstance(h, bool):
            raise TypeError(f"Fixed needs an int h, got {h!r}")
        self.h = h

    def __str__(self) -> str:
        return f"fixed:{self.h}"


def choose_h(policy, n0: int, n_current: int, c: int) -> int:
    """Dominion size parameter for a level with c priorities and n_current
    live vertices; n0 is the outermost game's size (the gamma schedule keys
    its exponent to it)."""
    if isinstance(policy, SqrtPolicy):
        h = _ceil_sqrt(2 * n_current) - 2
    elif isinstance(policy, GammaPolicy):
        if c <= 3:
            h = n_current
        else:
            # Exact rationals for the exponent, floats only for the power.
            h = math.ceil(2.0 * c ** (1.0 / 3.0) * float(n0) ** float(beta(c - 1)))
    elif isinstance(policy, Fixed):
        h = policy.h
    else:
        raise TypeError(f"unknown policy {policy!r}")
    return max(0, min(h, n_current))


def _ceil_sqrt(x: int) -> int:
    if x <= 0:
        return 0
    r = math.isqrt(x - 1)
    return r + 1


def removal_violations(levels: list[dict]) -> list[str]:
    """Check the per-level schedule facts the acceleration relies on.

    In each level, every dominion-assisted pass but the last must remove at
    least h+2 vertices, and the number of assisted passes is capped by
    n_start/(h_min+2) + 1. Passes without a dominion call (fewer than three
    priorities left) are exempt. `levels` is the list `_solve` fills as `level_sink`.
    """
    problems = []
    for idx, level in enumerate(levels):
        assisted = [(i, h, removed) for i, (h, removed) in enumerate(level["passes"]) if h is not None]
        if not assisted:
            continue
        last_assisted = assisted[-1][0]
        for i, h, removed in assisted:
            if i != last_assisted and removed < h + 2:
                problems.append(
                    f"level {idx}: pass {i} removed {removed} < h+2 = {h + 2}"
                )
        h_min = min(h for _, h, _ in assisted)
        cap = level["n_start"] // (h_min + 2) + 1
        if len(assisted) > cap:
            problems.append(
                f"level {idx}: {len(assisted)} assisted passes exceed cap {cap}"
            )
    return problems


def symbolic_big_step(
    game: ParityGame,
    policy=SqrtPolicy(),
    strategies: bool = False,
    backend: str = "bits",
    check_invariants: bool = False,
) -> "SolveReport":
    """Big-step solve; PARITY_TRACE=1 streams every dominion run to stderr.
    Its recursion needs no Python stack frame per level."""
    if not isinstance(policy, (SqrtPolicy, GammaPolicy, Fixed)):
        raise TypeError(f"unknown policy {policy!r}")
    norm, _ = normalize_priorities(game)
    started = time.perf_counter()
    space = SetSpace(norm, backend=backend)
    n0 = norm.vertex_count
    levels: list[dict] = []
    pm_stats: list[dict] = []
    choices = ({}, {}) if strategies else None

    def hook(space_, live, op, c_level):
        n_live = live.count()
        h = choose_h(policy, n0, n_live, c_level)
        before = space_.counters.snapshot()
        run = _pm_run(
            space_,
            live,
            bound=h,
            swap=(op is Player.ODD),
            check_invariants=check_invariants,
        )
        after = space_.counters
        pm_stats.append(
            {
                "n": n_live,
                "c": run.state.view.c,
                "h": h,
                "domain_size": run.domain.size(),
                "cpre_ops": after.cpre_ops - before.cpre_ops,
                "basic_ops": after.basic_total - before.basic_total,
            }
        )
        if choices is not None and run.winning.count():
            from .strategy import extract_strategy_from_pm

            choices[op].update(extract_strategy_from_pm(run.state).choice)
        run.state.release_all()
        return run.winning, h

    report = _report(norm, space, started, "bigstep", choices,
                     lambda live, depth: _solve(norm, space, live, 0, depth, choices,
                                                hook, levels))
    report.diagnostics = {"policy": str(policy), "levels": levels,
                          "violations": removal_violations(levels), "pm_runs": pm_stats}
    return report
