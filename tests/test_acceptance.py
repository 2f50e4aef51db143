"""Acceptance gate: eleven checks covering exactness, budgets, and scaling.

Each test prints one [PASS]/[FAIL] line on the live terminal. Budgets and
tolerances are pinned; a failure here means the library broke its contract.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import product

import pytest

from paritysets import (
    Player,
    RankDomain,
    TOP,
    build_game,
    gen_random,
    solve_explicit_pm,
)
from paritysets.bigstep import (
    Fixed,
    GammaPolicy,
    SqrtPolicy,
    beta,
    gamma,
    symbolic_big_step,
)
from paritysets.game import swap_roles_increment
from paritysets.measure import (
    dominion,
    solve_pm_symbolic,
    symbolic_parity_dominion,
)
from paritysets.strategy import Strategy, verify_strategy
from paritysets.zielonka import classic_parity

from conftest import (
    SAMPLE_NAMES,
    SAMPLE_OWNERS,
    SAMPLE_PRIOS,
    SAMPLE_SUCCS,
    corpus,
    ids,
)
from oracles import enumerate_dominions_bruteforce, is_dominion
from test_measure import EXPECTED_FAMILY, EXPECTED_TRACE


MILLISECOND = 1e-3

SAMPLE_RHO = {
    "a": TOP,
    "b": TOP,
    "c": (1, 0),
    "d": (0, 0),
    "e": (0, 1),
    "f": (0, 0),
    "g": (0, 1),
    "h": (2, 0),
}
SAMPLE_EVEN = frozenset({2, 3, 4, 5, 6, 7})


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def best_of(repeats, fn):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def sample():
    return build_game(SAMPLE_OWNERS, SAMPLE_PRIOS, SAMPLE_SUCCS, names=SAMPLE_NAMES)


@pytest.fixture(scope="module")
def corpus_runs():
    """200 seeded games, every solver, one plain pass and one with strategies."""
    games = list(corpus(200))
    t0 = time.perf_counter()
    rows = []
    for g in games:
        expected = solve_explicit_pm(g).winning_even
        plain = {
            "pm": solve_pm_symbolic(g),
            "zielonka": classic_parity(g),
            "bigstep-sqrt": symbolic_big_step(g, policy=SqrtPolicy()),
            "bigstep-gamma": symbolic_big_step(g, policy=GammaPolicy()),
        }
        with_strategies = {
            "pm": solve_pm_symbolic(g, strategies=True),
            "zielonka": classic_parity(g, strategies=True),
            "bigstep-sqrt": symbolic_big_step(g, policy=SqrtPolicy(), strategies=True),
            "bigstep-gamma": symbolic_big_step(g, policy=GammaPolicy(), strategies=True),
        }
        rows.append((g, expected, plain, with_strategies))
    elapsed = time.perf_counter() - t0
    return rows, elapsed


@pytest.fixture(scope="module")
def small_corpus():
    return [
        gen_random(n=2 + seed % 7, c=1 + seed % 6, min_deg=1, max_deg=3, seed=seed)
        for seed in range(1000, 1100)
    ]


def test_criterion_1_explicit_fixpoint(sample, capsys):
    problems = []
    res = solve_explicit_pm(sample)
    named = {SAMPLE_NAMES[v]: r for v, r in enumerate(res.rho)}
    if named != SAMPLE_RHO:
        problems.append(f"rho mismatch: {named}")
    if res.winning_even != SAMPLE_EVEN:
        problems.append(f"winning set mismatch: {sorted(res.winning_even)}")
    best = best_of(20, lambda: solve_explicit_pm(sample))
    if best >= MILLISECOND:
        problems.append(f"slow: {best * 1000:.3f}ms")
    announce(capsys, 1, not problems,
             problems[0] if problems else f"exact fixpoint in {best * 1000:.3f}ms")
    assert not problems


def test_criterion_2_symbolic_iteration(sample, capsys, monkeypatch):
    problems = []
    events = []
    run = symbolic_parity_dominion(sample, trace=events.append)
    if events != EXPECTED_TRACE:
        problems.append("iteration order differs from the reference run")
    if events[3] != {"iteration": 4, "rank": (0, 1), "added": 4,
                     "next_rank": (1, 0), "rolled_back": True}:
        problems.append("missing the roll-back to (1, 0) at step 4")
    family = {}
    for r in run.domain.iterate():
        s = run.state.read(r)
        family[r] = ids(s)
        run.space.release(s)
    if family != EXPECTED_FAMILY:
        problems.append("final rank sets differ")
    if ids(run.winning) != SAMPLE_EVEN:
        problems.append("winning set differs")

    monkeypatch.setenv("PARITY_TRACE", "1")
    symbolic_parity_dominion(sample)
    lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("pm-trace ")]
    if len(lines) != 12:
        problems.append(f"streamed trace has {len(lines)} lines")
    elif lines[3] != "pm-trace iter=4 rank=(0, 1) added=4 next=(1, 0) rollback=True":
        problems.append(f"trace wording changed: {lines[3]!r}")
    monkeypatch.delenv("PARITY_TRACE")

    best = best_of(20, lambda: symbolic_parity_dominion(sample))
    if best >= MILLISECOND:
        problems.append(f"slow: {best * 1000:.3f}ms")
    announce(capsys, 2, not problems,
             problems[0] if problems else f"12 iterations, roll-back at step 4, {best * 1000:.3f}ms")
    assert not problems


def test_criterion_3_linear_reconstruction(sample, capsys):
    problems = []
    run = symbolic_parity_dominion(sample)
    budget = 8 * (sample.vertex_count + sample.priority_count)
    worst = 0
    for r in run.domain.iterate():
        before = run.space.counters.snapshot()
        s = run.state.read(r)
        got = ids(s)
        run.space.release(s)
        after = run.space.counters
        one_step = (after.pre_ops - before.pre_ops) + (after.cpre_ops - before.cpre_ops)
        basic = after.basic_total - before.basic_total
        worst = max(worst, basic)
        if got != EXPECTED_FAMILY[r]:
            problems.append(f"S_{r} reconstructed wrongly")
        if one_step:
            problems.append(f"S_{r} used {one_step} one-step operations")
        if basic > budget:
            problems.append(f"S_{r} used {basic} basic operations (cap {budget})")
    announce(capsys, 3, not problems,
             problems[0] if problems else
             f"nine exact reconstructions, worst {worst} basic ops (cap {budget})")
    assert not problems


def test_criterion_4_solver_agreement(corpus_runs, capsys):
    rows, elapsed = corpus_runs
    problems = []
    for g, expected, plain, with_strategies in rows:
        for reports in (plain, with_strategies):
            for name, rep in reports.items():
                if ids(rep.winning_even) != expected:
                    problems.append(f"{name} disagrees on n={g.vertex_count} game")
    if elapsed >= 30.0:
        problems.append(f"corpus took {elapsed:.1f}s")
    announce(capsys, 4, not problems,
             problems[0] if problems else
             f"four solvers, 200 games, identical answers in {elapsed:.2f}s")
    assert not problems


def test_criterion_5_bounded_dominions(small_corpus, capsys):
    problems = []
    checked = 0
    for g in small_corpus:
        for player in (Player.EVEN, Player.ODD):
            all_small = enumerate_dominions_bruteforce(g, player, 4)
            for h in range(4):
                got = dominion(g, player, h)
                if got and not is_dominion(g, player, got):
                    problems.append(f"h={h} output is not a dominion")
                for d in all_small:
                    if len(d) <= h + 1 and not d <= got:
                        problems.append(f"h={h} missed a dominion of size {len(d)}")
                checked += 1
    announce(capsys, 5, not problems,
             problems[0] if problems else
             f"{checked} bounded searches cover all brute-force dominions")
    assert not problems


def test_criterion_6_invariants_hold(sample, corpus_runs, small_corpus, capsys):
    rows, _ = corpus_runs
    problems = []
    runs = 0
    try:
        for representation in ("linear", "direct"):
            symbolic_parity_dominion(sample, representation=representation,
                                     check_invariants=True)
            runs += 1
        for g, _expected, _plain, _strat in rows:
            for representation in ("linear", "direct"):
                symbolic_parity_dominion(g, representation=representation,
                                         check_invariants=True)
                runs += 1
        for g in small_corpus:
            for player in (Player.EVEN, Player.ODD):
                target = g if player is Player.EVEN else swap_roles_increment(g)
                for h in range(4):
                    symbolic_parity_dominion(target, bound=h, check_invariants=True)
                    runs += 1
    except Exception as exc:  # any invariant violation fails the criterion
        problems.append(f"after {runs} clean runs: {exc}")
    announce(capsys, 6, not problems,
             problems[0] if problems else f"{runs} checked runs, zero violations")
    assert not problems


def test_criterion_7_space_ceilings(corpus_runs, capsys):
    rows, _ = corpus_runs
    problems = []
    worst = 0.0
    for _g, _expected, plain, _strat in rows:
        for name in ("pm", "bigstep-sqrt", "bigstep-gamma"):
            rep = plain[name]
            cap = 4 * (rep.game.vertex_count + rep.game.priority_count)
            worst = max(worst, rep.counters.peak_live_sets / cap)
            if rep.counters.peak_live_sets > cap:
                problems.append(
                    f"{name} peaked at {rep.counters.peak_live_sets} sets (cap {cap})"
                )
        zl = plain["zielonka"]
        cap = 4 * zl.game.priority_count + 8
        if zl.counters.peak_live_sets > cap:
            problems.append(f"zielonka peaked at {zl.counters.peak_live_sets} (cap {cap})")
    announce(capsys, 7, not problems,
             problems[0] if problems else
             f"every run within its ceiling (tightest ratio {worst:.3f})")
    assert not problems


def test_criterion_8_operation_budgets(corpus_runs, capsys):
    rows, _ = corpus_runs
    problems = []
    for _g, _expected, plain, _strat in rows:
        pm = plain["pm"]
        n = pm.game.vertex_count
        c = pm.game.priority_count
        cap = 4 * c * n * pm.diagnostics["domain_size"]
        if pm.counters.cpre_ops > cap:
            problems.append(f"pm used {pm.counters.cpre_ops} cpre ops (cap {cap})")
        if pm.counters.basic_total > 8 * n * pm.counters.cpre_ops:
            problems.append("pm basic operations exceed 8n per cpre")
        for name in ("bigstep-sqrt", "bigstep-gamma"):
            if plain[name].diagnostics["violations"]:
                problems.append(
                    f"{name}: {plain[name].diagnostics['violations'][0]}"
                )
    announce(capsys, 8, not problems,
             problems[0] if problems else
             "cpre and basic budgets hold; every level pass removed its quota")
    assert not problems


def test_criterion_9_strategies(sample, corpus_runs, capsys):
    rows, _ = corpus_runs
    problems = []
    verified = 0
    for _g, _expected, _plain, with_strategies in rows:
        for name, rep in with_strategies.items():
            for player, strat, region in (
                (Player.EVEN, rep.strategy_even, ids(rep.winning_even)),
                (Player.ODD, rep.strategy_odd, ids(rep.winning_odd)),
            ):
                try:
                    if not verify_strategy(rep.game, player, region, strat):
                        problems.append(f"{name} {player.name} strategy loses")
                except Exception as exc:
                    problems.append(f"{name} {player.name} strategy: {exc}")
                verified += 1

    # picks read off the measure run never worsen the rank at their level
    res = solve_explicit_pm(sample)
    rep = solve_pm_symbolic(sample, strategies=True)
    for v, w in rep.strategy_even.choice.items():
        level = sample.priority[v]
        cmp = res.domain.compare(res.rho[w], res.rho[v], level=level)
        if cmp >= (0 if level % 2 else 1):
            problems.append(f"pick {v}->{w} breaks the rank order at level {level}")

    # the hand-written alternative wins as well, though it ignores rank order
    alt = Strategy(player=Player.EVEN, domain=frozenset({2, 3, 6, 7}),
                   choice={2: 3, 3: 5, 6: 4, 7: 6})
    try:
        if not verify_strategy(sample, Player.EVEN, SAMPLE_EVEN, alt):
            problems.append("reference alternative strategy rejected")
    except Exception as exc:
        problems.append(f"reference alternative strategy: {exc}")
    announce(capsys, 9, not problems,
             problems[0] if problems else
             f"{verified} extracted strategies verified; rank order holds")
    assert not problems


def test_criterion_10_rank_domains(capsys):
    problems = []
    if [gamma(c) for c in (3, 4, 5, 6)] != [
        Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)
    ]:
        problems.append("gamma values drifted")
    if [beta(c) for c in (3, 4, 5)] != [Fraction(1, 2), Fraction(1, 2), Fraction(2, 3)]:
        problems.append("beta values drifted")
    for c in range(4, 65):
        if gamma(c) != gamma(c - 1) + 1 - beta(c - 1):
            problems.append(f"gamma recurrence fails at c={c}")
        if beta(c - 1) * math.ceil(c / 2) != gamma(c - 1):
            problems.append(f"beta identity fails at c={c}")

    domains = 0
    for c in range(1, 8):
        positions = c // 2
        for caps in product(range(4), repeat=positions):
            for bound in (None, *range(6)):
                dom = RankDomain(c=c, caps=caps, bound=bound)
                listed = list(dom.iterate())
                if len(listed) != len(set(listed)):
                    problems.append(f"duplicate ranks for caps={caps} bound={bound}")
                if len(listed) != dom.size():
                    problems.append(f"size wrong for caps={caps} bound={bound}")
                if dom.size() > dom.size_upper_bound():
                    problems.append(f"bound wrong for caps={caps} bound={bound}")
                if bound is None:
                    exact = math.prod(cap + 1 for cap in caps) + 1
                else:
                    exact = math.comb(bound + positions, bound) + 1
                    if all(cap >= bound for cap in caps) and dom.size() != exact:
                        problems.append(f"loose count for caps={caps} bound={bound}")
                if bound is None and dom.size() != exact:
                    problems.append(f"full domain miscounted for caps={caps}")
                domains += 1
    announce(capsys, 10, not problems,
             problems[0] if problems else
             f"exponents exact; {domains} rank domains enumerate to their size")
    assert not problems


def test_criterion_11_scaling(capsys):
    problems = []
    points = []
    for n in (8, 16, 32, 64):
        g = gen_random(n=n, c=5, min_deg=1, max_deg=3, seed=4242 + n)
        rep = symbolic_big_step(g, policy=GammaPolicy())
        if ids(rep.winning_even) != solve_explicit_pm(g).winning_even:
            problems.append(f"wrong answer at n={n}")
        points.append((math.log(n), math.log(rep.counters.cpre_ops)))
    xbar = sum(x for x, _ in points) / len(points)
    ybar = sum(y for _, y in points) / len(points)
    slope = sum((x - xbar) * (y - ybar) for x, y in points) / sum(
        (x - xbar) ** 2 for x, _ in points
    )
    if slope > 3.3:
        problems.append(f"cpre growth fits n^{slope:.3f}")
    announce(capsys, 11, not problems,
             problems[0] if problems else
             f"five-priority family grows like n^{slope:.3f} (cap 3.3)")
    assert not problems
