"""Command line front end.

Verbs: solve (print a solution), stats (structured counters), dominion
(bounded dominion search), verify (check a solution file against a fresh
solve), gen (seeded random game). Exit codes: 0 fine, 1 verification
disagreement, 2 parse or usage trouble, or a game whose priorities nest
deeper than the recursive solvers can go. Set PARITY_TRACE=1 to stream the
measure iteration to stderr (for bigstep, that of every dominion run).
"""

from __future__ import annotations

import argparse
import glob as globmod
import sys

from .bigstep import Fixed, GammaPolicy, SqrtPolicy, symbolic_big_step
from .game import GameError, ParityGame, Player
from .measure import solve_pm_symbolic, symbolic_parity_dominion
from .pgsolver import ParseError, emit_pgsolver, emit_solution, parse_pgsolver, parse_solution
from .strategy import Strategy, verify_strategy
from .zielonka import RecursionDepthExceeded, classic_parity
from .generate import gen_random


def _parse_policy(text: str):
    if text == "sqrt":
        return SqrtPolicy()
    if text == "gamma":
        return GammaPolicy()
    if text.startswith("fixed:"):
        return Fixed(int(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(f"unknown policy {text!r}")


def _solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--algo", choices=("zielonka", "pm", "bigstep"), default="zielonka")
    sub.add_argument("--policy", type=_parse_policy, default=SqrtPolicy(),
                     help="bigstep schedule: sqrt, gamma, or fixed:<h>")
    sub.add_argument("--strategies", action="store_true")
    sub.add_argument("--check-invariants", action="store_true")
    sub.add_argument("--backend", choices=("bits", "bdd"), default="bits")


def _input_flags(sub: argparse.ArgumentParser, multi: bool) -> None:
    sub.add_argument("files", nargs="*" if multi else 1, metavar="FILE")
    if multi:
        sub.add_argument("--glob", dest="glob_pattern", default=None,
                         help="also process files matching this pattern")
    sub.add_argument("--add-self-loops", action="store_true",
                     help="repair missing or empty successor lists with self loops")


def _run(game: ParityGame, args) -> "SolveReport":
    if args.algo == "zielonka":
        return classic_parity(game, strategies=args.strategies, backend=args.backend)
    if args.algo == "pm":
        return solve_pm_symbolic(
            game,
            strategies=args.strategies,
            backend=args.backend,
            check_invariants=args.check_invariants,
        )
    return symbolic_big_step(
        game,
        policy=args.policy,
        strategies=args.strategies,
        backend=args.backend,
        check_invariants=args.check_invariants,
    )


def _load(path: str, args) -> ParityGame:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pgsolver(fh.read(), add_self_loops=args.add_self_loops)


def _gather(args) -> list[str]:
    files = list(args.files)
    if getattr(args, "glob_pattern", None):
        files.extend(sorted(globmod.glob(args.glob_pattern)))
    return files


def _cmd_solve(args) -> int:
    files = _gather(args)
    if not files:
        print("no input files", file=sys.stderr)
        return 2
    for path in files:
        report = _run(_load(path, args), args)
        if len(files) > 1:
            print(f"# {path}")
        sys.stdout.write(emit_solution(report, "text"))
    return 0


def _cmd_stats(args) -> int:
    files = _gather(args)
    if not files:
        print("no input files", file=sys.stderr)
        return 2
    for path in files:
        report = _run(_load(path, args), args)
        print(f"file: {path}")
        sys.stdout.write(emit_solution(report, "structured"))
    return 0


def _cmd_dominion(args) -> int:
    from .measure import dominion

    game = _load(args.files[0], args)
    player = Player.EVEN if args.player == "even" else Player.ODD
    found = dominion(game, player, args.h, backend=args.backend)
    print(" ".join(map(str, sorted(found))))
    return 0


def _cmd_verify(args) -> int:
    game = _load(args.files[0], args)
    with open(args.solution, "r", encoding="utf-8") as fh:
        claimed = parse_solution(fh.read())
    report = _run(game, args)
    problems = []
    for v in range(game.vertex_count):
        want = claimed.get(v)
        if want is None:
            problems.append(f"vertex {v} missing from the solution")
            continue
        winner, pick = want
        actual = 0 if report.winning_even.contains(v) else 1
        if winner != actual:
            problems.append(f"vertex {v}: claimed winner {winner}, solved {actual}")
        if pick is not None and pick not in game.successors[v]:
            problems.append(f"vertex {v}: strategy edge {v}->{pick} does not exist")
    for side, player in ((0, Player.EVEN), (1, Player.ODD)):
        region = frozenset(
            v for v, (winner, _) in claimed.items() if winner == side
        )
        picks = {
            v: pick
            for v, (winner, pick) in claimed.items()
            if winner == side and pick is not None and game.owner[v] is player
        }
        owned = {v for v in region if game.owner[v] is player}
        if region and owned and owned == set(picks):
            try:
                strategy = Strategy(player=player, domain=frozenset(picks), choice=picks)
                if not verify_strategy(game, player, region, strategy):
                    problems.append(f"claimed strategy for {player.name} does not win")
            except Exception as exc:  # strategy errors are verification failures
                problems.append(f"claimed strategy for {player.name}: {exc}")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print("verify: ok")
    return 0


def _cmd_gen(args) -> int:
    game = gen_random(args.n, args.c, args.min_deg, args.max_deg, args.seed)
    text = emit_pgsolver(game)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="paritysets", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)

    p_solve = subs.add_parser("solve", help="solve games and print solutions")
    _input_flags(p_solve, multi=True)
    _solver_flags(p_solve)
    p_solve.set_defaults(fn=_cmd_solve)

    p_stats = subs.add_parser("stats", help="solve and dump counters")
    _input_flags(p_stats, multi=True)
    _solver_flags(p_stats)
    p_stats.set_defaults(fn=_cmd_stats)

    p_dom = subs.add_parser("dominion", help="bounded dominion search")
    _input_flags(p_dom, multi=False)
    p_dom.add_argument("--player", choices=("even", "odd"), required=True)
    p_dom.add_argument("--h", type=int, required=True)
    p_dom.add_argument("--backend", choices=("bits", "bdd"), default="bits")
    p_dom.set_defaults(fn=_cmd_dominion)

    p_verify = subs.add_parser("verify", help="check a solution file")
    _input_flags(p_verify, multi=False)
    p_verify.add_argument("solution")
    _solver_flags(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_gen = subs.add_parser("gen", help="emit a seeded random game")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--c", type=int, required=True)
    p_gen.add_argument("--min-deg", type=int, default=1)
    p_gen.add_argument("--max-deg", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=_cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, GameError, OSError, RecursionDepthExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
