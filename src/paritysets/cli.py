"""Command line front end.

Verbs: solve (print a solution), stats (structured counters), dominion
(bounded dominion search), verify (check a solution file against a fresh
solve), gen (seeded random game). Exit codes: 0 fine, 1 verification
disagreement, 2 parse or usage trouble. A recursive solve past its depth
limit (`RecursionDepthExceeded`) would also exit 2, but no valid game
reaches it: before each descent the nesting is at most the priority count,
against a limit of the priority count plus 2. Set PARITY_TRACE=1 to stream
every measure run to stderr (pm's role-swapped strategy run over the odd
region and bigstep's dominion runs included).
"""

from __future__ import annotations

import argparse
import functools
import gc
import glob as globmod
import sys

from .game import GameError, ParityGame, Player
from .pgsolver import ParseError, emit_pgsolver, emit_solution, parse_pgsolver, parse_solution
from .zielonka import RecursionDepthExceeded, classic_parity


def __getattr__(name: str):
    """pm's and big-step's entry points, imported on first use (PEP 562).

    A command loads only the modules it runs: this module imports the
    loader and the default Zielonka solver; pm, big-step and the policy
    objects, the dominion search, the strategy checker and the generator
    load on first use. (The module docstring is the --help text, so this
    note lives here.)
    """
    if name not in ("solve_pm_symbolic", "symbolic_big_step"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _solver(name: str):
    """A solver read as this module's attribute, which is where a patched
    one (a tracer's wrapper, say) is installed."""
    return getattr(sys.modules[__name__], name)


def _parse_policy(text: str) -> tuple[str, tuple[int, ...]]:
    """Check a --policy value: the name of big-step's policy class and its
    arguments, built into a policy only when big-step runs."""
    if text == "sqrt":
        return "SqrtPolicy", ()
    if text == "gamma":
        return "GammaPolicy", ()
    if text.startswith("fixed:"):
        arg = text.split(":", 1)[1]
        try:
            h = int(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"fixed policy needs an integer h, got {arg!r}") from None
        if h < 0:
            raise argparse.ArgumentTypeError(f"fixed policy needs h >= 0, got {h}")
        return "Fixed", (h,)
    raise argparse.ArgumentTypeError(f"unknown policy {text!r}")


def _solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--algo", choices=("zielonka", "pm", "bigstep"), default="zielonka")
    sub.add_argument("--policy", type=_parse_policy, default="sqrt",
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
        return _solver("solve_pm_symbolic")(
            game,
            strategies=args.strategies,
            backend=args.backend,
            check_invariants=args.check_invariants,
        )
    policy_class, params = args.policy
    return _solver("symbolic_big_step")(
        game,
        policy=getattr(sys.modules[__package__], policy_class)(*params),
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
    """solve and stats: solve each file and print it in the verb's form."""
    files = _gather(args)
    if not files:
        print("no input files", file=sys.stderr)
        return 2
    for path in files:
        report = _run(_load(path, args), args)
        if args.form == "structured":
            print(f"file: {path}")
        elif len(files) > 1:
            print(f"# {path}")
        sys.stdout.write(emit_solution(report, args.form))
    return 0


def _cmd_dominion(args) -> int:
    from .measure import dominion

    if args.h < 0:
        print("error: --h must be a natural number", file=sys.stderr)
        return 2
    game = _load(args.files[0], args)
    player = Player.EVEN if args.player == "even" else Player.ODD
    found = dominion(game, player, args.h, backend=args.backend)
    print(" ".join(map(str, sorted(found))))
    return 0


def _cmd_verify(args) -> int:
    from .strategy import Strategy, verify_strategy

    game = _load(args.files[0], args)
    with open(args.solution, "r", encoding="utf-8") as fh:
        claimed = parse_solution(fh.read())
    report = _run(game, args)
    solved_even = set(report.winning_even.ids())
    problems = [f"vertex {v} is not in the game" for v in claimed if v >= game.vertex_count]
    claimed = {v: entry for v, entry in claimed.items() if v < game.vertex_count}
    for v in range(game.vertex_count):
        want = claimed.get(v)
        if want is None:
            problems.append(f"vertex {v} missing from the solution")
            continue
        winner, pick = want
        actual = 0 if v in solved_even else 1
        if winner != actual:
            problems.append(f"vertex {v}: claimed winner {winner}, solved {actual}")
        if pick is not None and pick not in game.successors[v]:
            problems.append(f"vertex {v}: strategy edge {v}->{pick} does not exist")
        if pick is not None and game.owner[v] is not Player(winner):
            problems.append(f"vertex {v}: pick where {Player(winner).name} does not move")
    for side, player in ((0, Player.EVEN), (1, Player.ODD)):
        region = frozenset(v for v, (winner, _) in claimed.items() if winner == side)
        mine = sorted(v for v in region if game.owner[v] is player)
        picks = {v: claimed[v][1] for v in mine if claimed[v][1] is not None}
        if not picks:
            continue  # no strategy claimed for this side: winners only
        # Once a side picks anywhere, every vertex it owns in its region needs a pick.
        unpicked = [v for v in mine if v not in picks]
        problems.extend(f"vertex {v}: no strategy pick for {player.name}" for v in unpicked)
        if unpicked:
            continue
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
    from .generate import gen_random

    try:
        game = gen_random(args.n, args.c, args.min_deg, args.max_deg, args.seed)
    except ValueError as exc:  # gen_random's checks of the size flags
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_pgsolver(game)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and kept."""
    parser = argparse.ArgumentParser(prog="paritysets", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)

    for verb, form, text in (("solve", "text", "solve games and print solutions"),
                             ("stats", "structured", "solve and dump counters")):
        sub = subs.add_parser(verb, help=text)
        _input_flags(sub, multi=True)
        _solver_flags(sub)
        sub.set_defaults(fn=_cmd_solve, form=form)

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
    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A solve builds thousands of short-lived containers and frees them by
    reference counting. A collection in the middle of it frees next to
    nothing, yet a full one scans every tracked object of the process: in a
    long-lived host (a test session, a server) that costs more than the solve.
    The one cycle a solve leaves, a set space and its pinned sets, is still
    young when the command ends, so collecting the youngest generation then
    frees it without scanning the rest. A host that has already paused the
    collector keeps it paused.
    """
    if not gc.isenabled():
        return _main(argv)
    gc.disable()
    try:
        return _main(argv)
    finally:
        gc.enable()
        gc.collect(0)


def _main(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, GameError, OSError, RecursionDepthExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
