"""Digests of every solver's counters and answers over the bench catalogues.

    PYTHONPATH=src python tests/fingerprint.py [--games N]

Solves each catalogue of `bench/workloads.py` and prints one line per
catalogue, solver and mode: the SHA-256 of a canonical JSON list holding,
per game, every `OpCounters` field, the winners, both strategies (or none)
and the solver's diagnostics. Two checkouts that print the same lines
agree on all of that; a pure implementation change must leave every line
as it was.

pm, Zielonka and big-step under the sqrt and gamma policies decide the
two random catalogues, with and without strategies. The wide and ladder
catalogues get Zielonka alone: pm takes about 15 s and big-step about 3 s
on one 2,048-vertex game (2-vCPU VM, Python 3.11), and both grow
exponentially with the ladder's priorities. The whole run takes about 25 s
there. The first three pm-random games are also solved on bdd by all
four, with strategies.

The single measure runs the solvers above never make get lines of their
own, each holding per game every `OpCounters` field, the iteration count
and the winning set: bounded runs with h = 0 and h = 2, plain and
role-swapped, on every pm-random game, and the direct encoding's runs
(unbounded, and bounded with h = 2 both ways) on the first eight
bigstep-random games. They add about 0.2 s.

Each catalogue also gets one loader line: the digest, per game, of the
owners, priorities, successors and names that `parse_pgsolver` reads back
from `emit_pgsolver` of the game relabelled by a fixed seeded shuffle (as
the benchmark writes its files, without the oracle). Two checkouts that
print the same loader lines build the same games from the same files.
`--games N` keeps the first N games of each catalogue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, relabel  # noqa: E402

from paritysets.bigstep import GammaPolicy, SqrtPolicy, symbolic_big_step  # noqa: E402
from paritysets.game import normalize_priorities  # noqa: E402
from paritysets.pgsolver import emit_pgsolver, parse_pgsolver  # noqa: E402
from paritysets.measure import _pm_run, solve_pm_symbolic  # noqa: E402
from paritysets.sets import SetSpace  # noqa: E402
from paritysets.zielonka import classic_parity  # noqa: E402

SOLVERS = {
    "pm": solve_pm_symbolic,
    "zielonka": classic_parity,
    "bigstep-sqrt": lambda g, **kw: symbolic_big_step(g, policy=SqrtPolicy(), **kw),
    "bigstep-gamma": lambda g, **kw: symbolic_big_step(g, policy=GammaPolicy(), **kw),
}
ALL = tuple(SOLVERS)
BOTH = ((False, "bits"), (True, "bits"))
# Catalogue, solvers, modes as (strategies, backend), and how many of its
# games (None for all).
RUNS = (
    ("pm-random", ALL, BOTH, None),
    ("bigstep-random", ALL, BOTH, None),
    ("zielonka-wide", ("zielonka",), BOTH, None),
    ("zielonka-ladder", ("zielonka",), BOTH, None),
    ("pm-random", ALL, ((True, "bdd"),), 3),
)
# Catalogue, representation, modes as (bound, swap), and how many of its games.
PM_RUNS = (
    ("pm-random", "linear", ((0, False), (0, True), (2, False), (2, True)), None),
    ("bigstep-random", "direct", ((None, False), (2, False), (2, True)), 8),
)


def record(report) -> dict:
    strategies = [None if s is None else sorted(s.choice.items())
                  for s in (report.strategy_even, report.strategy_odd)]
    return {"counters": dict(vars(report.counters)), "winning_even": report.winning_even.ids(),
            "strategies": strategies, "diagnostics": report.diagnostics}


def pm_record(game, bound, swap, representation) -> dict:
    norm, _ = normalize_priorities(game)
    space = SetSpace(norm)
    run = _pm_run(space, space.full, bound=bound, swap=swap, representation=representation)
    return {"counters": dict(vars(space.counters)), "iterations": run.iterations,
            "winning": run.winning.ids()}


def loaded_record(game, seed: int) -> list:
    perm = list(range(game.vertex_count))
    random.Random(seed).shuffle(perm)
    back = parse_pgsolver(emit_pgsolver(relabel(game, perm)))
    return [back.owner, back.priority, back.successors, back.names]


def digest(records: list[dict]) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprints(games: int | None = None):
    """(label, digest) per catalogue, solver and mode."""
    for name, solvers, modes, limit in RUNS:
        catalogue = WORKLOADS[name].catalogue()[:limit][:games]
        for solver in solvers:
            for strategies, backend in modes:
                records = [record(SOLVERS[solver](g, strategies=strategies, backend=backend))
                           for g in catalogue]
                label = f"{name} {solver} strategies={int(strategies)} backend={backend}"
                yield label, digest(records)
    for name, representation, modes, limit in PM_RUNS:
        catalogue = WORKLOADS[name].catalogue()[:limit][:games]
        for bound, swap in modes:
            records = [pm_record(g, bound, swap, representation) for g in catalogue]
            yield f"{name} pm-run {representation} h={bound} swap={int(swap)}", digest(records)
    for name, workload in WORKLOADS.items():
        catalogue = workload.catalogue()[:games]
        records = [loaded_record(g, seed) for seed, g in enumerate(catalogue)]
        yield f"{name} loader", digest(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--games", type=int, default=None,
                        help="keep the first N games of each catalogue")
    args = parser.parse_args(argv)
    for label, value in fingerprints(args.games):
        print(f"{value}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
