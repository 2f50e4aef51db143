"""Mutation checks for the solvers' shortcut paths.

    python tests/mutants.py [--only TEXT]

Each mutant below is one (file, old, new) edit of the package source that
breaks the condition a shortcut rests on. For each, the script copies the
repository into a temporary directory, applies the edit there and runs the
tier-1 suite on the copy with `-x`, then prints the mutant's name and
"killed" (some test failed, with the first such test) or "survived" (every
test passed). A mutant whose `old` text is not in the source exactly once
prints "stale": the code it was written against has changed.

A survivor is a condition no test can break. It is either redundant code,
to be deleted with a proof, or an unguarded risk, to be covered by a new
test; never a reason to loosen a check. The checks run outside tier-1: each
mutant costs one suite run, 15 s to a minute on a 2-vCPU machine.
`--only TEXT` runs the mutants whose name contains TEXT.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = "src/paritysets/sets.py"
MEASURE = "src/paritysets/measure.py"
ZIELONKA = "src/paritysets/zielonka.py"
STRATEGY = "src/paritysets/strategy.py"

# (name, file, old, new)
MUTANTS = [
    ("recheck ignores view changes", SETS,
     "changed = bw ^ same[2] | within ^ same[1]", "changed = bw ^ same[2]"),
    ("recheck skips vertices entering the view", SETS,
     "check = within & ~same[1]", "check = 0"),
    ("recheck's opponent rule drops 'has a move into b'", SETS,
     "if s & bw and not s & leave:", "if not s & leave:"),
    ("frontier path without its growth test", SETS,
     "last[1] == within\n                and last[2] & ~bw == 0):", "last[1] == within):"),
    ("stationary rule without r[0] > 0", MEASURE,
     "r is not TOP and r[0] and not rolled_back", "r is not TOP and not rolled_back"),
    ("stationary rule without 'no roll-back before'", MEASURE,
     "r[0] and not rolled_back and equals(old, below)", "r[0] and equals(old, below)"),
    ("difference count ignores `forbidden is None`", MEASURE,
     "differences=0 if forbidden is None else rounds,", "differences=rounds,"),
    # The idle commit runs only with floor == d, so this one is equivalent.
    ("idle commit counts from the floor, not d", MEASURE,
     "for p, x in enumerate(d):", "for p, x in enumerate(floor):"),
    ("stretch ignores the sum bound", MEASURE,
     "end = domain.caps[0] if bound is None else min(domain.caps[0], bound - sum(high))",
     "end = domain.caps[0]"),
    ("stretch drops the last row's read counts", MEASURE,
     "segments = n - (last == self.eff_caps[0])", "segments = n"),
    ("stretch keeps the accumulator in what S_r must keep", MEASURE,
     "        kept = backend.difference(kept, acc)\n", ""),
    ("stretch start drops its idle commit", MEASURE,
     "            commit(r, old, old, d, d)\n", ""),
    ("stationary block tallies n - 1 iterations", MEASURE,
     "n = last - r[0] + 1", "n = last - r[0]"),
    ("stretch runs from position 0's end", MEASURE,
     "last = stretch(r, end) if r[0] < end else r[0]", "last = stretch(r, end)"),
    ("a resumed level scans from its parent's bound, not p_star", ZIELONKA,
     "        top = p_star\n", ""),
    ("the hook's view counts as a live set", ZIELONKA,
     "dominion_hook(space, VertexSet(space, current),", "dominion_hook(space, space._new(current),"),
    ("first_successor_in returns the highest bit", SETS,
     "return (m & -m).bit_length() - 1", "return m.bit_length() - 1"),
    ("the live-set rule never raises the peak", SETS,
     "    c.live_sets += 1\n    if c.live_sets > c.peak_live_sets:\n"
     "        c.peak_live_sets = c.live_sets\n",
     "    c.live_sets += 1\n"),
    ("a set-level op counts before checking its operands", SETS,
     "        a, b = self._arg(a), self._arg(b)\n        self.counters.unions += 1\n",
     "        self.counters.unions += 1\n        a, b = self._arg(a), self._arg(b)\n"),
    ("a pm pick may keep its rank instead of justifying it", STRATEGY,
     "domain.compare(rank[w], target) < 0", "domain.compare(rank[w], target) <= 0"),
    ("the linear rank reader counts one row too many", MEASURE,
     "tuple(n[v] - 1 for n in held)", "tuple(n[v] for n in held)"),
]


def run_mutant(file: str, old: str, new: str) -> str:
    source = (ROOT / file).read_text()
    if source.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_work", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        (copy / file).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
        except subprocess.TimeoutExpired:
            return "killed: timed out"
    if done.returncode == 0:
        return "survived"
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return f"killed: {failed[0]}" if failed else f"killed: pytest exit {done.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="run the mutants whose name holds this")
    args = parser.parse_args(argv)
    for name, file, old, new in MUTANTS:
        if args.only not in name:
            continue
        print(f"{name}: {run_mutant(file, old, new)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
