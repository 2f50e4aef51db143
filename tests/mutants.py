"""Mutation checks for the solvers' shortcut paths.

    python tests/mutants.py [--only TEXT]

Each mutant below is one (file, old, new) edit of the package source that
breaks the condition a shortcut rests on, with the test that killed it
last. For each, the script copies the repository into a temporary
directory and applies the edit there. It runs that test first, with `-x`,
and the whole tier-1 suite with `-x` only when the test passes (or when no
killer is recorded). Both runs leave out
`test_every_mutant_edits_text_that_occurs_once`, which fails in every copy:
the copy's source no longer holds the mutant's `old` text. The script then
prints the mutant's name and "killed" (some test failed, with the first
such test) or "survived" (every test passed).
When the recorded killer passed, the line says so: update it to the new
one. A mutant whose `old` text is not in the source exactly once prints
"stale": the code it was written against has changed.

A survivor is a condition no test can break. It is either redundant code,
to be deleted with a proof, or an unguarded risk, to be covered by a new
test; never a reason to loosen a check. The checks run outside tier-1: a
mutant that its recorded killer kills costs a few seconds, and any other
one suite run, 15 s to a minute on a 2-vCPU machine. `--only TEXT` runs
the mutants whose name contains TEXT.
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
BIGSTEP = "src/paritysets/bigstep.py"
STRATEGY = "src/paritysets/strategy.py"
PGSOLVER = "src/paritysets/pgsolver.py"
CLI = "src/paritysets/cli.py"

ACCEPTANCE = "tests/test_acceptance.py::test_criterion_"
SAMPLE_RUN = "tests/test_bigstep.py::test_sample_run"
CPRE_REFERENCE = "tests/test_sets.py::test_bits_cpre_matches_a_from_scratch_reference"
PM_REFERENCE = "tests/test_measure.py::test_payload_encoding_counts_like_the_set_level_reference"
PGSOLVER_TEST = "tests/test_pgsolver.py::test_"
IMPORTS_TEST = "tests/test_imports.py::test_a_"
MASKS_TEST = "tests/test_sets.py::test_bits_masks_match_the_id_lists"
CHOICE_REWRITES = "tests/test_zielonka.py::test_later_passes_write_over_the_choices_of_earlier_ones"
# Fails for every mutant in the copy, whose `old` text is gone by design.
TEXT_CHECK = "tests/test_mutants.py::test_every_mutant_edits_text_that_occurs_once"

# (name, file, old, new, the test that killed it last or None)
MUTANTS = [
    ("recheck ignores view changes", SETS,
     "changed = bw ^ same[2] | within ^ same[1]", "changed = bw ^ same[2]", CPRE_REFERENCE),
    ("recheck skips vertices entering the view", SETS,
     "check = within & ~same[1]", "check = 0",
     "tests/test_pgsolver.py::test_solution_text_matches_per_vertex_lookups"),
    ("recheck's opponent rule drops 'has a move into b'", SETS,
     "if s & bw and not s & leave:", "if not s & leave:", CPRE_REFERENCE),
    ("frontier path without its growth test", SETS,
     "last[1] == within\n                and last[2] & ~bw == 0):", "last[1] == within):",
     ACCEPTANCE + "2_symbolic_iteration"),
    ("block turns (and the stationary rule) without r[0] > 0", MEASURE,
     "in_block = blocks and r is not TOP and r[0]", "in_block = blocks and r is not TOP",
     ACCEPTANCE + "4_solver_agreement"),
    # A false kill: its killer pins only an internal call count (seed 5
    # takes 32 stretches instead of 23), while every op count, event and
    # answer repeat. Whether the conjunct can go is ROADMAP item 12's open
    # question.
    ("stationary rule without 'no roll-back before' (killer pins a call count only)", MEASURE,
     "if not rolled_back and equals(old, below):", "if equals(old, below):",
     "tests/test_measure.py::test_stationary_stretches_are_jumped"),
    ("difference count ignores `forbidden is None`", MEASURE,
     "        if forbidden is not None:\n            c.differences += rounds\n",
     "        c.differences += rounds\n", SAMPLE_RUN),
    # The idle commit runs only with floor == d, so this one is equivalent.
    ("idle commit counts from the floor, not d", MEASURE,
     "for p, x in enumerate(d):", "for p, x in enumerate(floor):", None),
    ("stretch ignores the sum bound", MEASURE,
     "end = domain.caps[0] if bound is None else min(domain.caps[0], bound - sum(high))",
     "end = domain.caps[0]", ACCEPTANCE + "4_solver_agreement"),
    ("a block of reads counts a segment at the last row", MEASURE,
     "segments = n - (hi == self.eff_caps[0])", "segments = n", PM_REFERENCE),
    ("stretch keeps the accumulator in what S_r must keep", MEASURE,
     "        kept = backend.difference(kept, acc)\n", "",
     "tests/test_measure.py::test_stationary_stretches_are_jumped"),
    ("stretch start drops its idle commit", MEASURE,
     "c.unions += n + 1", "c.unions += n", SAMPLE_RUN),
    ("stationary block tallies n - 1 iterations", MEASURE,
     "n = last - x + 1", "n = last - x", SAMPLE_RUN),
    ("a resumed level scans from its parent's bound, not p_star", ZIELONKA,
     "        top = p_star\n", "",
     "tests/test_zielonka.py::test_the_loop_repeats_the_set_level_recursion"),
    ("the hook's view counts as a live set", ZIELONKA,
     "dominion_hook(space, VertexSet(space, current),", "dominion_hook(space, space._new(current),",
     SAMPLE_RUN),
    ("closure's one-round peak counts a union", SETS,
     "(3 if rounds > 1 else 2)", "3",
     "tests/test_sets.py::test_closure_matches_the_per_vertex_attractor"),
    ("the top class joins the live count without raising the peak", ZIELONKA,
     "            _count_new(c)\n            return i, cls\n",
     "            c.live_sets += 1\n            return i, cls\n",
     "tests/test_zielonka.py::test_top_priority_scans_from_the_bound_down"),
    ("a set-returning read leaves the peak of its intermediates out", MEASURE,
     "        if c.live_sets + held > c.peak_live_sets:\n"
     "            c.peak_live_sets = c.live_sets + held\n", "",
     "tests/test_measure.py::test_reads_count_like_the_reference_read_by_read"),
    ("first_successor_in returns the highest bit", SETS,
     "return (m & -m).bit_length() - 1", "return m.bit_length() - 1",
     "tests/test_sets.py::test_closure_matches_the_per_vertex_attractor"),
    ("the live-set rule never raises the peak", SETS,
     "    c.live_sets += 1\n    if c.live_sets > c.peak_live_sets:\n"
     "        c.peak_live_sets = c.live_sets\n",
     "    c.live_sets += 1\n", "tests/test_basic_fixpoint.py::test_ladder_counts"),
    ("a set-level op counts before checking its operands", SETS,
     "        a, b = self._arg(a), self._arg(b)\n        self.counters.unions += 1\n",
     "        self.counters.unions += 1\n        a, b = self._arg(a), self._arg(b)\n",
     "tests/test_sets.py::test_release_discipline"),
    ("a pm pick may keep its rank instead of justifying it", STRATEGY,
     "domain.compare(rank[w], target) < 0", "domain.compare(rank[w], target) <= 0",
     ACCEPTANCE + "9_strategies"),
    ("the linear rank reader counts one row too many", MEASURE,
     "tuple(n[v] - 1 for n in held)", "tuple(n[v] for n in held)",
     ACCEPTANCE + "6_invariants_hold"),
    ("the cpre memo holds closure's difference, not the raw cpre", MEASURE,
     "add = difference(add, forbidden)", "add = memo[w] = difference(add, forbidden)",
     ACCEPTANCE + "4_solver_agreement"),
    ("one cpre memo per space, shared by its runs", MEASURE,
     "memo: dict = {}", "memo = vars(space).setdefault('memo', {})",
     ACCEPTANCE + "4_solver_agreement"),
    # Before the walk was bounded, tier-1 hung on this one.
    ("one cpre memo for the whole process", MEASURE,
     "memo: dict = {}", "memo = _pm_run.__dict__.setdefault('memo', {})",
     ACCEPTANCE + "4_solver_agreement"),
    ("the cpre memo evicts its newest entry", MEASURE,
     "del memo[next(iter(memo))]", "memo.popitem()",
     "tests/test_measure.py::test_runs_ask_the_kernel_once_per_recent_target"),
    ("the floor's row scan stops one row short", MEASURE,
     "while x + 1 < len(row) and backend.is_subset(rest,",
     "while x + 2 < len(row) and backend.is_subset(rest,", ACCEPTANCE + "4_solver_agreement"),
    ("a block of reads narrows at counter 0", MEASURE,
     "segments + n - (lo == 0))", "segments + n)", PM_REFERENCE),
    ("the floor search keeps every vertex of the rest", MEASURE,
     "rest = backend.difference(rest, row[x + 1].payload)", "rest = rest",
     "tests/test_measure.py::test_the_floor_is_the_least_rank_outside_the_set_of_d"),
    ("the loader's successor JSON has no fallback", PGSOLVER,
     'successor_lists = map(map, repeat(int), map(str.split, successor_texts, repeat(",")))',
     "return None", PGSOLVER_TEST + "zero_padded_ids_load_like_unpadded_ones"),
    ("the loader's line check reads the flat successor pattern", PGSOLVER,
     '_VERTEX = _vertex_pattern(r"\\d+(?:[ \\t]*,[ \\t]*\\d+)*")',
     '_VERTEX = _vertex_pattern(r"[\\d, \\t]*\\d")',
     PGSOLVER_TEST + "space_separated_successors_are_malformed"),
    ("the loader's scan drops its match-count check", PGSOLVER,
     "    if len(columns[0] if columns else ()) != len(body) - body.count(\"\"):\n"
     "        columns = None\n", "",
     PGSOLVER_TEST + "malformed_line_reports_its_number"),
    ("the loader's bulk check lets an id repeat", PGSOLVER,
     "    if len(set(ids)) < len(ids):\n        return None\n", "",
     PGSOLVER_TEST + "duplicate_declaration_rejected"),
    ("the loader's bulk check skips the header maximum", PGSOLVER,
     "    if header_max is not None and top > header_max:\n        return None\n", "",
     PGSOLVER_TEST + "ids_above_the_header_maximum_rejected"),
    ("the command line imports pm's solver eagerly", CLI,
     "from .zielonka import RecursionDepthExceeded, classic_parity\n",
     "from .zielonka import RecursionDepthExceeded, classic_parity\n"
     "from .measure import solve_pm_symbolic\n",
     IMPORTS_TEST + "zielonka_solve_loads_no_other_solver"),
    ("Zielonka imports its strategy code eagerly", ZIELONKA,
     "from .sets import SetSpace, VertexSet, _count_new\n",
     "from .sets import SetSpace, VertexSet, _count_new\n"
     "from .strategy import extract_attractor_strategies\n",
     IMPORTS_TEST + "zielonka_solve_loads_no_other_solver"),
    ("pm's module imports the explicit solver eagerly", MEASURE,
     "from collections.abc import Callable\n",
     "from collections.abc import Callable\nfrom .explicit import lift_fixpoint, lift_rank\n",
     IMPORTS_TEST + "measure_solve_loads_the_explicit_solver_only_to_check_invariants"),
    ("big-step imports its strategy code eagerly", BIGSTEP,
     "from .sets import SetSpace\n",
     "from .sets import SetSpace\nfrom .strategy import extract_strategy_from_pm\n",
     IMPORTS_TEST + "measure_solve_loads_the_explicit_solver_only_to_check_invariants"),
    ("a pass writes its class's own-player edges only while its level has won nothing",
     ZIELONKA, "        if mine is not None:\n",
     "        if mine is not None and wins == [None, None]:\n", CHOICE_REWRITES),
    ("the opponent peel's closure records into a throwaway dict", ZIELONKA,
     "grab = closure(op, sub_wins[op], current, edges[op])",
     "grab = closure(op, sub_wins[op], current, edges[op] and {})", CHOICE_REWRITES),
    ("the label masks read the byte string unreversed", SETS,
     "digits = bytes(labels)[::-1]", "digits = bytes(labels)", MASKS_TEST),
    ("the grouped label masks keep each label's first vertex only", SETS,
     "ids.setdefault(x, []).append(v)", "ids.setdefault(x, [v])", MASKS_TEST),
    ("removal_violations asks a pass for h + 1 removals", BIGSTEP,
     "removed < h + 2:", "removed < h + 1:",
     "tests/test_bigstep.py::test_removal_violations_reads_the_level_log"),
    ("removal_violations' pass cap drops its + 1", BIGSTEP,
     'cap = level["n_start"] // (h_min + 2) + 1', 'cap = level["n_start"] // (h_min + 2)',
     ACCEPTANCE + "8_operation_budgets"),
    ("the pm peak rule leaves out `below`", MEASURE,
     "peak = c.live_sets + 1 + max(2 + seeded, 5 if max_pos else 3)",
     "peak = c.live_sets + max(2 + seeded, 5 if max_pos else 3)", SAMPLE_RUN),
    ("the view's caps read without the swap shift", MEASURE,
     "counts.get(2 * p + 1 - self.shift, 0)", "counts.get(2 * p + 1, 0)",
     ACCEPTANCE + "5_bounded_dominions"),
    ("the report skips a stretch's last rank", MEASURE,
     "for y in range(x, last + 1):", "for y in range(x, last):",
     "tests/test_cli.py::test_trace_environment_variable"),
    ("block constants kept after a commit that changes a row above position 0 or TOP",
     MEASURE, "            commit(r, w, old, d, floor)\n            fold = None\n",
     "            commit(r, w, old, d, floor)\n", SAMPLE_RUN),
    ("the band without its TOP part", MEASURE,
     "band = self.coordinate[0][0].payload", "band = self.universe.payload",
     "tests/test_measure.py::test_in_block_commits_outside_the_band_raise_commits_errors"),
    ("the in-block next rank ignores the sum bound", MEASURE,
     "elif fold is not None and d[0] < end:", "elif fold is not None and d[0] < domain.caps[0]:",
     ACCEPTANCE + "5_bounded_dominions"),
    ("an in-block read joins the fold's accumulator and row x alone", MEASURE,
     "old = rows[x].payload if running is None else intersect(running, rows[x].payload)",
     "old = rows[x].payload", SAMPLE_RUN),
]


def _first_failure(copy: Path, env: dict, *tests: str) -> str | None:
    """The first test to fail in a `pytest -x` run on the copy, over `tests`
    when given and the whole suite otherwise; None when none failed."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--deselect", TEXT_CHECK, *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
    except subprocess.TimeoutExpired:
        return "timed out"
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if failed:
        return failed[0]
    # A named test that no longer exists fails nothing: the suite decides.
    return None if done.returncode == 0 or tests else f"pytest exit {done.returncode}"


def run_mutant(file: str, old: str, new: str, killer: str | None = None) -> str:
    source = (ROOT / file).read_text()
    if source.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_work", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        (copy / file).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        failed = _first_failure(copy, env, killer) if killer else None
        if failed is None:
            failed = _first_failure(copy, env)
    return "survived" if failed is None else f"killed: {failed}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="run the mutants whose name holds this")
    args = parser.parse_args(argv)
    for name, file, old, new, killer in MUTANTS:
        if args.only not in name:
            continue
        result = run_mutant(file, old, new, killer)
        if killer and not result.startswith(f"killed: {killer}"):
            result += f" (its recorded killer {killer} passed)"
        print(f"{name}: {result}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
