"""The command line on every other CPython the package supports.

`pyproject.toml` promises Python 3.10 or later. This looks for the CPythons
installed beside the running one in pyenv's layout (`versions/3.X.Y/bin/python`,
X >= 10) and, in one fresh interpreter each, solves the sample game with
every algorithm and with strategies, verifies the game against the
solution that the solve with strategies emitted, and prints `stats` for
every algorithm, checking pm's and big-step's invariants against the
explicit solver. Each run must exit 0 and print what it prints here, but
for `stats`' wall time, so op counts and peaks repeat too. The other
interpreters need only the standard library; the test skips when there is
none.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paritysets
from paritysets import cli, emit_pgsolver

SRC = str(Path(paritysets.__file__).resolve().parents[1])
SOLVES = [[], ["--algo", "pm"], ["--algo", "bigstep"], ["--strategies"]]
STATS = [["--algo", "zielonka"], ["--algo", "pm", "--check-invariants"],
         ["--algo", "bigstep", "--check-invariants"]]

# Runs cli.main once per argument list in argv[1] and prints each exit code
# and output as JSON.
MAIN = """
import contextlib, io, json, sys
from paritysets import cli
answers = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    answers.append([code, out.getvalue()])
print(json.dumps(answers))
"""


def _other_pythons() -> list[Path]:
    here = Path(sys.base_prefix)
    found = []
    for exe in sorted(here.parent.glob("3.*/bin/python")):
        minor = re.fullmatch(r"3\.(\d+)\.\d+", exe.parents[1].name)
        if minor and int(minor[1]) >= 10 and exe.parents[1] != here:
            found.append(exe)
    return found


PYTHONS = _other_pythons()


def _untimed(answers):
    """The answers without `stats`' wall_time_ms lines."""
    return [[code, re.sub(r"(?m)^wall_time_ms: .*\n", "", out)] for code, out in answers]


@pytest.mark.skipif(not PYTHONS, reason="no other CPython >= 3.10 beside this one")
@pytest.mark.parametrize("python", PYTHONS, ids=lambda exe: exe.parents[1].name)
def test_every_algorithm_solves_alike_on_other_pythons(python, tmp_path, sample_game, capsys):
    game, solution = tmp_path / "sample.gm", tmp_path / "sample.sol"
    game.write_text(emit_pgsolver(sample_game))
    runs = [["solve", str(game), *flags] for flags in SOLVES]
    expected = []
    for argv in runs:
        code = cli.main(argv)
        expected.append([code, capsys.readouterr().out])
    # The last solve has strategies: verify reads its solution back, choices included.
    solution.write_text(expected[-1][1])
    runs.append(["verify", str(game), str(solution)])
    runs += [["stats", str(game), *flags] for flags in STATS]
    for argv in runs[len(expected):]:
        expected.append([cli.main(argv), capsys.readouterr().out])
    assert [code for code, _ in expected] == [0] * len(runs)
    assert expected[len(SOLVES)][1] == "verify: ok\n"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([str(python), "-c", MAIN, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _untimed(json.loads(proc.stdout)) == _untimed(expected)
