"""The command line on every other CPython the package supports.

`pyproject.toml` promises Python 3.10 or later. This looks for the CPythons
installed beside the running one in pyenv's layout (`versions/3.X.Y/bin/python`,
X >= 10) and, in one fresh interpreter each, solves the sample game with
every algorithm and with strategies. Each solve must exit 0 and print what it
prints here. The other interpreters need only the standard library; the test
skips when there is none.
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

# Solves the file in argv[1] once per flag list in argv[2] and prints each
# exit code and output as JSON.
SOLVE = """
import contextlib, io, json, sys
from paritysets import cli
answers = []
for flags in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", sys.argv[1], *flags])
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


@pytest.mark.skipif(not PYTHONS, reason="no other CPython >= 3.10 beside this one")
@pytest.mark.parametrize("python", PYTHONS, ids=lambda exe: exe.parents[1].name)
def test_every_algorithm_solves_alike_on_other_pythons(python, tmp_path, sample_game, capsys):
    path = tmp_path / "sample.gm"
    path.write_text(emit_pgsolver(sample_game))
    expected = []
    for flags in SOLVES:
        code = cli.main(["solve", str(path), *flags])
        expected.append([code, capsys.readouterr().out])
    assert [code for code, _ in expected] == [0] * len(SOLVES)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([str(python), "-c", SOLVE, str(path), json.dumps(SOLVES)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected
