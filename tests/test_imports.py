"""Module loading, each case in a fresh interpreter.

Every submodule imports on its own, first, so a cycle between module-level
imports shows as an ImportError whichever module a program enters by. And a
command loads only the modules it runs: the package `__init__` loads none,
and a solve loads no other solver, no strategy code unless strategies are
asked for, and neither the generator nor the BDD backend.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import paritysets
from paritysets import emit_pgsolver

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(paritysets.__path__))

# Runs a command, if given one, and prints the package's loaded submodules.
LOADED = """
import contextlib, io, sys
import paritysets
if sys.argv[1:]:
    import paritysets.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert paritysets.cli.main(sys.argv[1:]) == 0
print(*sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("paritysets.")))
"""


def _python(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first(name):
    _python("import importlib, sys; importlib.import_module('paritysets.' + sys.argv[1])", name)


def _loaded(*argv: str) -> set[str]:
    return set(_python(LOADED, *argv).split())


@pytest.fixture
def sample_file(tmp_path, sample_game):
    path = tmp_path / "sample.gm"
    path.write_text(emit_pgsolver(sample_game))
    return str(path)


def test_the_package_alone_loads_no_submodule():
    assert _loaded() == set()


def test_a_zielonka_solve_loads_no_other_solver(sample_file):
    loaded = _loaded("solve", sample_file)
    assert "zielonka" in loaded
    unused = {"measure", "bigstep", "ranks", "explicit", "strategy", "generate", "bdd"}
    assert loaded & unused == set()
    assert "strategy" in _loaded("solve", sample_file, "--strategies")


def test_a_pm_solve_loads_strategy_code_only_when_asked(sample_file):
    loaded = _loaded("solve", sample_file, "--algo", "pm")
    assert "measure" in loaded
    assert loaded & {"bigstep", "generate", "bdd", "strategy"} == set()
    loaded = _loaded("solve", sample_file, "--algo", "pm", "--strategies")
    assert "strategy" in loaded
    assert loaded & {"bigstep", "generate", "bdd"} == set()


def test_public_names_resolve_sorted_and_once():
    names = paritysets.__all__
    assert [n for n in names if not hasattr(paritysets, n)] == []
    assert set(names) <= set(dir(paritysets))
    assert names == sorted(set(names))
    assert len(names) == sum(map(len, paritysets._EXPORTS.values()))
