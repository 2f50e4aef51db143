"""Module loading, each case in a fresh interpreter.

Every submodule imports on its own, first, so a cycle between module-level
imports shows as an ImportError whichever module a program enters by. And a
command loads only the modules it runs: the package `__init__` loads none,
and a solve loads no other solver, no strategy code unless strategies are
asked for, the explicit solver only to check invariants or strategies, and
neither the generator nor the BDD backend. No solve loads `dataclasses` or
the modules it pulls in.
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

# Runs a command, if given one, and prints the package's loaded submodules,
# then every other module it added to those the interpreter started with.
LOADED = """
import contextlib, io, sys
started = set(sys.modules)
import paritysets
if sys.argv[1:]:
    import paritysets.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert paritysets.cli.main(sys.argv[1:]) == 0
print(*sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("paritysets.")))
print(*sorted(m for m in set(sys.modules) - started if not m.startswith("paritysets")))
"""

# `dataclasses` and what it imports: 5.8 ms of every command's start-up
# (Python 3.11, 2-vCPU VM). `site` may load `typing` before the package, so a
# solve is checked for what it adds.
SLOW_TO_IMPORT = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


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


def _modules(*argv: str) -> tuple[set[str], set[str]]:
    """The package's submodules a command loads, and the other modules."""
    package, others = _python(LOADED, *argv).splitlines()
    return set(package.split()), set(others.split())


def _loaded(*argv: str) -> set[str]:
    return _modules(*argv)[0]


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


@pytest.mark.parametrize("algo", ["zielonka", "pm", "bigstep"])
@pytest.mark.parametrize("strategies", [(), ("--strategies",)])
def test_a_solve_adds_no_dataclasses_inspect_or_typing(sample_file, algo, strategies):
    _, others = _modules("solve", sample_file, "--algo", algo, *strategies)
    assert others & SLOW_TO_IMPORT == set()


@pytest.mark.parametrize("algo", ["pm", "bigstep"])
def test_a_measure_solve_loads_the_explicit_solver_only_to_check_invariants(sample_file, algo):
    assert _loaded("solve", sample_file, "--algo", algo) & {"explicit", "strategy"} == set()
    assert "explicit" in _loaded("solve", sample_file, "--algo", algo, "--check-invariants")


def test_public_names_resolve_sorted_and_once():
    names = paritysets.__all__
    assert [n for n in names if not hasattr(paritysets, n)] == []
    assert set(names) <= set(dir(paritysets))
    assert names == sorted(set(names))
    assert len(names) == sum(map(len, paritysets._EXPORTS.values()))
