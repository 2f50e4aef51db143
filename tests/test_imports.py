"""Every submodule imports on its own, first, in a fresh interpreter.

The package's `__init__` imports every submodule in one fixed order, which
would hide a cycle entered from another module. So each check registers the
package without running its `__init__` and then imports one submodule; a
cycle between module-level imports shows as an ImportError.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import paritysets

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(paritysets.__path__))

IMPORT_ALONE = """
import importlib, importlib.util, sys, types
package = types.ModuleType("paritysets")
package.__path__ = list(importlib.util.find_spec("paritysets").submodule_search_locations)
sys.modules["paritysets"] = package
importlib.import_module("paritysets." + sys.argv[1])
"""


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALONE, name],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_sorted_and_once():
    names = paritysets.__all__
    assert [n for n in names if not hasattr(paritysets, n)] == []
    assert names == sorted(set(names))
