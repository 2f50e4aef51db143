"""The mutation list in `tests/mutants.py` stays current."""

from __future__ import annotations

from mutants import MUTANTS, ROOT


def test_every_mutant_edits_text_that_occurs_once():
    # The script reports such a mutant as stale and runs nothing for it;
    # this is the same check as a text match, without copying the tree.
    stale = [name for name, file, old, _, _ in MUTANTS
             if (ROOT / file).read_text().count(old) != 1]
    assert stale == []
