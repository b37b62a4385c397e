"""The mutant table still applies to the sources; no mutant is run here
(python tests/mutants.py runs them)."""

from __future__ import annotations

import pytest

from mutants import MUTANTS, SRC


def test_mutant_names_are_unique():
    names = [row.name for row in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_old_text_occurs_once_and_the_row_names_its_killers(row):
    text = (SRC / row.file).read_text(encoding="utf-8")
    assert text.count(row.old) == 1, f"{row.name}: old text not found exactly once"
    assert row.new != row.old and row.tests and row.source
    assert all(test.startswith("tests/test_") and "::" in test for test in row.tests)
