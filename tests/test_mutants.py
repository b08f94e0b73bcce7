"""The mutation suite's table stays applicable: tier-1 runs no mutant
(``python tests/mutants.py`` does), but each anchor must occur exactly once
in its file, so that no refactor silently turns a mutant into a no-op."""

from __future__ import annotations

import pytest

import mutants
from mutants import MUTANTS, ROOT, Mutant, mutated_text


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_anchor_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.anchor) == 1, mutant.path
    mutated = mutated_text(mutant)
    assert mutated != text
    compile(mutated, mutant.path, "exec")  # a mutant is a program, not a syntax error
    assert mutant.aim


def test_an_anchor_that_moved_is_refused(tmp_path):
    # positive control: an anchor found twice, or not at all, is no mutant
    (tmp_path / "m.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    for anchor in ("x = 1", "y = 2"):
        with pytest.raises(ValueError, match="anchor occurs"):
            mutated_text(Mutant("m", "m.py", anchor, "x = 2", "none"), root=tmp_path)


def test_the_runner_reports_the_first_failing_test():
    output = "F\nFAILED tests/test_a.py::test_b - assert 1 == 2\nFAILED tests/test_a.py::test_c\n"
    assert mutants.first_failure(output) == "tests/test_a.py::test_b"
