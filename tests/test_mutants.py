"""The mutation suite's table stays applicable: tier-1 runs no mutant
(``python tests/mutants.py`` does), but each anchor must occur exactly once
in its file, so that no refactor silently turns a mutant into a no-op, and
each killer must name a test, so that the runner tries a real one first."""

from __future__ import annotations

import dataclasses
import time

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
            mutated_text(Mutant("m", "m.py", anchor, "x = 2", "none", "none"), root=tmp_path)


def test_each_killer_names_a_collected_test():
    # a killer that names no test is reported: the positive control rides
    # in the same collection
    missing = "tests/test_rng.py::test_no_such_test"
    assert mutants.uncollected([*(mutant.killer for mutant in MUTANTS), missing]) == [missing]


@pytest.mark.parametrize(
    "exits, killed, where",
    [
        ((1,), True, "k"),  # the killer fails: tier-1 never runs
        ((0, 1), True, "f in tier-1; its killer k passed"),
        ((4, 1), True, "f in tier-1; its killer k passed"),  # a killer pytest cannot find proves nothing
        ((0, 0), False, None),  # a mutant survives only if tier-1 passes
    ],
    ids=["killer_fails", "killer_passes", "killer_not_found", "tier1_passes"],
)
def test_the_runner_tries_the_killer_first(monkeypatch, exits, killed, where):
    codes = iter(exits)
    monkeypatch.setattr(mutants, "pytest", lambda work, args: (next(codes), "FAILED f - boom\n"))
    verdict = mutants.run(dataclasses.replace(MUTANTS[0], killer="k"))
    assert verdict[0] is killed and (where is None or verdict[1] == where)
    assert next(codes, None) is None  # each run the case lists, and no other


def test_the_runner_reports_the_first_failing_test():
    output = "F\nFAILED tests/test_a.py::test_b - assert 1 == 2\nFAILED tests/test_a.py::test_c\n"
    assert mutants.first_failure(output) == "tests/test_a.py::test_b"


def test_verdicts_print_in_table_order(monkeypatch, capsys):
    # the first mutant finishes last, yet its verdict prints first; the
    # unmutated copy runs before any mutant
    started = []

    def fake_run(mutant):
        started.append(mutant)
        if mutant is MUTANTS[0]:
            time.sleep(0.2)
        return mutant is not None, "tests/test_a.py::test_b"

    monkeypatch.setattr(mutants, "run", fake_run)
    assert mutants.main([m.name for m in MUTANTS[:4]]) == 0
    assert started[0] is None
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == [m.name for m in MUTANTS[:4]]
    assert lines[4] == "0 of 4 mutants survived"
