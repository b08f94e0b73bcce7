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
    # positive control: an anchor found twice, or not at all, is no mutant,
    # and neither is an indented anchor whose code moved deeper
    (tmp_path / "m.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    (tmp_path / "deeper.py").write_text("        y = 1\n", encoding="utf-8")
    for path, anchor in (("m.py", "x = 1"), ("m.py", "y = 2"), ("deeper.py", "    y = 1\n")):
        with pytest.raises(ValueError, match="anchor occurs"):
            mutated_text(Mutant("m", path, anchor, "x = 2", "none", "none"), root=tmp_path)
    # the control's control: at its own depth the indented anchor is found
    mutant = Mutant("m", "deeper.py", "        y = 1\n", "        y = 2\n", "none", "none")
    assert mutated_text(mutant, root=tmp_path) == "        y = 2\n"


def test_the_runner_puts_the_copy_first_and_keeps_the_callers_path(monkeypatch, tmp_path):
    # an interpreter that finds pytest through PYTHONPATH finds it in the
    # copy too, and the copy's src/ shadows whatever the caller's path holds
    for where in ("src", "caller"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "marker.py").write_text(f"WHERE = {where!r}\n", encoding="utf-8")
    (tmp_path / "caller" / "only_there.py").write_text("", encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "caller"))
    assert mutants.pytest(tmp_path, ("-c", "import marker, only_there; print(marker.WHERE)")) == (0, "src\n")


# imports each file named on the command line with the four calls replaced
# by one that raises, and prints each file whose import raised
AT_IMPORT = """
import importlib, pathlib, sys
from visualauth import crypto, entities

def refuse(*args, **kwargs):
    raise RuntimeError("called at import")

entities.Session.__init__ = crypto.generate_keypair = crypto.sign = crypto.encrypt = refuse
for path in map(pathlib.Path, sys.argv[1:]):
    sys.path.insert(0, str(path.parent))
    try:
        importlib.import_module(path.stem)
    except Exception as exc:
        print(f"{path.name}: {exc!r}")
"""


def test_collecting_a_test_file_runs_no_crypto_and_no_session(tmp_path):
    # a test file that builds a session, a key, a signature or a seal when
    # it is imported fails to collect whole when that call is broken, so a
    # mutant there reads as a collection error, not as its killer's verdict.
    # The positive control makes a key at import
    control = tmp_path / "test_keys_at_import.py"
    control.write_text("from visualauth import crypto\nKEY = crypto.generate_keypair(crypto.Role.USER, 1)\n", encoding="utf-8")
    files = [str(path) for path in sorted((ROOT / "tests").glob("test_*.py"))]
    code, output = mutants.pytest(ROOT, ("-c", AT_IMPORT, *files, str(control)))
    assert (code, output) == (0, f"{control.name}: RuntimeError('called at import')\n")


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
        # a killer pytest cannot find, or whose file fails to collect, proves nothing
        ((4, 1), True, "f in tier-1; its killer k did not run (pytest exit 4)"),
        ((2, 1), True, "f in tier-1; its killer k did not run (pytest exit 2)"),
        ((0, 0), False, None),  # a mutant survives only if tier-1 passes
    ],
    ids=["killer_fails", "killer_passes", "killer_not_found", "killer_not_collected", "tier1_passes"],
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
