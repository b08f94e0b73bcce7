"""Rules that hold for every source file under src/."""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_LINE = 110


def test_no_source_line_is_longer_than_the_bound():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    too_long = [
        f"{path.relative_to(SRC)}:{number} has {len(line)} characters"
        for path in modules
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert too_long == []
