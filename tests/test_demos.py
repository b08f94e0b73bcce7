"""Every walkthrough under demos/ runs to completion under ``-W error`` and
prints what it printed when tests/golden/digests.json was written."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import goldens

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert goldens.sha256(out.stdout) == goldens.load()[goldens.demo_key(demo.stem)], (
        f"{demo.stem} stdout moved from tests/golden/digests.json"
    )


def test_every_demo_has_a_golden():
    pinned = {key for key in goldens.load() if key.startswith("demo/")}
    assert pinned == {goldens.demo_key(demo.stem) for demo in DEMOS}
