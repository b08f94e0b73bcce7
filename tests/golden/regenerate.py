"""Rewrite tests/golden/digests.json from the current code; print what moved.

    python tests/golden/regenerate.py [--check]

Run it from anywhere; it imports the program from ``src/`` of this
checkout and runs every demo once. Only a change that means to alter an
output should commit the rewritten file, and say which keys moved and why.
With --check it computes every digest, writes nothing, and exits 1 if any
key moved, was added or was removed; it needs no pytest, so any
interpreter with cryptography can check the goldens.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import goldens  # noqa: E402


def demo_digests() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
            check=True,
        )
        digests[goldens.demo_key(demo.stem)] = goldens.sha256(out.stdout)
    return digests


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: regenerate.py [--check]", file=sys.stderr)
        return 2
    old = goldens.load() if goldens.DIGESTS.exists() else {}
    new = goldens.compute() | demo_digests()
    changed = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    for key in changed:
        label = "removed" if key not in new else "added" if key not in old else "moved"
        print(f"{label:<9}{key}")
    if argv:
        print(f"{len(changed)} of {len(new)} digests differ from {goldens.DIGESTS.relative_to(ROOT)}")
        return 1 if changed else 0
    goldens.DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(new)} digests written to {goldens.DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
