"""Byte-identity under a fixed seed, pinned: outputs hash to tests/golden.

A deliberate output change rewrites the goldens with
``python tests/golden/regenerate.py``; the demos' stdout digests are
checked in test_demos.py.
"""

from __future__ import annotations

import pytest

from golden import goldens

GOLDEN = goldens.load()
SECTIONS = {
    "flow/": goldens.flow_digests,
    "matrix/": goldens.matrix_digests,
    "scenarios/": goldens.scenario_digests,
    "attacks/": goldens.attack_digests,
}


@pytest.mark.parametrize("prefix", SECTIONS, ids=lambda prefix: prefix.rstrip("/"))
def test_outputs_match_goldens(prefix):
    computed = SECTIONS[prefix]()
    pinned = {key: digest for key, digest in GOLDEN.items() if key.startswith(prefix)}
    moved = sorted(key for key in computed.keys() | pinned.keys() if computed.get(key) != pinned.get(key))
    assert not moved, f"outputs moved from tests/golden/digests.json: {moved}"


def test_every_golden_belongs_to_a_section():
    assert all(key.startswith((*SECTIONS, "demo/")) for key in GOLDEN)


@pytest.mark.parametrize("moved", [False, True], ids=["unchanged", "moved"])
def test_check_writes_nothing_and_fails_on_a_moved_key(monkeypatch, capsys, moved):
    # the regenerator's --check mode, on stand-in digests: the committed
    # ones, and the same with one key moved (the positive control)
    monkeypatch.syspath_prepend(str(goldens.HERE))
    import regenerate

    computed = dict(GOLDEN)
    key = sorted(computed)[0]
    if moved:
        computed[key] = "0" * 64
    monkeypatch.setattr(regenerate.goldens, "compute", lambda: computed)
    monkeypatch.setattr(regenerate, "demo_digests", dict)
    before = goldens.DIGESTS.read_bytes()
    assert regenerate.main(["--check"]) == (1 if moved else 0)
    assert goldens.DIGESTS.read_bytes() == before
    out = capsys.readouterr().out
    assert (f"moved    {key}" in out) is moved
    assert f"{int(moved)} of {len(GOLDEN)} digests differ" in out
