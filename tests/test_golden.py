"""Byte-identity under a fixed seed, pinned: outputs hash to tests/golden.

A deliberate output change rewrites the goldens with
``python tests/golden/regenerate.py``; the demos' stdout digests are
checked in test_demos.py.
"""

from __future__ import annotations

import pytest

import test_style
from golden import goldens
from visualauth import crypto, qr
from visualauth.protocols import Protocol, SessionConfig, run_flow

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


class TestReferencePath:
    """The records and the per-class codec change no output: with all of
    them switched off (conftest's reference_path), every golden that needs
    no demo run is what digests.json pins."""

    def test_the_reference_path_gives_every_golden(self, reference_path):
        computed = goldens.compute()
        assert computed.keys() == {key for key in GOLDEN if not key.startswith("demo/")}
        assert {key: digest for key, digest in computed.items() if digest != GOLDEN[key]} == {}

    def test_it_switches_off_each_record(self, reference_path):
        # exactly the module-level records test_style allows, and the parity memo
        assert sorted(reference_path) == sorted([*test_style.RECORDS, "rs_parity"])
        run_flow(SessionConfig(protocol=Protocol.P1, seed=0))
        assert len(crypto._SIGNED) == len(crypto._SEALED) == 0
        assert not hasattr(qr.rs_parity, "cache_info")
