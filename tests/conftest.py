"""The one way a test records or counts the calls a layer makes: spy; and
the reference run, which switches off every record and the per-class codec
from outside src/: reference_path."""

from __future__ import annotations

import collections
from dataclasses import dataclass

import pytest


@dataclass
class Call:
    """One call through a spy, recorded before it is made: what it was
    handed, then what it returned or raised."""

    args: tuple
    kwargs: dict
    result: object = None
    raised: BaseException | None = None


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) replaces owner.name, for the rest of the test, with
    a wrapper that appends a Call to the list it returns and then makes the
    call. A spy on a class attribute records the instance as args[0]."""

    def install(owner, name: str) -> list[Call]:
        calls, real = [], getattr(owner, name)

        def recording(*args, **kwargs):
            call = Call(args, kwargs)
            calls.append(call)
            try:
                call.result = real(*args, **kwargs)
            except BaseException as exc:
                call.raised = exc
                raise
            return call.result

        monkeypatch.setattr(owner, name, recording)
        return calls

    return install


@pytest.fixture
def reference_path(monkeypatch):
    """For the rest of the test, run the program without its records and
    its per-class codec, all switched off from here: crypto's _SIGNED and
    _SEALED hold nothing, so every verify and decrypt does its curve work;
    qr.rs_parity is the function its memo wraps; and canonical_bytes and
    every message class's body_bytes walk the reference isinstance chain
    of tests/test_entities.py, which keeps no encoding. Returns the names
    of the records switched off."""
    from test_entities import _reference_body_bytes, reference_canonical_bytes
    from visualauth import crypto, entities, qr

    for name in ("_SIGNED", "_SEALED"):
        monkeypatch.setattr(crypto, name, collections.deque(maxlen=0))
    monkeypatch.setattr(qr, "rs_parity", qr.rs_parity.__wrapped__)
    monkeypatch.setattr(entities, "_ENCODERS", collections.defaultdict(lambda: reference_canonical_bytes))
    for cls in entities.MESSAGES.values():
        monkeypatch.setattr(cls, "body_bytes", _reference_body_bytes)
    return ("_SIGNED", "_SEALED", "rs_parity")
