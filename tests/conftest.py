"""The one way a test records or counts the calls a layer makes: spy."""

from __future__ import annotations

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
