"""The sweeps of tests/sweeps.py: every case of every alphabet fails
closed, each alphabet keeps its pinned size, the injection and drop
alphabets their pinned verdicts, and each clause of the invariant can fail."""

from __future__ import annotations

import types
import typing
from dataclasses import replace

import pytest

import sweeps
from visualauth import entities
from visualauth.entities import EntityKind, Message, Plant, Rewrite
from visualauth.protocols import Outcome, Protocol, SessionConfig, SessionFlags, ShowResult, SubmitTx, TypeOtp, run_flow

# each injection alphabet's verdicts per flow (sweeps.digest): a refactor of
# the flow tables that moves any session's verdict moves its flow's digest
SERVER_SWEEP_DIGESTS = {
    Protocol.P1: "d72102f478a0923f",  # 96 sessions
    Protocol.P2: "657f2f27f729fb6c",  # 96 sessions
    Protocol.P3: "42fb00da7418a4ae",  # 96 sessions
    Protocol.TXVERIFY: "e1a217c4edb2ffd9",  # 88 sessions
    Protocol.SECUREVIEW: "5521241bb0588a08",  # 48 sessions
    Protocol.HIJACKGUARD: "43a73c2d297c416f",  # 56 sessions
}
CLIENT_SWEEP_DIGESTS = {
    Protocol.P1: "7b8b7e1076e7f87b",  # 348 sessions
    Protocol.P2: "8c2bc80a882cab2d",  # 348 sessions
    Protocol.P3: "495da240cd891a6c",  # 348 sessions
    Protocol.TXVERIFY: "c34c013174c657d9",  # 319 sessions
    Protocol.SECUREVIEW: "3fce4931d3174f35",  # 174 sessions
    Protocol.HIJACKGUARD: "ee1e2f2bd7faa8ea",  # 203 sessions
}
DIGESTS = {"server_bound": SERVER_SWEEP_DIGESTS, "client_bound": CLIENT_SWEEP_DIGESTS}
# the drop alphabet's verdicts per flow: 36 of its 54 sessions wait for the
# dropped message and end ABORTED "stalled"
DROP_SWEEP_DIGESTS = {
    Protocol.P1: "7ee356b2fd073159",  # 11 sessions, 8 stalled
    Protocol.P2: "e67e4a36bb9e7c8e",  # 11 sessions, 8 stalled
    Protocol.P3: "9738d41b5f319fcc",  # 11 sessions, 8 stalled
    Protocol.TXVERIFY: "82b07ea296b5a7d8",  # 10 sessions, 7 stalled
    Protocol.SECUREVIEW: "d6692849c767e409",  # 5 sessions, 5 stalled
    Protocol.HIJACKGUARD: "4046893b15c0a59f",  # 6 sessions, none stalled
}

# the cases of each alphabet per flow, in Protocol order
SIZES = {
    "server_bound": (96, 96, 96, 88, 48, 56),
    "client_bound": (348, 348, 348, 319, 174, 203),
    "field_type": (40, 40, 24, 32, 16, 16),  # 168
    "oversize": (11, 10, 5, 5, 6, 4),  # 41
    "drop": (11, 11, 11, 10, 5, 6),  # 54, one per SPEC row
}


def test_each_alphabet_keeps_its_size():
    for name, alphabet in sweeps.ALPHABETS.items():
        assert tuple(sum(1 for _ in alphabet(protocol)) for protocol in Protocol) == SIZES[name], name


def test_the_injected_messages_cover_the_registry():
    registered = {cls.TAG: cls.CHANNEL.receiver is EntityKind.SERVER for cls in Message.__subclasses__()}
    assert {tag for tag, to_server in registered.items() if to_server} <= {m.TAG for m in sweeps.server_bound()}
    assert {tag for tag, to_server in registered.items() if not to_server} == {m.TAG for m in sweeps.client_bound()}
    assert len(sweeps.client_bound()) == 29


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("alphabet", DIGESTS)
def test_every_injection_fails_closed(alphabet, protocol):
    # an injected login box used to make the user type the password into
    # the phone outside P3, and an injected type_credentials put it on the
    # phone directly
    ended = [(case, sweeps.check(case)) for case in sweeps.ALPHABETS[alphabet](protocol)]
    assert sweeps.digest(ended) == DIGESTS[alphabet][protocol]


@pytest.mark.parametrize("protocol", list(Protocol))
def test_every_drop_fails_closed(protocol):
    # a party that waits for a dropped message leaves the queue empty with
    # no verdict, which run_flow turns into ABORTED "stalled"
    ended = [(case, sweeps.check(case)) for case in sweeps.drops(protocol)]
    assert sweeps.digest(ended) == DROP_SWEEP_DIGESTS[protocol]


# Before field types were checked at delivery, 29 of the sweep's then 180
# sessions raised, across these 16 fields, instead of ending in a verdict
RAISED_BEFORE_FIELD_CHECKS = {
    "login_request.user_id", "show_layout.layout", "echo_clicks.positions", "show_result.ok",
    "show_otp.otp", "echo_masked_credentials.masked", "submit_ciphertext.blob", "show_tx_page.tx",
    "show_verified_tx.sig_valid", "show_verified_tx.fresh", "forward_confirm.ok", "show_fields.values",
    "show_fields.failures", "submit_tx.tx", "side_copy.tx", "side_copy.signature",
}


def _declares(cls, name, value) -> bool:
    """Whether the annotation of cls.name admits value, read through typing
    rather than through the checks register_message made: the probe values
    match a plain class exactly, or one member of X | None."""
    hint = typing.get_type_hints(cls)[name]
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    return type(value) is hint or (union and type(value) in typing.get_args(hint))


class TestFieldTypeSweep:
    """Party.receive is the one refusal point for a field of the wrong type."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_every_rewritten_field_ends_in_a_verdict(self, monkeypatch, protocol):
        emitted = sweeps.verdicts_at_sends(monkeypatch)
        for case in sweeps.field_type(protocol):
            emitted.clear()
            session = sweeps.check(case)
            tag, name, value = case.where
            late = [(verdict, reason) for _, verdict, reason in session.late_verdicts]
            malformed = (Outcome.ABORTED, f"{tag}_malformed")
            if _declares(entities.MESSAGES[tag], name, value):
                assert malformed not in [(session.outcome, session.abort_reason), *late], case.where
            elif tag == "show_result":
                # the server's verdict stood before the terminal told the user
                assert session.outcome is not Outcome.ABORTED and malformed in late, case.where
            else:
                # refused before any handler: nothing is sent after the
                # abort, so no confirmation is signed, and nothing executes,
                # comes late or fails to show
                assert Outcome.ABORTED not in emitted, case.where
                ended = (session.outcome, session.abort_reason, session.late_verdicts, session.view_failures)
                assert ended == (*malformed, [], ()) and session.executed_tx is None, case.where
                # and before any capture, so damage up to the budget heals
                damaged = sweeps.check(case._replace(config=replace(case.config, corrupt_codewords="budget")))
                again = (damaged.outcome, damaged.abort_reason, damaged.late_verdicts, damaged.view_failures)
                assert again == ended and damaged.executed_tx is None, case.where

    def test_without_the_checks_a_wrong_type_raises_or_is_kept(self, monkeypatch):
        # positive control: with every class's checks accepting anything, a
        # wrong type reaches its receiver, whose handler raises on it or
        # which keeps a message that fails the check it was spared
        checks = {cls: dict(cls.CHECKS) for cls in entities.MESSAGES.values()}
        for cls in checks:
            monkeypatch.setattr(cls, "CHECKS", ())
        reached = set()
        for case in (case for protocol in Protocol for case in sweeps.field_type(protocol)):
            tag, name, _ = case.where
            cls = entities.MESSAGES[tag]
            try:
                session = sweeps.run(case)
            except Exception:  # the control counts what raised
                reached.add(f"{tag}.{name}")
                continue
            kept = session.entities[cls.CHANNEL.receiver].state.get(tag)
            if kept is not None and not checks[cls][name](getattr(kept, name)):
                reached.add(f"{tag}.{name}")
        assert reached >= RAISED_BEFORE_FIELD_CHECKS


OVERSIZE_FIELDS = [(protocol, cls.TAG, name) for protocol in Protocol for cls, name in sweeps.oversizable(protocol)]


@pytest.mark.parametrize(
    "protocol, tag, name", OVERSIZE_FIELDS, ids=[f"{p.value}-{tag}.{name}" for p, tag, name in OVERSIZE_FIELDS]
)
def test_an_oversized_field_ends_in_a_verdict(protocol, tag, name):
    # a value too large for a frame, or for CPython's int-to-str limit
    (case,) = [case for case in sweeps.oversize(protocol) if case.where[:2] == (tag, name)]
    session = sweeps.check(case)
    # the rewrite fired and was taken as well formed, so its value reached a handler
    assert case.where[2] in [getattr(m, name) for m in session.transcript if m.TAG == tag]
    assert (session.outcome, session.abort_reason) != (Outcome.ABORTED, f"{tag}_malformed")


def _doctored(protocol, **attributes):
    """A fresh honest session of protocol, with attributes set after its run."""
    session = run_flow(SessionConfig(protocol=protocol, seed=3)).session
    vars(session).update(attributes)
    return session


def _raise(message):
    raise RuntimeError("a handler bug")


P1, P2 = (SessionConfig(protocol=protocol, seed=3) for protocol in (Protocol.P1, Protocol.P2))
GUARD_OFF = SessionConfig(protocol=Protocol.HIJACKGUARD, seed=3, flags=SessionFlags(hijack_guard=False))

# for each clause of the invariant, a case or session that breaks it, keyed
# by the text its failure reads; with the guard off an attacker's
# transaction executes, as conceded
BROKEN = {
    "raised RuntimeError": lambda: sweeps.check(sweeps.Case((), P1, (Rewrite(EntityKind.USER, "type_id", _raise),))),
    "no verdict": lambda: sweeps.fails_closed(_doctored(Protocol.P1, outcome=None)),
    "TXVERIFY authenticated": lambda: sweeps.fails_closed(_doctored(Protocol.TXVERIFY, outcome=Outcome.AUTHENTICATED)),
    "executed": lambda: sweeps.check(sweeps.injected(GUARD_OFF, SubmitTx(tx=sweeps.EVIL))),
    "abort reason on": lambda: sweeps.fails_closed(_doctored(Protocol.P1, abort_reason="stalled")),
    "export or scan raised": lambda: sweeps.fails_closed(_doctored(Protocol.P1, transcript=[ShowResult(ok=object())])),
    "secrecy violations": lambda: sweeps.check(
        sweeps.Case((), P2, (Plant(EntityKind.TERMINAL, {"type_otp": TypeOtp("data")}),))
    ),
}


@pytest.mark.parametrize("clause", BROKEN)
def test_each_clause_of_the_invariant_can_fail(clause):
    with pytest.raises(AssertionError, match=clause):
        BROKEN[clause]()
