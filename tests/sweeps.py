"""The fail-closed sweeps: one case generator and one invariant.

A case is one flow run under a tuple of attacker actions. An alphabet
yields the cases of one flow from one of three generators: ``injections``,
from (flow, delivery point, message), ``rewrites``, from (flow, ``SPEC``
row, field, value class), and ``drops``, from (flow, ``SPEC`` row).
``ALPHABETS`` holds the five alphabets, and ``check`` runs a case and
asserts the one invariant, ``fails_closed``, on every alphabet alike. To
add an alphabet, write a function from a flow to the cases one generator
yields, add it to ``ALPHABETS`` and pin its size per flow in
``tests/test_sweeps.py``. ``deliveries`` is the sweep that runs no
session: (flow, party phase, message), each delivered straight to a party.
Every honest message a sweep starts from comes from one seeded source,
``samples``. Nothing here runs a session or any crypto at import.
"""

from __future__ import annotations

import functools
import hashlib
import types
import typing
from dataclasses import replace

from visualauth import crypto, entities, protocols
from visualauth.crypto import Role
from visualauth.entities import Drop, EntityKind, Inject, Rewrite, export_transcript, secrecy_violations
from visualauth.protocols import (
    AUTH_PROTOCOLS,
    DEFAULT_TX,
    SPEC,
    ConnectRequest,
    ForwardConfirm,
    LoginRequest,
    Outcome,
    Protocol,
    SessionConfig,
    SideCopy,
    SubmitCiphertext,
    SubmitOtp,
    SubmitPositions,
    SubmitTx,
    Transaction,
    canonical_tx_bytes,
)

INJECTED_AT, REWRITTEN_AT = 185, 3  # the seeds of the injection and of the rewrite and drop alphabets
TWO_USERS = (("alice", "data"), ("bob", "b0b5"))
EVIL = Transaction(receiver_account="ACCT-0666", amount=999900, receiver_name="mule household")


@functools.cache
def honest(protocol: Protocol, seed: int) -> tuple:
    """The messages protocol's honest run at seed delivers, in order."""
    return tuple(protocols.run_flow(SessionConfig(protocol=protocol, seed=seed)).session.transcript)


def samples(seed: int, flows=tuple(Protocol)) -> dict:
    """The first message of each tag the honest runs of flows at seed deliver."""
    found = {}
    for protocol in flows:
        for message in honest(protocol, seed):
            found.setdefault(message.TAG, message)
    return found


@functools.cache
def server_bound() -> tuple:
    """One of each message the server takes in some flow, as an attacker guesses it."""
    stranger = crypto.generate_keypair(Role.USER, seed=186)
    return (
        LoginRequest(user_id="alice", protocol="P1"),
        SubmitPositions(positions=(0, 1, 2, 3)),
        SubmitOtp(otp="guess"),
        ConnectRequest(),
        SubmitCiphertext(blob=b"garbage"),
        SubmitTx(tx=EVIL),
        ForwardConfirm(ok=True),
        SideCopy(tx=EVIL, signature=crypto.sign(stranger, canonical_tx_bytes(EVIL))),
    )


def client_bound() -> list:
    """One honest sample of each message a client takes."""
    return [m for m in samples(INJECTED_AT).values() if m.CHANNEL.receiver is not EntityKind.SERVER]


class Case(typing.NamedTuple):
    """config run under actions, on the store provisioned at its seed for
    users; where names what the case changes."""

    where: tuple
    config: SessionConfig
    actions: tuple
    users: tuple = (("alice", "data"),)


def run(case: Case):
    store = protocols.CredentialStore.provision(case.config.seed, users=case.users)
    return protocols.run_flow(case.config, store, case.actions).session


def deliveries(protocol: Protocol):
    """(party, phase, message, reason): each message bound to a party of
    protocol, delivered straight to it in each phase (and "done") whose rows
    lack its tag, or with every field of the wrong type in each phase that
    takes it, and the abort reason it must end in."""
    for party, flow in protocols.FLOWS[protocol].items():
        known = {tag for rows in flow.values() for tag in rows}
        for message in (*server_bound(), *client_bound()):
            if message.CHANNEL.receiver is not party:
                continue
            tag = message.TAG
            for phase in (*flow, "done"):
                if tag not in flow.get(phase, {}):
                    yield party, phase, message, f"{tag}_{'out_of_order' if tag in known else 'out_of_protocol'}"
                elif message.FIELDS:
                    yield party, phase, replace(message, **dict.fromkeys(message.FIELDS, [])), f"{tag}_malformed"


def injected(config: SessionConfig, message, at: int = 0) -> Case:
    """message injected at delivery at, on the channel its class declares
    (0: before the user begins), on a store that also provisions bob."""
    return Case((message.TAG, at), config, (Inject(message, at),), TWO_USERS)


def injections(protocol: Protocol, messages):
    """(flow, delivery point, message): each message at each delivery point
    of protocol's honest run."""
    config = SessionConfig(protocol=protocol, seed=INJECTED_AT)
    for message in messages:
        for at in range(len(honest(protocol, INJECTED_AT)) + 1):
            yield injected(config, message, at)


def rewrites(protocol: Protocol, values):
    """(flow, SPEC row, field, value class): each field of each class in
    protocol's rows, rewritten by its sender to each of values(cls, name)."""
    config = SessionConfig(protocol=protocol, seed=REWRITTEN_AT)
    for cls, *_ in SPEC[protocol]:
        for name in cls.FIELDS:
            for value in values(cls, name):
                yield Case((cls.TAG, name, value), config, (Rewrite(cls.CHANNEL.sender, cls.TAG, {name: value}),))


def drops(protocol: Protocol):
    """(flow, SPEC row): the message of each of protocol's rows, dropped by
    its sender."""
    config = SessionConfig(protocol=protocol, seed=REWRITTEN_AT)
    for cls, *_ in SPEC[protocol]:
        yield Case((cls.TAG,), config, (Drop(cls.CHANNEL.sender, cls.TAG),))


# the field-type values: one list, which no field declares, and one value
# each for the optional, str and int fields
PROBE_VALUES = ([], None, "x", 7)


def field_type(protocol: Protocol):
    """Each field of each message a terminal or phone sends, set to each
    probe value."""
    clients = (EntityKind.TERMINAL, EntityKind.SMARTPHONE)
    return rewrites(protocol, lambda cls, name: PROBE_VALUES if cls.CHANNEL.sender in clients else ())


# the oversized value of each field type: a 3,000-char str or bytes, a
# 5,000-digit int (past CPython's int-to-str digit limit), a 3,000-element
# tuple of the honest items and the default transaction with a 400-character name
OVERSIZED_LEN = 3000
OVERSIZED = {
    str: "x" * OVERSIZED_LEN,
    bytes: b"x" * OVERSIZED_LEN,
    int: 10**4999,
    Transaction: replace(DEFAULT_TX, receiver_name="x" * 400),
}


def oversized(cls, name, honest_value=()):
    """The oversized value of cls.name, built from its honest value; None
    for a type left alone (bool, a frame, a layout, a signature). A tuple
    repeats the honest items, or "x" where there are none."""
    hint = typing.get_type_hints(cls)[name]
    if typing.get_origin(hint) is tuple:
        return ((honest_value or ("x",)) * OVERSIZED_LEN)[:OVERSIZED_LEN]
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return OVERSIZED.get(hint)


def oversizable(protocol: Protocol) -> list:
    """(class, field) for each field of protocol's rows that has an
    oversized value, read off the type hints: no session runs."""
    return [(cls, name) for cls, *_ in SPEC[protocol] for name in cls.FIELDS if oversized(cls, name) is not None]


def oversize(protocol: Protocol):
    """Each field oversizable(protocol) names, set to its oversized value."""
    sample = samples(REWRITTEN_AT, (protocol,))

    def values(cls, name):
        value = oversized(cls, name, getattr(sample[cls.TAG], name))
        return () if value is None else (value,)

    return rewrites(protocol, values)


ALPHABETS = {
    "server_bound": lambda protocol: injections(protocol, server_bound()),
    "client_bound": lambda protocol: injections(protocol, client_bound()),
    "field_type": field_type,
    "oversize": oversize,
    "drop": drops,
}


def check(case: Case):
    """Run case and assert that it fails closed; a run that raises fails."""
    try:
        session = run(case)
    except Exception as exc:
        raise AssertionError(f"{case.where} raised {exc!r}") from exc
    return fails_closed(session, case.where)


def fails_closed(session, where=()):
    """Assert the invariant every sweep session keeps, and return session."""
    protocol, outcome = session.config.protocol, session.outcome
    assert outcome is not None, f"{where}: no verdict"
    authenticates = protocol in AUTH_PROTOCOLS
    assert outcome is not Outcome.AUTHENTICATED or authenticates, f"{where}: {protocol.value} authenticated"
    assert session.executed_tx in (None, DEFAULT_TX), f"{where}: executed {session.executed_tx}"
    assert session.abort_reason is None or outcome is Outcome.ABORTED, f"{where}: abort reason on {outcome}"
    try:
        export_transcript(session)
        violations = secrecy_violations(session)
    except Exception as exc:
        raise AssertionError(f"{where}: export or scan raised {exc!r}") from exc
    assert violations == [], f"{where}: secrecy violations {violations}"
    return session


def verdicts_at_sends(monkeypatch) -> list:
    """A list that gains, at each send of every session run while
    monkeypatch holds, the verdict that session stands at then: the
    session's outcome at the Session.inject call, which its arguments do
    not hold, so conftest's spy cannot record it."""
    standing = []
    queue = entities.Session.inject
    monkeypatch.setattr(entities.Session, "inject", lambda s, m: standing.append(s.outcome) or queue(s, m))
    return standing


def digest(ended) -> str:
    """The verdicts of ended, a list of (case, session) pairs, hashed in
    order: a change to any session's outcome, abort reason, retryability or
    late verdicts moves it."""
    verdicts = [
        (*case.where, session.outcome.value, session.abort_reason, session.abort_retryable,
         tuple((step, outcome.value, reason) for step, outcome, reason in session.late_verdicts))
        for case, session in ended
    ]
    return hashlib.sha256(repr(verdicts).encode("utf-8")).hexdigest()[:16]
