"""Session fabric: channels, delivery, transcripts, snapshots, scanning."""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import struct
import typing  # read by an annotation TestRegistration evaluates in this module
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import ClassVar

import pytest

import sweeps
from visualauth import crypto, entities, qr
from visualauth.adversary import ATTACKS, EVIL_TX, run_attack, run_matrix
from visualauth.entities import (
    ACTIONS,
    MAX_DELIVERIES,
    TOPOLOGY,
    ChannelKind,
    Drop,
    Entity,
    EntityKind,
    Inject,
    LivenessError,
    Message,
    Plant,
    ProtocolViolation,
    Rewrite,
    SecretKind,
    SecretSighting,
    Session,
    canonical_bytes,
    deliver,
    export_transcript,
    scan_states_for_secrets,
    register_message,
    register_state,
    secrecy_violations,
)
from visualauth.harness import Report, machine_records, run_scenarios
from visualauth.protocols import (
    DEFAULT_TX,
    SECRET_HOLDERS,
    STATE,
    ConfirmOnPhone,
    CredentialStore,
    EchoClicks,
    LoginRequest,
    NonceChallenge,
    Outcome,
    Protocol,
    Server,
    SessionConfig,
    ShowOtp,
    SubmitPositions,
    Transaction,  # read by an annotation TestRegistration evaluates in this module
    TypeId,
    TypeOtp,
    build_session,
    register_secret,
    run_flow,
)


def reference_canonical_bytes(obj) -> bytes:
    """The recursive isinstance chain that canonical_bytes replaced, kept
    as the oracle for its dispatch table. The Enum test comes before bool,
    int and str, so a mixin member encodes as its value, as in the table."""
    if obj is None:
        return b"N"
    if isinstance(obj, enum.Enum):
        return reference_canonical_bytes(obj.value)
    if isinstance(obj, bool):
        return b"?" + (b"\x01" if obj else b"\x00")
    if isinstance(obj, int):
        enc = str(obj).encode()
        return b"i" + struct.pack(">I", len(enc)) + enc
    if isinstance(obj, str):
        enc = obj.encode("utf-8")
        return b"s" + struct.pack(">I", len(enc)) + enc
    if isinstance(obj, (bytes, bytearray)):
        return b"b" + struct.pack(">I", len(obj)) + bytes(obj)
    if isinstance(obj, (tuple, list)):
        parts = [reference_canonical_bytes(x) for x in obj]
        return b"l" + struct.pack(">I", len(parts)) + b"".join(parts)
    if isinstance(obj, (set, frozenset)):
        parts = sorted(reference_canonical_bytes(x) for x in obj)
        return b"e" + struct.pack(">I", len(parts)) + b"".join(parts)
    if isinstance(obj, (dict, MappingProxyType)):
        items = sorted(
            (reference_canonical_bytes(k), reference_canonical_bytes(v)) for k, v in obj.items()
        )
        return (
            b"d"
            + struct.pack(">I", len(items))
            + b"".join(k + v for k, v in items)
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__.encode()
        body = b"".join(
            reference_canonical_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
        return b"D" + struct.pack(">I", len(name)) + name + body
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _reference_body_bytes(message) -> bytes:
    return b"".join(
        reference_canonical_bytes(getattr(message, f.name)) for f in dataclasses.fields(message)
    )


class TestCanonicalBytes:
    def test_scalars(self):
        assert canonical_bytes(None) == b"N"
        assert canonical_bytes(True) == b"?\x01"
        assert canonical_bytes(False) == b"?\x00"
        assert canonical_bytes(7)[:1] == b"i"
        assert canonical_bytes("hi")[:1] == b"s"
        assert canonical_bytes(b"hi")[:1] == b"b"
        with pytest.raises(TypeError, match="cannot canonicalize float"):
            canonical_bytes(2.5)

    def test_an_int_past_the_digit_limit_is_spelled_out(self):
        # CPython refuses str() of an int of more than 4,300 digits; the
        # encoding spells every int in decimal, so one within the limit
        # keeps the bytes it always had
        for value in (0, -7, 10**4299, -(10**4299)):
            assert canonical_bytes(value) == reference_canonical_bytes(value)
        for sign, exponent in ((1, 5000), (-1, 4300)):
            digits = ("-" if sign < 0 else "") + "1" + "0" * exponent
            enc = digits.encode()
            assert canonical_bytes(sign * 10**exponent) == b"i" + struct.pack(">I", len(enc)) + enc

    def test_type_tags_disambiguate(self):
        # int 1, str "1", bytes b"1", True: all distinct encodings
        values = [1, "1", b"1", True]
        encodings = {canonical_bytes(v) for v in values}
        assert len(encodings) == len(values)

    def test_dict_order_independence(self):
        a = canonical_bytes({"x": 1, "y": 2})
        b = canonical_bytes({"y": 2, "x": 1})
        assert a == b

    def test_set_order_independence(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})

    def test_nested_containers(self):
        obj = {"k": [1, (2, 3), {"m": b"x"}], "s": {4, 5}}
        assert canonical_bytes(obj) == canonical_bytes(obj)

    def test_enums_encode_as_their_values(self):
        class Color(enum.Enum):
            RED = "red"

        assert canonical_bytes(Color.RED) == canonical_bytes("red")

    def test_dataclasses_carry_their_type_name(self):
        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        assert canonical_bytes(A(1)) != canonical_bytes(B(1))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())


class StrColor(str, enum.Enum):
    RED = "red"


class IntLevel(int, enum.Enum):
    LOW = 1


class Shouty(int):
    def __str__(self):
        return "many"


class Label(str):
    pass


class Bag(dict):
    pass


# two dataclasses named Key: the short one's encoding is a prefix of the long one's
ShortKey = dataclasses.make_dataclass("Key", [("a", int)], frozen=True)
LongKey = dataclasses.make_dataclass("Key", [("a", int), ("b", int)], frozen=True)


@dataclass
class Box:
    x: int


class TestEncoderOracle:
    """canonical_bytes against the isinstance chain it replaced."""

    HAND_BUILT = [
        None, 1, True, False, 10**30, "", "é", b"", bytearray(b"ab"),
        StrColor.RED, IntLevel.LOW, Shouty(3), Label("red"), Bag(x=1, y=[2]),
        [1, 2], (1, 2), {1, 2}, frozenset({1, 2}), {ShortKey(1): "s", LongKey(1, 2): 0},
        MappingProxyType({"u": ("pw", b"pk"), LongKey(1, 2): None}),
    ]
    # a float or a dataclass that is not frozen, anywhere inside: no encoding
    REFUSED = [1.0, -0.0, {"nested": [(ShortKey(2), {b"k": {3.5}})]}, Box(7), [Box(8), None]]

    @pytest.mark.parametrize("value", HAND_BUILT + REFUSED, ids=repr)
    def test_hand_built_values_match_the_reference(self, value):
        if any(value is refused for refused in self.REFUSED):
            with pytest.raises(TypeError, match="cannot canonicalize (float|Box)"):
                canonical_bytes(value)
        else:
            assert canonical_bytes(value) == reference_canonical_bytes(value)

    def test_enums_and_subclasses_resolve_like_the_chain(self):
        assert canonical_bytes(StrColor.RED) == canonical_bytes("red")
        # an int-mixin enum is an enum first: its value, not str() of the member
        assert canonical_bytes(IntLevel.LOW) == canonical_bytes(1)
        assert canonical_bytes(Shouty(3)) == canonical_bytes(0)[:1] + canonical_bytes("many")[1:]
        assert canonical_bytes(Label("red")) == canonical_bytes("red")
        assert canonical_bytes(Bag(x=1)) == canonical_bytes({"x": 1})
        assert canonical_bytes([1, 2]) == canonical_bytes((1, 2))
        assert canonical_bytes({1, 2}) == canonical_bytes(frozenset({1, 2}))

    def test_dict_sorts_pairs_not_concatenations(self):
        short, long = ShortKey(1), LongKey(1, 2)
        assert canonical_bytes(long).startswith(canonical_bytes(short))
        expected = (
            b"d" + struct.pack(">I", 2)
            + canonical_bytes(short) + canonical_bytes("s")
            + canonical_bytes(long) + canonical_bytes(0)
        )
        assert canonical_bytes({long: 0, short: "s"}) == expected

    def test_mutable_dataclass_is_encoded_as_it_is_now(self):
        # a dataclass that may change after it is recorded has no encoding:
        # every dataclass encoding is kept by its instance
        with pytest.raises(TypeError, match="cannot canonicalize Box"):
            canonical_bytes(Box(1))

    def test_class_objects_and_unknown_types_raise(self):
        slotted = dataclasses.make_dataclass("Slotted", [("x", int)], frozen=True, slots=True)
        for value in (Box, StrColor, object(), slotted(3)):
            with pytest.raises(TypeError):
                canonical_bytes(value)

    @pytest.mark.parametrize("protocol", list(Protocol), ids=str)
    def test_every_rewritten_message_matches_the_reference(self, protocol):
        # a refused message is still delivered and exported, so a field of
        # the wrong type must encode as what it holds
        for case in sweeps.field_type(protocol):
            tag, name, value = case.where
            transcript = sweeps.run(case).transcript
            assert any(m.TAG == tag and getattr(m, name) is value for m in transcript), case.where
            for message in transcript:
                assert message.body_bytes() == _reference_body_bytes(message), case.where
                assert message.digest() == _reference_digest(message), case.where

    @staticmethod
    def _every_session(runs):
        """Transcripts and snapshots of all six flows at seeds 0-2 and of
        every session a one-trial matrix runs, plus its records; runs is a
        spy on Session.run."""
        start = len(runs)
        for protocol in Protocol:
            for seed in (0, 1, 2):
                run_flow(SessionConfig(protocol=protocol, seed=seed))
        records = machine_records(Report(matrix=run_matrix(2026, trials=1)))
        outputs = [
            (export_transcript(s), {kind: e.snapshots for kind, e in s.entities.items()})
            for s in (call.args[0] for call in runs[start:])
        ]
        return outputs, records

    def test_sessions_match_the_reference(self, monkeypatch, spy):
        runs = spy(entities.Session, "run")
        outputs, records = self._every_session(runs)
        with monkeypatch.context() as patch:
            patch.setattr(entities, "canonical_bytes", reference_canonical_bytes)
            for cls in entities.MESSAGES.values():
                patch.setattr(cls, "body_bytes", _reference_body_bytes)
            reference, reference_records = self._every_session(runs)
        # 18 flow sessions; the matrix's 3 observed sessions, 5 follow-ups
        # (one per distinct loot) and 2 alteration runs (one per malware locus)
        assert len(outputs) == 18 + 3 + 5 + 2
        assert outputs == reference
        assert records == reference_records


def _reference_digest(message) -> str:
    body = _reference_body_bytes(message)
    tag_byte = list(entities.MESSAGES).index(message.TAG) + 1
    wire = bytes([tag_byte]) + struct.pack(">I", len(body)) + body
    return hashlib.sha256(wire).hexdigest()[:16]


class TestEncodedOnce:
    """A frozen dataclass instance keeps its first encoding; every digest
    and snapshot must still equal what the reference encoder computes."""

    def test_digests_and_snapshots_match_the_reference(self, monkeypatch):
        recorded: dict[Entity, list[tuple[int, bytes]]] = {}
        take_snapshot = Entity.take_snapshot

        def recording_take_snapshot(self, step):
            recorded.setdefault(self, []).append((step, reference_canonical_bytes(self.state)))
            take_snapshot(self, step)

        sessions = []
        with monkeypatch.context() as patch:
            patch.setattr(Entity, "take_snapshot", recording_take_snapshot)
            for protocol in Protocol:
                for seed in (0, 1, 2):
                    sessions.append(run_flow(SessionConfig(protocol=protocol, seed=seed)).session)
        for session in sessions:
            assert [m.body_bytes() for m in session.transcript] == list(map(_reference_body_bytes, session.transcript))
            reference = [_reference_digest(m) for m in session.transcript]
            assert [m.digest() for m in session.transcript] == reference
            assert [m.digest() for m in session.transcript] == reference  # kept encodings
        assert len(recorded) == 6 * 3 * 4
        for entity, snapshots in recorded.items():
            assert entity.snapshots == snapshots, entity.kind

    def test_a_replaced_value_encodes_its_own_fields(self):
        session = run_flow(SessionConfig(protocol=Protocol.P1, seed=0)).session
        frame = session.frame_log[0][2]
        first = canonical_bytes(frame)
        assert first == reference_canonical_bytes(frame)
        rebuilt = dataclasses.replace(frame, codewords=bytes(len(frame.codewords)))
        assert canonical_bytes(rebuilt) == reference_canonical_bytes(rebuilt) != first
        assert canonical_bytes(frame) == first
        moved = dataclasses.replace(DEFAULT_TX, amount=DEFAULT_TX.amount + 1)
        assert canonical_bytes(DEFAULT_TX) != canonical_bytes(moved)
        assert canonical_bytes(moved) == reference_canonical_bytes(moved)

    @staticmethod
    def _encodings_of(monkeypatch, kind: type, values) -> list:
        """Route the encoder of kind through a counter of the values given."""
        seen = []
        encode = entities._ENCODERS[kind]

        def counting(obj):
            if any(obj is value for value in values):
                seen.append(obj)
            return encode(obj)

        monkeypatch.setitem(entities._ENCODERS, kind, counting)
        return seen

    @pytest.mark.parametrize(
        "protocol", [Protocol.P1, Protocol.P2, Protocol.TXVERIFY], ids=str
    )
    def test_a_frame_is_encoded_once(self, monkeypatch, protocol):
        # the challenge frame rides in the server's message and in the
        # terminal's show_frame, and the snapshots see it too
        session = run_flow(SessionConfig(protocol=protocol, seed=0)).session
        (frame,) = [f for _, _, f in session.frame_log]
        carriers = [m for m in session.transcript if frame in vars(m).values()]
        assert len(carriers) == 2
        seen = self._encodings_of(monkeypatch, bytes, [frame.codewords])
        export_transcript(session)
        for entity in session.entities.values():
            entity.snapshots  # reading encodes every recorded state
        assert len(seen) == 1

    @pytest.mark.parametrize("protocol", [Protocol.TXVERIFY, Protocol.HIJACKGUARD], ids=str)
    def test_a_transaction_is_encoded_once(self, monkeypatch, protocol):
        monkeypatch.delitem(vars(DEFAULT_TX), entities._MEMO, raising=False)
        seen = self._encodings_of(monkeypatch, str, [DEFAULT_TX.receiver_account])
        session = run_flow(SessionConfig(protocol=protocol, seed=0)).session
        export_transcript(session)
        carriers = [m for m in session.transcript if DEFAULT_TX in vars(m).values()]
        assert len(carriers) >= 3
        assert len(seen) == 1


GOLDEN_SCENARIOS = Path(__file__).resolve().parent / "golden" / "scenarios.cfg"


class TestLazyRecords:
    """Snapshots are encoded on first read and digests when read; both must
    equal what encoding at record time gave."""

    def test_reads_match_encoding_at_record_time(self, monkeypatch):
        eager_snapshots: dict[Entity, list[tuple[int, bytes]]] = {}
        eager_digests: dict[Session, list[str]] = {}
        take_snapshot, deliver_ = Entity.take_snapshot, entities.deliver

        def eager_take_snapshot(self, step):
            eager_snapshots.setdefault(self, []).append((step, canonical_bytes(self.state)))
            take_snapshot(self, step)

        def eager_deliver(session, message):
            hash(message)  # raises on a mutable field anywhere inside
            digest = message.digest()
            steps = len(session.transcript)
            try:
                deliver_(session, message)
            finally:
                if len(session.transcript) > steps:
                    eager_digests.setdefault(session, []).append(digest)

        with monkeypatch.context() as patch:
            patch.setattr(Entity, "take_snapshot", eager_take_snapshot)
            patch.setattr(entities, "deliver", eager_deliver)
            for protocol in Protocol:
                for seed in range(5):
                    run_flow(SessionConfig(protocol=protocol, seed=seed))
            run_matrix(2026, trials=2)
            run_scenarios(str(GOLDEN_SCENARIOS))
        # 30 flow sessions; the matrix's 6 observed sessions, 10 follow-ups and
        # 2 alteration runs; the scenarios' 22 sessions, plus 2 follow-ups
        # and the one alteration run of the two malware-phone-p2 trials
        assert len(eager_digests) == 30 + (6 + 10 + 2) + (22 + 2 + 1)
        # one snapshot per delivery, and one at step 0 per party a Plant changed
        planted = sum(len({a.party for a in s.actions if type(a) is Plant}) for s in eager_digests)
        assert sum(step == 0 for recorded in eager_snapshots.values() for step, _ in recorded) == planted > 0
        assert sum(map(len, eager_snapshots.values())) == sum(map(len, eager_digests.values())) + planted
        for entity, recorded in eager_snapshots.items():
            assert entity.snapshots == recorded, entity.kind
        for session, digests in eager_digests.items():
            assert [m.digest() for m in session.transcript] == digests

    FROZEN = [
        None, True, 3, "s", b"b", ("t", 1), frozenset({1}), MappingProxyType({"k": 1}),
        EntityKind.USER, StrColor.RED, ShortKey(1),
    ]

    @pytest.mark.parametrize("value", FROZEN, ids=repr)
    def test_immutable_values_are_recorded(self, value, monkeypatch):
        _declare(monkeypatch, type(value), "held")
        session = Session(seed=8)
        box = _StateBox(session)
        box.state["held"] = value
        box.take_snapshot(step=1)
        assert box.snapshots == [(1, canonical_bytes({"held": value}))]

    @pytest.mark.parametrize(
        "value", [[1], {"k": 1}, {1}, bytearray(b"ab"), Box(1), (bytearray(b"ab"),)], ids=repr
    )
    def test_mutable_values_are_refused(self, value, monkeypatch):
        # every hint names immutable types only, and each state is checked in
        # full, so a mutable value fails its key's check before it is encoded,
        # inside a tuple too after a tuple of bytes passed
        _declare(monkeypatch, tuple[bytes, ...], "held")
        session = Session(seed=9)
        box = _StateBox(session)
        box.state["held"] = (b"ok",)
        box.take_snapshot(step=1)
        assert box.snapshots == [(1, canonical_bytes({"held": (b"ok",)}))]
        box.state["held"] = value
        box.take_snapshot(step=2)
        with pytest.raises(TypeError, match=f"terminal's state 'held' holds a {type(value).__name__}, which its hint"):
            box.snapshots


class TestDeclaredState:
    """protocols.STATE's own keys, and the tag of every message whose channel
    ends at a party, are all it may hold. A Plant is checked when it is made
    (TestActions), a recorded state when it is first encoded."""

    def test_each_party_declares_its_own_keys_and_the_tags_that_end_at_it(self):
        assert [len(STATE[kind]) for kind in EntityKind] == [5, 0, 7, 10]
        for kind in EntityKind:
            tags = {tag for tag, cls in entities.MESSAGES.items() if cls.CHANNEL.receiver is kind}
            assert set(entities.STATE_CHECKS[kind]) == set(STATE[kind]) | tags and not tags & set(STATE[kind]), kind

    @pytest.mark.parametrize(
        "key, value, error",
        [
            ("issued_by", "acme", "the server holds state 'issued_by', which it does not declare"),
            ("attempts", "three", "the server's state 'attempts' holds a str, which its hint refuses"),
        ],
        ids=["undeclared_key", "refused_type"],
    )
    def test_a_handler_store_the_table_refuses_raises_when_its_snapshot_is_read(self, monkeypatch, key, value, error):
        issue = Server._issue_keyboard

        def issue_and_store(server):
            issue(server)
            server.state[key] = value

        monkeypatch.setattr(Server, "_issue_keyboard", issue_and_store)
        session = run_flow(SessionConfig(protocol=Protocol.P1, seed=1)).session
        with pytest.raises(TypeError, match=error):
            session.entities[EntityKind.SERVER].snapshots

    def test_a_hint_that_may_change_in_place_is_refused(self, monkeypatch):
        # register_state took every hint in STATE at import
        monkeypatch.setitem(entities.STATE_CHECKS, EntityKind.SERVER, dict(entities.STATE_CHECKS[EntityKind.SERVER]))
        loose = dataclasses.make_dataclass("Loose", [("x", int)])
        for hint in (list, tuple[list, ...], dict | None, tuple[str, bytearray], set, loose):
            with pytest.raises(TypeError, match="may change in place"):
                register_state({EntityKind.SERVER: {"held": hint}})
        register_state({EntityKind.SERVER: {"held": tuple[tuple[str, str], ...] | None}})

    def test_a_hint_with_no_encoding_is_refused(self, monkeypatch):
        # a float cannot change in place, but canonical_bytes has no encoding for it
        monkeypatch.setitem(entities.STATE_CHECKS, EntityKind.SERVER, dict(entities.STATE_CHECKS[EntityKind.SERVER]))
        for hint in (float, tuple[float, ...], complex | None, object):
            with pytest.raises(TypeError, match=r"^(float|complex|object) has no encoding$"):
                register_state({EntityKind.SERVER: {"held": hint}})


class TestRegistration:
    """register_message makes each message class a frozen dataclass itself:
    the transcript, the snapshots and the encoding memo all hold messages by
    reference. It takes the tag from the class name and a type check from
    each field's annotation. A class it refuses takes no tag."""

    @pytest.fixture(autouse=True)
    def _no_class_left_behind(self):
        yield
        gc.collect()  # the classes a test made are garbage once it returns
        assert set(Message.__subclasses__()) == set(entities.MESSAGES.values())

    def test_an_undecorated_message_subclass_is_registered_frozen(self, monkeypatch):
        monkeypatch.setattr(entities, "MESSAGES", dict(entities.MESSAGES))
        monkeypatch.setitem(entities.STATE_CHECKS, EntityKind.SERVER, dict(entities.STATE_CHECKS[EntityKind.SERVER]))
        bare = type("Bare", (Message,), {"__annotations__": {"note": "str"}})
        bare = register_message("net_up", "note")(bare)
        assert entities.MESSAGES["bare"] is bare
        kept = entities.STATE_CHECKS[EntityKind.SERVER]["bare"]  # net_up ends at the server
        assert kept(bare(note="kept")) and not kept(bare(note=7)) and not kept("kept")
        assert bare.__dict__["__dataclass_params__"].frozen
        assert bare.TAG_BYTE == bytes([len(entities.MESSAGES)])
        assert bare.LINE_PREFIX == "|network|terminal|server|bare|"
        assert (bare.TAG, bare.FIELDS, bare.LABEL) == ("bare", ("note",), "note")
        instance = bare(note="kept")
        assert instance.well_formed() and not bare(note=7).well_formed()
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.note = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.extra = "added"
        monkeypatch.undo()
        assert "bare" not in entities.MESSAGES and "bare" not in entities.STATE_CHECKS[EntityKind.SERVER]

    def test_a_message_that_is_already_a_dataclass_is_refused(self):
        @dataclass(frozen=True)
        class Twice(Message):
            TAG: ClassVar[str] = "twice"
            note: str

        with pytest.raises(TypeError, match="Twice already carries @dataclass"):
            register_message("net_up")(Twice)
        assert "twice" not in entities.MESSAGES
        assert not hasattr(Twice, "TAG_BYTE")

    def test_a_mutable_dataclass_is_refused(self):
        # no Message subclass can be a mutable dataclass, so this one is a stray
        @dataclass
        class Loose:
            TAG: ClassVar[str] = "loose"
            note: str

        with pytest.raises(TypeError, match="Loose.* is not a Message subclass"):
            register_message("net_up")(Loose)
        assert "loose" not in entities.MESSAGES
        assert not hasattr(Loose, "TAG_BYTE")

    @pytest.mark.parametrize(
        "channel, tag, error", [("net_up", "type_id", "duplicate"), ("nowhere", "lost", "unknown")]
    )
    def test_a_duplicate_tag_or_unknown_channel_is_refused(self, channel, tag, error):
        # the tag comes from the class name: TypeId takes type_id
        name = "".join(word.title() for word in tag.split("_"))
        before = dict(entities.MESSAGES)
        with pytest.raises(ValueError, match=error):
            register_message(channel)(type(name, (Message,), {}))
        assert entities.MESSAGES == before

    def test_a_class_that_states_its_own_tag_is_refused(self):
        before = dict(entities.MESSAGES)
        stated = type("Stated", (Message,), {"TAG": "stated"})
        with pytest.raises(TypeError, match="Stated states its own TAG"):
            register_message("net_up")(stated)
        assert entities.MESSAGES == before
        assert not hasattr(stated, "TAG_BYTE")

    @pytest.mark.parametrize(
        "annotation",
        ["list[int]", "dict[str, int]", "typing.Any", "Any", "Undeclared", "tuple[int, str, bytes]", "int | str"],
    )
    def test_an_annotation_it_cannot_check_is_refused(self, annotation):
        # the annotation is evaluated in this module, which imports typing
        # but neither Any nor Undeclared
        before = dict(entities.MESSAGES)
        loose = type("Loose", (Message,), {"__annotations__": {"fine": "int", "note": annotation}})
        with pytest.raises(TypeError, match="Loose.note"):
            register_message("net_up")(loose)
        assert entities.MESSAGES == before
        assert not hasattr(loose, "TAG_BYTE")

    def test_checks_follow_the_four_shapes(self, monkeypatch):
        monkeypatch.setattr(entities, "MESSAGES", dict(entities.MESSAGES))
        monkeypatch.setitem(entities.STATE_CHECKS, EntityKind.SERVER, dict(entities.STATE_CHECKS[EntityKind.SERVER]))
        annotations = {
            "flag": "bool",
            "count": "int",
            "tx": "Transaction | None",
            "positions": "tuple[int, ...]",
            "pair": "tuple[str, bytes]",
            "pairs": "tuple[tuple[str, str], ...]",
        }
        shaped = register_message("net_up")(type("Shaped", (Message,), {"__annotations__": annotations}))
        good = dict(flag=False, count=0, tx=None, positions=(), pair=("a", b"b"), pairs=(("a", "b"),))
        assert shaped(**good).well_formed()
        assert shaped(**{**good, "tx": EVIL_TX, "positions": (1, 2)}).well_formed()
        bad = {
            "flag": [0, 1, "x", None],  # bool exactly
            "count": [False, True, 1.0, "1", None],  # int exactly: a bool is no count
            "tx": ["x", 7, DEFAULT_TX.__dict__],
            "positions": [[1, 2], (1, False), (1, "2"), 5, None],  # a tuple, of ints exactly
            "pair": [("a",), ("a", b"b", b"c"), ["a", b"b"], (b"a", "b")],
            "pairs": [(("a", "b", "c"),), (("a", 1),), [("a", "b")], ("a", "b")],
        }
        for name, values in bad.items():
            for value in values:
                assert not shaped(**{**good, name: value}).well_formed(), (name, value)
        monkeypatch.undo()
        assert "shaped" not in entities.MESSAGES

    def test_a_label_defaults_to_the_tag(self):
        assert LoginRequest.LABEL == LoginRequest.TAG == "login_request"
        assert TypeId.LABEL == "typed_id"


class TestTopology:
    def test_channel_count(self):
        assert len(TOPOLOGY) == 9

    def test_displays_fan_out_per_audience(self):
        assert TOPOLOGY["terminal_display_phone"] == (
            ChannelKind.VISUAL, EntityKind.TERMINAL, EntityKind.SMARTPHONE,
        )
        assert TOPOLOGY["phone_display_user"] == (
            ChannelKind.VISUAL, EntityKind.SMARTPHONE, EntityKind.USER,
        )

    def test_cellular_side_path(self):
        kind, sender, receiver = TOPOLOGY["cellular"]
        assert kind is ChannelKind.CELLULAR_SIDE
        assert (sender, receiver) == (EntityKind.SMARTPHONE, EntityKind.SERVER)

    def test_every_channel_is_one_way(self):
        for name, (kind, sender, receiver) in TOPOLOGY.items():
            assert sender is not receiver, name


def _built_session(seed=901, protocol=Protocol.P1):
    store = CredentialStore.provision(seed)
    session = build_session(SessionConfig(protocol=protocol, seed=seed), store)
    return session


class TestChannelDiscipline:
    def test_wrong_sender_rejected(self):
        session = _built_session()
        user = session.entities[EntityKind.USER]
        # a login request travels on net_up, which belongs to the terminal
        with pytest.raises(ProtocolViolation):
            user.emit(LoginRequest(user_id="alice", protocol="P1"))

    def test_delivery_to_closed_session_rejected(self):
        session = _built_session(seed=902)
        session.entities[EntityKind.USER].begin()
        session.run()
        assert session.closed
        with pytest.raises(ProtocolViolation):
            deliver(session, TypeId(user_id="alice"))

    def test_a_party_the_session_lacks_is_refused(self):
        # a session that holds only a user has no server to take a login
        # request: deliver refuses it before the transcript records it
        class User(Entity):
            kind = EntityKind.USER

        session = Session(seed=3)
        session.add_entity(User(session))
        with pytest.raises(ProtocolViolation, match="no server in this session"):
            deliver(session, LoginRequest(user_id="alice", protocol="P1"))
        assert session.transcript == []


class TestRunLoop:
    def test_liveness_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(entities, "MAX_DELIVERIES", 3)
        session = _built_session(seed=903)
        session.entities[EntityKind.USER].begin()
        with pytest.raises(LivenessError):
            session.run()

    def test_default_budget_covers_honest_runs(self):
        result = run_flow(SessionConfig(protocol=Protocol.P1, seed=904))
        assert len(result.session.transcript) < MAX_DELIVERIES

    def test_finish_is_first_write_wins(self):
        session = _built_session()
        session.finish(Outcome.DENIED)
        session.finish(Outcome.AUTHENTICATED)
        assert session.outcome is Outcome.DENIED

    def test_idle_round_fires_once_when_queues_drain(self):
        calls = []

        class Watcher(Entity):
            kind = EntityKind.TERMINAL

            def on_idle(self):
                calls.append(self.session.step)
                self.session.finish("timed_out")

        session = Session(seed=1)
        session.add_entity(Watcher(session))
        assert session.run() == "timed_out"
        assert calls == [0]

    def test_duplicate_entity_kind_rejected(self):
        class T(Entity):
            kind = EntityKind.TERMINAL

        session = Session(seed=2)
        session.add_entity(T(session))
        with pytest.raises(ValueError):
            session.add_entity(T(session))


class TestTranscript:
    def test_same_seed_same_bytes(self):
        a = run_flow(SessionConfig(protocol=Protocol.P1, seed=905))
        b = run_flow(SessionConfig(protocol=Protocol.P1, seed=905))
        text_a = export_transcript(a.session)
        text_b = export_transcript(b.session)
        assert text_a == text_b
        assert text_a.encode() == text_b.encode()

    def test_different_seed_different_bytes(self):
        a = run_flow(SessionConfig(protocol=Protocol.P1, seed=906))
        b = run_flow(SessionConfig(protocol=Protocol.P1, seed=907))
        assert export_transcript(a.session) != export_transcript(b.session)

    def test_line_format(self):
        result = run_flow(SessionConfig(protocol=Protocol.P1, seed=908))
        for line in export_transcript(result.session).splitlines():
            step, kind, sender, receiver, tag, digest = line.split("|")
            assert step.isdigit()
            assert kind in {c.value for c in ChannelKind}
            assert sender in {e.value for e in EntityKind}
            assert receiver in {e.value for e in EntityKind}
            assert tag
            assert len(digest) == 16 and int(digest, 16) >= 0

    def test_steps_count_up_from_one(self):
        result = run_flow(SessionConfig(protocol=Protocol.P1, seed=909))
        lines = export_transcript(result.session).splitlines()
        steps = [int(line.split("|")[0]) for line in lines]
        assert steps == list(range(1, len(result.session.transcript) + 1))

    def test_snapshot_per_delivery(self):
        result = run_flow(SessionConfig(protocol=Protocol.P1, seed=910))
        per_entity = sum(
            len(entity.snapshots) for entity in result.session.entities.values()
        )
        assert per_entity == len(result.session.transcript)


class _StateBox(Entity):
    kind = EntityKind.TERMINAL


def _declare(monkeypatch, hint, *keys, party=EntityKind.TERMINAL) -> None:
    """Declare keys of party, each of type hint, for one test: a control of
    the scan or of the records, which tests them and not the table."""
    for key in keys:
        monkeypatch.setitem(entities.STATE_CHECKS[party], key, entities._field_check(hint))


class TestSecretScanner:
    @pytest.fixture(autouse=True)
    def _keys(self, monkeypatch):
        _declare(monkeypatch, bytes, "leak", "held", "x", "tmp")

    def test_sighting_outside_allowed_set_is_a_violation(self):
        session = Session(seed=3)
        box = _StateBox(session)
        session.add_entity(box)
        box.state["leak"] = b"hunter2secret"
        box.take_snapshot(step=1)
        session.register_secret(
            SecretKind.PASSWORD, b"hunter2secret", {EntityKind.SERVER}
        )
        sightings = scan_states_for_secrets(session)
        assert len(sightings) == 1
        assert sightings[0].entity is EntityKind.TERMINAL
        assert sightings[0].violation
        assert secrecy_violations(session) == sightings

    def test_sighting_inside_allowed_set_is_clean(self):
        session = Session(seed=4)
        box = _StateBox(session)
        session.add_entity(box)
        box.state["held"] = b"hunter2secret"
        box.take_snapshot(step=1)
        session.register_secret(
            SecretKind.PASSWORD, b"hunter2secret", {EntityKind.TERMINAL}
        )
        sightings = scan_states_for_secrets(session)
        assert len(sightings) == 1
        assert not sightings[0].violation
        assert secrecy_violations(session) == []

    def test_absent_secret_never_sighted(self):
        session = Session(seed=5)
        box = _StateBox(session)
        session.add_entity(box)
        box.state["x"] = b"innocuous"
        box.take_snapshot(step=1)
        session.register_secret(SecretKind.OTP, b"zzz999qq", {EntityKind.SERVER})
        assert scan_states_for_secrets(session) == []

    def test_scan_covers_history_not_just_final_state(self):
        # a secret held briefly and then deleted must still be sighted
        session = Session(seed=6)
        box = _StateBox(session)
        session.add_entity(box)
        box.state["tmp"] = b"ephemeral-secret"
        box.take_snapshot(step=1)
        del box.state["tmp"]
        box.take_snapshot(step=2)
        session.register_secret(
            SecretKind.OTP, b"ephemeral-secret", {EntityKind.SERVER}
        )
        sightings = scan_states_for_secrets(session)
        assert [s.step for s in sightings] == [1]
        assert sightings[0].violation

    @staticmethod
    def _terminal_holding(held: bytes, cover_allowed) -> list[tuple[EntityKind, SecretKind, bool]]:
        """The sightings at a terminal holding held, where the password
        hunter2 is allowed at the server only and the longer secret
        xxhunter2yy wherever cover_allowed says."""
        session = Session(seed=8)
        box = _StateBox(session)
        session.add_entity(box)
        box.state["held"] = held
        box.take_snapshot(step=1)
        session.register_secret(SecretKind.PASSWORD, b"hunter2", {EntityKind.SERVER})
        session.register_secret(SecretKind.OTP, b"xxhunter2yy", cover_allowed)
        return [(s.entity, s.kind, s.violation) for s in scan_states_for_secrets(session)]

    def test_a_secret_inside_one_the_entity_may_hold_is_no_sighting(self):
        sightings = self._terminal_holding(b"--xxhunter2yy--", {EntityKind.TERMINAL})
        assert sightings == [(EntityKind.TERMINAL, SecretKind.OTP, False)]

    def test_a_secret_inside_one_the_entity_may_not_hold_is_sighted(self):
        sightings = self._terminal_holding(b"--xxhunter2yy--", {EntityKind.SERVER})
        assert sightings == [
            (EntityKind.TERMINAL, SecretKind.PASSWORD, True),
            (EntityKind.TERMINAL, SecretKind.OTP, True),
        ]

    @pytest.mark.parametrize(
        "held",
        [b"xxhunter2yy hunter2", b"hunter2 xxhunter2yy", b"xxhunter2y", b"xhunter2yy"],
        ids=["beside_after", "beside_before", "cut_short_after", "cut_short_before"],
    )
    def test_an_occurrence_outside_the_longer_secret_is_sighted(self, held):
        # the password held apart from the longer secret, or inside a text
        # that is not all of it, is a sighting
        sightings = self._terminal_holding(held, {EntityKind.TERMINAL})
        assert (EntityKind.TERMINAL, SecretKind.PASSWORD, True) in sightings

    def test_short_probe_rejected(self):
        session = Session(seed=7)
        with pytest.raises(ValueError):
            session.register_secret(SecretKind.OTP, b"ab", {EntityKind.SERVER})


# Who may hold each secret, stated here apart from protocols.SECRET_HOLDERS,
# so that a row widened or narrowed there fails the controls below
HOLDERS = {
    SecretKind.PASSWORD: {EntityKind.USER, EntityKind.SERVER},
    SecretKind.PERMUTATION: {EntityKind.SERVER, EntityKind.SMARTPHONE, EntityKind.USER},
    SecretKind.VIEW_FIELD: {EntityKind.SERVER, EntityKind.SMARTPHONE, EntityKind.USER},
    SecretKind.OTP: set(EntityKind),
    SecretKind.CREDENTIAL_CIPHERTEXT: set(EntityKind),
    SecretKind.USER_PRIVATE_KEY: {EntityKind.SMARTPHONE},
    SecretKind.SERVER_PRIVATE_KEY: {EntityKind.SERVER},
}
NON_HOLDER_PAIRS = [(kind, party) for kind in HOLDERS for party in EntityKind if party not in HOLDERS[kind]]
HOLDER_PAIRS = [(kind, party) for kind in HOLDERS for party in EntityKind if party in HOLDERS[kind]]

# Where a control plants each form at each party: under a declared key, or as
# a kept message of a tag the party never takes in P1, so that nothing in P1
# reads or overwrites it. Only TXVERIFY reads session_nonce, and only P3 the
# phone's server_name and the server's name. The user has no bytes key and
# takes no bytes field, and no terminal key holds a layout object, so a form
# with no home here goes under a key the control declares for itself.
PLANT_HOMES = {
    (EntityKind.USER, str): ("show_otp", lambda v: ShowOtp(otp=v)),
    (EntityKind.TERMINAL, str): ("type_otp", lambda v: TypeOtp(otp=v)),
    (EntityKind.TERMINAL, bytes): ("nonce_challenge", lambda v: NonceChallenge(qr.qr_encode(v, qr.choose_spec(v)))),
    (EntityKind.SMARTPHONE, str): ("server_name", lambda v: v),
    (EntityKind.SMARTPHONE, bytes): ("session_nonce", lambda v: v),
    (EntityKind.SERVER, str): ("name", lambda v: v),
    (EntityKind.SERVER, bytes): ("session_nonce", lambda v: v),
}


class TestSecretHolders:
    """Positive controls for the scan, driven by the holders table: a probe
    registered with its row's holders and planted at a party is a
    violation exactly where that party may not hold it."""

    @staticmethod
    def _planted(monkeypatch, party, value, probe, protocol=Protocol.P1) -> set[tuple[EntityKind, SecretKind, bool]]:
        """(entity, kind, violation) of each sighting in an honest session of
        protocol where party holds value, at its form's home in PLANT_HOMES,
        and probe(session) registered one more secret. Without the plant, an
        honest session shows no violation."""
        key, wrap = PLANT_HOMES.get((party, type(value)), ("planted", None))
        if wrap is None:
            _declare(monkeypatch, type(value), key, party=party)
        planted = Plant(party, {key: wrap(value) if wrap else value})
        session = build_session(SessionConfig(protocol=protocol, seed=31), CredentialStore.provision(31), (planted,))
        probe(session)
        session.begin()
        session.run()
        return {(s.entity, s.kind, s.violation) for s in scan_states_for_secrets(session)}

    def _violations(self, monkeypatch, kind, party, value) -> set[tuple[EntityKind, SecretKind]]:
        data = b"planted-" + kind.value.encode()
        sightings = self._planted(
            monkeypatch, party, value(data), lambda session: session.register_secret(kind, data, SECRET_HOLDERS[kind])
        )
        assert (party, kind, party not in HOLDERS[kind]) in sightings  # the plant was sighted
        return {(entity, secret) for entity, secret, violation in sightings if violation}

    def test_the_table_has_one_row_per_kind(self):
        assert set(SECRET_HOLDERS) == set(SecretKind) == set(HOLDERS)
        assert len(NON_HOLDER_PAIRS) == 10 and len(HOLDER_PAIRS) == 18

    @pytest.mark.parametrize("value", [bytes, bytes.decode], ids=["bytes", "str"])
    @pytest.mark.parametrize("kind, party", NON_HOLDER_PAIRS, ids=lambda member: member.value)
    def test_a_secret_planted_at_a_non_holder_is_flagged(self, kind, party, value, monkeypatch):
        assert self._violations(monkeypatch, kind, party, value) == {(party, kind)}

    @pytest.mark.parametrize("value", [bytes, bytes.decode], ids=["bytes", "str"])
    @pytest.mark.parametrize("kind, party", HOLDER_PAIRS, ids=lambda member: member.value)
    def test_a_secret_planted_at_a_holder_is_clean(self, kind, party, value, monkeypatch):
        assert self._violations(monkeypatch, kind, party, value) == set()

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_only_in_p3_may_the_phone_hold_the_password(self, protocol, monkeypatch):
        # protocols.register_secret widens the password's row in P3 alone;
        # the phone holds the plant, as its session_nonce, in every flow
        data = b"planted-password"
        sightings = self._planted(
            monkeypatch, EntityKind.SMARTPHONE, data,
            lambda session: register_secret(session, SecretKind.PASSWORD, data),
            protocol,
        )
        flagged = protocol is not Protocol.P3
        assert (EntityKind.SMARTPHONE, SecretKind.PASSWORD, flagged) in sightings

    def test_gap_a_layout_held_as_an_object_is_not_sighted(self, monkeypatch):
        """Today's verdict, pinned: the scan looks for the layout's bytes in
        canonical_bytes(state), which puts a length prefix on each symbol of
        a KeyboardPermutation. So a layout planted at the terminal as bytes
        or as str is flagged, but planted as the object it is never sighted.
        ROADMAP item 1's scan of normalized leaves flips the last check."""
        layout = crypto.generate_permutation(5)
        data = layout.serialize()

        def sighted_at_the_terminal(value) -> bool:
            sightings = self._planted(
                monkeypatch, EntityKind.TERMINAL, value,
                lambda session: register_secret(session, SecretKind.PERMUTATION, data),
            )
            return any(sighting[:2] == (EntityKind.TERMINAL, SecretKind.PERMUTATION) for sighting in sightings)

        assert sighted_at_the_terminal(data) and sighted_at_the_terminal(data.decode())
        assert not sighted_at_the_terminal(layout)


def _tags(config, *actions) -> list[str]:
    return [m.TAG for m in run_flow(config, CredentialStore.provision(config.seed), actions).session.transcript]


# an honest P1 run's deliveries; at delivery 4 (show_frame) show_keyboard
# waits in the queue, and the phone's handler then sends show_layout
P1_TAGS = [
    "type_id", "login_request", "kbd_challenge", "show_frame", "show_keyboard", "show_layout",
    "click_positions", "echo_clicks", "submit_positions", "auth_result", "show_result",
]
# a message the P1 user takes at any point, harmlessly
ECHO = EchoClicks(positions=(9, 9, 9, 9))


class TestActions:
    """An attacker acts through the session's actions, each a frozen value."""

    CONFIG = SessionConfig(protocol=Protocol.P1, seed=913)

    def test_an_honest_run_has_no_actions(self):
        assert _tags(self.CONFIG) == P1_TAGS
        assert run_flow(self.CONFIG).session.actions == ()

    def test_drop_drops_only_its_partys_tag(self):
        # the terminal's echo is lost; every other message of the run arrives
        assert _tags(self.CONFIG, Drop(EntityKind.TERMINAL, "echo_clicks")) == P1_TAGS[:7] + P1_TAGS[8:]

    def test_rewrite_replaces_the_fields_of_its_tag_alone(self):
        result = run_flow(self.CONFIG, actions=(Rewrite(EntityKind.TERMINAL, "echo_clicks", {"positions": (1,)}),))
        transcript = result.session.transcript
        assert [m.TAG for m in transcript] == P1_TAGS
        echo, clicks = (next(m for m in transcript if m.TAG == tag) for tag in ("echo_clicks", "click_positions"))
        assert echo.positions == (1,) != clicks.positions
        assert result.outcome is Outcome.AUTHENTICATED

    def test_a_rewrite_cannot_send_on_another_partys_channel(self):
        # a tap on the phone's screen travels on click_phone, the user's
        # channel; a terminal Rewrite that produces one is refused, so the
        # terminal cannot confirm a transaction in the user's name
        config = SessionConfig(protocol=Protocol.HIJACKGUARD, seed=901)
        forge = Rewrite(EntityKind.TERMINAL, "submit_tx", lambda msg: ConfirmOnPhone(tx=EVIL_TX))
        session = build_session(config, CredentialStore.provision(901), (forge,))
        session.begin()
        with pytest.raises(ProtocolViolation, match="terminal cannot send on click_phone"):
            session.run()
        assert session.executed_tx is None

    def test_two_rewrites_of_one_tag_apply_in_order(self):
        first = Rewrite(EntityKind.TERMINAL, "echo_clicks", {"positions": (1,)})
        then = Rewrite(EntityKind.TERMINAL, "echo_clicks", lambda m: dataclasses.replace(m, positions=m.positions + (2,)))
        transcript = run_flow(self.CONFIG, actions=(first, then)).session.transcript
        assert next(m for m in transcript if m.TAG == "echo_clicks").positions == (1, 2)

    def test_a_retagged_message_meets_only_the_actions_after_its_retag(self):
        # the terminal's echo goes out as a second submit_positions, ahead of
        # its own: a Drop of that tag listed after the retag drops both, one
        # listed before it drops only the terminal's own
        retag = Rewrite(EntityKind.TERMINAL, "echo_clicks", lambda m: SubmitPositions(positions=m.positions))
        drop = Drop(EntityKind.TERMINAL, "submit_positions")
        assert _tags(self.CONFIG, retag, drop) == P1_TAGS[:7]
        assert _tags(self.CONFIG, drop, retag) == P1_TAGS[:7] + P1_TAGS[8:]

    def test_another_partys_drop_never_applies(self):
        # the user's Drop of confirm_on_phone leaves the terminal's forged one
        # to the sender check
        config = SessionConfig(protocol=Protocol.HIJACKGUARD, seed=901)
        forge = Rewrite(EntityKind.TERMINAL, "submit_tx", lambda msg: ConfirmOnPhone(tx=EVIL_TX))
        session = build_session(config, CredentialStore.provision(901), (forge, Drop(EntityKind.USER, "confirm_on_phone")))
        session.begin()
        with pytest.raises(ProtocolViolation, match="terminal cannot send on click_phone"):
            session.run()

    def test_inject_at_0_goes_before_the_user_begins(self):
        assert _tags(self.CONFIG, Inject(ECHO, 0)) == ["echo_clicks", *P1_TAGS]

    @pytest.mark.parametrize("at", [4, (EntityKind.SMARTPHONE, "show_frame")], ids=["index", "party_tag"])
    def test_inject_lands_behind_the_queue_and_ahead_of_the_handler(self, at):
        # queued as delivery 4 starts: after the show_keyboard that waits,
        # before the show_layout that the phone's handler sends
        assert _tags(self.CONFIG, Inject(ECHO, at)) == [*P1_TAGS[:5], "echo_clicks", *P1_TAGS[5:]]

    def test_inject_at_a_party_and_tag_fires_the_first_time_only(self):
        config = SessionConfig(protocol=Protocol.P1, seed=115, submit_passwords=("wrongpw0", "data"), max_attempts=2)
        honest = _tags(config)
        assert honest.count("show_frame") == 2
        tags = _tags(config, Inject(ECHO, (EntityKind.SMARTPHONE, "show_frame")))
        assert tags.count("echo_clicks") == honest.count("echo_clicks") + 1

    def test_plant_is_applied_before_the_user_begins(self):
        # the user's first message already carries the planted id
        result = run_flow(self.CONFIG, actions=(Plant(EntityKind.USER, {"user_id": "mallory"}),))
        assert result.session.transcript[0] == TypeId(user_id="mallory")
        assert result.session.entities[EntityKind.USER].state["user_id"] == "mallory"

    def test_a_plant_is_recorded_before_the_party_takes_its_first_message(self):
        # the P2 terminal takes type_id at delivery 1, which replaces the
        # planted one; the step-0 snapshot still records, and the scan
        # sights, the password planted there (alice's at this seed)
        planted = Plant(EntityKind.TERMINAL, {"type_id": TypeId("data")})
        session = run_flow(SessionConfig(protocol=Protocol.P2, seed=48471), actions=(planted,)).session
        assert session.entities[EntityKind.TERMINAL].state["type_id"] == TypeId("alice")
        assert session.entities[EntityKind.TERMINAL].snapshots[0][0] == 0
        sighting = SecretSighting(EntityKind.TERMINAL, SecretKind.PASSWORD, step=0, violation=True)
        assert sighting in scan_states_for_secrets(session)
        # an honest run plants nothing and records nothing before delivery 1
        honest = run_flow(SessionConfig(protocol=Protocol.P2, seed=48471)).session
        assert honest.entities[EntityKind.TERMINAL].snapshots[0][0] == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Drop(EntityKind.USER, "echo_clicks"),  # the terminal sends it
            lambda: Rewrite(EntityKind.TERMINAL, "no_such_tag", {}),
            lambda: Inject(ECHO, (EntityKind.TERMINAL, "echo_clicks")),  # the user takes it
            lambda: Inject(ECHO, -1),
            lambda: Plant(EntityKind.SMARTPHONE, {"server_nmae": "totally-real-bank"}),  # it holds server_name
            lambda: Plant(EntityKind.USER, {"passwords": (["x"],)}),  # a list inside the tuple
            lambda: Plant(EntityKind.TERMINAL, {"type_otp": TypeOtp(otp=5)}),  # no message it takes
        ],
        ids=[
            "drop_by_a_receiver", "unknown_tag", "inject_at_a_sender", "negative_delivery",
            "plant_misspelled_key", "plant_nested_mutable", "plant_malformed_message",
        ],
    )
    def test_an_action_that_can_never_fire_is_refused(self, make):
        with pytest.raises(ValueError):
            make()

    def test_only_an_action_is_taken(self):
        with pytest.raises(TypeError, match="an action is one of Drop, Rewrite, Inject, Plant"):
            run_flow(self.CONFIG, actions=(lambda session: None,))

    def test_actions_are_frozen_comparable_values(self):
        fields = {"positions": (1,)}
        rewrite = Rewrite(EntityKind.TERMINAL, "echo_clicks", fields)
        fields["positions"] = (2,)  # the action keeps what it was given
        assert rewrite == Rewrite(EntityKind.TERMINAL, "echo_clicks", {"positions": (1,)})
        assert Plant(EntityKind.USER, {"attempt": 1}) == Plant(EntityKind.USER, {"attempt": 1})
        assert all(cls.__dataclass_params__.frozen for cls in ACTIONS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rewrite.tag = "show_result"
        with pytest.raises(TypeError):
            rewrite.fields["positions"] = (3,)


def _cyclic_garbage(run) -> int:
    """How many objects only the cyclic collector frees after run(), which
    runs with gc off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


# each a whole run whose results are dropped: the six flows, every catalogue
# row, a matrix pass and the golden scenario file
FINISHED_RUNS = {
    **{protocol.name: lambda p=protocol: run_flow(SessionConfig(protocol=p, seed=921)) for protocol in Protocol},
    **{name: lambda a=attack: run_attack(a, 922) for name, attack in ATTACKS.items()},
    "matrix": lambda: run_matrix(923, 1),
    "scenarios": lambda: run_scenarios(str(GOLDEN_SCENARIOS)),
}


class TestOwnership:
    """The session owns its parties and a party holds it weakly; no action
    holds a session. So no session is a reference cycle, and a finished
    one is freed as soon as its last caller drops it."""

    @pytest.mark.parametrize("name", FINISHED_RUNS)
    def test_finished_runs_leave_no_cyclic_garbage(self, name):
        assert _cyclic_garbage(FINISHED_RUNS[name]) == 0

    def test_a_party_that_holds_its_session_leaves_garbage(self):
        # positive control: a party given a strong reference to its session
        # makes the session a cycle, and the check above sees it
        def run():
            session = _built_session(seed=924)
            session.entities[EntityKind.TERMINAL].held = session
            session.begin()
            session.run()

        assert _cyclic_garbage(run) > 0

    def test_a_party_whose_session_is_gone_raises(self):
        result = run_flow(SessionConfig(protocol=Protocol.P2, seed=925))
        phone = result.session.entities[EntityKind.SMARTPHONE]
        assert phone.session is result.session
        del result  # the last reference: reference counting frees the session
        with pytest.raises(ReferenceError, match="smartphone's session is gone"):
            phone.session
