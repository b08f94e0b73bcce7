"""Session fabric for the four-party setting.

A session wires one user, one terminal, one smartphone, and one server
together over typed one-way channels and drives them with a
single-threaded FIFO event loop; the receiver's handler_for picks the one
handler each delivery runs. Everything observable about a run is captured
twice: a transcript of every delivery (step, channel, tag, payload digest)
and a per-entity history of serialized state snapshots.

The snapshot history exists for one reason: secrecy claims about where
plaintext secrets may live are checked by scanning it, not by trusting
the protocol code. Channels are fixed module-level declarations and
carry nothing; a message travels only on the channel its class names.
An observer watches an entity instead, through its io taps (every message
in and out) and outbound hooks (which may rewrite or drop what it sends,
but not send on another party's channel). The honest handler code cannot
tell whether it is being watched. Attackers reach a session only through
these taps and hooks, or by queueing traffic with Session.inject, all
installed before the user begins; no entity reads an attacker setting.

Both records hold references, not bytes: a delivery keeps the message
and a shallow copy of the receiver's state, and serializes neither.
canonical_bytes runs when a snapshot or a digest is first read, and the
result is cached. That gives the bytes of record time only because
nothing recorded can change: messages are frozen dataclasses, and
take_snapshot refuses a state value whose type is not immutable.
canonical_bytes dispatches through a table of one encoder per exact
type, filled the first time a type is seen; a subclass gets the encoder
of the first base it matches, in the order canonical_bytes documents.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import struct
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, ClassVar

from . import rng as rngmod
from .qr import VisualFrame

MAX_DELIVERIES = 64  # honest-run liveness budget


class ProtocolViolation(Exception):
    """An event arrived that no state machine is prepared to handle."""


class LivenessError(Exception):
    """A run exceeded the delivery budget without settling."""


class EntityKind(enum.Enum):
    USER = "user"
    TERMINAL = "terminal"
    SMARTPHONE = "smartphone"
    SERVER = "server"


class ChannelKind(enum.Enum):
    NETWORK = "network"
    VISUAL = "visual"
    CLICK = "click"
    CELLULAR_SIDE = "cellular_side"


# name -> (kind, sender, receiver); both terminal and smartphone displays
# fan out as two logical channels, one per audience.
TOPOLOGY: dict[str, tuple[ChannelKind, EntityKind, EntityKind]] = {
    "click_terminal": (ChannelKind.CLICK, EntityKind.USER, EntityKind.TERMINAL),
    "click_phone": (ChannelKind.CLICK, EntityKind.USER, EntityKind.SMARTPHONE),
    "net_up": (ChannelKind.NETWORK, EntityKind.TERMINAL, EntityKind.SERVER),
    "net_down": (ChannelKind.NETWORK, EntityKind.SERVER, EntityKind.TERMINAL),
    "terminal_display_phone": (ChannelKind.VISUAL, EntityKind.TERMINAL, EntityKind.SMARTPHONE),
    "terminal_display_user": (ChannelKind.VISUAL, EntityKind.TERMINAL, EntityKind.USER),
    "phone_display_user": (ChannelKind.VISUAL, EntityKind.SMARTPHONE, EntityKind.USER),
    "phone_display_terminal": (ChannelKind.VISUAL, EntityKind.SMARTPHONE, EntityKind.TERMINAL),
    "cellular": (ChannelKind.CELLULAR_SIDE, EntityKind.SMARTPHONE, EntityKind.SERVER),
}


@dataclass(frozen=True)
class Channel:
    name: str
    kind: ChannelKind
    sender: EntityKind
    receiver: EntityKind


CHANNELS = MappingProxyType({name: Channel(name, *spec) for name, spec in TOPOLOGY.items()})


# -------- message vocabulary --------

_TAG_BYTES: dict[str, int] = {}


def register_message(channel_name: str):
    """Bind a message class to its one legal channel and assign a wire tag.

    This is the only place a message's channel is stated: Entity.emit,
    Session.inject and deliver route by it.
    """

    def deco(cls):
        tag = cls.TAG
        if tag in _TAG_BYTES:
            raise ValueError(f"duplicate message tag {tag}")
        if channel_name not in CHANNELS:
            raise ValueError(f"unknown channel {channel_name}")
        _TAG_BYTES[tag] = len(_TAG_BYTES) + 1
        cls.CHANNEL = CHANNELS[channel_name]
        return cls

    return deco


def canonical_bytes(obj) -> bytes:
    """Stable type-tagged serialization used for digests and snapshots.

    The encoder comes from _ENCODERS, keyed by exact type. A new type is
    resolved once against _RESOLUTION, in this order: None, bool, int,
    float, str, bytes or bytearray, Enum, tuple or list, set or frozenset,
    dict or mappingproxy, and last a dataclass instance. So a str- or
    int-mixin enum member encodes as that builtin, through str() or
    .encode() on the member itself, a plain enum as its value, and a
    mappingproxy as the dict it shows. Anything else, a class object
    included, raises TypeError.
    """
    encode = _ENCODERS.get(type(obj))
    if encode is None:
        encode = _resolve_encoder(type(obj))
    return encode(obj)


_u32 = struct.Struct(">I").pack


def _encode_int(obj) -> bytes:
    enc = str(obj).encode()
    return b"i" + _u32(len(enc)) + enc


def _encode_float(obj) -> bytes:
    enc = repr(obj).encode()
    return b"f" + _u32(len(enc)) + enc


def _encode_str(obj) -> bytes:
    enc = obj.encode("utf-8")
    return b"s" + _u32(len(enc)) + enc


def _encode_bytes(obj) -> bytes:
    return b"b" + _u32(len(obj)) + bytes(obj)


def _encode_sequence(obj) -> bytes:
    return b"l" + _u32(len(obj)) + b"".join([canonical_bytes(x) for x in obj])


def _encode_set(obj) -> bytes:
    return b"e" + _u32(len(obj)) + b"".join(sorted([canonical_bytes(x) for x in obj]))


def _encode_dict(obj) -> bytes:
    # sort (key, value) pairs, never their concatenations: one key's
    # encoding may be a prefix of another's
    items = sorted([(canonical_bytes(k), canonical_bytes(v)) for k, v in obj.items()])
    return b"d" + _u32(len(items)) + b"".join([k + v for k, v in items])


_ENCODERS: dict[type, Callable[[object], bytes]] = {}

# the isinstance chain a type meets on first sight; dataclasses come last
_RESOLUTION = (
    (type(None), lambda obj: b"N"),
    (bool, lambda obj: b"?\x01" if obj else b"?\x00"),
    (int, _encode_int),
    (float, _encode_float),
    (str, _encode_str),
    ((bytes, bytearray), _encode_bytes),
    (enum.Enum, lambda obj: canonical_bytes(obj.value)),
    ((tuple, list), _encode_sequence),
    ((set, frozenset), _encode_set),
    ((dict, MappingProxyType), _encode_dict),
)


def _resolve_encoder(cls: type) -> Callable[[object], bytes]:
    for bases, encode in _RESOLUTION:
        if issubclass(cls, bases):
            break
    else:
        if not dataclasses.is_dataclass(cls) or issubclass(cls, type):
            raise TypeError(f"cannot canonicalize {cls.__name__}")
        name = cls.__name__.encode()
        header = b"D" + _u32(len(name)) + name
        body = _fields_encoder(cls)

        def encode(obj) -> bytes:
            return header + body(obj)

    _ENCODERS[cls] = encode
    return encode


@functools.cache
def _fields_encoder(cls: type) -> Callable[[object], bytes]:
    """A dataclass's field encodings, concatenated in declaration order."""
    names = tuple(f.name for f in dataclasses.fields(cls))

    def body(obj) -> bytes:
        return b"".join([canonical_bytes(getattr(obj, name)) for name in names])

    return body


@dataclass(frozen=True)
class Message:
    TAG: ClassVar[str] = ""
    CHANNEL: ClassVar[Channel]  # set by register_message

    @property
    def tag(self) -> str:
        return type(self).TAG

    def body_bytes(self) -> bytes:
        return _fields_encoder(type(self))(self)

    def wire(self) -> bytes:
        # tag byte, big-endian length, body
        body = self.body_bytes()
        return bytes([_TAG_BYTES[self.tag]]) + _u32(len(body)) + body

    def digest(self) -> str:
        return hashlib.sha256(self.wire()).hexdigest()[:16]


@dataclass(frozen=True)
class TranscriptEvent:
    """One delivery: its step and the message, held by reference.

    Channel, parties and tag come from the message's class; the digest is
    computed on first read and cached, which is sound because messages
    are frozen.
    """

    step: int
    message: Message

    @property
    def channel_kind(self) -> ChannelKind:
        return self.message.CHANNEL.kind

    @property
    def sender(self) -> EntityKind:
        return self.message.CHANNEL.sender

    @property
    def receiver(self) -> EntityKind:
        return self.message.CHANNEL.receiver

    @property
    def tag(self) -> str:
        return self.message.TAG

    @functools.cached_property
    def digest(self) -> str:
        return self.message.digest()

    def line(self) -> str:
        return (
            f"{self.step}|{self.channel_kind.value}|{self.sender.value}"
            f"|{self.receiver.value}|{self.tag}|{self.digest}"
        )


class SecretKind(enum.Enum):
    PASSWORD = "password"
    PERMUTATION = "permutation"
    OTP = "otp"
    USER_PRIVATE_KEY = "user_private_key"
    SERVER_PRIVATE_KEY = "server_private_key"
    CREDENTIAL_CIPHERTEXT = "credential_ciphertext"
    VIEW_FIELD = "view_field"


@dataclass(frozen=True)
class SecretProbe:
    kind: SecretKind
    data: bytes
    allowed: frozenset[EntityKind]


@dataclass(frozen=True)
class SecretSighting:
    entity: EntityKind
    kind: SecretKind
    step: int
    violation: bool


# the state value types a snapshot may hold by reference; a frozen
# dataclass also passes
_IMMUTABLE_BASES = (
    type(None), bool, int, float, str, bytes, tuple, frozenset, MappingProxyType, enum.Enum,
)
_IMMUTABLE: set[type] = set()  # types that passed, filled on first sight


def _check_immutable(kind: EntityKind, state: dict) -> None:
    for key, value in state.items():
        cls = type(value)
        if cls in _IMMUTABLE:
            continue
        if not (
            issubclass(cls, _IMMUTABLE_BASES)
            or (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)
        ):
            raise TypeError(
                f"{kind.value} state {key!r} holds a mutable {cls.__name__};"
                " a snapshot records state values by reference"
            )
        _IMMUTABLE.add(cls)


class Entity:
    """Base participant: a tag-dispatched state machine with a state dict.

    Each delivery runs exactly one handler, the one the subclass's
    handler_for(message) returns, then snapshots the state. The snapshot
    is a shallow copy, encoded only when snapshots is read, so a handler
    replaces a state value rather than changing it in place.
    """

    kind: ClassVar[EntityKind]

    def __init__(self, session: "Session"):
        self.session = session
        self.state: dict = {}
        self._snapshots: list[tuple[int, bytes]] = []
        self._pending: list[tuple[int, dict]] = []  # recorded, not yet encoded
        # installed by observers: hook(message) -> message or None (dropped),
        # tap(direction, message) with direction "in" or "out"
        self.outbound_hooks: list[Callable] = []
        self.io_taps: list[Callable] = []

    def emit(self, message: Message) -> None:
        """Send message on the channel its class was registered for.

        The sender is checked after the outbound hooks, so a hook cannot
        turn a message into one that travels on another party's channel.
        """
        for hook in self.outbound_hooks:
            message = hook(message)
            if message is None:
                return  # dropped in transit by the compromise
        channel = message.CHANNEL
        if channel.sender is not self.kind:
            raise ProtocolViolation(f"{self.kind.value} cannot send on {channel.name}")
        for tap in self.io_taps:
            tap("out", message)
        self.session.inject(message)

    def handle(self, message: Message) -> None:
        self.handler_for(message)(message)

    def on_idle(self) -> None:
        """Called once when the queue drains without an outcome."""

    def take_snapshot(self, step: int) -> None:
        """Record the state as of step; TypeError if a value is mutable."""
        state = dict(self.state)
        if not _IMMUTABLE.issuperset(map(type, state.values())):
            _check_immutable(self.kind, state)
        self._pending.append((step, state))

    @property
    def snapshots(self) -> list[tuple[int, bytes]]:
        """(step, canonical_bytes of the state then), one per snapshot taken."""
        if self._pending:
            self._snapshots.extend((step, canonical_bytes(state)) for step, state in self._pending)
            self._pending.clear()
        return self._snapshots


class Session:
    """One protocol run: entities, queue, transcript, verdict.

    config and store are set by the protocol layer when it assembles the
    session; the handlers fill in the abort reason, the executed
    transaction and the viewed fields as the run goes. The first verdict
    stands; each later one that differs from it goes to late_verdicts as
    (step, verdict), so a refusal that comes too late still shows.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = rngmod.fork(seed, "session")
        self.entities: dict[EntityKind, Entity] = {}
        self.transcript: list[TranscriptEvent] = []
        self.step = 0
        self._order: deque[Message] = deque()
        self.outcome = None
        self.late_verdicts: list[tuple[int, object]] = []
        self.closed = False
        self.frame_log: list[tuple[int, str, VisualFrame]] = []
        self.secret_probes: list[SecretProbe] = []
        self.config = None
        self.store = None
        self.abort_reason: str | None = None
        self.abort_retryable = False
        self.executed_tx = None
        self.view_values: dict[str, str] = {}
        self.view_failures: tuple[str, ...] = ()

    def add_entity(self, entity: Entity) -> None:
        if entity.kind in self.entities:
            raise ValueError(f"second {entity.kind.value} in one session")
        self.entities[entity.kind] = entity

    def register_secret(self, kind: SecretKind, data: bytes, allowed) -> None:
        if len(data) < 3:
            raise ValueError("secret probe too short to scan for")
        self.secret_probes.append(SecretProbe(kind, bytes(data), frozenset(allowed)))

    def note_frame(self, context: str, frame: VisualFrame) -> None:
        self.frame_log.append((self.step, context, frame))

    def inject(self, message: Message) -> None:
        """Queue a message on the channel its class declares; with no
        sending entity, this is also how an attacker inserts traffic."""
        self._order.append(message)

    def finish(self, outcome) -> None:
        if self.outcome is None:
            self.outcome = outcome
        elif outcome != self.outcome:
            self.late_verdicts.append((self.step, outcome))

    def run(self, max_deliveries: int = MAX_DELIVERIES):
        """Drain the queue; one idle round lets timeouts fire fail-closed."""
        deliveries = 0
        idled = False
        while True:
            while self._order:
                if deliveries >= max_deliveries:
                    raise LivenessError(
                        f"exceeded {max_deliveries} deliveries without settling"
                    )
                deliver(self, self._order.popleft())
                deliveries += 1
            if self.outcome is not None or idled:
                break
            idled = True
            for kind in EntityKind:
                if kind in self.entities:
                    self.entities[kind].on_idle()
        self.closed = True
        return self.outcome


def deliver(session: Session, message: Message) -> None:
    """Deliver one message on its channel: advance the receiving machine
    exactly one handler.

    Raises ProtocolViolation for a message delivered to a closed session
    or to a party the session lacks.
    """
    if session.closed:
        raise ProtocolViolation("message delivered to a completed session")
    channel = message.CHANNEL
    receiver = session.entities.get(channel.receiver)
    if receiver is None:
        raise ProtocolViolation(f"no {channel.receiver.value} in this session")
    session.step += 1
    session.transcript.append(TranscriptEvent(session.step, message))
    for tap in receiver.io_taps:
        tap("in", message)
    receiver.handle(message)
    receiver.take_snapshot(session.step)


def export_transcript(session: Session) -> str:
    """step|channel|from|to|tag|digest lines, one per delivery."""
    return "".join(event.line() + "\n" for event in session.transcript)


def scan_states_for_secrets(session: Session) -> list[SecretSighting]:
    """Hunt every registered secret through every snapshot ever taken.

    Reports the first step each (entity, secret) pair was seen at;
    violation marks a sighting outside the secret's allowed set.
    """
    sightings = []
    for probe in session.secret_probes:
        for kind, entity in session.entities.items():
            for step, snap in entity.snapshots:
                if probe.data in snap:
                    sightings.append(
                        SecretSighting(
                            entity=kind,
                            kind=probe.kind,
                            step=step,
                            violation=kind not in probe.allowed,
                        )
                    )
                    break
    return sightings


def secrecy_violations(session: Session) -> list[SecretSighting]:
    return [s for s in scan_states_for_secrets(session) if s.violation]
