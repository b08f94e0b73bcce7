"""Session fabric for the four-party setting.

A session wires one user, one terminal, one smartphone, and one server
together over typed one-way channels and drives them with a
single-threaded FIFO event loop; each delivery runs one handler of its
receiver. Everything observable about a run is captured twice: a
transcript of every delivered message, in delivery order, and a
per-entity history of serialized state snapshots.

The snapshot history exists for one reason: secrecy claims about where
plaintext secrets may live are checked by scanning it, not by trusting
the protocol code. Channels are fixed module-level declarations and
carry nothing; a message travels only on the channel its class names,
and a party runs a handler for it only if each field has the type its
class declares (register_message; Party.receive in protocols). What an
onlooker learns is read off the transcript after the run. An attacker
that acts is data: the session's actions, a tuple of four frozen values
(Drop, Rewrite, Inject, Plant), empty in an honest run. Entity.emit
applies the Drops and Rewrites of a party's sends, deliver queues each
Inject as it falls due, and Session.begin applies the Plants first. The
honest handler code cannot tell whether it is being watched, and no
entity reads an attacker setting.

The session owns its parties, a party holds its session weakly (see
Entity.session), and no action holds a session. So a finished session,
with its transcript and snapshots, is no reference cycle: reference
counting frees it as soon as its last caller drops it.

Both records hold references, not bytes: a delivery keeps the message
and a shallow copy of the receiver's state, and serializes neither.
canonical_bytes runs when the snapshots are first read (and is cached)
or a transcript is exported. That gives the bytes of record time only
because nothing recorded can change: register_message makes each message
class a frozen dataclass, and take_snapshot refuses mutable state values.

A frozen dataclass instance keeps its first encoding in its own __dict__,
as crypto.KeyPair keeps its loaded keys, so a frame that rides in two
messages is encoded once; a value rebuilt with dataclasses.replace
encodes its own fields. The lazy records and this memo both rely on
immutability, and _check_immutable looks only at a state value's
top-level type: a frozen dataclass holding a list that changed would
encode stale bytes. No program value holds a mutable inside today.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import re
import struct
import sys
import weakref
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType, UnionType
from typing import Any, Callable, ClassVar, Mapping, Union, get_args, get_origin

from . import rng as rngmod
from .qr import VisualFrame

MAX_DELIVERIES = 64  # honest-run liveness budget


class ProtocolViolation(Exception):
    """An event arrived that no state machine is prepared to handle."""


class LivenessError(Exception):
    """A run exceeded the delivery budget without settling."""


class EntityKind(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    USER = "user"
    TERMINAL = "terminal"
    SMARTPHONE = "smartphone"
    SERVER = "server"


class ChannelKind(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

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

MESSAGES: dict[str, type[Message]] = {}  # tag -> class, in registration order


def register_message(channel_name: str, label: str = ""):
    """Declare a Message subclass as a frozen record on its one legal channel.

    The class statement is the whole contract: the decorator makes the class
    a frozen dataclass (the records and the encoding memo hold messages by
    reference) and sets what the fabric reads off it: TAG (TypeId is
    type_id), CHANNEL (emit, inject and deliver route by it), LABEL
    (adversary.observe; by default the tag), FIELDS, CHECKS (each field's
    type check, from its annotation), TAG_BYTE (its wire tag, in
    registration order) and LINE_PREFIX. A class that is no Message
    subclass, carries its own @dataclass or TAG, or declares a field type
    _field_check cannot check is refused and takes no tag.
    """

    def deco(cls):
        if not (isinstance(cls, type) and issubclass(cls, Message)):
            raise TypeError(f"{cls!r} is not a Message subclass")
        if "__dataclass_params__" in cls.__dict__:
            raise TypeError(f"{cls.__name__} already carries @dataclass; register_message makes it")
        if "TAG" in cls.__dict__:
            raise TypeError(f"{cls.__name__} states its own TAG; register_message takes it from the name")
        tag = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()
        if tag in MESSAGES:
            raise ValueError(f"duplicate message tag {tag}")
        if channel_name not in CHANNELS:
            raise ValueError(f"unknown channel {channel_name}")
        cls = dataclass(frozen=True)(cls)
        checks = []
        for f in dataclasses.fields(cls):
            try:
                hint = eval(f.type, vars(sys.modules[cls.__module__])) if isinstance(f.type, str) else f.type
                checks.append((f.name, _field_check(hint)))
            except (NameError, TypeError) as exc:  # an undefined name, or no shape _field_check knows
                raise TypeError(f"{cls.__name__}.{f.name}: {exc}") from None
        cls.CHECKS = tuple(checks)
        cls.FIELDS = tuple(name for name, _ in cls.CHECKS)
        cls.TAG = tag
        cls.CHANNEL = channel = CHANNELS[channel_name]
        cls.LABEL = label or tag
        cls.TAG_BYTE = bytes([len(MESSAGES) + 1])
        cls.LINE_PREFIX = f"|{channel.kind.value}|{channel.sender.value}|{channel.receiver.value}|{tag}|"
        MESSAGES[tag] = cls
        return cls

    return deco


def _field_check(hint) -> Callable[[object], bool]:
    """Whether a value has type hint, for four shapes: a class (bool and int
    exactly, so False is no click position), X | None, tuple[X, ...] and
    tuple[X, Y]. TypeError for any other hint."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is None and isinstance(hint, type) and hint is not Any:  # Any is a class from 3.11
        if hint in (bool, int):
            return lambda v: type(v) is hint
        return lambda v: isinstance(v, hint)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        (inner,) = [_field_check(arg) for arg in args if arg is not type(None)]
        return lambda v: v is None or inner(v)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _field_check(args[0])
        return lambda v: isinstance(v, tuple) and all(map(item, v))
    if origin is tuple and len(args) == 2:
        first, second = map(_field_check, args)
        return lambda v: isinstance(v, tuple) and len(v) == 2 and first(v[0]) and second(v[1])
    raise TypeError(f"cannot check {hint!r}; use a class, X | None, tuple[X, ...] or tuple[X, Y]")


def canonical_bytes(obj) -> bytes:
    """Stable type-tagged serialization used for digests and snapshots.

    The encoder comes from _ENCODERS, keyed by exact type. A new type is
    resolved once against _RESOLUTION, in this order: None, Enum, bool,
    int, float, str, bytes or bytearray, tuple or list, set or frozenset,
    dict or mappingproxy, and last a dataclass instance. So every enum
    member, mixin or not, encodes as its value, and a mappingproxy as the
    dict it shows. Anything else, a class object included, raises TypeError.
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
    (enum.Enum, lambda obj: canonical_bytes(obj._value_)),
    (bool, lambda obj: b"?\x01" if obj else b"?\x00"),
    (int, _encode_int),
    (float, _encode_float),
    (str, _encode_str),
    ((bytes, bytearray), _encode_bytes),
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
        if cls.__dataclass_params__.frozen and not hasattr(cls, "__slots__"):

            def encode(obj) -> bytes:
                # kept in the instance __dict__, as functools.cached_property
                # keeps a value; _MEMO is no field, so it is never encoded
                held = obj.__dict__
                enc = held.get(_MEMO)
                if enc is None:
                    enc = held[_MEMO] = header + body(obj)
                return enc

        else:

            def encode(obj) -> bytes:
                return header + body(obj)

    _ENCODERS[cls] = encode
    return encode


_MEMO = "_canonical_bytes"  # where a frozen dataclass instance keeps its encoding


@functools.cache
def _fields_encoder(cls: type) -> Callable[[object], bytes]:
    """A dataclass's field encodings, concatenated in declaration order."""
    names = tuple(f.name for f in dataclasses.fields(cls))

    def body(obj) -> bytes:
        return b"".join([canonical_bytes(getattr(obj, name)) for name in names])

    return body


@dataclass(frozen=True)
class Message:
    """A typed message. A subclass states only its fields and is declared by
    register_message, which sets these class attributes."""

    TAG: ClassVar[str]  # the class name in snake case
    CHANNEL: ClassVar[Channel]
    LABEL: ClassVar[str]
    FIELDS: ClassVar[tuple[str, ...]]  # the field names, in declaration order
    CHECKS: ClassVar[tuple[tuple[str, Callable[[object], bool]], ...]]  # (field, its type check)
    TAG_BYTE: ClassVar[bytes]
    LINE_PREFIX: ClassVar[str]  # "|channel|from|to|tag|"

    def well_formed(self) -> bool:  # every field holds a value of its declared type
        return all(fits(getattr(self, name)) for name, fits in self.CHECKS)

    def body_bytes(self) -> bytes:
        return _fields_encoder(type(self))(self)

    def digest(self) -> str:
        # over the wire form: tag byte, big-endian length, body
        body = self.body_bytes()
        return hashlib.sha256(self.TAG_BYTE + _u32(len(body)) + body).hexdigest()[:16]


# -------- what an active attacker does, as data --------


def _end(party: EntityKind, tag: str, end: str) -> None:
    """ValueError unless party is tag's end; an action that never fires reads as resistance."""
    cls = MESSAGES.get(tag)
    if cls is None or getattr(cls.CHANNEL, end) is not party:
        raise ValueError(f"the {party.value} is no {end} of {tag!r}")


@dataclass(frozen=True)
class Drop:
    """What party sends tagged tag is lost in transit."""

    party: EntityKind
    tag: str

    def __post_init__(self):
        _end(self.party, self.tag, "sender")


@dataclass(frozen=True)
class Rewrite:
    """What party sends tagged tag goes out rewritten: fields maps field
    names to new values, or is a pure function, holding no session, from
    the message to the one sent instead."""

    party: EntityKind
    tag: str
    fields: Mapping[str, object] | Callable[[Message], Message]

    def __post_init__(self):
        _end(self.party, self.tag, "sender")
        if not callable(self.fields):
            object.__setattr__(self, "fields", MappingProxyType(dict(self.fields)))


@dataclass(frozen=True)
class Inject:
    """message is queued on its class's channel as delivery at starts,
    before the receiver's handler runs (0: before the user begins), or,
    for at=(party, tag), as party first takes tag."""

    message: Message
    at: int | tuple[EntityKind, str]

    def __post_init__(self):
        if not isinstance(self.at, int):
            _end(*self.at, "receiver")
        elif self.at < 0:
            raise ValueError(f"no delivery {self.at}")


@dataclass(frozen=True)
class Plant:
    """party holds state, over its own, before the user begins."""

    party: EntityKind
    state: Mapping[str, object]

    def __post_init__(self):
        object.__setattr__(self, "state", MappingProxyType(dict(self.state)))


ACTIONS = (Drop, Rewrite, Inject, Plant)


class SecretKind(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

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

    Each delivery runs handle, which calls the subclass's receive(message)
    once, then snapshots the state. The snapshot is a shallow copy, encoded
    only when snapshots is read, so a handler replaces a state value rather
    than changing it in place. The session owns its parties, and a party
    holds its session only weakly, so the session is no reference cycle.
    """

    kind: ClassVar[EntityKind]

    def __init__(self, session: "Session"):
        self._session = weakref.ref(session)
        self.state: dict = {}
        self._snapshots: list[tuple[int, bytes]] = []
        self._pending: list[tuple[int, dict]] = []  # recorded, not yet encoded

    @property
    def session(self) -> "Session":
        """The session this party belongs to; ReferenceError once it is gone."""
        session = self._session()
        if session is None:
            raise ReferenceError(f"the {self.kind.value}'s session is gone")
        return session

    def emit(self, message: Message) -> None:
        """Send message on the channel its class was registered for, after
        the session's Drops and Rewrites of this party's sends, in order. The
        sender is checked after them, so a Rewrite cannot move a message onto
        another party's channel."""
        session = self.session
        for action in session.actions:  # () in an honest session
            if type(action) in (Drop, Rewrite) and action.party is self.kind and action.tag == message.TAG:
                if type(action) is Drop:
                    return  # lost in transit
                fields = action.fields
                message = fields(message) if callable(fields) else dataclasses.replace(message, **fields)
        channel = message.CHANNEL
        if channel.sender is not self.kind:
            raise ProtocolViolation(f"{self.kind.value} cannot send on {channel.name}")
        session.inject(message)

    def handle(self, message: Message) -> None:
        self.receive(message)  # defined by the subclass

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

    transcript lists the delivered messages in order; step is its length.
    config and store are what the protocol layer builds the session from,
    actions what an active attacker does to it (ACTIONS); the handlers fill
    in the executed transaction and the viewed fields as the run goes, and
    reach every verdict through finish.
    """

    def __init__(self, seed: int, config=None, store=None, actions=()):
        self.seed = seed
        self.config = config
        self.store = store
        self.actions = tuple(actions)
        if not all(type(action) in ACTIONS for action in self.actions):
            raise TypeError(f"an action is one of {', '.join(cls.__name__ for cls in ACTIONS)}")
        self.rng = rngmod.fork(seed, "session")
        self.entities: dict[EntityKind, Entity] = {}
        self.transcript: list[Message] = []
        self._order: deque[Message] = deque()
        self.outcome = None
        self.late_verdicts: list[tuple[int, object, str | None]] = []
        self.closed = False
        self.frame_log: list[tuple[int, str, VisualFrame]] = []
        self.secret_probes: list[SecretProbe] = []
        self.abort_reason: str | None = None
        self.abort_retryable = False
        self.executed_tx = None
        self.view_values: dict[str, str] = {}
        self.view_failures: tuple[str, ...] = ()

    @property
    def step(self) -> int:
        """Deliveries so far; during delivery k it reads k."""
        return len(self.transcript)

    def add_entity(self, entity: Entity) -> None:
        if entity.kind in self.entities:
            raise ValueError(f"second {entity.kind.value} in one session")
        self.entities[entity.kind] = entity

    def register_secret(self, kind: SecretKind, data: bytes, allowed) -> None:
        if len(data) < 3:
            raise ValueError("secret probe too short to scan for")
        self.secret_probes.append(SecretProbe(kind, bytes(data), frozenset(allowed)))

    def inject(self, message: Message) -> None:
        """Queue a message on the channel its class declares: a party's
        emit, or an Inject action that falls due."""
        self._order.append(message)

    def begin(self) -> None:
        """Apply each Plant and queue each Inject at 0, then let the user begin."""
        for action in self.actions:
            if type(action) is Plant:
                self.entities[action.party].state.update(action.state)
            elif type(action) is Inject and action.at == 0:
                self.inject(action.message)
        self.entities[EntityKind.USER].begin()

    def finish(self, outcome, reason: str | None = None, retryable: bool = False) -> None:
        """Reach a verdict; reason and retryable describe an abort. The first
        verdict stands; each later one that differs goes to late_verdicts as
        (step, verdict, reason), so a refusal that comes too late still shows."""
        if self.outcome is None:
            self.outcome = outcome
            self.abort_reason = reason
            self.abort_retryable = retryable
        elif outcome != self.outcome:
            self.late_verdicts.append((self.step, outcome, reason))

    def run(self):
        """Drain the queue; one idle round lets timeouts fire fail-closed."""
        idled = False
        while True:
            while self._order:
                if self.step >= MAX_DELIVERIES:
                    raise LivenessError(f"exceeded {MAX_DELIVERIES} deliveries without settling")
                deliver(self, self._order.popleft())
            if self.outcome is not None or idled:
                break
            idled = True
            for kind in EntityKind:
                if kind in self.entities:
                    self.entities[kind].on_idle()
        self.closed = True
        return self.outcome


def deliver(session: Session, message: Message) -> None:
    """Deliver one message on its channel: queue each Inject that falls due,
    then advance the receiving machine exactly one handler.

    Raises ProtocolViolation for a message delivered to a closed session
    or to a party the session lacks.
    """
    if session.closed:
        raise ProtocolViolation("message delivered to a completed session")
    channel = message.CHANNEL
    receiver = session.entities.get(channel.receiver)
    if receiver is None:
        raise ProtocolViolation(f"no {channel.receiver.value} in this session")
    session.transcript.append(message)
    for action in session.actions:  # () in an honest session
        if type(action) is Inject and (
            action.at == session.step
            or action.at == (channel.receiver, message.TAG)
            and [m.TAG for m in session.transcript].count(message.TAG) == 1
        ):
            session.inject(action.message)
    receiver.handle(message)
    receiver.take_snapshot(session.step)


def export_transcript(session: Session) -> str:
    """step|channel|from|to|tag|digest lines, one per delivery, from step 1."""
    return "".join(
        f"{step}{m.LINE_PREFIX}{m.digest()}\n"
        for step, m in enumerate(session.transcript, 1)
    )


def scan_states_for_secrets(session: Session) -> list[SecretSighting]:
    """Hunt every registered secret through every snapshot ever taken.

    Reports the first step each (entity, secret) pair was seen at;
    violation marks a sighting outside the secret's allowed set. An
    occurrence wholly inside an occurrence of a longer registered secret
    that the entity may hold is that secret's, not a sighting: a P2
    one-time password that holds the password (5/36**4, about 3e-6 per P2
    session) shows no password. The false positive that remains is the
    password's bytes inside a sealed challenge, which is no registered
    secret: about 2e-7 per session.
    """
    sightings = []
    for probe in session.secret_probes:
        for kind, entity in session.entities.items():
            covers = [
                other.data
                for other in session.secret_probes
                if kind in other.allowed
                and len(other.data) > len(probe.data)
                and probe.data in other.data
            ]
            for step, snap in entity.snapshots:
                if probe.data in snap and not _covered(probe.data, snap, covers):
                    violation = kind not in probe.allowed
                    sightings.append(SecretSighting(kind, probe.kind, step, violation))
                    break
    return sightings


def _covered(data: bytes, snap: bytes, covers: list[bytes]) -> bool:
    """Whether every occurrence of data in snap lies inside one of covers."""
    spans = [(at, at + len(cover)) for cover in covers for at in _starts(cover, snap)]
    return all(any(lo <= at and at + len(data) <= hi for lo, hi in spans) for at in _starts(data, snap))


def _starts(data: bytes, snap: bytes) -> list[int]:  # overlapping occurrences too
    return [match.start() for match in re.finditer(b"(?=%s)" % re.escape(data), snap)]


def secrecy_violations(session: Session) -> list[SecretSighting]:
    return [s for s in scan_states_for_secrets(session) if s.violation]
