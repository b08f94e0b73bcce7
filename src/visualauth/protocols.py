"""The three visualized login protocols and the transaction extensions.

SPEC states each of the six flows once, as an Alice-and-Bob table of its
messages in honest delivery order. FLOWS, the phases in which each party
takes each message, is read off it. Every party keeps each message it takes
as state[tag] (Party.receive), so what a party knows is written down in one
place; the terminal's rows are relays that pass what it was handed on. What
the flows keep from whom:

* keyboard_permutation (P1): the server seals a fresh random keyboard
  layout to the user's public key; only the smartphone decrypts and shows
  it; the user clicks positions on a blank 6x6 grid, and the server alone
  resolves them back to symbols. The terminal never learns which symbol
  any click meant.
* encrypted_otp (P2): only the smartphone opens the sealed one-time
  password; the user types it on the terminal, and the token is consumed
  on first successful use.
* nonce_upload (P3): the user types id and password on the smartphone,
  which seals (nonce, id, password, server name) to the server's public
  key and shows the ciphertext as a frame the terminal camera captures and
  relays. The terminal holds ciphertext only, and a stale or mismatched
  nonce is refused.

Extensions run inside an established session: signed transaction
confirmations verified on the smartphone, encrypted document fields
readable only through the smartphone, and a cellular side-channel copy
that a transaction must match before the server executes it (absence of
the copy fails closed).

Every signed payload the server sends, a sealed challenge or a
transaction confirmation, is framed by _pack_signed, and every signature
check names the signer it accepts to crypto.verify: the server for the
phone's challenges and confirmations, the user for the side copy.

SECRET_HOLDERS states once who may hold each secret the scan hunts for, and
every secret a session registers takes its holders from it. STATE states
once what else each party may hold, its own keys and their types.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import takewhile
from types import MappingProxyType

from . import crypto, qr, rng as rngmod
from .crypto import (
    KeyPair,
    KeyboardPermutation,
    Nonce,
    OtpToken,
    Role,
    Signature,
)
from .entities import (
    Entity,
    EntityKind,
    Message,
    SecretKind,
    Session,
    field_values,
    register_message,
    register_state,
)
from .qr import EcLevel, VisualFrame

GRID_ROWS = 6
GRID_COLS = 6
MASK_GLYPH = "*"


class Protocol(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    P1 = "P1"  # randomized blank keyboard
    P2 = "P2"  # encrypted one-time password
    P3 = "P3"  # nonce challenge, credentials sealed on the phone
    TXVERIFY = "TXVERIFY"
    SECUREVIEW = "SECUREVIEW"
    HIJACKGUARD = "HIJACKGUARD"


AUTH_PROTOCOLS = (Protocol.P1, Protocol.P2, Protocol.P3)


class Outcome(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    AUTHENTICATED = "authenticated"
    DENIED = "denied"
    ABORTED = "aborted"
    CONFIRMED = "confirmed"
    USER_FLAGGED_MISMATCH = "user_flagged_mismatch"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    VIEWED = "viewed"


# -------- credentials and transactions --------


@dataclass(frozen=True)
class Credential:
    user_id: str
    password: str
    keypair: KeyPair  # lives on the user's phone; the server sees only the public half


@dataclass
class CredentialStore:
    """Provisioned identities plus the server's own keys and name."""

    server_pair: KeyPair
    server_name: str
    users: dict[str, Credential] = field(default_factory=dict)

    def add_user(self, credential: Credential) -> None:
        if credential.user_id in self.users:
            raise ValueError(f"duplicate user id {credential.user_id!r}")
        self.users[credential.user_id] = credential

    @classmethod
    def provision(cls, seed: int, users=(("alice", "data"),)):
        store = cls(
            server_pair=crypto.generate_keypair(Role.SERVER, rngmod.fork(seed, "server-key")),
            server_name="acme-bank",
        )
        for user_id, password in users:
            store.add_user(
                Credential(
                    user_id=user_id,
                    password=password,
                    keypair=crypto.generate_keypair(Role.USER, rngmod.fork(seed, "user-key", user_id)),
                )
            )
        return store


MAX_AMOUNT = 10**15  # minor units; keeps canonical_tx_bytes' amount a short decimal


@dataclass(frozen=True)
class Transaction:
    receiver_account: str
    amount: int  # minor units
    receiver_name: str

    def __post_init__(self):
        if not 0 < self.amount <= MAX_AMOUNT:
            raise ValueError(f"amount must be positive and at most {MAX_AMOUNT}")
        for text in (self.receiver_account, self.receiver_name):
            if "\n" in text or "=" in text:
                raise ValueError("transaction fields may not contain '\\n' or '='")


def canonical_tx_bytes(tx: Transaction, nonce: bytes | None = None) -> bytes:
    """label=value lines in fixed order; the signing and comparison form."""
    lines = [
        f"receiver_account={tx.receiver_account}",
        f"amount={tx.amount}",
        f"receiver_name={tx.receiver_name}",
    ]
    if nonce is not None:
        lines.append(f"nonce={nonce.hex()}")
    return "\n".join(lines).encode("utf-8")


def parse_tx_canonical(blob: bytes) -> tuple[Transaction, bytes | None]:
    """The inverse of canonical_tx_bytes. ValueError for any other text: a
    duplicate, unknown, missing or reordered key, or a number written any
    way but the canonical one, never parses."""
    fields_ = dict(line.split("=", 1) for line in blob.decode("utf-8").split("\n"))
    try:
        tx = Transaction(
            receiver_account=fields_["receiver_account"],
            amount=int(fields_["amount"]),
            receiver_name=fields_["receiver_name"],
        )
    except KeyError as exc:
        raise ValueError(f"transaction lacks {exc}") from None
    nonce = bytes.fromhex(fields_["nonce"]) if "nonce" in fields_ else None
    if canonical_tx_bytes(tx, nonce) != blob:
        raise ValueError("transaction text is not canonical")
    return tx, nonce


# -------- session configuration --------


@dataclass(frozen=True)
class SessionFlags:
    sign_server_payloads: bool = True
    hijack_guard: bool = True
    tx_nonce_freshness: bool = True


DEFAULT_TX = Transaction(receiver_account="ACCT-7291", amount=25000, receiver_name="northwind supply")
DEFAULT_VIEW_FIELDS = (("balance", "10452.17"), ("statement", "paid 93.40 to coastal water"))

# the camera captures each flow makes, by the context _capture is called
# with; a SessionConfig.corrupt_context names one of its flow's. Written by
# hand, not read off SPEC: the SECUREVIEW phone captures one frame per label
# the document carries, so no row names those contexts
CAPTURE_CONTEXTS = {
    Protocol.P1: ("keyboard",),
    Protocol.P2: ("otp",),
    Protocol.P3: ("nonce", "credential_upload"),
    Protocol.TXVERIFY: ("tx_confirmation",),
    Protocol.SECUREVIEW: tuple(f"secure_field:{label}" for label, _ in DEFAULT_VIEW_FIELDS),
    Protocol.HIJACKGUARD: (),
}


@dataclass(frozen=True)
class SessionConfig:
    """Everything one run needs besides the provisioned store.

    submit_passwords is what the user-model will type, one entry per
    attempt; None means the genuine password once. Every field describes
    an honest session; an attacker reaches a session only through the
    actions run_flow takes (entities.ACTIONS).
    """

    protocol: Protocol
    seed: int = 0
    user_id: str = "alice"
    submit_passwords: tuple[str, ...] | None = None
    max_attempts: int = 1
    flags: SessionFlags = SessionFlags()
    frame_ec: EcLevel = EcLevel.M
    corrupt_codewords: int | str = 0  # int, "budget", or "budget+1"
    mistype_otp: bool = False  # user fat-fingers one symbol of the shown OTP
    corrupt_context: str | None = None  # None corrupts every capture


# -------- who may hold each secret --------

# The model's reading of "decryptable to your eyes only": the parties that
# may hold each secret. The secret scan flags a sighting at any other party.
SECRET_HOLDERS: dict[SecretKind, frozenset[EntityKind]] = {
    SecretKind.PASSWORD: frozenset({EntityKind.USER, EntityKind.SERVER}),
    SecretKind.PERMUTATION: frozenset({EntityKind.SERVER, EntityKind.SMARTPHONE, EntityKind.USER}),
    SecretKind.VIEW_FIELD: frozenset({EntityKind.SERVER, EntityKind.SMARTPHONE, EntityKind.USER}),
    SecretKind.OTP: frozenset(EntityKind),  # typed on the terminal, and spent at once
    SecretKind.CREDENTIAL_CIPHERTEXT: frozenset(EntityKind),  # sealed to the server
    SecretKind.USER_PRIVATE_KEY: frozenset({EntityKind.SMARTPHONE}),
    SecretKind.SERVER_PRIVATE_KEY: frozenset({EntityKind.SERVER}),
}
# the one widening by protocol: in P3 the user types the password on the phone
WIDENED_HOLDERS = {(Protocol.P3, SecretKind.PASSWORD): frozenset({EntityKind.SMARTPHONE})}


# (protocol, kind) -> who may hold a secret of kind in protocol, from the two tables above
_HOLDERS = MappingProxyType({
    (protocol, kind): SECRET_HOLDERS[kind] | WIDENED_HOLDERS.get((protocol, kind), frozenset())
    for protocol in Protocol
    for kind in SecretKind
})


def register_secret(session: Session, kind: SecretKind, data: bytes) -> None:
    """Have the secret scan hunt data as a secret of kind, which only the
    holders the tables above name for the session's protocol may hold."""
    session.register_secret(kind, data, _HOLDERS[session.config.protocol, kind])


# -------- message vocabulary --------


@register_message("click_terminal", "typed_id")
class TypeId(Message):
    user_id: str


@register_message("net_up")
class LoginRequest(Message):
    user_id: str
    protocol: str


@register_message("net_down")
class KbdChallenge(Message):
    frame: VisualFrame
    grid_rows: int
    grid_cols: int


@register_message("net_down")
class OtpChallenge(Message):
    frame: VisualFrame


@register_message("net_down")
class NonceChallenge(Message):
    frame: VisualFrame


@register_message("terminal_display_phone", "frame_payload")
class ShowFrame(Message):
    frame: VisualFrame


@register_message("terminal_display_user", "keyboard")
class ShowKeyboard(Message):
    layout_kind: str  # "blank" or "full"
    rows: int
    cols: int


@register_message("phone_display_user", "layout")
class ShowLayout(Message):
    layout: KeyboardPermutation


@register_message("click_terminal", "positions")
class ClickPositions(Message):
    positions: tuple[int, ...]


@register_message("terminal_display_user", "positions")
class EchoClicks(Message):
    positions: tuple[int, ...]


@register_message("net_up", "positions")
class SubmitPositions(Message):
    positions: tuple[int, ...]


@register_message("phone_display_user", "otp")
class ShowOtp(Message):
    otp: str


@register_message("click_terminal", "otp")
class TypeOtp(Message):
    otp: str


@register_message("terminal_display_user", "otp")
class EchoOtp(Message):
    otp: str


@register_message("net_up", "otp")
class SubmitOtp(Message):
    otp: str


@register_message("click_terminal", "click")
class Connect(Message):
    pass


@register_message("net_up")
class ConnectRequest(Message):
    pass


@register_message("phone_display_user")
class ShowLoginBox(Message):
    pass


@register_message("click_phone", "login")
class TypeCredentials(Message):
    user_id: str
    password: str


@register_message("phone_display_user", "masked_login")
class EchoMaskedCredentials(Message):
    user_id: str
    masked: str  # the login box masks the password glyphs


@register_message("phone_display_terminal", "ciphertext")
class UploadFrame(Message):
    frame: VisualFrame


@register_message("net_up", "ciphertext")
class SubmitCiphertext(Message):
    blob: bytes  # ciphertext wire bytes; all the terminal ever holds


@register_message("net_down")
class AuthResult(Message):
    ok: bool


@register_message("terminal_display_user")
class ShowResult(Message):
    ok: bool


@register_message("click_terminal", "click")
class RequestTx(Message):
    tx: Transaction


@register_message("net_up", "tx")
class SubmitTx(Message):
    tx: Transaction


@register_message("net_down")
class TxConfirmation(Message):
    display_tx: Transaction
    frame: VisualFrame


@register_message("terminal_display_user", "tx")
class ShowTxPage(Message):
    tx: Transaction


@register_message("phone_display_user")
class ShowVerifiedTx(Message):
    tx: Transaction | None
    sig_valid: bool
    fresh: bool


@register_message("click_terminal", "click")
class ConfirmTx(Message):
    ok: bool


@register_message("net_up")
class ForwardConfirm(Message):
    ok: bool


@register_message("click_phone", "click")
class ConfirmOnPhone(Message):
    tx: Transaction


@register_message("cellular", "tx")
class SideCopy(Message):
    tx: Transaction
    signature: Signature


@register_message("net_down")
class TxResult(Message):
    accepted: bool


@register_message("net_down")
class SecureDoc(Message):
    labels: tuple[str, ...]
    frames: tuple[VisualFrame, ...]


@register_message("terminal_display_phone")
class ShowDoc(Message):
    labels: tuple[str, ...]
    frames: tuple[VisualFrame, ...]


@register_message("phone_display_user")
class ShowFields(Message):
    values: tuple[tuple[str, str], ...]
    failures: tuple[str, ...]


# -------- framing helpers --------


def _pack_signed(body: bytes, sig: Signature | None) -> bytes:
    """The one framing of a signed payload, a sealed challenge or a
    transaction confirmation: u32 length, body, then the signature if any."""
    return struct.pack(">I", len(body)) + body + (sig.to_bytes() if sig is not None else b"")


def _unpack_signed(payload: bytes) -> tuple[bytes, Signature | None]:
    """The inverse of _pack_signed: ValueError for a length past the end."""
    (n,) = struct.unpack(">I", payload[:4])
    if 4 + n > len(payload):
        raise ValueError("signed payload is shorter than its length prefix")
    rest = payload[4 + n :]
    return payload[4 : 4 + n], (Signature.from_bytes(rest) if rest else None)


def _pack_credentials(nonce: bytes, user_id: str, password: str, server_name: str) -> bytes:
    parts = [nonce]
    for text in (user_id, password, server_name):
        enc = text.encode("utf-8")
        parts.append(struct.pack(">H", len(enc)) + enc)
    return b"".join(parts)


def _unpack_credentials(blob: bytes) -> tuple[bytes, str, str, str]:
    """The inverse of _pack_credentials: ValueError for a blob shorter than
    a nonce or one whose last field does not end exactly at its end."""
    if len(blob) < crypto.NONCE_LEN:
        raise ValueError("credential blob is shorter than a nonce")
    nonce, pos = blob[: crypto.NONCE_LEN], crypto.NONCE_LEN
    out = []
    for _ in range(3):
        (n,) = struct.unpack(">H", blob[pos : pos + 2])
        out.append(blob[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
    if pos != len(blob):
        raise ValueError("credential fields do not end where the blob does")
    return nonce, out[0], out[1], out[2]


def _parse_otp(plain: bytes) -> str:
    otp = plain.decode("ascii")
    if not otp or not all(ch in crypto.ALPHABET_INDEX for ch in otp):
        raise ValueError("not a one-time password over the alphabet")
    return otp


class FrameOverCapacity(Exception):
    """A payload fits no frame at the session's ec level; its one argument
    is the frame's context. Party.receive ends the session on it."""


def _frame(session: Session, payload: bytes, context: str) -> VisualFrame:
    """Auto-select the smallest fitting version at the session's ec level."""
    try:
        spec = qr.choose_spec(payload, session.config.frame_ec)
    except qr.CapacityError:
        raise FrameOverCapacity(context) from None
    frame = qr.qr_encode(payload, spec)
    session.frame_log.append((session.step, context, frame))
    return frame


def _capture(session: Session, frame: VisualFrame, context: str) -> bytes:
    """A camera capture: apply the scenario's corruption, then decode."""
    cfg = session.config
    count = cfg.corrupt_codewords
    if cfg.corrupt_context not in (None, context):
        count = 0  # the scenario damages another capture
    elif count in ("budget", "budget+1"):
        count = qr.correction_budget(frame.spec) + (count == "budget+1")
    if count:
        # a count past the frame damages every codeword, so the decode refuses it
        frame = qr.corrupt(frame, min(count, len(frame.codewords)), session.rng)
    return qr.qr_decode(frame)


# -------- the four participants --------


_NO_ROWS = MappingProxyType({})  # a phase in which a party takes nothing


class Party(Entity):
    """One of the four parties. It takes a message only where its rows in
    SPEC allow, from the phase it stands in, and only if it is well_formed.
    A message it takes it keeps as state[tag], the last of each tag, before
    the row's handler runs: the one place a party writes down what it was
    handed. A tag foreign to its rows in the flow aborts
    <tag>_out_of_protocol, one in the wrong phase <tag>_out_of_order, a field
    of the wrong type <tag>_malformed, and a refused message is never kept.
    A handler whose payload fits no frame aborts <context>_frame_over_capacity,
    fatal, at that frame, and sends nothing after it. Once the session has
    aborted no party takes input."""

    phase = "start"

    def __init__(self, session):
        super().__init__(session)
        self.flow = FLOWS[session.config.protocol][self.kind]  # its rows, looked up once

    def receive(self, message: Message, session: Session) -> None:
        tag = message.TAG
        flow = self.flow
        phase = "done" if session.outcome is Outcome.ABORTED else self.phase
        row = flow.get(phase, _NO_ROWS).get(tag)
        if row is None:
            known = any(tag in rows for rows in flow.values())
            session.finish(Outcome.ABORTED, f"{tag}_{'out_of_order' if known else 'out_of_protocol'}")
        elif not message.well_formed():
            session.finish(Outcome.ABORTED, f"{tag}_malformed")
        else:
            self.state[tag] = message
            handler, self.phase = row
            try:
                handler(self, message)
            except FrameOverCapacity as exc:  # fatal, and the handler sends nothing more
                session.finish(Outcome.ABORTED, f"{exc.args[0]}_frame_over_capacity")


class UserModel(Party):
    """The human: remembers credentials and intent, reads screens, clicks.

    What it is shown it keeps as any party does, so a screen it only looks
    at has no handler of its own (relay()). Confirms a transaction only when
    the smartphone-verified copy agrees with both the page on the terminal
    and what it meant to send.
    """

    kind = EntityKind.USER

    def __init__(self, session, config: SessionConfig, password: str):
        super().__init__(session)
        passwords = config.submit_passwords or (password,)
        self.state.update(
            user_id=config.user_id,
            passwords=tuple(passwords),
            attempt=0,
            pending_otp=None,
            intended_tx=DEFAULT_TX,
        )

    def _next_password(self) -> str:
        pw = self.state["passwords"][min(self.state["attempt"], len(self.state["passwords"]) - 1)]
        self.state["attempt"] += 1
        return pw

    def begin(self) -> None:
        # the flow opens with its leading rows, the ones the user sends; each
        # carries the user's id or the transaction the user means to make
        intent = {"user_id": self.state["user_id"], "tx": self.state["intended_tx"]}
        for cls in OPENINGS[self.session.config.protocol]:
            self.emit(cls(**{name: intent[name] for name in cls.FIELDS}))

    def on_show_keyboard(self, msg: ShowKeyboard) -> None:
        if self.state["pending_otp"] is not None:
            self._type_pending_otp()

    def on_show_layout(self, msg: ShowLayout) -> None:
        # find each password symbol on the freshly decrypted layout, and
        # click only on a blank keyboard the terminal showed
        if ShowKeyboard.TAG not in self.state:
            return
        password = self._next_password()
        positions = tuple(msg.layout.position_of(ch) for ch in password)
        self.emit(ClickPositions(positions=positions))

    def on_show_otp(self, msg: ShowOtp) -> None:
        # kept apart from the kept show_otp: a retry's keyboard must not
        # retype an OTP already typed
        self.state["pending_otp"] = msg.otp
        if ShowKeyboard.TAG in self.state:
            self._type_pending_otp()

    def _type_pending_otp(self) -> None:
        otp, self.state["pending_otp"] = self.state["pending_otp"], None
        if self.session.config.mistype_otp:
            # one symbol off: the next alphabet symbol in the first slot
            shifted = crypto.ALPHABET[(crypto.ALPHABET.index(otp[0]) + 1) % len(crypto.ALPHABET)]
            otp = shifted + otp[1:]
        self.emit(TypeOtp(otp=otp))

    def on_show_login_box(self, msg: ShowLoginBox) -> None:
        self.emit(TypeCredentials(user_id=self.state["user_id"], password=self._next_password()))

    def on_show_verified_tx(self, msg: ShowVerifiedTx) -> None:
        page = self.state.get(ShowTxPage.TAG)  # no page shown is a mismatch
        ok = (
            msg.sig_valid
            and msg.fresh
            and page is not None
            and msg.tx == page.tx
            and msg.tx == self.state["intended_tx"]
        )
        if not ok:
            self.session.finish(Outcome.USER_FLAGGED_MISMATCH)
        self.emit(ConfirmTx(ok=ok))

    def on_show_fields(self, msg: ShowFields) -> None:
        self.session.view_values = dict(msg.values)
        self.session.view_failures = tuple(msg.failures)
        self.session.finish(Outcome.VIEWED)


class Terminal(Party):
    """The untrusted browser/kiosk: routes, renders, never holds a secret
    beyond the one-time password it relays in the OTP flow. It keeps what
    it was handed as every party does, and has no handler of its own but
    upload: every other row it takes is a relay in SPEC."""

    kind = EntityKind.TERMINAL

    def upload(self, msg: UploadFrame) -> None:
        # the camera captures the phone's sealed credentials and sends the
        # bytes up; a frame past repair aborts, retryable
        try:
            blob = _capture(self.session, msg.frame, "credential_upload")
        except qr.UncorrectableFrameError:
            self.session.finish(Outcome.ABORTED, "upload_frame_undecodable", retryable=True)
            return
        self.emit(SubmitCiphertext(blob=blob))


class Smartphone(Party):
    """The trusted personal device: the only place the user's private key
    lives and the only party that renders decrypted content to the user;
    _open_challenge opens both sealed challenges."""

    kind = EntityKind.SMARTPHONE

    def __init__(self, session, keypair: KeyPair):
        super().__init__(session)
        store = session.store
        self.state.update(
            keypair=keypair, server_public=store.server_pair.public_key, server_name=store.server_name
        )

    def capture(self, msg: ShowFrame, context: str, read) -> None:
        # the flow's row names the capture and says what the frame holds
        try:
            payload = _capture(self.session, msg.frame, context)
        except qr.UncorrectableFrameError:
            self._refuse_scan("frame_undecodable", retryable=True)
            return
        read(self, payload)

    def _refuse_scan(self, reason: str, retryable: bool) -> None:
        # a refused frame is no scan; when a verdict already stands the abort
        # is only a late verdict, and only this phase keeps the P3 phone from
        # taking credentials
        self.phase = "start"
        self.session.finish(Outcome.ABORTED, reason, retryable)

    def _read_nonce(self, payload: bytes) -> None:
        if len(payload) != crypto.NONCE_LEN:
            self._refuse_scan("nonce_malformed", retryable=False)
            return
        self.state["nonce"] = payload
        self.emit(ShowLoginBox())

    def _open_challenge(self, payload: bytes, parse, show, key: str | None = None) -> None:
        """Verify, decrypt and parse a sealed challenge, keep it as state[key]
        if a key is given, and show it to the user; a failed check aborts
        fatal."""
        try:
            wire, sig = _unpack_signed(payload)
            ct = crypto.Ciphertext.from_bytes(wire)
        except (struct.error, crypto.IntegrityError, ValueError):
            self.session.finish(Outcome.ABORTED, "challenge_malformed")
            return
        if self.session.config.flags.sign_server_payloads:
            if sig is None or not crypto.verify(self.state["server_public"], wire, sig, Role.SERVER):
                self.session.finish(Outcome.ABORTED, "challenge_signature_invalid")
                return
        try:
            plain = crypto.decrypt(self.state["keypair"], ct)
        except crypto.IntegrityError:
            self.session.finish(Outcome.ABORTED, "challenge_ciphertext_rejected")
            return
        try:
            value = parse(plain)
        except ValueError:  # not ASCII, or no layout or OTP over the alphabet
            self.session.finish(Outcome.ABORTED, "challenge_malformed")
            return
        if key is not None:
            self.state[key] = value
        self.emit(show(value))

    def on_type_credentials(self, msg: TypeCredentials) -> None:
        # the login box masks the password; only glyph count is rendered
        self.emit(EchoMaskedCredentials(user_id=msg.user_id, masked=MASK_GLYPH * len(msg.password)))
        plain = _pack_credentials(self.state["nonce"], msg.user_id, msg.password, self.state["server_name"])
        ct = crypto.encrypt(self.state["server_public"], plain, self.session.rng)
        blob = ct.to_bytes()
        register_secret(self.session, SecretKind.CREDENTIAL_CIPHERTEXT, blob)
        frame = _frame(self.session, blob, "credential_upload")
        self.emit(UploadFrame(frame=frame))

    def on_show_tx_frame(self, msg: ShowFrame) -> None:
        # a signed canonical transaction text; the signature is checked over
        # the bytes that arrived, which parse_tx_canonical pins to one text
        try:
            payload = _capture(self.session, msg.frame, "tx_confirmation")
            signed, sig = _unpack_signed(payload)
            tx, nonce = parse_tx_canonical(signed)
        except (qr.UncorrectableFrameError, struct.error, ValueError):
            sig = None
        if sig is None:  # undecodable, unsigned or no canonical transaction
            self.emit(ShowVerifiedTx(tx=None, sig_valid=False, fresh=False))
            return
        valid = crypto.verify(self.state["server_public"], signed, sig, Role.SERVER)
        if self.session.config.flags.tx_nonce_freshness:
            fresh = nonce is not None and nonce == self.state.get("session_nonce")
        else:
            fresh = True
        self.emit(ShowVerifiedTx(tx=tx, sig_valid=valid, fresh=fresh))

    def on_confirm_on_phone(self, msg: ConfirmOnPhone) -> None:
        sig = crypto.sign(self.state["keypair"], canonical_tx_bytes(msg.tx))
        self.emit(SideCopy(tx=msg.tx, signature=sig))

    def on_show_doc(self, msg: ShowDoc) -> None:
        values, failures = [], []
        try:
            fields = tuple(zip(msg.labels, msg.frames, strict=True))
        except ValueError:  # labels and frames of unequal lengths: every field fails
            fields, failures = (), list(msg.labels)
        for label, frame in fields:
            try:
                blob = _capture(self.session, frame, f"secure_field:{label}")
                plain = crypto.decrypt(self.state["keypair"], crypto.Ciphertext.from_bytes(blob))
                values.append((label, plain.decode("utf-8")))
            except (qr.UncorrectableFrameError, crypto.IntegrityError, UnicodeDecodeError):
                failures.append(label)
        self.state["doc_values"] = tuple(values)
        self.emit(ShowFields(values=tuple(values), failures=tuple(failures)))


class Server(Party):
    """The verifier: issues challenges, alone resolves click positions,
    enforces one-time and freshness semantics, and executes transactions
    only past the enabled guards; the hijack guard settles a mismatched side
    copy before it checks the copy's signature. _sealed_frame seals both
    challenges; _login_verdict reaches each login verdict, _settle_tx each
    transaction's."""

    kind = EntityKind.SERVER

    def __init__(self, session):
        super().__init__(session)
        store = session.store
        self.state.update(
            name=store.server_name,
            keypair=store.server_pair,
            registry=MappingProxyType(
                {uid: (c.password, c.keypair.public_key) for uid, c in store.users.items()}
            ),
            attempts=0,
        )
        self.issued_nonces: set[bytes] = set()  # this session's; fresh_nonce never repeats one

    # -- challenge issuance --

    def _sealed_frame(self, plain: bytes, context: str) -> VisualFrame:
        """plain encrypted to the user's key, signed unless signing is off, framed."""
        _, public_key = self.state["registry"][self.state["user_id"]]
        wire = crypto.encrypt(public_key, plain, self.session.rng).to_bytes()
        signing = self.session.config.flags.sign_server_payloads
        sig = crypto.sign(self.state["keypair"], wire) if signing else None
        return _frame(self.session, _pack_signed(wire, sig), context)

    def _issue_keyboard(self) -> None:
        layout = crypto.generate_permutation(self.session.rng)
        self.state["layout"] = layout
        plain = layout.serialize()
        register_secret(self.session, SecretKind.PERMUTATION, plain)
        frame = self._sealed_frame(plain, "keyboard")
        self.emit(KbdChallenge(frame=frame, grid_rows=GRID_ROWS, grid_cols=GRID_COLS))

    def _issue_otp(self) -> None:
        outstanding = [t for t in (self.state.get("token"),) if t]
        token = crypto.generate_otp(self.session.rng, outstanding=outstanding)
        self.state["token"] = token
        register_secret(self.session, SecretKind.OTP, token.value.encode())
        self.emit(OtpChallenge(frame=self._sealed_frame(token.value.encode("ascii"), "otp")))

    def _issue_nonce(self) -> None:
        nonce = crypto.fresh_nonce(self.session.rng, self.issued_nonces)
        self.state["nonce"] = nonce
        self.state["nonce_consumed"] = False
        frame = _frame(self.session, nonce.value, "nonce")
        self.emit(NonceChallenge(frame=frame))

    def _login(self, msg: LoginRequest, issue) -> None:
        if msg.user_id not in self.state["registry"]:
            self._login_verdict(False)
            return
        self.state["user_id"] = msg.user_id
        issue()

    # -- verdicts --

    def _login_verdict(self, ok: bool, reissue=None) -> None:
        """AUTHENTICATED or DENIED, told to the terminal; a failed attempt
        with attempts left reissues the challenge instead."""
        if not ok and reissue is not None:
            self.state["attempts"] += 1
            if self.state["attempts"] < self.session.config.max_attempts:
                reissue()
                return
        self.phase = "done"
        self.session.finish(Outcome.AUTHENTICATED if ok else Outcome.DENIED)
        self.emit(AuthResult(ok=ok))

    def on_submit_positions(self, msg: SubmitPositions) -> None:
        # the one place click positions turn back into symbols; a position
        # off the grid is a wrong entry
        password, _ = self.state["registry"][self.state["user_id"]]
        try:
            ok = self.state["layout"].resolve(msg.positions) == password
        except ValueError:
            ok = False
        self._login_verdict(ok, self._issue_keyboard)

    def on_submit_otp(self, msg: SubmitOtp) -> None:
        token: OtpToken = self.state["token"]
        ok = not token.consumed and msg.otp == token.value
        if ok:
            self.state["token"] = token.consume()
        self._login_verdict(ok, self._issue_otp)

    def on_submit_ciphertext(self, msg: SubmitCiphertext) -> None:
        nonce: Nonce = self.state["nonce"]
        try:
            plain = crypto.decrypt(
                self.state["keypair"], crypto.Ciphertext.from_bytes(msg.blob)
            )
            nonce_value, user_id, password, server_name = _unpack_credentials(plain)
        except (crypto.IntegrityError, struct.error, ValueError):
            self._login_verdict(False, self._issue_nonce)
            return
        fresh = not self.state["nonce_consumed"] and nonce_value == nonce.value
        self.state["nonce_consumed"] = True
        entry = self.state["registry"].get(user_id)
        ok = fresh and server_name == self.state["name"] and entry is not None and password == entry[0]
        self._login_verdict(ok, self._issue_nonce)

    # -- transactions --

    def on_submit_tx(self, msg: SubmitTx) -> None:
        # TXVERIFY: sign the transaction for the phone to show the user
        nonce = self.state["session_nonce"] if self.session.config.flags.tx_nonce_freshness else None
        canonical = canonical_tx_bytes(msg.tx, nonce)
        payload = _pack_signed(canonical, crypto.sign(self.state["keypair"], canonical))
        frame = _frame(self.session, payload, "tx_confirmation")
        self.emit(TxConfirmation(display_tx=msg.tx, frame=frame))

    def on_forward_confirm(self, msg: ForwardConfirm) -> None:
        self._settle_tx(msg.ok, Outcome.CONFIRMED if msg.ok else Outcome.USER_FLAGGED_MISMATCH)

    def on_guarded_tx(self, msg: SubmitTx) -> None:
        # HIJACKGUARD: execute only once the side copy matches; with the guard
        # off, at once
        if self.session.config.flags.hijack_guard:
            self._check_guard()
        else:
            self._settle_tx(True, Outcome.ACCEPTED)

    def on_side_copy(self, msg: SideCopy) -> None:
        if self.session.config.flags.hijack_guard:
            self._check_guard()

    def _check_guard(self) -> None:
        received = self.state.get(SubmitTx.TAG)
        side = self.state.get(SideCopy.TAG)
        if received is None or side is None:
            return  # wait for the other half; on_idle fails closed
        # the cheap fact first: a mismatch is REJECTED before the signature
        # is verified, which only an agreeing copy needs
        _, public_key = self.state["registry"][self.session.config.user_id]
        ok = (
            side.tx == received.tx
            and crypto.verify(public_key, canonical_tx_bytes(side.tx), side.signature, Role.USER)
        )
        self._settle_tx(ok, Outcome.ACCEPTED if ok else Outcome.REJECTED)

    def on_idle(self) -> None:
        # a transaction with no matching side-channel copy dies here
        if (
            self.session.config.protocol is Protocol.HIJACKGUARD
            and self.session.outcome is None
            and self.session.config.flags.hijack_guard
        ):
            self._settle_tx(False, Outcome.REJECTED)

    def _settle_tx(self, execute: bool, outcome: Outcome) -> None:
        if execute:
            self.session.executed_tx = self.state[SubmitTx.TAG].tx
        self.session.finish(outcome)
        self.emit(TxResult(accepted=execute))

    # -- secure viewing --

    def _issue_document(self) -> None:
        _, public_key = self.state["registry"][self.session.config.user_id]
        labels, frames = [], []
        for label, value in DEFAULT_VIEW_FIELDS:
            register_secret(self.session, SecretKind.VIEW_FIELD, value.encode("utf-8"))
            ct = crypto.encrypt(public_key, value.encode("utf-8"), self.session.rng)
            labels.append(label)
            frames.append(_frame(self.session, ct.to_bytes(), f"secure_field:{label}"))
        self.emit(SecureDoc(labels=tuple(labels), frames=tuple(frames)))


# -------- the flows, one table each --------


def relay(*sends):
    """The handler of a row that passes its message on: it emits each send
    built from the message, which Party.receive has kept. A message class
    takes its fields from the message, by name; any other send is a
    function of the message. relay() sends nothing: a screen its receiver
    only looks at."""

    builds = tuple(_constructor(send) if isinstance(send, type) else send for send in sends)

    def handler(party: Party, msg: Message) -> None:
        for build in builds:
            party.emit(build(msg))

    return handler


def _constructor(cls: type[Message]):
    """msg -> an instance of cls that takes its fields from msg, by name."""
    values = field_values(cls.FIELDS)
    return lambda msg: cls(*values(msg))


def scan(context: str, read, *args):
    """The handler of a phone row that captures the frame it is shown as
    context, then reads the payload by read(phone, payload, *args)."""
    return partial(Smartphone.capture, context=context, read=lambda phone, p: read(phone, p, *args))


# Each flow, stated once: its messages in honest delivery order, as in an
# Alice-and-Bob table. A row is (message class, handler at its receiver[,
# phase move]); the class's channel names sender and receiver. A phase move
# maps each phase the receiver takes the message in to the phase it moves
# to. A row without one is taken in "start" and stays there, so a party with
# no moving row takes its messages in any order. The P3 phone takes
# credentials only after a scan; a login retry reissues the challenge in
# "challenged", and a login verdict moves the server to "done".
SPEC: dict[Protocol, tuple[tuple, ...]] = {
    Protocol.P1: (
        (TypeId, relay(lambda m: LoginRequest(user_id=m.user_id, protocol=Protocol.P1.value))),
        (LoginRequest, lambda s, m: s._login(m, s._issue_keyboard), {"start": "challenged"}),
        (KbdChallenge, relay(ShowFrame, lambda m: ShowKeyboard("blank", m.grid_rows, m.grid_cols))),
        (ShowFrame, scan("keyboard", Smartphone._open_challenge, KeyboardPermutation.from_serialized,
                         ShowLayout)),
        (ShowKeyboard, UserModel.on_show_keyboard),
        (ShowLayout, UserModel.on_show_layout),
        (ClickPositions, relay(EchoClicks, SubmitPositions)),
        (EchoClicks, relay()),
        (SubmitPositions, Server.on_submit_positions, {"challenged": "challenged"}),
        (AuthResult, relay(ShowResult)),
        (ShowResult, relay()),
    ),
    Protocol.P2: (
        (TypeId, relay(lambda m: LoginRequest(user_id=m.user_id, protocol=Protocol.P2.value))),
        (LoginRequest, lambda s, m: s._login(m, s._issue_otp), {"start": "challenged"}),
        (OtpChallenge, relay(ShowFrame, lambda m: ShowKeyboard("full", 4, 10))),
        (ShowFrame, scan("otp", Smartphone._open_challenge, _parse_otp, ShowOtp, "otp")),
        (ShowKeyboard, UserModel.on_show_keyboard),
        (ShowOtp, UserModel.on_show_otp),
        (TypeOtp, relay(EchoOtp, SubmitOtp)),
        (EchoOtp, relay()),
        (SubmitOtp, Server.on_submit_otp, {"challenged": "challenged"}),
        (AuthResult, relay(ShowResult)),
        (ShowResult, relay()),
    ),
    Protocol.P3: (
        (Connect, relay(ConnectRequest)),
        (ConnectRequest, lambda s, m: s._issue_nonce(), {"start": "challenged"}),
        (NonceChallenge, relay(ShowFrame)),
        (ShowFrame, scan("nonce", Smartphone._read_nonce), {"start": "scanned", "scanned": "scanned"}),
        (ShowLoginBox, UserModel.on_show_login_box),
        (TypeCredentials, Smartphone.on_type_credentials, {"scanned": "scanned"}),
        (EchoMaskedCredentials, relay()),
        (UploadFrame, Terminal.upload),
        (SubmitCiphertext, Server.on_submit_ciphertext, {"challenged": "challenged"}),
        (AuthResult, relay(ShowResult)),
        (ShowResult, relay()),
    ),
    Protocol.TXVERIFY: (
        (RequestTx, relay(SubmitTx)),
        (SubmitTx, Server.on_submit_tx, {"start": "challenged"}),
        (TxConfirmation, relay(ShowFrame, lambda m: ShowTxPage(tx=m.display_tx))),
        (ShowFrame, Smartphone.on_show_tx_frame),
        (ShowTxPage, relay()),
        (ShowVerifiedTx, UserModel.on_show_verified_tx),
        (ConfirmTx, relay(ForwardConfirm)),
        (ForwardConfirm, Server.on_forward_confirm, {"challenged": "done"}),
        (TxResult, relay(lambda m: ShowResult(ok=m.accepted))),
        (ShowResult, relay()),
    ),
    Protocol.SECUREVIEW: (
        (Connect, relay(ConnectRequest)),
        (ConnectRequest, lambda s, m: s._issue_document(), {"start": "done"}),
        (SecureDoc, relay(ShowDoc)),
        (ShowDoc, Smartphone.on_show_doc),
        (ShowFields, UserModel.on_show_fields),
    ),
    Protocol.HIJACKGUARD: (
        (RequestTx, relay(SubmitTx)),
        (ConfirmOnPhone, Smartphone.on_confirm_on_phone),
        (SubmitTx, Server.on_guarded_tx, {"start": "tx_held", "side_held": "done"}),
        (SideCopy, Server.on_side_copy, {"start": "side_held", "tx_held": "done"}),
        (TxResult, relay(lambda m: ShowResult(ok=m.accepted))),
        (ShowResult, relay()),
    ),
}


def _flows(rows: tuple) -> dict:
    """One flow's parties, read off its rows: party -> phase -> tag ->
    (handler, next phase). A row goes to its class's receiver, under each
    phase its move names."""
    parties = {kind: {} for kind in EntityKind}
    for cls, handler, *move in rows:
        for phase, after in (move[0] if move else {"start": "start"}).items():
            parties[cls.CHANNEL.receiver].setdefault(phase, {})[cls.TAG] = (handler, after)
    return parties


# every party's legal message order, which Party.receive reads:
# FLOWS[protocol][party][phase][tag] = (handler, next phase)
FLOWS: dict[Protocol, dict[EntityKind, dict[str, dict[str, tuple]]]] = {
    protocol: _flows(rows) for protocol, rows in SPEC.items()
}


# each flow's opening, which UserModel.begin sends: the classes of its
# leading rows, the ones the user sends
OPENINGS: dict[Protocol, tuple[type[Message], ...]] = {
    protocol: tuple(cls for cls, *_ in takewhile(lambda row: row[0].CHANNEL.sender is EntityKind.USER, rows))
    for protocol, rows in SPEC.items()
}


# Each party's own state keys and their types, stated once. A party may also
# keep every message whose channel ends at it (Party.receive), and nothing
# else: a Plant or a recorded state with any other key is refused.
STATE: dict[EntityKind, dict[str, object]] = {
    EntityKind.USER: {
        "user_id": str, "passwords": tuple[str, ...], "attempt": int, "pending_otp": str | None,
        "intended_tx": Transaction,
    },
    EntityKind.TERMINAL: {},
    EntityKind.SMARTPHONE: {
        "keypair": KeyPair | None,  # None: a phone without the user's key, as an attack plants it
        "server_public": bytes, "server_name": str, "nonce": bytes, "session_nonce": bytes,
        "otp": str, "doc_values": tuple[tuple[str, str], ...],  # held only for the secret scan
    },
    EntityKind.SERVER: {
        "name": str, "keypair": KeyPair, "registry": MappingProxyType, "attempts": int, "user_id": str,
        "layout": KeyboardPermutation, "token": OtpToken, "nonce": Nonce, "nonce_consumed": bool,
        "session_nonce": bytes,
    },
}
register_state(STATE)


# -------- session assembly and run_flow --------


def build_session(config: SessionConfig, store: CredentialStore, actions=()) -> Session:
    credential = store.users.get(config.user_id)
    if credential is None:
        raise ValueError(f"no provisioned user {config.user_id!r}")
    session = Session(config.seed, config, store, actions)

    user = UserModel(session, config, credential.password)
    terminal = Terminal(session)
    phone = Smartphone(session, credential.keypair)
    server = Server(session)
    for entity in (user, terminal, phone, server):
        session.add_entity(entity)

    register_secret(session, SecretKind.PASSWORD, credential.password.encode("utf-8"))
    register_secret(session, SecretKind.USER_PRIVATE_KEY, credential.keypair.private_key)
    register_secret(session, SecretKind.SERVER_PRIVATE_KEY, store.server_pair.private_key)

    if config.protocol in (Protocol.TXVERIFY, Protocol.HIJACKGUARD):
        # extensions presuppose an authenticated session; both ends already
        # share its nonce
        nonce = crypto.fresh_nonce(session.rng, server.issued_nonces)
        server.state["session_nonce"] = nonce.value
        phone.state["session_nonce"] = nonce.value
    return session


@dataclass
class SessionResult:
    outcome: Outcome
    session: Session


def run_flow(config: SessionConfig, store: CredentialStore | None = None, actions=()) -> SessionResult:
    """Run one session of config.protocol to its verdict. actions are what an
    active attacker does to it (entities.ACTIONS); watching needs none, as
    adversary's views read the finished session's transcript."""
    store = store or CredentialStore.provision(config.seed)
    session = build_session(config, store, actions)
    session.begin()
    session.run()
    if session.outcome is None:
        session.finish(Outcome.ABORTED, "stalled")
    return SessionResult(outcome=session.outcome, session=session)


def run_hijack_guard(config: SessionConfig, store=None, actions=()) -> SessionResult:
    """run_flow as HIJACKGUARD, under its own name so traces can count the
    alteration sessions apart from the other sessions an adversary starts."""
    return run_flow(replace(config, protocol=Protocol.HIJACKGUARD), store, actions)
