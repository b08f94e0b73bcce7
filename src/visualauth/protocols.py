"""The three visualized login protocols and the transaction extensions.

Flow shapes (honest runs):

* keyboard_permutation: the server encrypts a fresh random keyboard layout
  to the user's public key and frames it; the terminal renders the frame
  beside a blank 6x6 grid; the smartphone decrypts and shows the layout;
  the user clicks positions; the server alone resolves positions back to
  symbols. The terminal never learns which symbol any click meant.
* encrypted_otp: the server frames an encrypted one-time password; the
  smartphone decrypts and displays it; the user types it on the terminal;
  the token is consumed on first successful use.
* nonce_upload: the server frames a plaintext nonce; the user types id and
  password on the smartphone, which seals (nonce, id, password, server
  name) to the server's public key and displays the ciphertext as a frame
  the terminal camera captures and relays. The terminal holds ciphertext
  only, and a stale or mismatched nonce is refused.

Extensions run inside an established session: signed transaction
confirmations verified on the smartphone, encrypted document fields
readable only through the smartphone, and a cellular side-channel copy
that a transaction must match before the server executes it (absence of
the copy fails closed).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace
from functools import partial
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
    register_message,
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
    issued_nonces: set[bytes] = field(default_factory=set)

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


@dataclass(frozen=True)
class Transaction:
    receiver_account: str
    amount: int  # minor units
    receiver_name: str

    def __post_init__(self):
        if self.amount <= 0:
            raise ValueError("amount must be positive")
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


@dataclass(frozen=True)
class SignedConfirmation:
    """A server-signed transaction. signed is the text the signature covers:
    the bytes that arrived, for one read by from_payload."""

    tx: Transaction
    nonce: bytes | None
    signature: Signature
    signed: bytes | None = None  # None: canonical_tx_bytes(tx, nonce)

    def __post_init__(self):
        if self.signed is None:
            object.__setattr__(self, "signed", canonical_tx_bytes(self.tx, self.nonce))

    def verify(self, server_public_key: bytes) -> bool:
        """A server signature over the signed bytes, which must be the
        canonical text of the transaction and nonce shown."""
        return (
            self.signature.signer is Role.SERVER
            and self.signed == canonical_tx_bytes(self.tx, self.nonce)
            and crypto.verify(server_public_key, self.signed, self.signature)
        )

    def to_payload(self) -> bytes:
        return struct.pack(">I", len(self.signed)) + self.signed + self.signature.to_bytes()

    @classmethod
    def from_payload(cls, payload: bytes) -> "SignedConfirmation":
        (n,) = struct.unpack(">I", payload[:4])
        signed = payload[4 : 4 + n]
        tx, nonce = parse_tx_canonical(signed)
        return cls(tx, nonce, Signature.from_bytes(payload[4 + n :]), signed)


# -------- session configuration --------


@dataclass(frozen=True)
class SessionFlags:
    sign_server_payloads: bool = True
    hijack_guard: bool = True
    tx_nonce_freshness: bool = True


DEFAULT_TX = Transaction(receiver_account="ACCT-7291", amount=25000, receiver_name="northwind supply")
DEFAULT_VIEW_FIELDS = (("balance", "10452.17"), ("statement", "paid 93.40 to coastal water"))

# the camera captures each flow makes, by the context _capture is called
# with; a SessionConfig.corrupt_context names one of its flow's
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
    installs run_flow takes (see adversary.replaying and
    adversary.phone_holding).
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
    drop_side_copy: bool = False


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
    context: str


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


@register_message("terminal_display_phone", "frame_payload")
class ShowTxFrame(Message):
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


def _pack_signed(ct: crypto.Ciphertext, sig: Signature | None) -> bytes:
    wire = ct.to_bytes()
    out = struct.pack(">I", len(wire)) + wire
    if sig is not None:
        out += sig.to_bytes()
    return out


def _unpack_signed(payload: bytes) -> tuple[crypto.Ciphertext, Signature | None]:
    """The inverse of _pack_signed: ValueError for a length past the end."""
    (n,) = struct.unpack(">I", payload[:4])
    if 4 + n > len(payload):
        raise ValueError("sealed payload is shorter than its length prefix")
    ct = crypto.Ciphertext.from_bytes(payload[4 : 4 + n])
    rest = payload[4 + n :]
    return ct, (Signature.from_bytes(rest) if rest else None)


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


def _frame(session: Session, payload: bytes, context: str) -> VisualFrame:
    """Auto-select the smallest fitting version at the session's ec level."""
    spec = qr.choose_spec(payload, session.config.frame_ec)
    frame = qr.qr_encode(payload, spec)
    session.note_frame(context, frame)
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


class Party(Entity):
    """One of the four parties. It takes a message only where its FLOWS rows
    allow, from the phase it stands in, and only if it is well_formed; a tag
    foreign to its rows in the flow aborts <tag>_out_of_protocol, one in the
    wrong phase <tag>_out_of_order, a field of the wrong type <tag>_malformed,
    and once the session has aborted no party takes input."""

    phase = "start"

    def receive(self, message: Message) -> None:
        tag = message.TAG
        flow = FLOWS[self.session.config.protocol][self.kind]
        phase = "done" if self.session.outcome is Outcome.ABORTED else self.phase
        row = flow.get(phase, {}).get(tag)
        if row is None:
            known = any(tag in rows for rows in flow.values())
            self.session.finish(Outcome.ABORTED, f"{tag}_{'out_of_order' if known else 'out_of_protocol'}")
        elif not message.well_formed():
            self.session.finish(Outcome.ABORTED, f"{tag}_malformed")
        else:
            handler, self.phase = row
            handler(self, message)


class UserModel(Party):
    """The human: remembers credentials and intent, reads screens, clicks.

    Confirms a transaction only when the smartphone-verified copy agrees
    with both the page on the terminal and what it meant to send.
    """

    kind = EntityKind.USER

    def __init__(self, session, config: SessionConfig, password: str):
        super().__init__(session)
        passwords = config.submit_passwords or (password,)
        self.state.update(
            user_id=config.user_id,
            passwords=tuple(passwords),
            attempt=0,
            keyboard_shown=False,
            pending_otp=None,
            typed_otps=0,
            intended_tx=DEFAULT_TX,
            page_tx=None,
        )

    def _next_password(self) -> str:
        pw = self.state["passwords"][min(self.state["attempt"], len(self.state["passwords"]) - 1)]
        self.state["attempt"] += 1
        return pw

    def begin(self) -> None:
        protocol = self.session.config.protocol
        if protocol in (Protocol.P1, Protocol.P2):
            self.emit(TypeId(user_id=self.state["user_id"]))
        elif protocol in (Protocol.P3, Protocol.SECUREVIEW):
            self.emit(Connect())
        elif protocol in (Protocol.TXVERIFY, Protocol.HIJACKGUARD):
            self.emit(RequestTx(tx=self.state["intended_tx"]))
            if protocol is Protocol.HIJACKGUARD:
                self.emit(ConfirmOnPhone(tx=self.state["intended_tx"]))

    def on_show_keyboard(self, msg: ShowKeyboard) -> None:
        self.state["keyboard_shown"] = True
        if self.state["pending_otp"] is not None:
            self._type_pending_otp()

    def on_show_layout(self, msg: ShowLayout) -> None:
        # find each password symbol on the freshly decrypted layout
        password = self._next_password()
        positions = tuple(msg.layout.position_of(ch) for ch in password)
        self.emit(ClickPositions(positions=positions))

    def on_show_otp(self, msg: ShowOtp) -> None:
        self.state["pending_otp"] = msg.otp
        if self.state["keyboard_shown"]:
            self._type_pending_otp()

    def _type_pending_otp(self) -> None:
        otp, self.state["pending_otp"] = self.state["pending_otp"], None
        self.state["typed_otps"] += 1
        if self.session.config.mistype_otp:
            # one symbol off: the next alphabet symbol in the first slot
            shifted = crypto.ALPHABET[(crypto.ALPHABET.index(otp[0]) + 1) % len(crypto.ALPHABET)]
            otp = shifted + otp[1:]
        self.emit(TypeOtp(otp=otp))

    def on_show_login_box(self, msg: ShowLoginBox) -> None:
        self.emit(TypeCredentials(user_id=self.state["user_id"], password=self._next_password()))

    def on_echo_clicks(self, msg: EchoClicks) -> None:
        self.state["echo_positions"] = msg.positions

    def on_echo_otp(self, msg: EchoOtp) -> None:
        self.state["echo_otp_len"] = len(msg.otp)

    def on_echo_masked_credentials(self, msg: EchoMaskedCredentials) -> None:
        self.state["masked_echo"] = msg.masked

    def on_show_result(self, msg: ShowResult) -> None:
        self.state["saw_result"] = msg.ok

    def on_show_tx_page(self, msg: ShowTxPage) -> None:
        self.state["page_tx"] = msg.tx

    def on_show_verified_tx(self, msg: ShowVerifiedTx) -> None:
        ok = (
            msg.sig_valid
            and msg.fresh
            and msg.tx == self.state["page_tx"]
            and msg.tx == self.state["intended_tx"]
        )
        if not ok:
            self.session.finish(Outcome.USER_FLAGGED_MISMATCH)
        self.emit(ConfirmTx(ok=ok))

    def on_show_fields(self, msg: ShowFields) -> None:
        self.state["viewed_fields"] = msg.values
        self.session.view_values = dict(msg.values)
        self.session.view_failures = tuple(msg.failures)
        self.session.finish(Outcome.VIEWED)


class Terminal(Party):
    """The untrusted browser/kiosk: routes, renders, never holds a secret
    beyond the one-time password it relays in the OTP flow."""

    kind = EntityKind.TERMINAL

    def on_type_id(self, msg: TypeId) -> None:
        self.state["user_id"] = msg.user_id
        self.emit(LoginRequest(user_id=msg.user_id, protocol=self.session.config.protocol.value))

    def on_connect(self, msg: Connect) -> None:
        self.emit(ConnectRequest())

    def on_kbd_challenge(self, msg: KbdChallenge) -> None:
        self.state["challenge_payload"] = msg.frame.payload
        self.emit(ShowFrame(frame=msg.frame, context="keyboard"))
        self.emit(ShowKeyboard(layout_kind="blank", rows=msg.grid_rows, cols=msg.grid_cols))

    def on_otp_challenge(self, msg: OtpChallenge) -> None:
        self.state["challenge_payload"] = msg.frame.payload
        self.emit(ShowFrame(frame=msg.frame, context="otp"))
        self.emit(ShowKeyboard(layout_kind="full", rows=4, cols=10))

    def on_nonce_challenge(self, msg: NonceChallenge) -> None:
        self.state["nonce_frame_payload"] = msg.frame.payload
        self.emit(ShowFrame(frame=msg.frame, context="nonce"))

    def on_click_positions(self, msg: ClickPositions) -> None:
        self.state["positions"] = msg.positions
        self.emit(EchoClicks(positions=msg.positions))
        self.emit(SubmitPositions(positions=msg.positions))

    def on_type_otp(self, msg: TypeOtp) -> None:
        self.state["typed_otp"] = msg.otp
        self.emit(EchoOtp(otp=msg.otp))
        self.emit(SubmitOtp(otp=msg.otp))

    def on_upload_frame(self, msg: UploadFrame) -> None:
        try:
            blob = _capture(self.session, msg.frame, "credential_upload")
        except qr.UncorrectableFrameError:
            self.session.finish(Outcome.ABORTED, "upload_frame_undecodable", retryable=True)
            return
        self.state["credential_blob"] = blob
        self.emit(SubmitCiphertext(blob=blob))

    def on_auth_result(self, msg: AuthResult) -> None:
        self.state["auth_ok"] = msg.ok
        self.emit(ShowResult(ok=msg.ok))

    def on_request_tx(self, msg: RequestTx) -> None:
        self.state["form_tx"] = msg.tx
        self.emit(SubmitTx(tx=msg.tx))

    def on_tx_confirmation(self, msg: TxConfirmation) -> None:
        self.state["page_tx"] = msg.display_tx
        self.emit(ShowTxFrame(frame=msg.frame))
        self.emit(ShowTxPage(tx=msg.display_tx))

    def on_confirm_tx(self, msg: ConfirmTx) -> None:
        self.emit(ForwardConfirm(ok=msg.ok))

    def on_tx_result(self, msg: TxResult) -> None:
        self.state["tx_ok"] = msg.accepted
        self.emit(ShowResult(ok=msg.accepted))

    def on_secure_doc(self, msg: SecureDoc) -> None:
        self.state["doc_payloads"] = tuple(f.payload for f in msg.frames)
        self.emit(ShowDoc(labels=msg.labels, frames=msg.frames))


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

    def on_show_frame(self, msg: ShowFrame, context: str, read) -> None:
        # the flow's row, never the terminal's label, says what the frame holds
        if msg.context != context:
            self._refuse_scan("show_frame_out_of_protocol", retryable=False)
            return
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

    def _open_challenge(self, payload: bytes, parse, key: str, show) -> None:
        """Verify, decrypt and parse a sealed challenge, keep it as state[key]
        and show it to the user; a failed check aborts fatal."""
        try:
            ct, sig = _unpack_signed(payload)
        except (struct.error, crypto.IntegrityError, ValueError):
            self.session.finish(Outcome.ABORTED, "challenge_malformed")
            return
        if self.session.config.flags.sign_server_payloads:
            if (
                sig is None
                or sig.signer is not Role.SERVER
                or not crypto.verify(self.state["server_public"], ct.to_bytes(), sig)
            ):
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
        self.state[key] = value
        self.emit(show(value))

    def on_type_credentials(self, msg: TypeCredentials) -> None:
        # the login box masks the password; only glyph count is rendered
        self.state["login"] = (msg.user_id, msg.password)
        self.emit(EchoMaskedCredentials(user_id=msg.user_id, masked=MASK_GLYPH * len(msg.password)))
        plain = _pack_credentials(self.state["nonce"], msg.user_id, msg.password, self.state["server_name"])
        ct = crypto.encrypt(self.state["server_public"], plain, self.session.rng)
        blob = ct.to_bytes()
        self.session.register_secret(
            SecretKind.CREDENTIAL_CIPHERTEXT, blob, allowed=set(EntityKind)
        )
        frame = _frame(self.session, blob, "credential_upload")
        self.emit(UploadFrame(frame=frame))

    def on_show_tx_frame(self, msg: ShowTxFrame) -> None:
        try:
            payload = _capture(self.session, msg.frame, "tx_confirmation")
            conf = SignedConfirmation.from_payload(payload)
        except (qr.UncorrectableFrameError, struct.error, ValueError):
            self.emit(ShowVerifiedTx(tx=None, sig_valid=False, fresh=False))
            return
        valid = conf.verify(self.state["server_public"])
        if self.session.config.flags.tx_nonce_freshness:
            fresh = conf.nonce is not None and conf.nonce == self.state.get("session_nonce")
        else:
            fresh = True
        self.state["verified_tx"] = conf.tx
        self.emit(ShowVerifiedTx(tx=conf.tx, sig_valid=valid, fresh=fresh))

    def on_confirm_on_phone(self, msg: ConfirmOnPhone) -> None:
        if self.session.config.drop_side_copy:
            return  # side channel suppressed in this scenario
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
            executed_tx=None,
        )

    # -- challenge issuance --

    def _sealed_frame(self, plain: bytes, context: str) -> VisualFrame:
        """plain encrypted to the user's key, signed unless signing is off, framed."""
        _, public_key = self.state["registry"][self.state["user_id"]]
        ct = crypto.encrypt(public_key, plain, self.session.rng)
        sig = (
            crypto.sign(self.state["keypair"], ct.to_bytes())
            if self.session.config.flags.sign_server_payloads
            else None
        )
        return _frame(self.session, _pack_signed(ct, sig), context)

    def _issue_keyboard(self) -> None:
        layout = crypto.generate_permutation(self.session.rng)
        self.state["layout"] = layout
        self.session.register_secret(
            SecretKind.PERMUTATION,
            layout.serialize(),
            allowed={EntityKind.SERVER, EntityKind.SMARTPHONE, EntityKind.USER},
        )
        frame = self._sealed_frame(layout.serialize(), "keyboard_challenge")
        self.emit(KbdChallenge(frame=frame, grid_rows=GRID_ROWS, grid_cols=GRID_COLS))

    def _issue_otp(self) -> None:
        token = crypto.generate_otp(
            self.session.rng,
            issued_at=self.session.step,
            outstanding=[t for t in (self.state.get("token"),) if t],
        )
        self.state["token"] = token
        self.session.register_secret(SecretKind.OTP, token.value.encode(), allowed=set(EntityKind))
        self.emit(OtpChallenge(frame=self._sealed_frame(token.value.encode("ascii"), "otp_challenge")))

    def _issue_nonce(self) -> None:
        nonce = crypto.fresh_nonce(self.session.rng, self.session.store.issued_nonces)
        self.state["nonce"] = nonce
        self.state["nonce_consumed"] = False
        frame = _frame(self.session, nonce.value, "nonce_challenge")
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
        self.state["received_tx"] = msg.tx
        nonce = self.state["session_nonce"] if self.session.config.flags.tx_nonce_freshness else None
        canonical = canonical_tx_bytes(msg.tx, nonce)
        conf = SignedConfirmation(
            msg.tx, nonce, crypto.sign(self.state["keypair"], canonical), canonical
        )
        frame = _frame(self.session, conf.to_payload(), "tx_confirmation")
        self.emit(TxConfirmation(display_tx=msg.tx, frame=frame))

    def on_forward_confirm(self, msg: ForwardConfirm) -> None:
        self._settle_tx(msg.ok, Outcome.CONFIRMED if msg.ok else Outcome.USER_FLAGGED_MISMATCH)

    def on_guarded_tx(self, msg: SubmitTx) -> None:
        # HIJACKGUARD: execute only once the side copy matches; with the guard
        # off, at once
        self.state["received_tx"] = msg.tx
        if self.session.config.flags.hijack_guard:
            self._check_guard()
        else:
            self._settle_tx(True, Outcome.ACCEPTED)

    def on_side_copy(self, msg: SideCopy) -> None:
        self.state["side_tx"] = msg.tx
        self.state["side_sig"] = msg.signature
        if self.session.config.flags.hijack_guard:
            self._check_guard()

    def _check_guard(self) -> None:
        received = self.state.get("received_tx")
        side_tx = self.state.get("side_tx")
        if received is None or side_tx is None:
            return  # wait for the other half; on_idle fails closed
        # the cheap facts first: a mismatch or a non-user signer is REJECTED
        # before the signature is verified, which only an agreeing copy needs
        _, public_key = self.state["registry"][self.session.config.user_id]
        side_sig = self.state["side_sig"]
        ok = (
            side_tx == received
            and side_sig.signer is Role.USER
            and crypto.verify(public_key, canonical_tx_bytes(side_tx), side_sig)
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
            self.state["executed_tx"] = self.session.executed_tx = self.state["received_tx"]
        self.session.finish(outcome)
        self.emit(TxResult(accepted=execute))

    # -- secure viewing --

    def _issue_document(self) -> None:
        _, public_key = self.state["registry"][self.session.config.user_id]
        labels, frames = [], []
        for label, value in DEFAULT_VIEW_FIELDS:
            self.session.register_secret(
                SecretKind.VIEW_FIELD,
                value.encode("utf-8"),
                allowed={EntityKind.SERVER, EntityKind.SMARTPHONE, EntityKind.USER},
            )
            ct = crypto.encrypt(public_key, value.encode("utf-8"), self.session.rng)
            labels.append(label)
            frames.append(_frame(self.session, ct.to_bytes(), f"secure_field:{label}"))
        self.state["document_labels"] = tuple(labels)
        self.emit(SecureDoc(labels=tuple(labels), frames=tuple(frames)))


def _any_order(party: type, *messages: type, **bound) -> dict:
    """One phase: party takes each message, in any order, by on_<tag>(msg, **bound)."""
    rows = {cls.TAG: (partial(getattr(party, "on_" + cls.TAG), **bound), "start") for cls in messages}
    return {"start": rows}


_OPEN_LAYOUT = partial(
    Smartphone._open_challenge, parse=KeyboardPermutation.from_serialized, key="layout", show=ShowLayout
)
_OPEN_OTP = partial(Smartphone._open_challenge, parse=_parse_otp, key="otp", show=ShowOtp)
_SCAN_NONCE = partial(Smartphone.on_show_frame, context="nonce", read=Smartphone._read_nonce)

# Every party's legal message order: FLOWS[protocol][party][phase][tag] =
# (handler, next phase). A client stands in one phase wherever order does not
# matter; a phone's scan row binds the frame's context and its payload's reader,
# and the P3 phone takes credentials only after a scan. A login retry reissues
# the challenge in "challenged"; a login verdict moves the server to "done".
FLOWS: dict[Protocol, dict[EntityKind, dict[str, dict[str, tuple]]]] = {
    Protocol.P1: {
        EntityKind.USER: _any_order(UserModel, ShowKeyboard, ShowLayout, EchoClicks, ShowResult),
        EntityKind.TERMINAL: _any_order(Terminal, TypeId, KbdChallenge, ClickPositions, AuthResult),
        EntityKind.SMARTPHONE: _any_order(Smartphone, ShowFrame, context="keyboard", read=_OPEN_LAYOUT),
        EntityKind.SERVER: {
            "start": {LoginRequest.TAG: (lambda s, m: s._login(m, s._issue_keyboard), "challenged")},
            "challenged": {SubmitPositions.TAG: (Server.on_submit_positions, "challenged")},
        },
    },
    Protocol.P2: {
        EntityKind.USER: _any_order(UserModel, ShowKeyboard, ShowOtp, EchoOtp, ShowResult),
        EntityKind.TERMINAL: _any_order(Terminal, TypeId, OtpChallenge, TypeOtp, AuthResult),
        EntityKind.SMARTPHONE: _any_order(Smartphone, ShowFrame, context="otp", read=_OPEN_OTP),
        EntityKind.SERVER: {
            "start": {LoginRequest.TAG: (lambda s, m: s._login(m, s._issue_otp), "challenged")},
            "challenged": {SubmitOtp.TAG: (Server.on_submit_otp, "challenged")},
        },
    },
    Protocol.P3: {
        EntityKind.USER: _any_order(UserModel, ShowLoginBox, EchoMaskedCredentials, ShowResult),
        EntityKind.TERMINAL: _any_order(Terminal, Connect, NonceChallenge, UploadFrame, AuthResult),
        EntityKind.SMARTPHONE: {
            "start": {ShowFrame.TAG: (_SCAN_NONCE, "scanned")},
            "scanned": {
                ShowFrame.TAG: (_SCAN_NONCE, "scanned"),
                TypeCredentials.TAG: (Smartphone.on_type_credentials, "scanned"),
            },
        },
        EntityKind.SERVER: {
            "start": {ConnectRequest.TAG: (lambda s, m: s._issue_nonce(), "challenged")},
            "challenged": {SubmitCiphertext.TAG: (Server.on_submit_ciphertext, "challenged")},
        },
    },
    Protocol.TXVERIFY: {
        EntityKind.USER: _any_order(UserModel, ShowTxPage, ShowVerifiedTx, ShowResult),
        EntityKind.TERMINAL: _any_order(Terminal, RequestTx, TxConfirmation, ConfirmTx, TxResult),
        EntityKind.SMARTPHONE: _any_order(Smartphone, ShowTxFrame),
        EntityKind.SERVER: {
            "start": {SubmitTx.TAG: (Server.on_submit_tx, "challenged")},
            "challenged": {ForwardConfirm.TAG: (Server.on_forward_confirm, "done")},
        },
    },
    Protocol.SECUREVIEW: {
        EntityKind.USER: _any_order(UserModel, ShowFields),
        EntityKind.TERMINAL: _any_order(Terminal, Connect, SecureDoc),
        EntityKind.SMARTPHONE: _any_order(Smartphone, ShowDoc),
        EntityKind.SERVER: {"start": {ConnectRequest.TAG: (lambda s, m: s._issue_document(), "done")}},
    },
    Protocol.HIJACKGUARD: {
        EntityKind.USER: _any_order(UserModel, ShowResult),
        EntityKind.TERMINAL: _any_order(Terminal, RequestTx, TxResult),
        EntityKind.SMARTPHONE: _any_order(Smartphone, ConfirmOnPhone),
        EntityKind.SERVER: {
            "start": {
                SubmitTx.TAG: (Server.on_guarded_tx, "tx_held"),
                SideCopy.TAG: (Server.on_side_copy, "side_held"),
            },
            "tx_held": {SideCopy.TAG: (Server.on_side_copy, "done")},
            "side_held": {SubmitTx.TAG: (Server.on_guarded_tx, "done")},
        },
    },
}


# -------- session assembly and run_flow --------


def build_session(config: SessionConfig, store: CredentialStore) -> Session:
    credential = store.users.get(config.user_id)
    if credential is None:
        raise ValueError(f"no provisioned user {config.user_id!r}")
    session = Session(config.seed, config, store)

    user = UserModel(session, config, credential.password)
    terminal = Terminal(session)
    phone = Smartphone(session, credential.keypair)
    server = Server(session)
    for entity in (user, terminal, phone, server):
        session.add_entity(entity)

    session.register_secret(
        SecretKind.PASSWORD,
        credential.password.encode("utf-8"),
        allowed={EntityKind.USER, EntityKind.SERVER}
        | ({EntityKind.SMARTPHONE} if config.protocol is Protocol.P3 else set()),
    )
    session.register_secret(
        SecretKind.USER_PRIVATE_KEY,
        credential.keypair.private_key,
        allowed={EntityKind.SMARTPHONE},
    )
    session.register_secret(
        SecretKind.SERVER_PRIVATE_KEY,
        store.server_pair.private_key,
        allowed={EntityKind.SERVER},
    )

    if config.protocol in (Protocol.TXVERIFY, Protocol.HIJACKGUARD):
        # extensions presuppose an authenticated session; both ends already
        # share its nonce
        nonce = crypto.fresh_nonce(session.rng, store.issued_nonces)
        server.state["session_nonce"] = nonce.value
        phone.state["session_nonce"] = nonce.value
    return session


@dataclass
class SessionResult:
    outcome: Outcome
    session: Session


def run_flow(config: SessionConfig, store: CredentialStore | None = None, adversaries=()) -> SessionResult:
    """Run one session of config.protocol to its verdict.

    Each adversary is an install: a callable that gets the built session
    before the user begins, to add taps and hooks, plant state or queue
    traffic. Watching needs no install: adversary.AttackerHandle reads the
    finished session's transcript.
    """
    store = store or CredentialStore.provision(config.seed)
    session = build_session(config, store)
    for install in adversaries:
        install(session)
    session.entities[EntityKind.USER].begin()
    session.run()
    if session.outcome is None:
        session.finish(Outcome.ABORTED, "stalled")
    return SessionResult(outcome=session.outcome, session=session)


def run_hijack_guard(config: SessionConfig, store=None, adversaries=()) -> SessionResult:
    """run_flow as HIJACKGUARD, under its own name so traces can count the
    alteration sessions apart from the other sessions an adversary starts."""
    return run_flow(replace(config, protocol=Protocol.HIJACKGUARD), store, adversaries)
