"""Key material, sealed payloads, signatures, keyboard permutations, OTPs.

Design constraints this module enforces:

* Every keypair is reproducible from a seed. Both curve25519 halves are
  derived from raw private bytes drawn off the caller's PRNG stream, so a
  scenario seed pins all key material.
* A KeyPair is its raw bytes. The private key objects that decrypt and
  sign use are loaded once per KeyPair and held on the instance outside
  its dataclass fields, so equality, hashing and serialization never see
  them and no key is shared between pairs. generate_keypair hands over
  the objects it loaded to derive the public key; a pair built from raw
  bytes loads each on first use.
* Every ciphertext is integrity protected. There is no unauthenticated
  mode; a flipped bit anywhere in a sealed payload must surface as
  IntegrityError at decryption, never as silently wrong plaintext.
* Signatures are detached and verification never raises on forgeries, it
  returns False. A signature's wire form leads with a role byte that parsing
  validates (0 user, 1 server, anything else is refused) but that the
  signature does not cover, so verify takes the signer it accepts and
  refuses a signature that names any other.
* Two records answer from work this module already did, exactly as the
  curve and the key derivation would. Each keeps its last four entries,
  which cover what a flow checks or opens a few deliveries after it signs
  or seals, the rule of qr.rs_parity's memo. sign and encrypt always run,
  so a rerun of identical sessions hides no signing or sealing cost, and
  every input a record does not hold gets the curve operation, and a seal
  the derivation too.
  - Signatures. verify answers a (public half, message, signature) triple
    that sign made. sign records the public half derived from its own
    signing key, never the pair's stored half, so the record holds only
    triples that verify: Ed25519 is deterministic, and a signature made
    under a key verifies under that key's public half (RFC 8032,
    5.1.6-5.1.7). A message matches by equality, as any bytes-like message
    verifies, and a public half that is not bytes goes to the curve check,
    which refuses it.
  - Seals. decrypt takes the AES key for (sealing half, ephemeral half)
    that encrypt derived. encrypt records the half it handed the
    exchange, a bytes slice it made itself, and decrypt looks entries up
    under the half derived from the pair's own private key, never the
    pair's stored half. X25519 commutes (RFC 7748, 6.1): X25519(e, a*G) =
    X25519(a, e*G), and HKDF is deterministic, so an entry found under a*G
    and e*G holds the very key the pair's own exchange and derivation
    would give. A pair that stores another half fails the tag check on
    either path, because the authenticated data carries the stored half.
    An ephemeral half that is not bytes goes to the exchange, which
    refuses it. The tag check runs on every payload, so a tampered,
    truncated or wrong-key payload still raises IntegrityError.

The content cipher is AES-192-GCM (a counter-mode cipher plus a mandatory
tag). Public-key sealing wraps it in an X25519 ephemeral-static envelope.
"""

from __future__ import annotations

import collections
import enum
import functools
import random
import struct
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .rng import as_rng

# 6x6 on-screen grid: lowercase letters then digits, case-insensitive inputs
# are folded before lookup.
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
ALPHABET_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}
_SORTED_ALPHABET = sorted(ALPHABET)  # what a layout's sorted symbols must be

NONCE_LEN = 16
DEFAULT_OTP_LEN = 8
SYMMETRIC_KEY_LEN = 24  # AES-192

_GCM_NONCE_LEN = 12
_GCM_TAG_LEN = 16


class CryptoError(Exception):
    """Base class for everything this module raises on purpose."""


class IntegrityError(CryptoError):
    """Ciphertext failed authentication: tampered, truncated, or wrong key."""


class Role(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    USER = "user"
    SERVER = "server"


# the one sealing scheme, X25519 + AES-GCM; its byte leads every ciphertext
# on the wire and is bound into the authenticated data
_HYBRID_SCHEME = b"\x01"


# -------- key pairs --------


@dataclass(frozen=True)
class KeyPair:
    """Sealing (X25519) plus signing (Ed25519) halves under one identity.

    public_key and private_key are opaque 64-byte strings: the sealing
    half first, the signing half second.
    """

    role: Role
    public_key: bytes
    private_key: bytes

    def __post_init__(self):
        if len(self.public_key) != 64 or len(self.private_key) != 64:
            raise ValueError("key halves must be 32+32 bytes")

    @property
    def seal_public(self) -> bytes:
        return self.public_key[:32]

    # cached_property writes the instance __dict__ directly, which a frozen
    # dataclass allows; the loaded keys are not fields
    @functools.cached_property
    def _seal_private(self) -> X25519PrivateKey:
        return X25519PrivateKey.from_private_bytes(self.private_key[:32])

    @functools.cached_property
    def _sign_private(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.private_key[32:])

    # the sealing half the private key derives, which the seal record is
    # looked up under; it differs from seal_public in a pair that stores
    # another pair's public half
    @functools.cached_property
    def _own_seal_public(self) -> bytes:
        return self._seal_private.public_key().public_bytes_raw()

    # the signing half the private key derives, which sign records; it
    # differs from public_key[32:] in a pair that stores another pair's half
    @functools.cached_property
    def _own_sign_public(self) -> bytes:
        return self._sign_private.public_key().public_bytes_raw()


def generate_keypair(role: Role, seed: random.Random | int) -> KeyPair:
    """Deterministically derive a keypair from a seed or PRNG stream.

    The same (role, seed) always yields byte-identical key material.
    """
    rng = as_rng(seed)
    seal_raw = rng.randbytes(32)
    sign_raw = rng.randbytes(32)
    seal_priv = X25519PrivateKey.from_private_bytes(seal_raw)
    sign_priv = Ed25519PrivateKey.from_private_bytes(sign_raw)
    pub = (
        seal_priv.public_key().public_bytes_raw()
        + sign_priv.public_key().public_bytes_raw()
    )
    pair = KeyPair(role=role, public_key=pub, private_key=seal_raw + sign_raw)
    # fill the cached properties with the keys already loaded and derived
    vars(pair).update(
        _seal_private=seal_priv, _sign_private=sign_priv, _own_seal_public=pub[:32], _own_sign_public=pub[32:]
    )
    return pair


# -------- sealed payloads --------


@dataclass(frozen=True)
class Ciphertext:
    """An integrity-protected sealed payload.

    body layout: ephemeral public key (32) + cipher nonce (12) +
    ciphertext. tag is the 16-byte authenticator. The wire form is the
    scheme byte, the body length, the body and the tag.
    """

    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return _HYBRID_SCHEME + struct.pack(">I", len(self.body)) + self.body + self.tag

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Ciphertext":
        if len(blob) < 5 + _GCM_TAG_LEN:
            raise IntegrityError("ciphertext too short")
        if blob[:1] != _HYBRID_SCHEME:
            raise IntegrityError("unknown scheme byte")
        (body_len,) = struct.unpack(">I", blob[1:5])
        if len(blob) != 5 + body_len + _GCM_TAG_LEN:
            raise IntegrityError("ciphertext length mismatch")
        return cls(blob[5 : 5 + body_len], blob[5 + body_len :])


def _hybrid_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=SYMMETRIC_KEY_LEN,
        salt=None,
        info=b"visualauth.hybrid.v1" + eph_pub + recipient_pub,
    ).derive(shared)


# (recipient's sealing half, ephemeral half, key) of the last seals encrypt
# made; see the module notes
_SEALED = collections.deque(maxlen=4)


def _recorded_key(half: bytes, eph_pub) -> bytes | None:
    """The key encrypt derived for (half, eph_pub), or None."""
    if type(eph_pub) is bytes:
        for entry_half, entry_eph, key in _SEALED:
            if entry_eph == eph_pub and entry_half == half:
                return key
    return None


def encrypt(public_key: bytes, message: bytes, rng: random.Random | int) -> Ciphertext:
    """Seal message to the holder of public_key's sealing half.

    An ephemeral X25519 key is drawn from rng, so the output is a pure
    function of (public_key, message, rng state). The recipient's public
    key and the scheme byte ride in the authenticated data: redirecting a
    ciphertext or relabeling its scheme breaks the tag.
    """
    rng = as_rng(rng)
    half = public_key[:32]  # plain bytes, even of a bytes subclass; the exchange refuses other types
    recipient = X25519PublicKey.from_public_bytes(half)
    eph_priv = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph_priv.public_key().public_bytes_raw()
    key = _hybrid_key(eph_priv.exchange(recipient), eph_pub, half)
    _SEALED.append((half, eph_pub, key))
    nonce = rng.randbytes(_GCM_NONCE_LEN)
    sealed = AESGCM(key).encrypt(nonce, message, _HYBRID_SCHEME + half)
    return Ciphertext(body=eph_pub + nonce + sealed[:-_GCM_TAG_LEN], tag=sealed[-_GCM_TAG_LEN:])


def decrypt(pair: KeyPair, ciphertext: Ciphertext) -> bytes:
    """Open a sealed payload. Raises IntegrityError on any tampering,
    truncation, or wrong-key attempt; never returns corrupted plaintext."""
    if len(ciphertext.body) < 32 + _GCM_NONCE_LEN:
        raise IntegrityError("ciphertext body too short")
    eph_pub = ciphertext.body[:32]
    nonce = ciphertext.body[32 : 32 + _GCM_NONCE_LEN]
    ct = ciphertext.body[32 + _GCM_NONCE_LEN :] + ciphertext.tag
    try:
        half = pair.seal_public
        key = _recorded_key(pair._own_seal_public, eph_pub) or _hybrid_key(
            pair._seal_private.exchange(X25519PublicKey.from_public_bytes(eph_pub)), eph_pub, half
        )
        return AESGCM(key).decrypt(nonce, ct, _HYBRID_SCHEME + half)
    except (InvalidTag, ValueError) as exc:
        raise IntegrityError("ciphertext rejected") from exc


# -------- signatures --------


# a signature's role byte is its signer's index here
_SIGNERS = (Role.USER, Role.SERVER)


@dataclass(frozen=True)
class Signature:
    sig: bytes
    signer: Role

    def to_bytes(self) -> bytes:
        return bytes([_SIGNERS.index(self.signer)]) + self.sig

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Signature":
        if len(blob) != 65:
            raise ValueError("signature blob must be 65 bytes")
        if blob[0] > 1:
            raise ValueError("signature role byte must be 0 (user) or 1 (server)")
        return cls(sig=blob[1:], signer=_SIGNERS[blob[0]])


# (public half, message, signature) of the last signatures sign made; see
# the module notes
_SIGNED = collections.deque(maxlen=4)


def sign(pair: KeyPair, message: bytes) -> Signature:
    """Detached signature over message with the signing half of pair."""
    sig = pair._sign_private.sign(message)
    # a copy of the message, so that a bytearray changed later matches nothing
    _SIGNED.append((pair._own_sign_public, bytes(message), sig))
    return Signature(sig=sig, signer=pair.role)


def verify(public_key: bytes, message: bytes, signature: Signature, signer: Role) -> bool:
    """True iff signature names signer and is valid for message under
    public_key.

    Any mutation of message or signature flips the result to False; this
    never raises for a mere forgery.
    """
    if signature.signer is not signer or len(signature.sig) != 64:
        return False
    key = public_key[32:]
    # the curve check takes a key only as bytes, and a message as any
    # bytes-like; equality, not hashing, matches the message the same way
    if type(key) is bytes and (key, message, signature.sig) in _SIGNED:
        return True
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(
            signature.sig, message
        )
        return True
    except InvalidSignature:
        return False


# -------- keyboard permutations --------


@dataclass(frozen=True)
class KeyboardPermutation:
    """A bijection from the 36 grid positions to the 36 symbols.

    mapping[p] is the symbol rendered at position p. Serialized form is
    the 36 mapped symbols concatenated in position order.
    """

    mapping: tuple[str, ...]

    def __post_init__(self):
        if sorted(self.mapping) != _SORTED_ALPHABET:
            raise ValueError("mapping is not a bijection over the alphabet")

    def position_of(self, symbol: str) -> int:
        sym = symbol.lower()
        if sym not in ALPHABET_INDEX:
            raise ValueError(f"symbol {symbol!r} outside the alphabet")
        return self.mapping.index(sym)

    def resolve(self, positions) -> str:
        """Map a click-position sequence back to the symbols typed; raises
        ValueError unless every position is an int on the grid."""
        if not isinstance(positions, (tuple, list)) or not all(
            type(p) is int and 0 <= p < len(self.mapping) for p in positions
        ):
            raise ValueError("click position outside the grid")
        return "".join(self.mapping[p] for p in positions)

    def serialize(self) -> bytes:
        return "".join(self.mapping).encode("ascii")

    @classmethod
    def from_serialized(cls, blob: bytes) -> "KeyboardPermutation":
        return cls(tuple(blob.decode("ascii")))


def generate_permutation(rng: random.Random | int) -> KeyboardPermutation:
    """Uniform random layout via the PRNG's Fisher-Yates shuffle."""
    rng = as_rng(rng)
    symbols = list(ALPHABET)
    rng.shuffle(symbols)
    return KeyboardPermutation(tuple(symbols))


# -------- one-time passwords --------


@dataclass(frozen=True)
class OtpToken:
    """A single-use password, immutable like every other state value.

    consume() returns the consumed copy for the holder to keep in the
    token's place; consuming a consumed token raises.
    """

    value: str
    consumed: bool = False

    def consume(self) -> "OtpToken":
        if self.consumed:
            raise CryptoError("token already consumed")
        return replace(self, consumed=True)


def generate_otp(rng: random.Random | int, outstanding=()) -> OtpToken:
    """Draw a fresh token of DEFAULT_OTP_LEN characters over the alphabet.

    Freshness means the value differs from every unconsumed token in
    outstanding; collisions redraw.
    """
    rng = as_rng(rng)
    live = {t.value for t in outstanding if not t.consumed}
    while True:
        value = "".join(rng.choice(ALPHABET) for _ in range(DEFAULT_OTP_LEN))
        if value not in live:
            return OtpToken(value=value)


# -------- nonces --------


@dataclass(frozen=True)
class Nonce:
    value: bytes

    def __post_init__(self):
        if len(self.value) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")


def fresh_nonce(rng: random.Random | int, seen: set[bytes] | None = None) -> Nonce:
    """Draw a nonce, redrawing on collision with the seen set (which is
    updated in place so one server instance never repeats itself)."""
    rng = as_rng(rng)
    while True:
        value = rng.randbytes(NONCE_LEN)
        if seen is None:
            return Nonce(value)
        if value not in seen:
            seen.add(value)
            return Nonce(value)
