"""The decoder law: a wire decoder either refuses a byte string with an
error its callers catch, or returns a value that encodes back to exactly
that string. A decoder that accepts two spellings of one value lets an
attacker change bytes that a signature or a comparison was meant to pin.

The mutants come from a seeded byte fuzzer over honest encodings, built on
plain random because CI installs no fuzzing library: bit flips,
truncations, extensions, and splices of two honest encodings. Seed and
count are pinned; a law break is a finding to fix, never a reason to shrink
the sample.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import replace

import pytest

from visualauth import crypto, qr
from visualauth.crypto import Ciphertext, KeyboardPermutation, Role, Signature
from visualauth.protocols import (
    DEFAULT_TX,
    Transaction,
    _pack_credentials,
    _pack_signed,
    _parse_otp,
    _unpack_credentials,
    _unpack_signed,
    canonical_tx_bytes,
    parse_tx_canonical,
)

FUZZ_SEED = 2026
MUTANTS = 600  # per decoder

NONCE = bytes(range(crypto.NONCE_LEN))
TXS = (DEFAULT_TX, Transaction("ACCT-0666", 7, "müller & söhne"))


@functools.cache
def _pairs() -> tuple[crypto.KeyPair, crypto.KeyPair]:
    """The user's and the server's key pairs, made when a test first needs
    them, so that collecting this file runs no crypto."""
    return crypto.generate_keypair(Role.USER, 1), crypto.generate_keypair(Role.SERVER, 2)


def _ciphertexts() -> list[Ciphertext]:
    user, _ = _pairs()
    return [crypto.encrypt(user.public_key, plain, seed) for seed, plain in enumerate((b"", b"data", b"x" * 40))]


def _signatures() -> list[Signature]:
    return [crypto.sign(pair, text) for pair in _pairs() for text in (b"", b"data")]


def _signed_payloads() -> list[bytes]:
    """Both kinds the server signs: sealed challenges, unsigned too (signing
    off), and transaction confirmations."""
    challenges = [
        _pack_signed(ct.to_bytes(), sig) for ct in _ciphertexts() for sig in (None, *_signatures())
    ]
    confirmations = [
        _pack_signed(text, crypto.sign(_pairs()[1], text))
        for text in (canonical_tx_bytes(tx, nonce) for tx in TXS for nonce in (NONCE, None))
    ]
    return challenges + confirmations


def _frames() -> list[qr.VisualFrame]:
    payloads = (b"", NONCE, _pack_signed(_ciphertexts()[1].to_bytes(), _signatures()[2]))
    return [qr.qr_encode(p, qr.choose_spec(p, ec)) for p in payloads for ec in (qr.EcLevel.L, qr.EcLevel.M)]


# name -> (decode, encode, the errors every caller of decode catches, a
# function of the honest encodings, called when a test runs)
DECODERS = {
    # callers: the phone's challenge opening, the server's ciphertext login,
    # the phone's secure view
    "Ciphertext.from_bytes": (
        Ciphertext.from_bytes, Ciphertext.to_bytes, (crypto.IntegrityError,),
        lambda: [ct.to_bytes() for ct in _ciphertexts()],
    ),
    # caller: _unpack_signed, for the phone's challenges and confirmations
    "Signature.from_bytes": (
        Signature.from_bytes, Signature.to_bytes, (ValueError,),
        lambda: [sig.to_bytes() for sig in _signatures()],
    ),
    # callers: Smartphone._open_challenge and Smartphone.on_show_tx_frame
    "_unpack_signed": (
        _unpack_signed, lambda value: _pack_signed(*value), (struct.error, ValueError),
        _signed_payloads,
    ),
    # caller: Server.on_submit_ciphertext
    "_unpack_credentials": (
        _unpack_credentials, lambda value: _pack_credentials(*value),
        (crypto.IntegrityError, struct.error, ValueError),
        lambda: [_pack_credentials(NONCE, uid, pw, "acme-bank") for uid, pw in (("alice", "data"), ("", "pässwörd"))],
    ),
    # caller: Smartphone._open_challenge, for the OTP challenge
    "_parse_otp": (
        _parse_otp, lambda otp: otp.encode("ascii"), (ValueError,),
        lambda: [crypto.generate_otp(seed).value.encode("ascii") for seed in range(3)],
    ),
    # caller: Smartphone.on_show_tx_frame
    "parse_tx_canonical": (
        parse_tx_canonical, lambda value: canonical_tx_bytes(*value), (ValueError,),
        lambda: [canonical_tx_bytes(tx, nonce) for tx in TXS for nonce in (NONCE, None)],
    ),
    # caller: Smartphone._open_challenge, for the keyboard challenge
    "KeyboardPermutation.from_serialized": (
        KeyboardPermutation.from_serialized, KeyboardPermutation.serialize, (ValueError,),
        lambda: [crypto.generate_permutation(seed).serialize() for seed in range(3)],
    ),
}


def mutate(rng: random.Random, honest: list[bytes]) -> bytes:
    """One mutant of an honest encoding: a bit flip, a truncation, an
    extension, or a splice of the head of one encoding onto the tail of
    another."""
    blob = bytearray(rng.choice(honest))
    op = rng.randrange(4)
    if op == 0 and blob:
        bit = rng.randrange(8 * len(blob))
        blob[bit // 8] ^= 1 << (bit % 8)
    elif op == 1 and blob:
        del blob[rng.randrange(len(blob)) :]
    elif op == 2:
        blob += rng.randbytes(rng.randint(1, 8))
    else:
        other = rng.choice(honest)
        blob = blob[: rng.randrange(len(blob) + 1)] + other[rng.randrange(len(other) + 1) :]
    return bytes(blob)


def law_breaks(decode, encode, caught, honest: list[bytes], seed: str) -> tuple[list, int]:
    """(mutants that broke the law with what happened, mutants refused)."""
    rng = random.Random(f"{FUZZ_SEED}/{seed}")
    breaks, refused = [], 0
    for _ in range(MUTANTS):
        blob = mutate(rng, honest)
        try:
            value = decode(blob)
        except caught:
            refused += 1
            continue
        except Exception as exc:  # an error no caller catches: the session raises
            breaks.append((blob, f"raised {type(exc).__name__}: {exc}"))
            continue
        if encode(value) != blob:
            breaks.append((blob, "accepted, but encodes to other bytes"))
    return breaks, refused


class TestDecoderLaw:
    @pytest.mark.parametrize("name", DECODERS)
    def test_honest_encodings_round_trip(self, name):
        decode, encode, _, honest = DECODERS[name]
        assert all(encode(decode(blob)) == blob for blob in honest())

    @pytest.mark.parametrize("name", DECODERS)
    def test_every_mutant_is_refused_or_canonical(self, name):
        decode, encode, caught, honest = DECODERS[name]
        breaks, refused = law_breaks(decode, encode, caught, honest(), name)
        assert breaks == []
        assert refused > MUTANTS // 4  # the mutants reach the refusals

    def test_frames_are_refused_or_canonical(self):
        # qr_decode reads a frame; its mutants rewrite the codewords under
        # the frame's own spec, spliced with the codewords of other frames
        frames = _frames()
        honest = [frame.codewords for frame in frames]
        for i, frame in enumerate(frames):
            breaks, refused = law_breaks(
                lambda blob: qr.qr_decode(replace(frame, codewords=blob)),
                lambda payload: qr.qr_encode(payload, frame.spec).codewords,
                (qr.UncorrectableFrameError,),
                honest,
                f"qr_decode/{i}",
            )
            assert breaks == [], frame.spec
            assert refused > MUTANTS // 2, frame.spec

    @pytest.mark.parametrize("value", [None, b"codewords", "frame", 7], ids=repr)
    def test_what_is_no_frame_is_refused(self, value):
        with pytest.raises(qr.UncorrectableFrameError, match="is not a frame"):
            qr.qr_decode(value)

    def test_an_unsigned_challenge_with_a_long_length_prefix_is_refused(self):
        # found by the fuzzer: with signing off nothing followed the
        # ciphertext, so a length prefix past the end still parsed
        wire = _ciphertexts()[1].to_bytes()
        for n in (len(wire) + 1, 2**24 + len(wire)):
            with pytest.raises(ValueError, match="shorter than its length prefix"):
                _unpack_signed(struct.pack(">I", n) + wire)

    def test_a_lax_decoder_is_caught(self):
        # positive control: a ciphertext reader that skips the scheme byte
        # and the length checks accepts bytes it does not write back
        decode, encode, caught, honest = DECODERS["Ciphertext.from_bytes"]
        breaks, _ = law_breaks(
            lambda blob: Ciphertext(blob[5:-16], blob[-16:]), encode, caught, honest(), "lax"
        )
        assert len(breaks) > MUTANTS // 4
