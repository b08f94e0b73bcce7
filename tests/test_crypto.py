"""Key handling, sealing, signing, permutations, tokens, nonces."""

from __future__ import annotations

import collections
import math
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from visualauth import crypto
from visualauth.crypto import (
    ALPHABET,
    Ciphertext,
    CryptoError,
    IntegrityError,
    KeyboardPermutation,
    KeyPair,
    Role,
    Signature,
)
from visualauth.entities import canonical_bytes
from visualauth.protocols import Outcome, Protocol, SessionConfig, run_flow
from visualauth.rng import fork


@pytest.fixture
def pair():
    return crypto.generate_keypair(Role.USER, seed=1001)


@pytest.fixture
def server_pair():
    return crypto.generate_keypair(Role.SERVER, seed=1002)


SRC = Path(__file__).resolve().parent.parent / "src"


def _imports_serialization(before: str = "") -> bool:
    """Does a fresh interpreter that runs before, then imports visualauth,
    hold the cryptography serialization package (and its ssh module)?"""
    code = f"{before}\nimport sys, visualauth\nprint('cryptography.hazmat.primitives.serialization' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def test_import_leaves_the_serializer_out():
    # raw public bytes come from public_bytes_raw, so import needs no serializer
    assert not _imports_serialization()
    # positive control: the check sees the package when it is loaded
    assert _imports_serialization("import cryptography.hazmat.primitives.serialization")


class TestKeyPairs:
    def test_deterministic_generation(self):
        a = crypto.generate_keypair(Role.USER, seed=7)
        b = crypto.generate_keypair(Role.USER, seed=7)
        c = crypto.generate_keypair(Role.USER, seed=8)
        assert a.public_key == b.public_key and a.private_key == b.private_key
        assert a.public_key != c.public_key

    def test_key_sizes(self, pair):
        # 32 sealing + 32 signing bytes on each half
        assert len(pair.public_key) == 64
        assert len(pair.private_key) == 64

    @pytest.mark.parametrize("size", [63, 65])
    @pytest.mark.parametrize("half", ["public_key", "private_key"])
    def test_a_half_of_another_size_is_refused(self, pair, half, size):
        halves = {"public_key": pair.public_key, "private_key": pair.private_key}
        halves[half] = (halves[half] + b"\x00")[:size]
        with pytest.raises(ValueError, match=r"^key halves must be 32\+32 bytes$"):
            KeyPair(pair.role, **halves)


def _use(pair: KeyPair) -> Ciphertext:
    """Make pair load both private keys: it opens a payload and signs."""
    ct = crypto.encrypt(pair.public_key, b"for this pair only", rng=1101)
    assert crypto.decrypt(pair, ct) == b"for this pair only"
    assert crypto.verify(pair.public_key, b"statement", crypto.sign(pair, b"statement"), pair.role)
    return ct


class TestLoadedKeys:
    """Each KeyPair loads its private keys once, outside its fields."""

    def test_loaded_keys_are_not_fields(self, pair):
        def rebuilt():
            return KeyPair(pair.role, pair.public_key, pair.private_key)

        assert [f.name for f in fields(KeyPair)] == ["role", "public_key", "private_key"]
        for _ in range(2):  # before the pair has used its keys, then after
            fresh = rebuilt()
            assert pair == fresh and hash(pair) == hash(fresh) and repr(pair) == repr(fresh)
            assert canonical_bytes(pair) == canonical_bytes(fresh)
            _use(pair)

    def test_loaded_keys_never_cross_pairs(self, pair):
        ct = _use(pair)
        other = crypto.generate_keypair(pair.role, seed=1102)
        # same role and same public key as pair, other private bytes
        impostor = KeyPair(pair.role, pair.public_key, other.private_key)
        for stranger in (other, impostor):
            with pytest.raises(IntegrityError):
                crypto.decrypt(stranger, ct)
            forged = crypto.sign(stranger, b"statement")
            assert not crypto.verify(pair.public_key, b"statement", forged, pair.role)

    def test_pair_built_from_raw_bytes_opens_its_own_mail(self, pair):
        stolen = KeyPair(Role.USER, bytes(pair.public_key), bytes(pair.private_key))
        _use(stolen)

    def test_generated_pair_keeps_the_keys_it_loaded(self, monkeypatch):
        loads = collections.Counter()

        def counted(key_class):
            def from_private_bytes(raw):
                loads[key_class.__name__] += 1
                return key_class.from_private_bytes(raw)

            return type(key_class.__name__, (), {"from_private_bytes": staticmethod(from_private_bytes)})

        for name in ("X25519PrivateKey", "Ed25519PrivateKey"):
            monkeypatch.setattr(crypto, name, counted(getattr(crypto, name)))
        pair = crypto.generate_keypair(Role.USER, seed=1103)
        assert loads == {"X25519PrivateKey": 1, "Ed25519PrivateKey": 1}
        for _ in range(2):
            _use(pair)  # each round also loads encrypt's ephemeral key
        assert loads == {"X25519PrivateKey": 3, "Ed25519PrivateKey": 1}


class TestSealing:
    def test_round_trip_many_sizes(self, pair):
        # spec-level property: everything up to 4 KiB comes back intact
        rng = random.Random(42)
        for i in range(1000):
            message = rng.randbytes(rng.randrange(0, 4097))
            ct = crypto.encrypt(pair.public_key, message, rng=fork(42, "e", str(i)))
            assert crypto.decrypt(pair, ct) == message

    def test_encryption_deterministic_under_seed(self, pair):
        ct1 = crypto.encrypt(pair.public_key, b"fixed message", rng=99)
        ct2 = crypto.encrypt(pair.public_key, b"fixed message", rng=99)
        ct3 = crypto.encrypt(pair.public_key, b"fixed message", rng=100)
        assert ct1.to_bytes() == ct2.to_bytes()
        assert ct1.to_bytes() != ct3.to_bytes()

    def test_wrong_key_rejected_across_pairs(self):
        # 100 distinct recipients; each ciphertext opens for exactly its own
        pairs = [crypto.generate_keypair(Role.USER, seed=2000 + i) for i in range(100)]
        message = b"addressed to one recipient only"
        for i, owner in enumerate(pairs):
            ct = crypto.encrypt(owner.public_key, message, rng=3000 + i)
            assert crypto.decrypt(owner, ct) == message
            stranger = pairs[(i + 1) % len(pairs)]
            with pytest.raises(IntegrityError):
                crypto.decrypt(stranger, ct)

    def test_every_single_bit_flip_rejected(self, pair):
        message = b"16 byte msg here"
        ct = crypto.encrypt(pair.public_key, message, rng=5)
        wire = ct.to_bytes()
        for byte_index in range(len(wire)):
            for bit in range(8):
                mangled = bytearray(wire)
                mangled[byte_index] ^= 1 << bit
                with pytest.raises(IntegrityError):
                    crypto.decrypt(pair, Ciphertext.from_bytes(bytes(mangled)))

    def test_ciphertext_wire_round_trip(self, pair):
        ct = crypto.encrypt(pair.public_key, b"transportable", rng=6)
        again = Ciphertext.from_bytes(ct.to_bytes())
        assert again == ct

    def test_truncated_wire_rejected(self, pair):
        wire = crypto.encrypt(pair.public_key, b"clip me", rng=7).to_bytes()
        for cut in (0, 1, 4, len(wire) // 2, len(wire) - 1):
            with pytest.raises(IntegrityError):
                Ciphertext.from_bytes(wire[:cut])

    def test_a_short_body_is_refused_before_any_curve_call(self, pair, exchanges):
        # a well-framed wire whose body cannot hold an ephemeral half and a
        # cipher nonce is refused as such, and hands the curve nothing
        ct = Ciphertext.from_bytes(b"\x01" + (10).to_bytes(4, "big") + bytes(10) + bytes(16))
        assert len(ct.body) == 10
        with pytest.raises(IntegrityError, match="ciphertext body too short"):
            crypto.decrypt(pair, ct)
        assert exchanges == []

    def test_unknown_scheme_byte_rejected(self, pair):
        wire = crypto.encrypt(pair.public_key, b"relabel me", rng=8).to_bytes()
        assert wire[0] == 0x01
        for scheme in range(256):
            if scheme != 0x01:
                with pytest.raises(IntegrityError, match="unknown scheme byte"):
                    Ciphertext.from_bytes(bytes([scheme]) + wire[1:])


class TestSignatures:
    def test_sign_verify(self, server_pair):
        sig = crypto.sign(server_pair, b"statement")
        assert crypto.verify(server_pair.public_key, b"statement", sig, Role.SERVER)

    def test_verify_takes_only_the_named_signer(self, server_pair):
        # the role byte is not signed: a valid signature relabelled as the
        # user's, or checked as the user's, is refused
        sig = crypto.sign(server_pair, b"statement")
        relabelled = Signature(sig.sig, Role.USER)
        assert not crypto.verify(server_pair.public_key, b"statement", sig, Role.USER)
        assert not crypto.verify(server_pair.public_key, b"statement", relabelled, Role.SERVER)
        assert not crypto.verify(server_pair.public_key, b"statement", relabelled, Role.USER.value)
        assert crypto.verify(server_pair.public_key, b"statement", relabelled, Role.USER)

    def test_signature_is_64_bytes(self, server_pair):
        assert len(crypto.sign(server_pair, b"m").sig) == 64

    def test_mutation_fuzz(self, server_pair):
        # 1000 cases: flip one bit in message, signature, or verifying key;
        # every mutation must flip valid -> invalid
        rng = random.Random(77)
        for i in range(1000):
            message = rng.randbytes(rng.randrange(1, 128))
            sig = crypto.sign(server_pair, message)
            target = rng.randrange(3)
            if target == 0:
                mutated = bytearray(message)
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
                assert not crypto.verify(server_pair.public_key, bytes(mutated), sig, Role.SERVER)
            elif target == 1:
                raw = bytearray(sig.sig)
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                assert not crypto.verify(
                    server_pair.public_key, message, Signature(bytes(raw), sig.signer), Role.SERVER
                )
            else:
                key = bytearray(server_pair.public_key)
                key[32 + rng.randrange(32)] ^= 1 << rng.randrange(8)
                assert not crypto.verify(bytes(key), message, sig, Role.SERVER)

    def test_wrong_length_signature_invalid(self, server_pair):
        sig = crypto.sign(server_pair, b"m")
        assert not crypto.verify(server_pair.public_key, b"m", Signature(sig.sig[:-1], sig.signer), Role.SERVER)

    def test_signature_wire_round_trip(self, server_pair):
        sig = crypto.sign(server_pair, b"wire")
        assert Signature.from_bytes(sig.to_bytes()) == sig

    @pytest.mark.parametrize("role", [0x02, 0x80, 0xFF])
    def test_unknown_role_byte_refused(self, server_pair, role):
        # the role byte is not signed, so parsing must not guess a role
        wire = crypto.sign(server_pair, b"wire").to_bytes()
        with pytest.raises(ValueError, match="role byte"):
            Signature.from_bytes(bytes([role]) + wire[1:])


def _handed(monkeypatch, name: str) -> list:
    """The raw public halves crypto's name.from_public_bytes is handed, one
    per curve operation that needs a public key."""
    handed = []
    real = getattr(crypto, name)

    class Counted:
        @staticmethod
        def from_public_bytes(raw):
            handed.append(raw)
            return real.from_public_bytes(raw)

    monkeypatch.setattr(crypto, name, Counted)
    return handed


@pytest.fixture
def curve_checks(monkeypatch):
    """The public halves verify hands to the curve check, one per check."""
    return _handed(monkeypatch, "Ed25519PublicKey")


@pytest.fixture
def exchanges(monkeypatch):
    """The public halves handed to an X25519 exchange, one per exchange:
    the recipient's in each encrypt, and the ephemeral half of each payload
    decrypt does not find in its record."""
    return _handed(monkeypatch, "X25519PublicKey")


def _bit_flips(blob: bytes):
    for i in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[i // 8] ^= 1 << i % 8
        yield bytes(flipped)


class TestSignatureRecord:
    """verify answers a triple sign just made from its record, and gives
    every other triple the curve check: the answers never change."""

    def test_every_bit_flip_of_a_recorded_triple_is_refused(self, server_pair, curve_checks):
        message = b"statement under the record"
        sig = crypto.sign(server_pair, message)
        assert crypto.verify(server_pair.public_key, message, sig, Role.SERVER)
        assert curve_checks == []  # warm: the record answered
        for flipped in _bit_flips(sig.sig):
            assert not crypto.verify(server_pair.public_key, message, Signature(flipped, sig.signer), Role.SERVER)
        for flipped in _bit_flips(message):
            assert not crypto.verify(server_pair.public_key, flipped, sig, Role.SERVER)
        assert len(curve_checks) == 8 * (64 + len(message))

    def test_a_pair_holding_another_pairs_public_half(self, pair, server_pair):
        # the record keeps the half derived from the signing key, so a pair
        # whose stored half is not its own is never answered from it
        mismatched = KeyPair(Role.SERVER, public_key=pair.public_key, private_key=server_pair.private_key)
        sig = crypto.sign(mismatched, b"statement")
        assert not crypto.verify(mismatched.public_key, b"statement", sig, Role.SERVER)
        assert crypto.verify(server_pair.public_key, b"statement", sig, Role.SERVER)

    def test_a_message_changed_after_signing_is_refused(self, server_pair):
        message = bytearray(b"statement")
        sig = crypto.sign(server_pair, message)
        message[0] ^= 1
        assert not crypto.verify(server_pair.public_key, message, sig, Role.SERVER)
        assert crypto.verify(server_pair.public_key, b"statement", sig, Role.SERVER)

    def test_a_key_the_curve_check_refuses_is_refused_warm(self, server_pair):
        # the curve check takes the public half only as bytes, and a warm
        # record gives no other answer; a bytes-like message is taken by both
        sig = crypto.sign(server_pair, b"statement")
        for key in (bytearray(server_pair.public_key), memoryview(server_pair.public_key)):
            with pytest.raises(TypeError):
                crypto.verify(key, b"statement", sig, Role.SERVER)
        for message in (bytearray(b"statement"), memoryview(b"statement")):
            assert crypto.verify(server_pair.public_key, message, sig, Role.SERVER)

    def test_an_evicted_signature_verifies_through_the_curve(self, server_pair, curve_checks):
        first = crypto.sign(server_pair, b"first")
        for i in range(5):
            crypto.sign(server_pair, b"later %d" % i)
        assert crypto.verify(server_pair.public_key, b"first", first, Role.SERVER)
        assert curve_checks == [server_pair.public_key[32:]]

    @pytest.mark.parametrize(
        "protocol", [Protocol.P1, Protocol.P2, Protocol.TXVERIFY, Protocol.HIJACKGUARD], ids=lambda p: p.value
    )
    def test_an_honest_session_runs_no_curve_check(self, spy, curve_checks, protocol):
        verify = crypto.verify
        verifies = spy(crypto, "verify")
        result = run_flow(SessionConfig(protocol=protocol, seed=3))
        triples = [call.args for call in verifies]
        assert result.outcome in (Outcome.AUTHENTICATED, Outcome.CONFIRMED, Outcome.ACCEPTED)
        assert triples and curve_checks == []
        # positive control: each triple, tampered, runs the curve check and fails it
        for public_key, message, sig, signer in triples:
            flipped = bytes([sig.sig[0] ^ 1]) + sig.sig[1:]
            assert not verify(public_key, message, Signature(flipped, sig.signer), signer)
        assert len(curve_checks) == len(triples)


@pytest.fixture
def derivations(spy):
    """Each key derivation: one in each encrypt, and one in each decrypt its
    record does not answer."""
    return spy(crypto, "_hybrid_key")


class TestSealRecord:
    """decrypt takes the key of a payload encrypt just sealed from the seal
    record, and runs the exchange and the derivation for
    every other payload: the answers never change, and the tag is checked
    on every payload."""

    def test_every_bit_flip_of_a_recorded_seal_is_refused(self, pair, exchanges, derivations):
        message = b"payload under the record"
        ct = crypto.encrypt(pair.public_key, message, rng=1201)
        assert crypto.decrypt(pair, ct) == message
        # encrypt's; warm: the record answered decrypt
        assert exchanges == [pair.seal_public] and len(derivations) == 1
        eph_pub, rest = ct.body[:32], ct.body[32:]
        for flipped in _bit_flips(eph_pub):
            with pytest.raises(IntegrityError):
                crypto.decrypt(pair, Ciphertext(flipped + rest, ct.tag))
        # one exchange and one derivation per flip of the ephemeral half
        assert len(exchanges) == len(derivations) == 1 + 8 * 32
        # the GCM nonce and the ciphertext, then the tag: the record answers,
        # and the tag check refuses
        for flipped in _bit_flips(rest):
            with pytest.raises(IntegrityError):
                crypto.decrypt(pair, Ciphertext(eph_pub + flipped, ct.tag))
        for flipped in _bit_flips(ct.tag):
            with pytest.raises(IntegrityError):
                crypto.decrypt(pair, Ciphertext(ct.body, flipped))
        assert len(exchanges) == len(derivations) == 1 + 8 * 32

    def test_a_pair_holding_another_pairs_public_half(self, pair, server_pair, exchanges):
        # the record is looked up under the half derived from the private
        # key, so a pair whose stored half is not its own never finds the
        # key sealed to the half it stores, and the key it finds under its
        # own half fails the tag check, whose authenticated data carries
        # the stored half
        mismatched = KeyPair(Role.USER, public_key=server_pair.public_key, private_key=pair.private_key)
        to_stored = crypto.encrypt(mismatched.public_key, b"payload", rng=1202)
        to_own = crypto.encrypt(pair.public_key, b"payload", rng=1212)
        assert crypto._SEALED[-2][:2] == (mismatched.seal_public, to_stored.body[:32])
        for ct in (to_stored, to_own):
            with pytest.raises(IntegrityError):
                crypto.decrypt(mismatched, ct)
        # encrypt's two, then the exchange for the payload the record missed
        assert exchanges[2:] == [to_stored.body[:32]]
        crypto._SEALED.clear()
        for ct in (to_stored, to_own):
            with pytest.raises(IntegrityError):
                crypto.decrypt(mismatched, ct)
        assert crypto.decrypt(server_pair, to_stored) == b"payload"
        assert crypto.decrypt(pair, to_own) == b"payload"

    def test_a_pair_rebuilt_from_raw_bytes_is_answered(self, pair, exchanges):
        ct = crypto.encrypt(pair.public_key, b"payload", rng=1203)
        rebuilt = KeyPair(pair.role, pair.public_key, pair.private_key)
        assert "_own_seal_public" not in vars(rebuilt)  # nothing loaded or derived yet
        assert crypto.decrypt(rebuilt, ct) == b"payload"
        assert exchanges == [pair.seal_public]

    def test_an_evicted_seal_opens_through_one_exchange(self, pair, exchanges, derivations):
        first = crypto.encrypt(pair.public_key, b"first", rng=1204)
        for i in range(5):
            crypto.encrypt(pair.public_key, b"later", rng=1205 + i)
        assert crypto.decrypt(pair, first) == b"first"
        assert len(exchanges) == len(derivations) == 6 + 1

    def test_a_stored_half_that_is_not_bytes_is_derived(self, pair, exchanges, derivations):
        # the record is looked up under the half the private key derives,
        # which is bytes whatever the pair stores; the authenticated data
        # binds the stored half by value, so the payload opens as before,
        # from the record and through the exchange and the derivation
        ct = crypto.encrypt(pair.public_key, b"payload", rng=1230)
        loose = KeyPair(pair.role, bytearray(pair.public_key), pair.private_key)
        assert crypto.decrypt(loose, ct) == b"payload"
        assert len(exchanges) == len(derivations) == 1  # encrypt's: the record answered
        crypto._SEALED.clear()
        assert crypto.decrypt(loose, ct) == b"payload"
        assert len(exchanges) == len(derivations) == 2
        assert crypto.decrypt(pair, ct) == b"payload"

    def test_the_record_keeps_only_a_half_it_sliced(self, pair, server_pair, exchanges):
        # encrypt refuses a sealing key that is not bytes, as the exchange
        # does, before it records anything
        before = list(crypto._SEALED)
        for key in (bytearray(pair.public_key), memoryview(pair.public_key)):
            with pytest.raises(TypeError):
                crypto.encrypt(key, b"payload", rng=1210)
        assert list(crypto._SEALED) == before
        exchanges.clear()  # both halves were handed to the curve, which refused them

        # a bytes subclass is taken, but the record keeps the plain bytes
        # encrypt sliced from it, never the caller's object, whose equality
        # it cannot trust: this one claims to equal every half
        class Chameleon(bytes):
            def __eq__(self, other):
                return True

            __hash__ = bytes.__hash__

        ct = crypto.encrypt(Chameleon(pair.public_key), b"payload", rng=1211)
        with pytest.raises(IntegrityError):
            crypto.decrypt(server_pair, ct)
        assert len(exchanges) == 2  # encrypt's, and the stranger's own
        assert crypto.decrypt(pair, ct) == b"payload"
        assert len(exchanges) == 2

    def test_a_body_the_exchange_refuses_is_refused_warm(self, pair):
        # the exchange takes the ephemeral half only as bytes, and a warm
        # record gives no other answer
        ct = crypto.encrypt(pair.public_key, b"payload", rng=1212)
        for body in (bytearray(ct.body), memoryview(ct.body)):
            with pytest.raises(TypeError):
                crypto.decrypt(pair, Ciphertext(body, ct.tag))

    @pytest.mark.parametrize(
        "protocol", [Protocol.P1, Protocol.P2, Protocol.P3, Protocol.SECUREVIEW], ids=lambda p: p.value
    )
    def test_an_honest_session_runs_no_decrypt_exchange(self, spy, exchanges, protocol):
        decrypt = crypto.decrypt
        sealed, opened = spy(crypto, "encrypt"), spy(crypto, "decrypt")
        result = run_flow(SessionConfig(protocol=protocol, seed=3))
        assert result.outcome in (Outcome.AUTHENTICATED, Outcome.VIEWED)
        assert opened and len(exchanges) == len(sealed)
        # positive control: each payload, its ephemeral half flipped, runs
        # the exchange and is refused
        for pair, ct in (call.args for call in opened):
            with pytest.raises(IntegrityError):
                decrypt(pair, Ciphertext(bytes([ct.body[0] ^ 1]) + ct.body[1:], ct.tag))
        assert len(exchanges) == len(sealed) + len(opened)


class TestKeyboardPermutation:
    def test_is_bijection(self):
        perm = crypto.generate_permutation(fork(5, "p"))
        assert sorted(perm.mapping) == sorted(ALPHABET)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            KeyboardPermutation(tuple("a" * 36))

    def test_position_symbol_inverse(self):
        perm = crypto.generate_permutation(fork(6, "p"))
        for pos in range(36):
            assert perm.position_of(perm.mapping[pos]) == pos

    def test_resolve_composes_clicks(self):
        perm = crypto.generate_permutation(fork(7, "p"))
        positions = [perm.position_of(ch) for ch in "data99"]
        assert perm.resolve(positions) == "data99"

    @pytest.mark.parametrize("positions", [(36,), (-1,), (1.0,), ("a",), (True,), 5, None], ids=repr)
    def test_resolve_refuses_positions_off_the_grid(self, positions):
        perm = crypto.generate_permutation(fork(7, "p"))
        with pytest.raises(ValueError):
            perm.resolve(positions)

    def test_case_folds(self):
        perm = KeyboardPermutation(tuple(ALPHABET))
        assert perm.position_of("A") == perm.position_of("a")

    def test_non_alphabet_symbol_rejected(self):
        with pytest.raises(ValueError):
            KeyboardPermutation(tuple(ALPHABET)).position_of("!")

    def test_serialize_round_trip(self):
        perm = crypto.generate_permutation(fork(8, "p"))
        assert KeyboardPermutation.from_serialized(perm.serialize()) == perm
        assert len(perm.serialize()) == 36

    def test_uniformity_over_seeds(self):
        # symbol 'a' should land on each of the 36 positions with
        # frequency 1/36 within a +-5/36 band over 10,000 seeded draws
        counts = [0] * 36
        for seed in range(10_000):
            perm = crypto.generate_permutation(fork(seed, "uniformity"))
            counts[perm.position_of("a")] += 1
        low = 10_000 * (1 / 36 - 5 / 360)
        high = 10_000 * (1 / 36 + 5 / 360)
        assert all(low <= c <= high for c in counts), counts

    def test_identity_layout(self):
        ident = KeyboardPermutation(tuple(ALPHABET))
        assert ident.mapping[0] == "a"
        assert ident.position_of("9") == 35


class TestOtp:
    def test_alphabet_and_length(self):
        token = crypto.generate_otp(fork(1, "otp"))
        assert len(token.value) == 8
        assert all(ch in ALPHABET for ch in token.value)

    def test_no_duplicates_over_10000_draws(self):
        values = {crypto.generate_otp(fork(seed, "draws")).value for seed in range(10_000)}
        assert len(values) == 10_000

    def test_consumption_state_machine(self):
        token = crypto.generate_otp(fork(3, "otp"))
        assert not token.consumed
        spent = token.consume()
        assert spent.consumed
        assert spent.value == token.value
        assert not token.consumed  # frozen: the holder keeps the copy instead
        with pytest.raises(CryptoError):
            spent.consume()
        with pytest.raises(FrozenInstanceError):
            token.consumed = True

    def test_freshness_against_outstanding(self):
        rng = fork(4, "otp")
        first = crypto.generate_otp(rng)
        clone_rng = fork(4, "otp")
        second = crypto.generate_otp(clone_rng, outstanding=[first])
        # same rng state would have produced first again; freshness redraws
        assert second.value != first.value


class TestNonce:
    def test_length_and_determinism(self):
        a = crypto.fresh_nonce(fork(5, "n"))
        b = crypto.fresh_nonce(fork(5, "n"))
        assert a.value == b.value
        assert len(a.value) == crypto.NONCE_LEN

    def test_never_repeats_within_seen_set(self):
        seen: set[bytes] = set()
        values = [crypto.fresh_nonce(fork(6, "n", str(i)), seen).value for i in range(1000)]
        assert len(set(values)) == 1000

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            crypto.Nonce(b"short")


class TestEntropyArithmetic:
    """The numbers that justify framing a whole layout in one barcode."""

    def test_log2_36_factorial(self):
        # independent route: lgamma, not the sum the package uses
        via_lgamma = math.lgamma(37) / math.log(2)
        assert abs(via_lgamma - 138.0) <= 0.5
        assert round(via_lgamma, 4) == 138.0943

    def test_naive_symbol_encoding_bits(self):
        assert abs(36 * math.log2(36) - 187.0) <= 1.0
