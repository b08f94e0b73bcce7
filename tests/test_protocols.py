"""End-to-end flow behavior for the three logins and the extensions."""

from __future__ import annotations

import dataclasses
import functools
import struct

import pytest

import sweeps
from visualauth import crypto, entities, protocols, qr
from visualauth.adversary import _altering, replay
from visualauth.crypto import Role
from visualauth.entities import (
    EntityKind,
    Inject,
    Message,
    Plant,
    Rewrite,
    SecretKind,
    SecretSighting,
    deliver,
    export_transcript,
    scan_states_for_secrets,
    secrecy_violations,
)
from visualauth.protocols import (
    AUTH_PROTOCOLS,
    CAPTURE_CONTEXTS,
    DEFAULT_TX,
    DEFAULT_VIEW_FIELDS,
    FLOWS,
    GRID_COLS,
    GRID_ROWS,
    ConnectRequest,
    CredentialStore,
    ForwardConfirm,
    LoginRequest,
    Outcome,
    Protocol,
    SessionConfig,
    SessionFlags,
    ShowLoginBox,
    ShowVerifiedTx,
    SPEC,
    SubmitCiphertext,
    SubmitOtp,
    SubmitTx,
    Terminal,
    Transaction,
    TypeCredentials,
    TypeOtp,
    _pack_credentials,
    _pack_signed,
    _unpack_credentials,
    _unpack_signed,
    build_session,
    canonical_tx_bytes,
    parse_tx_canonical,
    run_flow,
    run_hijack_guard,
)

EVIL = sweeps.EVIL


def _cfg(protocol, seed, **kw):
    return SessionConfig(protocol=protocol, seed=seed, **kw)


def _login_id(protocol):
    return f"{protocol}-run_flow"


class TestTransactionRecords:
    def test_canonical_round_trip(self):
        blob = canonical_tx_bytes(DEFAULT_TX)
        tx, nonce = parse_tx_canonical(blob)
        assert tx == DEFAULT_TX and nonce is None

    def test_canonical_round_trip_with_nonce(self):
        blob = canonical_tx_bytes(DEFAULT_TX, b"\xab" * 16)
        tx, nonce = parse_tx_canonical(blob)
        assert tx == DEFAULT_TX and nonce == b"\xab" * 16

    def test_canonical_form_is_line_oriented(self):
        blob = canonical_tx_bytes(DEFAULT_TX)
        assert blob.split(b"\n")[0] == b"receiver_account=ACCT-7291"
        assert blob.split(b"\n")[1] == b"amount=25000"

    def test_field_validation(self):
        with pytest.raises(ValueError):
            Transaction(receiver_account="A", amount=0, receiver_name="x")
        with pytest.raises(ValueError):
            Transaction(receiver_account="A", amount=-5, receiver_name="x")
        with pytest.raises(ValueError):
            Transaction(receiver_account="a=b", amount=1, receiver_name="x")
        with pytest.raises(ValueError):
            Transaction(receiver_account="A", amount=1, receiver_name="two\nlines")

    # each rewrite of a canonical transaction text that must not parse
    NOT_CANONICAL = {
        "reordered": lambda lines: lines[::-1],
        "leading_zeros": lambda lines: [lines[0], b"amount=0025000", *lines[2:]],
        "underscore": lambda lines: [lines[0], b"amount=25_000", *lines[2:]],
        "plus_sign": lambda lines: [lines[0], b"amount=+25000", *lines[2:]],
        "space": lambda lines: [lines[0], b"amount= 25000", *lines[2:]],
        "duplicate": lambda lines: [lines[0], b"amount=1", *lines[1:]],
        "unknown": lambda lines: [*lines, b"memo=hi"],
        "missing": lambda lines: [lines[0], *lines[2:]],
        "upper_hex": lambda lines: [*lines[:3], lines[3].upper().replace(b"NONCE", b"nonce")],
        "no_equals": lambda lines: [*lines, b"memo"],
    }

    @pytest.mark.parametrize("rewrite", NOT_CANONICAL, ids=str)
    def test_non_canonical_text_is_refused(self, rewrite):
        blob = canonical_tx_bytes(DEFAULT_TX, b"\xab" * 16)
        mangled = b"\n".join(self.NOT_CANONICAL[rewrite](blob.split(b"\n")))
        assert mangled != blob
        with pytest.raises(ValueError):
            parse_tx_canonical(mangled)


class TestCredentialBlob:
    NONCE = bytes(range(16))

    def test_round_trip(self):
        blob = _pack_credentials(self.NONCE, "alice", "data", "bank")
        assert _unpack_credentials(blob) == (self.NONCE, "alice", "data", "bank")

    @pytest.mark.parametrize(
        "blob",
        [
            _pack_credentials(NONCE, "alice", "data", "bank") + b"\x00",
            _pack_credentials(NONCE, "alice", "data", "bank") + b"JUNKJUNK",
            _pack_credentials(NONCE, "alice", "data", "bank")[:-1],
            _pack_credentials(NONCE[:15], "alice", "data", "bank"),
            NONCE[:15],
            b"",
        ],
        ids=["trailing_byte", "junk", "truncated", "nonce_15_packed", "nonce_15_alone", "empty"],
    )
    def test_malformed_blob_is_refused(self, blob):
        with pytest.raises((ValueError, struct.error)):
            _unpack_credentials(blob)

    @pytest.mark.parametrize(
        "pack",
        [
            lambda pack, nonce, *rest: pack(nonce, *rest) + b"\x00",
            lambda pack, nonce, *rest: pack(nonce, *rest) + b"JUNKJUNK",
            lambda pack, nonce, *rest: pack(nonce[:15], *rest),
        ],
        ids=["trailing_byte", "junk", "nonce_15"],
    )
    def test_malformed_upload_is_denied(self, monkeypatch, pack):
        # the phone seals a blob its server cannot read back exactly: a
        # login verdict, never an exception
        monkeypatch.setattr(
            protocols, "_pack_credentials", functools.partial(pack, _pack_credentials)
        )
        result = run_flow(_cfg(Protocol.P3, 160))
        assert result.outcome is Outcome.DENIED
        assert result.session.abort_reason is None

    def test_honest_upload_is_authenticated(self):
        assert run_flow(_cfg(Protocol.P3, 160)).outcome is Outcome.AUTHENTICATED


class TestHonestLogins:
    def test_p1_authenticates_in_eleven_steps(self):
        result = run_flow(_cfg(Protocol.P1, 101))
        assert result.outcome is Outcome.AUTHENTICATED
        assert len(result.session.transcript) == 11

    def test_p2_authenticates_in_eleven_steps(self):
        result = run_flow(_cfg(Protocol.P2, 102))
        assert result.outcome is Outcome.AUTHENTICATED
        assert len(result.session.transcript) == 11

    def test_p3_authenticates_in_eleven_steps(self):
        result = run_flow(_cfg(Protocol.P3, 103))
        assert result.outcome is Outcome.AUTHENTICATED
        assert len(result.session.transcript) == 11

    def test_every_honest_login_is_secrecy_clean(self):
        for protocol in AUTH_PROTOCOLS:
            sweeps.fails_closed(run_flow(_cfg(protocol, 104)).session, protocol)

    def test_p1_password_never_reaches_terminal_or_phone(self):
        result = run_flow(_cfg(Protocol.P1, 105))
        password = result.session.store.users["alice"].password.encode()
        for kind in (EntityKind.TERMINAL, EntityKind.SMARTPHONE):
            snaps = result.session.entities[kind].snapshots
            assert all(password not in snap for _, snap in snaps), kind

    def test_p1_user_sees_result(self):
        result = run_flow(_cfg(Protocol.P1, 106))
        user = result.session.entities[EntityKind.USER]
        assert user.state["show_result"].ok is True

    def test_grid_is_six_by_six(self):
        assert (GRID_ROWS, GRID_COLS) == (6, 6)
        # the terminal draws the keyboard for the user
        transcript = run_flow(_cfg(Protocol.P1, 107)).session.transcript
        shown = [m for m in transcript if m.TAG == "show_keyboard"]
        assert shown[0].layout_kind == "blank"
        assert (shown[0].rows, shown[0].cols) == (6, 6)

    def test_p3_masks_the_password_on_the_phone_display(self):
        result = run_flow(_cfg(Protocol.P3, 108))
        user = result.session.entities[EntityKind.USER]
        password = result.session.store.users["alice"].password
        assert user.state["echo_masked_credentials"].masked == "*" * len(password)

    def test_p3_terminal_holds_ciphertext_only(self):
        result = run_flow(_cfg(Protocol.P3, 109))
        terminal = result.session.entities[EntityKind.TERMINAL]
        blob = terminal.state["upload_frame"].frame.payload
        password = result.session.store.users["alice"].password.encode()
        assert password not in blob
        # the blob opens only for the server
        ct = crypto.Ciphertext.from_bytes(blob)
        plain = crypto.decrypt(result.session.store.server_pair, ct)
        assert password in plain


class TestWrongCredentials:
    def test_p1_wrong_password_denied(self):
        result = run_flow(_cfg(Protocol.P1, 110, submit_passwords=("wrongpw0",)))
        assert result.outcome is Outcome.DENIED

    def test_p2_mistyped_otp_denied(self):
        result = run_flow(_cfg(Protocol.P2, 111, mistype_otp=True))
        assert result.outcome is Outcome.DENIED

    def test_p3_wrong_password_denied(self):
        result = run_flow(_cfg(Protocol.P3, 112, submit_passwords=("wrongpw0",)))
        assert result.outcome is Outcome.DENIED

    def test_unknown_user_denied(self):
        # an id the store never provisioned arrives on the wire
        session = _run_with_injected(
            _cfg(Protocol.P1, 113), LoginRequest(user_id="mallory", protocol="P1")
        )
        assert session.outcome is Outcome.DENIED
        assert "layout" not in session.entities[EntityKind.SERVER].state

    def test_session_user_must_be_provisioned(self):
        with pytest.raises(ValueError, match="mallory"):
            build_session(_cfg(Protocol.P1, 113, user_id="mallory"), CredentialStore.provision(113))

    def test_a_user_id_is_provisioned_once(self):
        with pytest.raises(ValueError, match="^duplicate user id 'alice'$"):
            CredentialStore.provision(113, users=(("alice", "data"), ("alice", "b0b5")))

    def test_p1_wrong_then_right_with_two_attempts(self):
        result = run_flow(
            _cfg(Protocol.P1, 114, submit_passwords=("wrongpw0", "data"), max_attempts=2)
        )
        assert result.outcome is Outcome.AUTHENTICATED
        assert len(result.session.transcript) > 11

    def test_p1_fresh_layout_per_attempt(self):
        # the reissued challenge must not reuse the first permutation
        result = run_flow(_cfg(Protocol.P1, 115, submit_passwords=("wrongpw0", "data"), max_attempts=2))
        assert result.outcome is Outcome.AUTHENTICATED
        # the phone shows the layout to the user
        layouts = [m.layout for m in result.session.transcript if m.TAG == "show_layout"]
        assert len(layouts) == 2
        assert layouts[0] != layouts[1]

    def test_p3_wrong_then_right_with_two_attempts(self):
        result = run_flow(
            _cfg(Protocol.P3, 116, submit_passwords=("wrongpw0", "data"), max_attempts=2)
        )
        assert result.outcome is Outcome.AUTHENTICATED

    def test_p2_mistypes_exhaust_attempts(self):
        result = run_flow(_cfg(Protocol.P2, 117, mistype_otp=True, max_attempts=2))
        assert result.outcome is Outcome.DENIED
        # the user typed an OTP once per attempt
        assert [m.TAG for m in result.session.transcript].count("type_otp") == 2

    def test_single_attempt_is_the_default(self):
        result = run_flow(_cfg(Protocol.P1, 118, submit_passwords=("wrongpw0", "data")))
        assert result.outcome is Outcome.DENIED


class TestPositionSemantics:
    def test_identity_layout_maps_password_to_alphabet_indices(self):
        # each symbol is clicked at its position on the server's layout
        store = CredentialStore.provision(119, users=(("ann", "aaaa"),))
        result = run_flow(_cfg(Protocol.P1, 119, user_id="ann"), store=store)
        assert result.outcome is Outcome.AUTHENTICATED
        layout = result.session.entities[EntityKind.SERVER].state["layout"]
        terminal = result.session.entities[EntityKind.TERMINAL]
        assert terminal.state["click_positions"].positions == (layout.position_of("a"),) * 4

    def test_identity_layout_spells_mixed_password(self):
        store = CredentialStore.provision(120, users=(("bob", "b0b"),))
        result = run_flow(_cfg(Protocol.P1, 120, user_id="bob"), store=store)
        layout = result.session.entities[EntityKind.SERVER].state["layout"]
        terminal = result.session.entities[EntityKind.TERMINAL]
        b, zero = layout.position_of("b"), layout.position_of("0")
        assert b != zero
        assert terminal.state["click_positions"].positions == (b, zero, b)
        assert layout.resolve(terminal.state["click_positions"].positions) == "b0b"
        assert result.outcome is Outcome.AUTHENTICATED

    def test_positions_resolve_only_at_the_server(self):
        result = run_flow(_cfg(Protocol.P1, 121))
        transcript = export_transcript(result.session)
        assert "submit_positions" in transcript
        # the layout serialization never crosses the network channels
        server = result.session.entities[EntityKind.SERVER]
        layout = server.state["layout"]
        terminal = result.session.entities[EntityKind.TERMINAL]
        assert layout.serialize() not in terminal.state["kbd_challenge"].frame.payload


class TestOtpSemantics:
    def test_token_consumed_on_success(self):
        result = run_flow(_cfg(Protocol.P2, 122))
        server = result.session.entities[EntityKind.SERVER]
        assert server.state["token"].consumed

    def test_token_not_consumed_on_mistype(self):
        result = run_flow(_cfg(Protocol.P2, 123, mistype_otp=True))
        server = result.session.entities[EntityKind.SERVER]
        assert not server.state["token"].consumed

    def test_a_spent_token_is_refused_by_the_server_itself(self):
        # FLOWS takes one submission per challenge, so no session delivers a
        # second; the server's record of a spent token is a second lock,
        # checked here by calling its handler directly
        session = run_flow(_cfg(Protocol.P2, 122)).session
        server = session.entities[EntityKind.SERVER]
        server.on_submit_otp(SubmitOtp(otp=server.state["token"].value))
        assert session.outcome is Outcome.AUTHENTICATED
        assert session.late_verdicts[-1][1:] == (Outcome.DENIED, None)


class TestCiphertextReplayAndTamper:
    def _steal_blob(self, seed, store):
        honest = run_flow(_cfg(Protocol.P3, seed), store=store)
        assert honest.outcome is Outcome.AUTHENTICATED
        return honest.session.entities[EntityKind.TERMINAL].state["upload_frame"].frame.payload

    def test_replaying_the_exact_ciphertext_is_denied(self):
        store = CredentialStore.provision(125)
        blob = self._steal_blob(125, store)
        replayed = run_flow(_cfg(Protocol.P3, 126), store=store, actions=replay(SubmitCiphertext(blob=blob)))
        assert replayed.outcome is Outcome.DENIED

    def test_a_spent_nonce_is_refused_by_the_server_itself(self):
        # as with a spent token: FLOWS never delivers a second submission
        # under one nonce, so the server's own record is checked directly
        session = run_flow(_cfg(Protocol.P3, 125)).session
        server = session.entities[EntityKind.SERVER]
        blob = session.entities[EntityKind.TERMINAL].state["upload_frame"].frame.payload
        server.on_submit_ciphertext(SubmitCiphertext(blob=blob))
        assert session.outcome is Outcome.AUTHENTICATED
        assert session.late_verdicts[-1][1:] == (Outcome.DENIED, None)

    def test_every_sampled_bit_flip_is_denied(self):
        store = CredentialStore.provision(127)
        blob = self._steal_blob(127, store)
        for i in range(0, len(blob), 8):
            mangled = bytearray(blob)
            mangled[i] ^= 0x01
            result = run_flow(
                _cfg(Protocol.P3, 128),
                store=store,
                actions=replay(SubmitCiphertext(blob=bytes(mangled))),
            )
            assert result.outcome is Outcome.DENIED, f"byte {i}"

    def test_ciphertext_for_the_wrong_server_is_denied(self):
        # a phone that believes a different server name seals a credential
        # the real server refuses
        result = run_flow(
            _cfg(Protocol.P3, 129), actions=(Plant(EntityKind.SMARTPHONE, {"server_name": "totally-real-bank"}),)
        )
        assert result.outcome is Outcome.DENIED


def _rewriting_frames(**changes) -> tuple:
    """A terminal that rewrites the fields of every frame it shows the phone."""
    return (Rewrite(EntityKind.TERMINAL, "show_frame", changes),)


SEALED = (Protocol.P1, Protocol.P2)  # the flows whose challenge is sealed to the phone and signed


def _relabelling_signature(locus, tags, role):
    """Malware at locus that rewrites the role byte of the signature that
    ends the frame of each message tagged in tags."""

    def relabel(msg):
        payload = bytearray(msg.frame.payload)
        payload[-65] = role
        payload = bytes(payload)
        return dataclasses.replace(msg, frame=qr.qr_encode(payload, qr.choose_spec(payload)))

    return tuple(Rewrite(locus, tag, relabel) for tag in tags)


def _frame_of(size):
    payload = bytes(range(size))
    return qr.qr_encode(payload, qr.choose_spec(payload))


class TestCaptureReuse:
    """rs_parity keeps its last few results, and encrypt records its last few
    keys: the recheck of each capture reuses the parity its frame's encode
    computed, and each open the key its seal derived. A decode packs
    nothing. No encode finds a parity an earlier session computed, and each
    seal derives its own key, not even when the same 18 sessions run a
    second time, as the benchmark's repeated passes do."""

    @pytest.mark.parametrize("damage", [0, "budget", "budget+1"], ids=str)
    def test_one_miss_per_frame_one_hit_per_recheck(self, spy, damage):
        packs, derives, keys = spy(qr, "_pack"), spy(crypto, "_hybrid_key"), spy(crypto, "_recorded_key")
        decodes, seals, opens = spy(qr, "qr_decode"), spy(crypto, "encrypt"), spy(crypto, "decrypt")

        def rechecks(calls):  # the decodes past the budget check, at the recheck
            return [f for (f,) in (c.args for c in calls) if len(f.corrupted_codewords) <= qr.correction_budget(f.spec)]

        spied = (packs, derives, keys, decodes, seals, opens)
        qr.rs_parity.cache_clear()
        for run in (1, 2):
            for protocol in Protocol:
                for seed in (0, 1, 2):
                    before = [len(calls) for calls in spied]
                    parity = qr.rs_parity.cache_info()
                    session = run_flow(_cfg(protocol, seed, corrupt_codewords=damage)).session
                    packed, derived, keyed, decoded, sealed, opened = (c[n:] for c, n in zip(spied, before))
                    label = f"run {run}: {protocol.value} seed {seed}"
                    assert qr.rs_parity.cache_info().misses - parity.misses == len(session.frame_log), label
                    assert qr.rs_parity.cache_info().hits - parity.hits == len(rechecks(decoded)), label
                    assert len(packed) == len(session.frame_log), label
                    assert len(derived) == len(sealed), label
                    # every open finds its key in the record: no miss
                    assert [call.result is not None for call in keyed] == [True] * len(opened), label
        assert seals and (rechecks(decodes) and opens or damage == "budget+1")


class TestHonestFramesDecode:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_every_honest_frame_round_trips(self, seed):
        # qr_decode accepts only the stream qr_encode writes: every frame of
        # the six flows is such a stream, so each decodes to its payload
        for protocol in Protocol:
            frames = [frame for _, _, frame in run_flow(_cfg(protocol, seed)).session.frame_log]
            assert frames or protocol is Protocol.HIJACKGUARD, protocol
            for frame in frames:
                assert qr.qr_decode(frame) == frame.payload, protocol


class TestFrameHandling:
    @pytest.mark.parametrize("protocol", AUTH_PROTOCOLS, ids=_login_id)
    def test_damage_at_the_budget_still_authenticates(self, protocol):
        result = run_flow(_cfg(protocol, 130, corrupt_codewords="budget"))
        assert result.outcome is Outcome.AUTHENTICATED

    @pytest.mark.parametrize("protocol", AUTH_PROTOCOLS, ids=_login_id)
    def test_damage_past_the_budget_aborts_retryable(self, protocol):
        result = run_flow(_cfg(protocol, 131, corrupt_codewords="budget+1"))
        assert result.outcome is Outcome.ABORTED
        assert result.session.abort_retryable
        assert "undecodable" in result.session.abort_reason

    def test_frame_log_records_contexts(self):
        result = run_flow(_cfg(Protocol.P1, 132))
        contexts = [context for _, context, _ in result.session.frame_log]
        assert contexts == ["keyboard"]
        result3 = run_flow(_cfg(Protocol.P3, 133))
        contexts3 = [context for _, context, _ in result3.session.frame_log]
        assert contexts3 == ["nonce", "credential_upload"]

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_each_frame_is_logged_under_its_capture_name(self, protocol):
        # a frame goes by one name: the one it is made under is the one it
        # is captured under, so the hand table of captures names every frame
        for seed in range(3):
            session = run_flow(_cfg(protocol, seed)).session
            assert {context for _, context, _ in session.frame_log} == set(CAPTURE_CONTEXTS[protocol]), seed

    def test_frames_use_the_smallest_fitting_version(self):
        result = run_flow(_cfg(Protocol.P1, 134))
        for _, _, frame in result.session.frame_log:
            spec = frame.spec
            assert len(frame.payload) <= spec.capacity
            if spec.version > 1:
                smaller = qr.FrameSpec(spec.version - 1, spec.ec_level, spec.mode)
                assert len(frame.payload) > smaller.capacity

    @pytest.mark.parametrize("protocol", SEALED, ids=str)
    def test_mangled_signature_aborts_fatal(self, protocol):
        # a compromised network rewrites the challenge; the phone must
        # refuse before decrypting rather than retry forever
        def mangle(msg):
            wire, sig = _unpack_signed(msg.frame.payload)
            bad_sig = dataclasses.replace(sig, sig=bytes(b ^ 1 for b in sig.sig))
            payload = _pack_signed(wire, bad_sig)
            return dataclasses.replace(msg, frame=qr.qr_encode(payload, qr.choose_spec(payload)))

        actions = tuple(Rewrite(EntityKind.SERVER, tag, mangle) for tag in ("kbd_challenge", "otp_challenge"))
        result = run_flow(_cfg(protocol, 135), actions=actions)
        assert result.outcome is Outcome.ABORTED
        assert result.session.abort_reason == "challenge_signature_invalid"
        assert not result.session.abort_retryable

    @pytest.mark.parametrize(
        "role, reason",
        [(0x00, "challenge_signature_invalid"), (0x02, "challenge_malformed"), (0xFF, "challenge_malformed")],
    )
    @pytest.mark.parametrize("protocol", SEALED, ids=str)
    def test_relabelled_challenge_signature_aborts_fatal(self, protocol, role, reason):
        # the role byte is outside the signature: a USER label on the
        # server's signature fails its check, an unknown label is unreadable
        relabel = _relabelling_signature(EntityKind.SERVER, ("kbd_challenge", "otp_challenge"), role)
        result = run_flow(_cfg(protocol, 135), actions=relabel)
        assert result.outcome is Outcome.ABORTED
        assert result.session.abort_reason == reason
        assert not result.session.abort_retryable

    @pytest.mark.parametrize("protocol", SEALED, ids=str)
    def test_wrong_phone_key_aborts_fatal(self, protocol):
        stranger = crypto.generate_keypair(Role.USER, seed=136)
        result = run_flow(_cfg(protocol, 136), actions=(Plant(EntityKind.SMARTPHONE, {"keypair": stranger}),))
        assert result.outcome is Outcome.ABORTED
        assert result.session.abort_reason == "challenge_ciphertext_rejected"
        assert not result.session.abort_retryable

    def test_unsigned_challenges_accepted_when_signing_disabled(self):
        flags = SessionFlags(sign_server_payloads=False)
        result = run_flow(_cfg(Protocol.P1, 137, flags=flags))
        assert result.outcome is Outcome.AUTHENTICATED

    def test_refused_scan_under_a_standing_verdict_takes_no_credentials(self):
        # junk is denied before the phone's first scan, so the abort for
        # the malformed nonce cannot change the verdict; the phone still
        # counts as unscanned and refuses the credentials instead of raising.
        # Both refusals are recorded as late verdicts, each with its reason
        actions = (
            *_rewriting_frames(frame=_frame_of(crypto.NONCE_LEN - 1)),
            Inject(SubmitCiphertext(blob=b"garbage"), (EntityKind.TERMINAL, "nonce_challenge")),
            Inject(TypeCredentials(user_id="alice", password="data"), (EntityKind.SMARTPHONE, "show_frame")),
        )
        result = run_flow(_cfg(Protocol.P3, 140), actions=actions)
        assert result.outcome is Outcome.DENIED
        assert "type_credentials" in [e.TAG for e in result.session.transcript]
        assert "type_credentials" not in result.session.entities[EntityKind.SMARTPHONE].state
        assert result.session.late_verdicts == [
            (5, Outcome.ABORTED, "nonce_malformed"),
            (7, Outcome.ABORTED, "type_credentials_out_of_order"),
        ]
        assert result.session.abort_reason is None

    @pytest.mark.parametrize("size", [15, 17, 200])
    def test_malformed_nonce_aborts_fatal(self, size):
        result = run_flow(_cfg(Protocol.P3, 139), actions=_rewriting_frames(frame=_frame_of(size)))
        assert result.outcome is Outcome.ABORTED
        assert result.session.abort_reason == "nonce_malformed"
        assert not result.session.abort_retryable

    def test_well_formed_foreign_nonce_reaches_the_server(self):
        # the control: a nonce of the right length is sealed and sent up,
        # and the server denies it as not its own
        result = run_flow(_cfg(Protocol.P3, 139), actions=_rewriting_frames(frame=_frame_of(crypto.NONCE_LEN)))
        assert result.outcome is Outcome.DENIED

    @staticmethod
    def _sealed_to_the_user(protocol, plain):
        """With signing off, anyone may seal plain to the user's key and
        show it to the phone in place of the server's challenge."""
        store = CredentialStore.provision(5)
        config = _cfg(protocol, 5, flags=SessionFlags(sign_server_payloads=False))
        public_key = store.users[config.user_id].keypair.public_key
        payload = _pack_signed(crypto.encrypt(public_key, plain, rng=5).to_bytes(), None)
        frame = qr.qr_encode(payload, qr.choose_spec(payload))
        return run_flow(config, store=store, actions=_rewriting_frames(frame=frame))

    @pytest.mark.parametrize(
        "protocol, plain",
        [
            (Protocol.P1, b"junk"),
            (Protocol.P1, b"\xff\xfe"),
            (Protocol.P2, b"\xff\xfe"),
            (Protocol.P2, b"JUNK"),
        ],
        ids=str,
    )
    def test_malformed_sealed_challenge_aborts_fatal(self, protocol, plain):
        # a plaintext that is no layout, or no OTP over the alphabet
        result = self._sealed_to_the_user(protocol, plain)
        assert result.outcome is Outcome.ABORTED
        assert result.session.abort_reason == "challenge_malformed"
        assert not result.session.abort_retryable

    def test_well_formed_foreign_otp_reaches_the_server(self):
        # the control: an OTP over the alphabet is shown, typed and denied
        result = self._sealed_to_the_user(Protocol.P2, b"abcd1234")
        assert result.outcome is Outcome.DENIED


def _leading_zero(text: bytes) -> bytes:
    return text.replace(b"amount=25000", b"amount=025000")


class TestTransactionVerification:
    def test_honest_confirmation(self):
        result = run_flow(_cfg(Protocol.TXVERIFY, 140))
        assert result.outcome is Outcome.CONFIRMED
        assert result.session.executed_tx == DEFAULT_TX

    def test_submit_alteration_is_flagged(self):
        # malware rewrites the transaction on the wire; the page and the
        # phone then show the altered record and the user balks
        rewrite = Rewrite(EntityKind.TERMINAL, "submit_tx", {"tx": EVIL})
        result = run_flow(_cfg(Protocol.TXVERIFY, 141), actions=(rewrite,))
        assert result.outcome is Outcome.USER_FLAGGED_MISMATCH
        assert result.session.executed_tx is None

    def test_display_only_alteration_is_flagged(self):
        # the terminal lies about the page while the real record goes up;
        # the phone-verified copy disagrees with the page
        lie = Rewrite(EntityKind.TERMINAL, "show_tx_page", {"tx": EVIL})
        result = run_flow(_cfg(Protocol.TXVERIFY, 142), actions=(lie,))
        assert result.outcome is Outcome.USER_FLAGGED_MISMATCH
        assert result.session.executed_tx is None

    @pytest.mark.parametrize("role", [0x00, 0x02])
    def test_relabelled_confirmation_is_flagged(self, role):
        # a confirmation signed by the server but labelled otherwise is no
        # server confirmation: the phone shows it invalid and the user balks
        relabel = _relabelling_signature(EntityKind.SERVER, ("tx_confirmation",), role)
        result = run_flow(_cfg(Protocol.TXVERIFY, 3), actions=relabel)
        assert result.outcome is Outcome.USER_FLAGGED_MISMATCH
        assert result.session.executed_tx is None

    # the terminal rewrites the signed text of the confirmation frame;
    # the signature still covers the original bytes. The first four keep
    # the transaction's value and were CONFIRMED while the phone verified a
    # re-serialization; a changed digit is the positive control.
    REWRITES = {
        "reversed": lambda lines: lines[::-1],
        "leading_zeros": lambda lines: [lines[0], b"amount=0025000", *lines[2:]],
        "underscore": lambda lines: [lines[0], b"amount=25_000", *lines[2:]],
        "duplicate_and_memo": lambda lines: [lines[0], b"amount=1", *lines[1:], b"memo=hi"],
        "changed_digit": lambda lines: [lines[0], b"amount=25001", *lines[2:]],
    }

    @staticmethod
    def _rewriting_confirmation(rewrite) -> Rewrite:
        def frame(msg):
            payload = msg.frame.payload
            (n,) = struct.unpack(">I", payload[:4])
            text = b"\n".join(rewrite(payload[4 : 4 + n].split(b"\n")))
            payload = struct.pack(">I", len(text)) + text + payload[4 + n :]
            return dataclasses.replace(msg, frame=qr.qr_encode(payload, qr.choose_spec(payload)))

        return Rewrite(EntityKind.TERMINAL, "show_frame", frame)

    @pytest.mark.parametrize("rewrite", REWRITES, ids=str)
    def test_rewritten_signed_text_is_flagged(self, rewrite):
        action = self._rewriting_confirmation(self.REWRITES[rewrite])
        result = run_flow(_cfg(Protocol.TXVERIFY, 3), actions=(action,))
        assert result.outcome is Outcome.USER_FLAGGED_MISMATCH
        assert result.session.executed_tx is None

    @staticmethod
    def _shown(spy, payload_of) -> tuple[ShowVerifiedTx, list, bytes]:
        """What the phone shows the user and the arguments of each verify it
        makes when the terminal shows it payload_of(server pair, the honest
        signed text) as its seed-3 confirmation frame, and that honest text."""
        store = CredentialStore.provision(3)
        honest = run_flow(_cfg(Protocol.TXVERIFY, 3), store)
        (confirmation,) = [m for m in honest.session.transcript if m.TAG == "tx_confirmation"]
        text, _ = _unpack_signed(confirmation.frame.payload)
        payload = payload_of(store.server_pair, text)
        frame = qr.qr_encode(payload, qr.choose_spec(payload))
        verifies = spy(crypto, "verify")
        result = run_flow(_cfg(Protocol.TXVERIFY, 3), store, actions=_rewriting_frames(frame=frame))
        (shown,) = [m for m in result.session.transcript if m.TAG == "show_verified_tx"]
        return shown, [call.args for call in verifies], text

    def test_phone_verifies_the_bytes_that_arrived_as_the_servers(self, spy):
        # the control: the server's own payload, shown back, verifies over
        # the text that arrived and only under the server's role
        shown, calls, text = self._shown(spy, lambda server, text: _pack_signed(text, crypto.sign(server, text)))
        assert shown == ShowVerifiedTx(tx=DEFAULT_TX, sig_valid=True, fresh=True)
        ((public_key, message, _, signer),) = calls
        assert public_key == CredentialStore.provision(3).server_pair.public_key
        assert (message, signer) == (text, Role.SERVER)

    def test_another_servers_signature_is_shown_invalid(self, spy):
        other = crypto.generate_keypair(Role.SERVER, seed=42)
        shown, _, _ = self._shown(spy, lambda server, text: _pack_signed(text, crypto.sign(other, text)))
        assert shown == ShowVerifiedTx(tx=DEFAULT_TX, sig_valid=False, fresh=True)

    # a payload the phone refuses to read: it shows no transaction. A
    # leading zero keeps the amount's value but is no canonical text
    REFUSED = {
        "unsigned": lambda server, text: _pack_signed(text, None),
        "signed_non_canonical": lambda server, text: _pack_signed(
            _leading_zero(text), crypto.sign(server, _leading_zero(text))
        ),
        "signature_over_other_text": lambda server, text: _pack_signed(_leading_zero(text), crypto.sign(server, text)),
    }

    @pytest.mark.parametrize("payload_of", REFUSED, ids=str)
    def test_refused_confirmation_shows_no_transaction(self, payload_of, spy):
        shown, calls, _ = self._shown(spy, self.REFUSED[payload_of])
        assert shown == ShowVerifiedTx(tx=None, sig_valid=False, fresh=False)
        assert calls == []

    def test_confirmation_names_the_session_nonce(self):
        result = run_flow(_cfg(Protocol.TXVERIFY, 143))
        phone = result.session.entities[EntityKind.SMARTPHONE]
        server = result.session.entities[EntityKind.SERVER]
        assert phone.state["session_nonce"] == server.state["session_nonce"]
        user = result.session.entities[EntityKind.USER]
        assert user.state["show_verified_tx"] == ShowVerifiedTx(tx=DEFAULT_TX, sig_valid=True, fresh=True)


class TestSecureView:
    def test_honest_view(self):
        result = run_flow(_cfg(Protocol.SECUREVIEW, 150))
        assert result.outcome is Outcome.VIEWED
        assert result.session.view_values == dict(DEFAULT_VIEW_FIELDS)
        assert result.session.view_failures == ()

    def test_terminal_never_sees_field_plaintext(self):
        result = run_flow(_cfg(Protocol.SECUREVIEW, 151))
        terminal = result.session.entities[EntityKind.TERMINAL]
        for _, value in DEFAULT_VIEW_FIELDS:
            for _, snap in terminal.snapshots:
                assert value.encode() not in snap
        assert secrecy_violations(result.session) == []

    def test_single_field_corruption_fails_just_that_field(self):
        result = run_flow(
            _cfg(
                Protocol.SECUREVIEW,
                152,
                corrupt_codewords="budget+1",
                corrupt_context="secure_field:balance",
            )
        )
        assert result.outcome is Outcome.VIEWED
        assert result.session.view_failures == ("balance",)
        assert "statement" in result.session.view_values
        assert "balance" not in result.session.view_values

    def test_sealed_field_that_is_not_utf8_fails_that_field(self):
        # anyone can seal to the user's public key: a terminal that swaps in
        # fields whose plaintext is not UTF-8 fails them, not the phone
        store = CredentialStore.provision(5)
        user_public = store.users["alice"].keypair.public_key
        sealed = crypto.encrypt(user_public, b"\xff\xfe", 5).to_bytes()
        frame = qr.qr_encode(sealed, qr.choose_spec(sealed, _cfg(Protocol.SECUREVIEW, 3).frame_ec))
        swap = Rewrite(EntityKind.TERMINAL, "show_doc", {"frames": (frame, frame)})
        result = run_flow(_cfg(Protocol.SECUREVIEW, 3), store, actions=(swap,))
        assert result.outcome is Outcome.VIEWED
        assert result.session.view_failures == ("balance", "statement")
        assert result.session.view_values == {}


SUCCESS = {
    Protocol.P1: Outcome.AUTHENTICATED,
    Protocol.P2: Outcome.AUTHENTICATED,
    Protocol.P3: Outcome.AUTHENTICATED,
    Protocol.TXVERIFY: Outcome.CONFIRMED,
    Protocol.SECUREVIEW: Outcome.VIEWED,
    Protocol.HIJACKGUARD: Outcome.ACCEPTED,
}


@pytest.mark.parametrize(
    "context,captured",
    [(context, True) for contexts in CAPTURE_CONTEXTS.values() for context in contexts]
    + [("keybaord", False)],
)
def test_capture_contexts_name_real_captures(context, captured):
    # past the cliff, a context costs exactly the flows that list it their
    # success or a view field; every other flow, and a name no flow
    # captures, changes nothing
    def damaged(protocol):
        config = _cfg(protocol, 190, corrupt_codewords="budget+1", corrupt_context=context)
        result = run_flow(config)
        return result.outcome is not SUCCESS[protocol] or bool(result.session.view_failures)

    listed = {protocol for protocol, contexts in CAPTURE_CONTEXTS.items() if context in contexts}
    assert {protocol for protocol in Protocol if damaged(protocol)} == listed
    assert bool(listed) is captured


class TestHijackGuard:
    def test_honest_transfer_accepted(self, spy):
        verifies = spy(crypto, "verify")
        result = run_hijack_guard(_cfg(Protocol.HIJACKGUARD, 160))
        assert result.outcome is Outcome.ACCEPTED
        assert result.session.executed_tx == DEFAULT_TX
        assert [call.result for call in verifies] == [True]

    @pytest.mark.parametrize("locus", [EntityKind.TERMINAL, EntityKind.SMARTPHONE], ids=str)
    def test_alteration_rejected_before_any_verify(self, locus, spy):
        # the transactions differ, so the verdict is settled without the
        # signature check that only an agreeing side copy needs
        verifies = spy(crypto, "verify")
        result = run_hijack_guard(_cfg(Protocol.HIJACKGUARD, 160), actions=_altering(locus))
        assert result.outcome is Outcome.REJECTED
        assert result.session.executed_tx is None
        assert verifies == []

    def test_side_copy_labelled_server_rejected(self):
        # the user's own valid signature, relabelled as the server's
        def relabel(msg):
            return dataclasses.replace(msg, signature=dataclasses.replace(msg.signature, signer=Role.SERVER))

        relabelled = Rewrite(EntityKind.SMARTPHONE, "side_copy", relabel)
        result = run_hijack_guard(_cfg(Protocol.HIJACKGUARD, 160), actions=(relabelled,))
        assert result.outcome is Outcome.REJECTED
        assert result.session.executed_tx is None

    def test_altered_submission_rejected(self):
        rewrite = Rewrite(EntityKind.TERMINAL, "submit_tx", {"tx": EVIL})
        result = run_hijack_guard(_cfg(Protocol.HIJACKGUARD, 161), actions=(rewrite,))
        assert result.outcome is Outcome.REJECTED
        assert result.session.executed_tx is None

    def test_forged_side_copy_rejected(self, spy):
        # a side copy signed by the wrong key must not unlock execution; the
        # transactions agree, so the signature is checked, once, and fails
        store = CredentialStore.provision(164)
        stranger = crypto.generate_keypair(Role.USER, seed=164)
        verifies = spy(crypto, "verify")
        result = run_hijack_guard(
            _cfg(Protocol.HIJACKGUARD, 164), store=store, actions=(Plant(EntityKind.SMARTPHONE, {"keypair": stranger}),)
        )
        assert result.outcome is Outcome.REJECTED
        assert result.session.executed_tx is None
        assert [call.result for call in verifies] == [False]


# each flow's honest message order, delivery by delivery, written by hand
# apart from SPEC: SPEC's row order must equal it, and each honest run must
# follow it
HONEST_SEQUENCES = {
    Protocol.P1: (
        "type_id", "login_request", "kbd_challenge", "show_frame", "show_keyboard", "show_layout",
        "click_positions", "echo_clicks", "submit_positions", "auth_result", "show_result",
    ),
    Protocol.P2: (
        "type_id", "login_request", "otp_challenge", "show_frame", "show_keyboard", "show_otp",
        "type_otp", "echo_otp", "submit_otp", "auth_result", "show_result",
    ),
    Protocol.P3: (
        "connect", "connect_request", "nonce_challenge", "show_frame", "show_login_box",
        "type_credentials", "echo_masked_credentials", "upload_frame", "submit_ciphertext",
        "auth_result", "show_result",
    ),
    Protocol.TXVERIFY: (
        "request_tx", "submit_tx", "tx_confirmation", "show_frame", "show_tx_page",
        "show_verified_tx", "confirm_tx", "forward_confirm", "tx_result", "show_result",
    ),
    Protocol.SECUREVIEW: ("connect", "connect_request", "secure_doc", "show_doc", "show_fields"),
    Protocol.HIJACKGUARD: ("request_tx", "confirm_on_phone", "submit_tx", "side_copy", "tx_result", "show_result"),
}


# FLOWS as written by hand before SPEC stated each flow once: every
# "<flow> <party> <phase> <tag> -> <next phase>" it held. The table read off
# SPEC must hold exactly these
PINNED_FLOWS = {
    "P1 user start show_keyboard -> start",
    "P1 user start show_layout -> start",
    "P1 user start echo_clicks -> start",
    "P1 user start show_result -> start",
    "P1 terminal start type_id -> start",
    "P1 terminal start kbd_challenge -> start",
    "P1 terminal start click_positions -> start",
    "P1 terminal start auth_result -> start",
    "P1 smartphone start show_frame -> start",
    "P1 server start login_request -> challenged",
    "P1 server challenged submit_positions -> challenged",
    "P2 user start show_keyboard -> start",
    "P2 user start show_otp -> start",
    "P2 user start echo_otp -> start",
    "P2 user start show_result -> start",
    "P2 terminal start type_id -> start",
    "P2 terminal start otp_challenge -> start",
    "P2 terminal start type_otp -> start",
    "P2 terminal start auth_result -> start",
    "P2 smartphone start show_frame -> start",
    "P2 server start login_request -> challenged",
    "P2 server challenged submit_otp -> challenged",
    "P3 user start show_login_box -> start",
    "P3 user start echo_masked_credentials -> start",
    "P3 user start show_result -> start",
    "P3 terminal start connect -> start",
    "P3 terminal start nonce_challenge -> start",
    "P3 terminal start upload_frame -> start",
    "P3 terminal start auth_result -> start",
    "P3 smartphone start show_frame -> scanned",
    "P3 smartphone scanned show_frame -> scanned",
    "P3 smartphone scanned type_credentials -> scanned",
    "P3 server start connect_request -> challenged",
    "P3 server challenged submit_ciphertext -> challenged",
    "TXVERIFY user start show_tx_page -> start",
    "TXVERIFY user start show_verified_tx -> start",
    "TXVERIFY user start show_result -> start",
    "TXVERIFY terminal start request_tx -> start",
    "TXVERIFY terminal start tx_confirmation -> start",
    "TXVERIFY terminal start confirm_tx -> start",
    "TXVERIFY terminal start tx_result -> start",
    "TXVERIFY smartphone start show_frame -> start",
    "TXVERIFY server start submit_tx -> challenged",
    "TXVERIFY server challenged forward_confirm -> done",
    "SECUREVIEW user start show_fields -> start",
    "SECUREVIEW terminal start connect -> start",
    "SECUREVIEW terminal start secure_doc -> start",
    "SECUREVIEW smartphone start show_doc -> start",
    "SECUREVIEW server start connect_request -> done",
    "HIJACKGUARD user start show_result -> start",
    "HIJACKGUARD terminal start request_tx -> start",
    "HIJACKGUARD terminal start tx_result -> start",
    "HIJACKGUARD smartphone start confirm_on_phone -> start",
    "HIJACKGUARD server start submit_tx -> tx_held",
    "HIJACKGUARD server start side_copy -> side_held",
    "HIJACKGUARD server tx_held side_copy -> done",
    "HIJACKGUARD server side_held submit_tx -> done",
}


class TestDispatch:
    def test_every_message_has_a_handler_at_its_receiver(self):
        # a message travels only on its declared channel; whoever sits at
        # the far end of that channel takes it in some flow's rows
        registered = Message.__subclasses__()
        assert {cls.TAG for cls in registered} == set(entities.MESSAGES)
        for cls in registered:
            receiver = cls.CHANNEL.receiver
            assert any(
                cls.TAG in rows for flow in FLOWS.values() for rows in flow[receiver].values()
            ), cls.TAG

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_every_row_is_delivered_by_the_honest_run(self, protocol):
        # each party's rows name exactly the tags the honest run delivers
        # to it: none is wider than its flow, and no delivery finds no row
        # (which after the verdict would abort without a trace)
        named = {
            (party, tag) for party, phases in FLOWS[protocol].items() for rows in phases.values() for tag in rows
        }
        for seed in range(3):
            result = run_flow(_cfg(protocol, seed))
            assert result.session.abort_reason is None, seed
            delivered = {(m.CHANNEL.receiver, m.TAG) for m in result.session.transcript}
            assert delivered == named, (seed, delivered ^ named)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_honest_run_follows_its_declared_sequence(self, protocol):
        for seed in range(3):
            transcript = run_flow(_cfg(protocol, seed)).session.transcript
            assert tuple(m.TAG for m in transcript) == HONEST_SEQUENCES[protocol], seed

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_spec_lists_the_honest_sequence(self, protocol):
        # SPEC states each flow in honest delivery order, one row per message
        assert tuple(row[0].TAG for row in SPEC[protocol]) == HONEST_SEQUENCES[protocol]

    def test_flows_read_off_spec_equal_the_hand_table(self):
        derived = {
            f"{protocol.value} {party.value} {phase} {tag} -> {after}"
            for protocol, flow in FLOWS.items()
            for party, phases in flow.items()
            for phase, rows in phases.items()
            for tag, (_, after) in rows.items()
        }
        assert derived == PINNED_FLOWS

    def test_run_flow_routes_by_protocol(self):
        assert run_flow(_cfg(Protocol.P2, 170)).outcome is Outcome.AUTHENTICATED
        assert run_flow(_cfg(Protocol.SECUREVIEW, 171)).outcome is Outcome.VIEWED

    def test_same_seed_reproduces_the_whole_run(self):
        a = run_flow(_cfg(Protocol.TXVERIFY, 173))
        b = run_flow(_cfg(Protocol.TXVERIFY, 173))
        assert export_transcript(a.session) == export_transcript(b.session)
        assert a.outcome is b.outcome

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_same_seed_reproduces_every_snapshot(self, protocol):
        # two runs in one process, each against its own store: no state
        # may carry anything from the first run into the second
        a, b = (run_flow(_cfg(protocol, 174), CredentialStore.provision(174)) for _ in range(2))
        for kind, entity in a.session.entities.items():
            assert entity.snapshots == b.session.entities[kind].snapshots, kind

    @pytest.mark.parametrize("protocol", [Protocol.TXVERIFY, Protocol.P3], ids=str)
    def test_a_session_on_a_shared_store_runs_as_on_a_fresh_one(self, protocol):
        # each session draws its nonces against its own set, so no earlier
        # session on the store moves its transcript
        store = CredentialStore.provision(7)
        config = _cfg(protocol, 11)
        first, second = (export_transcript(run_flow(config, store).session) for _ in range(2))
        assert first == second == export_transcript(run_flow(config, CredentialStore.provision(7)).session)


class TestPasswordInsideAnOtp:
    """P2 seeds whose one-time password holds the password data: the OTP is
    the phone's and the terminal's to hold, so the password inside it is no
    sighting there."""

    OTPS = {48471: "duidatab", 638897: "hudata84"}

    @pytest.mark.parametrize("seed", OTPS)
    def test_the_password_inside_the_otp_is_no_violation(self, seed):
        for store in (None, CredentialStore.provision(0)):
            result = run_flow(_cfg(Protocol.P2, seed), store)
            assert result.session.entities[EntityKind.SERVER].state["token"].value == self.OTPS[seed]
            assert result.outcome is Outcome.AUTHENTICATED
            assert secrecy_violations(result.session) == []

    @pytest.mark.parametrize("seed", OTPS)
    def test_the_password_planted_beside_it_is_a_violation(self, seed):
        # positive control: the same session with the password also held
        # apart from the OTP at the terminal, as a typed OTP it holds until
        # the user types the real one
        planted = Plant(EntityKind.TERMINAL, {"type_otp": TypeOtp("data")})
        result = run_flow(_cfg(Protocol.P2, seed), actions=(planted,))
        assert [(s.entity, s.kind) for s in secrecy_violations(result.session)] == [
            (EntityKind.TERMINAL, SecretKind.PASSWORD)
        ]


def _rewrites(locus, changes: dict) -> tuple:
    """Malware at locus that rewrites what it sends: changes maps each tag
    to new values for that message's fields."""
    return tuple(Rewrite(locus, tag, fields) for tag, fields in changes.items())


def _run_with_injected(config, message, at=0):
    return sweeps.run(sweeps.injected(config, message, at))


# a run of each flow in which some party takes a tag twice: a login retry
RETRIES = {
    Protocol.P1: {"submit_passwords": ("wrongpw0", "data"), "max_attempts": 2},
    Protocol.P2: {"mistype_otp": True, "max_attempts": 2},
    Protocol.P3: {"submit_passwords": ("wrongpw0", "data"), "max_attempts": 2},
}


class TestEachPartyKeepsWhatItTakes:
    """Party.receive is the one keep: each party holds every message it
    takes as state[tag], the last of each tag, and none that it refuses."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_each_party_holds_the_last_message_of_each_tag(self, protocol):
        for extra in ({}, RETRIES.get(protocol, {})):
            session = run_flow(_cfg(protocol, 3, **extra)).session
            assert (session.abort_reason, session.late_verdicts) == (None, []), extra  # nothing refused
            tags = [m.TAG for m in session.transcript]
            assert len(set(tags)) < len(tags) or not extra  # a retry takes some tag twice
            for party, entity in session.entities.items():
                handed = {m.TAG: m for m in session.transcript if m.CHANNEL.receiver is party}
                kept = {key: value for key, value in entity.state.items() if key in entities.MESSAGES}
                assert kept.keys() == handed.keys(), (extra, party)
                assert all(kept[tag] is message for tag, message in handed.items()), (extra, party)

    def test_the_terminal_defines_no_handler_per_tag(self):
        assert [name for name in vars(Terminal) if name.startswith("on_")] == []

    def test_the_honest_p2_scan_sights_the_otp_at_the_user(self):
        # the phone shows the user the one-time password, and the user keeps
        # what it is shown, so the scan finds it there
        for seed in range(3):
            sightings = scan_states_for_secrets(run_flow(_cfg(Protocol.P2, seed)).session)
            assert (EntityKind.USER, SecretKind.OTP) in {(s.entity, s.kind) for s in sightings}, seed

    def test_a_kept_message_is_scanned(self):
        # the positive control: a P2 terminal takes a typed one-time password,
        # so one that is the user's password stays in its state, where the
        # scan sights it; _run_with_injected provisions alice with "data"
        session = _run_with_injected(_cfg(Protocol.P2, 189), TypeOtp(otp="data"))
        assert session.entities[EntityKind.TERMINAL].state["type_otp"].otp == "data"
        sighting = SecretSighting(EntityKind.TERMINAL, SecretKind.PASSWORD, step=1, violation=True)
        assert sighting in scan_states_for_secrets(session)


class TestServerFailsClosed:
    """Every party, the server first, refuses a message its FLOWS rows lack."""

    def test_ciphertext_injected_into_p1_aborts(self):
        # P3's submission is foreign to P1; accepting it used to answer
        # with a nonce, walk the user into typing the password on the
        # phone and authenticate
        session = sweeps.check(sweeps.injected(_cfg(Protocol.P1, 180, max_attempts=2), SubmitCiphertext(blob=b"garbage")))
        assert (session.outcome, session.abort_reason) == (Outcome.ABORTED, "submit_ciphertext_out_of_protocol")

    def test_otp_before_its_challenge_aborts(self):
        session = _run_with_injected(_cfg(Protocol.P2, 181, max_attempts=2), SubmitOtp(otp="guess"))
        assert session.outcome is Outcome.ABORTED
        assert session.abort_reason == "submit_otp_out_of_order"
        assert session.entities[EntityKind.SERVER].state.get("token") is None

    @pytest.mark.parametrize(
        "protocol, message, at",
        [
            # bob's challenge reaches alice's phone, which cannot open it;
            # that later abort must not overwrite the server's reason
            (Protocol.P1, LoginRequest(user_id="bob", protocol="P1"), 0),
            (Protocol.P3, ConnectRequest(), 0),
            (Protocol.SECUREVIEW, ConnectRequest(), 0),
            # delivery 7 is the user's confirm_tx reaching the terminal, so
            # the attacker's transaction lands before the forwarded confirm
            (Protocol.TXVERIFY, SubmitTx(tx=EVIL), 7),
        ],
        ids=lambda v: getattr(v, "TAG", str(v)),
    )
    def test_repeated_flow_message_aborts(self, protocol, message, at):
        session = _run_with_injected(_cfg(protocol, 183), message, at=at)
        assert session.outcome is Outcome.ABORTED
        assert session.abort_reason == f"{message.TAG}_out_of_order"
        assert session.executed_tx is None

    def test_guard_off_executes_one_transaction(self):
        # with the guard off the attacker's submission goes through, as
        # conceded; the honest one after it must not execute as well
        flags = SessionFlags(hijack_guard=False)
        session = _run_with_injected(_cfg(Protocol.HIJACKGUARD, 184, flags=flags), SubmitTx(tx=EVIL))
        assert session.outcome is Outcome.ACCEPTED
        assert session.executed_tx == EVIL
        assert session.entities[EntityKind.SERVER].state["submit_tx"].tx == EVIL
        results = [m for m in session.transcript if m.TAG == "tx_result"]
        assert len(results) == 1

    # (flow, rewriting locus, changes, outcome, abort reason); the honest
    # runs are the positive controls, and each mutant raised AttributeError
    # before field types were checked. Party.receive refuses each before
    # any handler runs. The field-type sweep (tests/test_sweeps.py) runs
    # each field set to None, a str, an int and a list; these are the
    # values and flags it does not
    WRONG_TYPED = {
        "txverify_honest": (Protocol.TXVERIFY, None, {}, Outcome.CONFIRMED, None),
        "hijackguard_honest": (Protocol.HIJACKGUARD, None, {}, Outcome.ACCEPTED, None),
        "signature_bytes": (Protocol.HIJACKGUARD, EntityKind.SMARTPHONE, {"side_copy": {"signature": b"junk"}},
                            Outcome.ABORTED, "side_copy_malformed"),
        # with the guard off the server executes at once, so the type check
        # is all that stands; this mutant used to execute "x"
        "guard_off_tx_text": (Protocol.HIJACKGUARD, EntityKind.TERMINAL, {"submit_tx": {"tx": "x"}},
                              Outcome.ABORTED, "submit_tx_malformed"),
    }
    WRONG_TYPED_FLAGS = {"guard_off_tx_text": SessionFlags(hijack_guard=False)}

    @pytest.mark.parametrize("name", WRONG_TYPED)
    def test_wrong_typed_submission_is_refused(self, name):
        protocol, locus, changes, outcome, reason = self.WRONG_TYPED[name]
        config = _cfg(protocol, 3, flags=self.WRONG_TYPED_FLAGS.get(name, SessionFlags()))
        session = run_flow(config, CredentialStore.provision(3), _rewrites(locus, changes)).session
        assert (session.outcome, session.abort_reason) == (outcome, reason)
        executed = DEFAULT_TX if outcome in (Outcome.CONFIRMED, Outcome.ACCEPTED) else None
        assert session.executed_tx == executed
        # a malformed submission is signed by no one: no confirmation goes out
        signed = any(m.TAG == "tx_confirmation" for m in session.transcript)
        assert signed == (outcome is Outcome.CONFIRMED)

    # (flow, what the terminal rewrites, outcome, abort reason, failed view
    # fields); the empty rewrites are the honest controls. Each runs clean
    # and with every capture damaged up to its budget, which heals. A field
    # of the wrong type is the field-type sweep's, which runs each damaged
    # too (tests/test_sweeps.py)
    CLIENT_WRONG_TYPED = {
        "p1_honest": (Protocol.P1, {}, Outcome.AUTHENTICATED, None, ()),
        "p2_honest": (Protocol.P2, {}, Outcome.AUTHENTICATED, None, ()),
        "txverify_honest": (Protocol.TXVERIFY, {}, Outcome.CONFIRMED, None, ()),
        "secureview_honest": (Protocol.SECUREVIEW, {}, Outcome.VIEWED, None, ()),
        # well typed, but fewer frames than labels: the phone fails every field
        "secureview_frames_short": (Protocol.SECUREVIEW, {"show_doc": {"frames": ()}}, Outcome.VIEWED,
                                    None, ("balance", "statement")),
    }

    @pytest.mark.parametrize("name", CLIENT_WRONG_TYPED)
    def test_wrong_typed_field_at_a_client_ends_in_a_verdict(self, name):
        protocol, changes, outcome, reason, failures = self.CLIENT_WRONG_TYPED[name]
        for damage in (0, "budget"):
            config = _cfg(protocol, 3, corrupt_codewords=damage)
            session = run_flow(config, CredentialStore.provision(3), _rewrites(EntityKind.TERMINAL, changes)).session
            assert (session.outcome, session.abort_reason) == (outcome, reason), damage
            assert session.view_failures == failures, damage
            assert session.late_verdicts == [], damage
            assert session.executed_tx == (DEFAULT_TX if outcome is Outcome.CONFIRMED else None)
            if failures:
                assert session.view_values == {}

    def test_credentials_before_the_nonce_scan_abort(self):
        # the user answers an early login box, but the P3 phone takes
        # credentials only after it has scanned a nonce
        session = _run_with_injected(_cfg(Protocol.P3, 188), ShowLoginBox())
        assert session.outcome is Outcome.ABORTED
        assert session.abort_reason == "type_credentials_out_of_order"
        assert "type_credentials" not in session.entities[EntityKind.SMARTPHONE].state

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_confirm_before_any_transaction_aborts(self, protocol):
        session = _run_with_injected(_cfg(protocol, 182), ForwardConfirm(ok=True))
        assert session.outcome is Outcome.ABORTED
        assert session.abort_reason.startswith("forward_confirm_")
        assert session.executed_tx is None

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_every_refused_delivery_aborts_unkept(self, protocol):
        # generated from the table: each phase of each party's rows, and
        # "done", refuses every tag bound to that party it has no row for,
        # and each row refuses its tag with every field of the wrong type
        store = CredentialStore.provision(187)
        refusers = set()
        for party, phase, message, reason in sweeps.deliveries(protocol):
            session = build_session(_cfg(protocol, 187), store)
            session.entities[party].phase = phase
            deliver(session, message)
            where = (party, phase, message.TAG)
            assert (session.outcome, session.abort_reason) == (Outcome.ABORTED, reason), where
            assert message.TAG not in session.entities[party].state, where
            refusers.add(party)
        assert refusers == set(EntityKind)


class TestOversizedInputs:
    """A value too large for a frame, or for CPython's int-to-str limit,
    ends its session in a verdict and breaks no record."""

    # each payload fits no frame at seed 3 on store 3
    NO_FRAME_FITS = {
        "txverify_long_receiver_name": (
            _cfg(Protocol.TXVERIFY, 3),
            (Rewrite(EntityKind.TERMINAL, "submit_tx",
                     lambda m: SubmitTx(tx=dataclasses.replace(m.tx, receiver_name="x" * 300))),),
            "tx_confirmation",
        ),
        "p3_long_server_name": (
            _cfg(Protocol.P3, 3), (Plant(EntityKind.SMARTPHONE, {"server_name": "x" * 300}),), "credential_upload",
        ),
        "p1_ec_q": (_cfg(Protocol.P1, 3, frame_ec=qr.EcLevel.Q), (), "keyboard"),
        "txverify_ec_q": (_cfg(Protocol.TXVERIFY, 3, frame_ec=qr.EcLevel.Q), (), "tx_confirmation"),
        "p1_ec_h": (_cfg(Protocol.P1, 3, frame_ec=qr.EcLevel.H), (), "keyboard"),
        "p2_ec_h": (_cfg(Protocol.P2, 3, frame_ec=qr.EcLevel.H), (), "otp"),
        "txverify_ec_h": (_cfg(Protocol.TXVERIFY, 3, frame_ec=qr.EcLevel.H), (), "tx_confirmation"),
    }

    @pytest.mark.parametrize("case", NO_FRAME_FITS)
    def test_a_payload_no_frame_holds_aborts_fatal(self, monkeypatch, case):
        config, actions, context = self.NO_FRAME_FITS[case]
        emitted = sweeps.verdicts_at_sends(monkeypatch)
        session = run_flow(config, CredentialStore.provision(3), actions).session
        assert (session.outcome, session.abort_reason) == (Outcome.ABORTED, f"{context}_frame_over_capacity")
        assert not session.abort_retryable
        assert Outcome.ABORTED not in emitted  # nothing is sent after the abort
        assert all(ctx != context for _, ctx, _ in session.frame_log)

    def test_a_huge_click_position_breaks_no_record(self):
        rewrite = Rewrite(EntityKind.TERMINAL, "echo_clicks", {"positions": (10**5000,)})
        assert sweeps.check(sweeps.Case((), _cfg(Protocol.P1, 3), (rewrite,))).outcome is Outcome.AUTHENTICATED

    def test_a_transaction_amount_is_bounded(self):
        top = Transaction(receiver_account="A", amount=protocols.MAX_AMOUNT, receiver_name="b")
        assert parse_tx_canonical(canonical_tx_bytes(top)) == (top, None)
        for amount in (protocols.MAX_AMOUNT + 1, 10**5000):
            with pytest.raises(ValueError, match="at most"):
                Transaction(receiver_account="A", amount=amount, receiver_name="b")
        # an amount past the bound in a signed text does not parse
        text = canonical_tx_bytes(top).replace(b"amount=", b"amount=9", 1)
        with pytest.raises(ValueError):
            parse_tx_canonical(text)
