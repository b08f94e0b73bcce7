"""A mutation suite: each security check the matrix rests on, broken one at
a time, must fail tier-1.

    python tests/mutants.py [NAME...]

For each named mutant (every mutant when no name is given) this copies
src/, tests/, demos/ and pyproject.toml into a temporary directory and
replaces the mutant's anchor text there once. demos/ and pyproject.toml
come along because tier-1 runs the demos and reads its pytest settings
from pyproject.toml. It then runs the mutant's known killer, a test named
in its row, alone; only if that test passes does it run all of tier-1
with -x. A mutant survives only if tier-1 passes, so a stale killer costs
time, never a verdict. It prints "killed" with the killer or tier-1's
first failing test, or "SURVIVED"; a kill in tier-1 also says whether the
killer passed or did not run at all (pytest's exit code, as for a file
that fails to collect). Before any mutant it runs tier-1 on
the copy unmutated, which must pass, so that a copy that cannot pass
kills no mutant by accident. The mutants then run concurrently, one
process per usable core, and their verdicts print in table order. The
exit status is 1 if any mutant survived: a survivor is a check that no
test can see fail, so it needs a test that kills it, never a weaker
mutant. Tier-1 runs no mutant; test_mutants.py checks that each anchor
occurs exactly once in its file and that each killer names a test.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
PYTEST = ("-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider")
# tier-1 as CI runs it, but without the table's own anchor check, which a
# mutated copy fails by construction
TIER1 = (*PYTEST, "--continue-on-collection-errors", "--ignore=tests/test_mutants.py")
TIMEOUT_S = 900
FAILED, TIMED_OUT = 1, -1  # pytest's exit code when a test failed; ours when it did not finish


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    anchor: str  # occurs exactly once in path
    replacement: str
    aim: str  # what the check guards
    killer: str  # a test that fails on the mutant, as pytest names it


MUTANTS = (
    Mutant("field_check_always_true", "src/visualauth/entities.py",
           "            if not fits(getattr(self, name)):\n",
           "            if False:\n",
           "a field of the wrong type is refused at delivery, before any handler",
           "tests/test_adversary.py::TestReplaysAreJudged::test_positions_off_the_grid_are_denied[not_an_int]"),
    Mutant("guard_ignores_mismatch", "src/visualauth/protocols.py",
           "            side.tx == received.tx\n",
           "            True\n",
           "the hijack guard executes only a transaction its side copy matches",
           "tests/test_adversary.py::TestSharedAttempts::test_one_probe_per_locus_and_flags"),
    Mutant("guard_skips_verify", "src/visualauth/protocols.py",
           "            and crypto.verify(public_key, canonical_tx_bytes(side.tx), side.signature, Role.USER)\n",
           "",
           "the hijack guard takes a side copy only under the user's signature",
           "tests/test_protocols.py::TestHijackGuard::test_honest_transfer_accepted"),
    Mutant("p3_nonce_reusable", "src/visualauth/protocols.py",
           'fresh = not self.state["nonce_consumed"] and nonce_value == nonce.value',
           "fresh = nonce_value == nonce.value",
           "a P3 nonce logs in at most once",
           "tests/test_protocols.py::TestCiphertextReplayAndTamper::test_a_spent_nonce_is_refused_by_the_server_itself"),
    Mutant("otp_reusable", "src/visualauth/protocols.py",
           "ok = not token.consumed and msg.otp == token.value",
           "ok = msg.otp == token.value",
           "a one-time password logs in at most once",
           "tests/test_protocols.py::TestOtpSemantics::test_a_spent_token_is_refused_by_the_server_itself"),
    Mutant("server_name_unchecked", "src/visualauth/protocols.py",
           'ok = fresh and server_name == self.state["name"] and entry',
           "ok = fresh and entry",
           "credentials sealed for another server are refused (phishing relay)",
           "tests/test_adversary.py::TestAttackCatalogue::test_row_gives_its_verdict[phish_wrong_name-seed0]"),
    Mutant("signature_role_byte_unchecked", "src/visualauth/crypto.py",
           "        if blob[0] > 1:\n",
           "        if False:\n",
           "a signature decodes only with a user or server role byte (decoder law)",
           "tests/test_crypto.py::TestSignatures::test_unknown_role_byte_refused[2]"),
    Mutant("phone_skips_challenge_verify", "src/visualauth/protocols.py",
           'sig is None or not crypto.verify(self.state["server_public"], wire, sig, Role.SERVER)',
           "sig is None",
           "with sign_server_payloads on, the phone opens only a server-signed challenge",
           "tests/test_adversary.py::TestVerifyBudget::test_alteration_runs_verify_nothing[0]"),
    Mutant("verify_ignores_signer", "src/visualauth/crypto.py",
           "    if signature.signer is not signer or len(signature.sig) != 64:\n",
           "    if len(signature.sig) != 64:\n",
           "a signature verifies only as the signer it names: no relabelled role byte is taken",
           "tests/test_crypto.py::TestSignatures::test_verify_takes_only_the_named_signer"),
    Mutant("record_under_stored_half", "src/visualauth/crypto.py",
           "_SIGNED.append((pair._own_sign_public, bytes(message), sig))",
           "_SIGNED.append((pair.public_key[32:], bytes(message), sig))",
           "verify answers from its record only under the half the signing key derives, not the half a pair stores",
           "tests/test_crypto.py::TestSignatureRecord::test_a_pair_holding_another_pairs_public_half"),
    Mutant("record_ignores_signature", "src/visualauth/crypto.py",
           "(key, message, signature.sig) in _SIGNED:\n",
           "(key, message) in [entry[:2] for entry in _SIGNED]:\n",
           "verify answers from its record only for the very signature sign made",
           "tests/test_crypto.py::TestSignatureRecord::test_every_bit_flip_of_a_recorded_triple_is_refused"),
    Mutant("record_keeps_callers_message", "src/visualauth/crypto.py",
           "bytes(message), sig))",
           "message, sig))",
           "a message changed after it was signed is never answered from the record",
           "tests/test_crypto.py::TestSignatureRecord::test_a_message_changed_after_signing_is_refused"),
    Mutant("record_takes_any_key_type", "src/visualauth/crypto.py",
           "    if type(key) is bytes and (key, message",
           "    if (key, message",
           "a public key the curve check refuses for its type is refused from the record too",
           "tests/test_crypto.py::TestSignatureRecord::test_a_key_the_curve_check_refuses_is_refused_warm"),
    Mutant("seal_record_under_stored_half", "src/visualauth/crypto.py",
           "_recorded_key(pair._own_seal_public, eph_pub)",
           "_recorded_key(pair.seal_public, eph_pub)",
           "decrypt answers from its record only under the half the private key derives, not the half a pair stores",
           "tests/test_crypto.py::TestSealRecord::test_a_pair_holding_another_pairs_public_half"),
    Mutant("seal_record_ignores_ephemeral", "src/visualauth/crypto.py",
           "            if entry_eph == eph_pub and entry_half == half:\n",
           "            if entry_half == half:\n",
           "decrypt answers from its record only for the very ephemeral half encrypt drew",
           "tests/test_crypto.py::TestSealRecord::test_every_bit_flip_of_a_recorded_seal_is_refused"),
    Mutant("seal_record_keeps_callers_key", "src/visualauth/crypto.py",
           "_SEALED.append((half, eph_pub, key))",
           "_SEALED.append((public_key, eph_pub, key))",
           "the seal record keeps the half encrypt sliced as plain bytes, never the caller's key object",
           "tests/test_crypto.py::TestSealRecord::test_the_record_keeps_only_a_half_it_sliced"),
    Mutant("seal_record_unbounded", "src/visualauth/crypto.py",
           "_SEALED = collections.deque(maxlen=4)",
           "_SEALED = collections.deque()",
           "the seal record holds four entries: an evicted seal opens through the exchange",
           "tests/test_crypto.py::TestSealRecord::test_an_evicted_seal_opens_through_one_exchange"),
    Mutant("repack_check_skipped", "src/visualauth/qr.py",
           "    if fill or data_codewords[len(data_codewords) - pad :] != (b\"\\xec\\x11\" * pad)[:pad]:\n",
           "    if False:\n",
           "a frame decodes only as the stream qr_encode writes: no rewritten terminator or pad is taken",
           "tests/test_qr.py::TestParsingRefusals::test_only_the_encoded_stream_decodes[pad_swapped]"),
    Mutant("tail_skips_terminator", "src/visualauth/qr.py",
           "    if fill or data_codewords",
           "    if data_codewords",
           "the terminator bits and the zero fill after a payload must all be zero",
           "tests/test_qr.py::TestParsingRefusals::test_only_the_encoded_stream_decodes[terminator]"),
    Mutant("tail_skips_pad", "src/visualauth/qr.py",
           "    if fill or data_codewords[len(data_codewords) - pad :] != (b\"\\xec\\x11\" * pad)[:pad]:\n",
           "    if fill:\n",
           "the codewords after the terminator must be the encoder's 0xEC/0x11 pad",
           "tests/test_qr.py::TestParsingRefusals::test_only_the_encoded_stream_decodes[pad_inverted]"),
    Mutant("decode_heals_past_budget", "src/visualauth/qr.py",
           "    if len(frame.corrupted_codewords) > budget:\n",
           "    if False:\n",
           "a frame with more corrupted codewords than its EC level corrects never decodes",
           "tests/test_qr.py::TestCorruption::test_step_function_at_the_budget"),
    Mutant("parity_recheck_skipped", "src/visualauth/qr.py",
           "    if rs_parity(data, n_parity) != parity:\n",
           "    if False:\n",
           "damage the frame does not record fails the parity recheck, never decodes silently",
           "tests/test_qr.py::TestCorruption::test_unrecorded_damage_never_decodes_silently"),
    Mutant("phone_skips_tx_freshness", "src/visualauth/protocols.py",
           'fresh = nonce is not None and nonce == self.state.get("session_nonce")',
           "fresh = True",
           "with tx_nonce_freshness on, the phone flags a receipt from another session",
           "tests/test_adversary.py::TestAttackCatalogue::test_row_gives_its_verdict[stale_receipt-seed0]"),
    Mutant("phone_skips_tx_signature", "src/visualauth/protocols.py",
           'valid = crypto.verify(self.state["server_public"], signed, sig, Role.SERVER)',
           "valid = True",
           "the phone shows a transaction as signed only if the server signed it",
           "tests/test_protocols.py::TestTransactionVerification::test_relabelled_confirmation_is_flagged[0]"),
    Mutant("resolve_takes_negative_positions", "src/visualauth/crypto.py",
           "type(p) is int and 0 <= p < len(self.mapping)",
           "type(p) is int and p < len(self.mapping)",
           "click positions off the grid never resolve to symbols",
           "tests/test_adversary.py::TestReplaysAreJudged::test_positions_off_the_grid_are_denied[shifted_negative]"),
    Mutant("unpack_signed_past_the_end", "src/visualauth/protocols.py",
           "    if 4 + n > len(payload):\n",
           "    if False:\n",
           "a sealed challenge's length prefix cannot run past its payload (decoder law)",
           "tests/test_decoders.py::TestDecoderLaw::test_every_mutant_is_refused_or_canonical[_unpack_signed]"),
    Mutant("credentials_trailing_bytes", "src/visualauth/protocols.py",
           "    if pos != len(blob):\n",
           "    if False:\n",
           "a credential blob with bytes past its last field is refused (decoder law)",
           "tests/test_decoders.py::TestDecoderLaw::test_every_mutant_is_refused_or_canonical[_unpack_credentials]"),
    Mutant("hijack_guard_skipped", "src/visualauth/protocols.py",
           "        if self.session.config.flags.hijack_guard:\n            self._check_guard()\n        else:\n",
           "        if False:\n            self._check_guard()\n        else:\n",
           "with hijack_guard on, a submitted transaction waits for its side copy",
           "tests/test_adversary.py::TestSharedAttempts::test_one_probe_per_locus_and_flags"),
    Mutant("ciphertext_scheme_unchecked", "src/visualauth/crypto.py",
           "        if blob[:1] != _HYBRID_SCHEME:\n",
           "        if False:\n",
           "a ciphertext decodes only under its one scheme byte (decoder law)",
           "tests/test_crypto.py::TestSealing::test_every_single_bit_flip_rejected"),
    Mutant("ciphertext_length_unchecked", "src/visualauth/crypto.py",
           "        if len(blob) != 5 + body_len + _GCM_TAG_LEN:\n",
           "        if False:\n",
           "a ciphertext's length prefix matches its body exactly (decoder law)",
           "tests/test_crypto.py::TestSealing::test_every_single_bit_flip_rejected"),
    Mutant("tx_text_not_canonical", "src/visualauth/protocols.py",
           "    if canonical_tx_bytes(tx, nonce) != blob:\n",
           "    if False:\n",
           "two transaction texts never parse to one transaction (decoder law)",
           "tests/test_decoders.py::TestDecoderLaw::test_every_mutant_is_refused_or_canonical[parse_tx_canonical]"),
    Mutant("scanner_cover_ignores_may_hold", "src/visualauth/entities.py",
           "                if kind in other.allowed\n                and len(",
           "                if len(",
           "a secret inside a longer one hides only where that one may be held",
           "tests/test_entities.py::TestSecretScanner::test_a_secret_inside_one_the_entity_may_not_hold_is_sighted"),
    Mutant("scanner_ignores_allowed_set", "src/visualauth/entities.py",
           "violation = kind not in probe.allowed",
           "violation = False",
           "a secret sighted at a party outside its allowed set is a violation",
           "tests/test_entities.py::TestSecretScanner::test_sighting_outside_allowed_set_is_a_violation"),
    Mutant("holders_row_widened", "src/visualauth/protocols.py",
           "    SecretKind.USER_PRIVATE_KEY: frozenset({EntityKind.SMARTPHONE}),\n",
           "    SecretKind.USER_PRIVATE_KEY: frozenset({EntityKind.SMARTPHONE, EntityKind.TERMINAL}),\n",
           "the user's private key may be held by the phone alone: a terminal that holds it is flagged",
           "tests/test_entities.py::TestSecretHolders::test_a_secret_planted_at_a_non_holder_is_flagged"
           "[user_private_key-terminal-bytes]"),
    Mutant("layout_not_a_bijection", "src/visualauth/crypto.py",
           "        if sorted(self.mapping) != _SORTED_ALPHABET:\n",
           "        if False:\n",
           "a keyboard layout holds each symbol of the alphabet exactly once",
           "tests/test_crypto.py::TestKeyboardPermutation::test_rejects_non_bijection"),
    Mutant("otp_alphabet_unchecked", "src/visualauth/protocols.py",
           "    if not otp or not all(ch in crypto.ALPHABET_INDEX for ch in otp):\n",
           "    if not otp:\n",
           "the phone shows a one-time password only over the alphabet",
           "tests/test_protocols.py::TestFrameHandling::test_malformed_sealed_challenge_aborts_fatal[Protocol.P2-b'JUNK']"),
    Mutant("p3_password_unchecked", "src/visualauth/protocols.py",
           "entry is not None and password == entry[0]",
           "entry is not None",
           "the server logs in a sealed credential only with the provisioned password",
           "tests/test_protocols.py::TestWrongCredentials::test_p3_wrong_password_denied"),
    Mutant("missing_side_copy_left_open", "src/visualauth/protocols.py",
           "            self._settle_tx(False, Outcome.REJECTED)\n",
           "            pass\n",
           "with hijack_guard on, a transaction whose side copy never comes is rejected",
           "tests/test_adversary.py::TestAttackCatalogue::test_row_gives_its_verdict[suppressed_side_copy-seed0]"),
    Mutant("p3_credentials_before_scan", "src/visualauth/protocols.py",
           '(TypeCredentials, Smartphone.on_type_credentials, {"scanned": "scanned"})',
           '(TypeCredentials, Smartphone.on_type_credentials, {"start": "scanned", "scanned": "scanned"})',
           "the P3 phone takes credentials only after it has scanned a nonce",
           "tests/test_protocols.py::TestFrameHandling::test_refused_scan_under_a_standing_verdict_takes_no_credentials"),
    Mutant("relay_drops_second_send", "src/visualauth/protocols.py",
           "(ClickPositions, relay(EchoClicks, SubmitPositions))",
           "(ClickPositions, relay(EchoClicks))",
           "a relay row passes on everything its flow says: P1 clicks reach the server",
           "tests/test_protocols.py::TestHonestLogins::test_p1_authenticates_in_eleven_steps"),
    Mutant("child_seed_untyped", "src/visualauth/rng.py",
           'f"{type(part).__name__}:{len(text)}:"',
           'f"{len(text)}:"',
           "a label's type enters its child seed: the label 5 is not the label '5'",
           "tests/test_rng.py::test_an_int_label_is_not_its_text"),
    Mutant("child_seed_unlengthed", "src/visualauth/rng.py",
           'f"{type(part).__name__}:{len(text)}:"',
           'f"{type(part).__name__}:"',
           "a label's length enters its child seed: no label can spell the next one",
           "tests/test_rng.py::test_a_label_cannot_spell_the_next_one"),
    Mutant("aborted_session_takes_input", "src/visualauth/protocols.py",
           'phase = "done" if session.outcome is Outcome.ABORTED else self.phase',
           "phase = self.phase",
           "once a session has aborted, no party takes input",
           "tests/test_protocols.py::TestEachPartyKeepsWhatItTakes::test_a_kept_message_is_scanned"),
    Mutant("receive_keeps_nothing", "src/visualauth/protocols.py",
           "            self.state[tag] = message\n",
           "",
           "a party keeps each message it takes, so the scan sees what each party was handed",
           "tests/test_protocols.py::TestEachPartyKeepsWhatItTakes::test_each_party_holds_the_last_message_of_each_tag[Protocol.P1]"),
    Mutant("codec_encoder_per_position", "src/visualauth/entities.py",
           "    def body(obj) -> bytes:\n"
           "        return b\"\".join([_ENCODERS[type(v)](v) for v in values(obj)])\n",
           "    chosen = {}\n\n"
           "    def body(obj) -> bytes:\n"
           "        return b\"\".join([chosen.setdefault(i, _ENCODERS[type(v)])(v) for i, v in enumerate(values(obj))])\n",
           "a message's codec encodes each value by its own type, not by the first type seen at its field",
           "tests/test_entities.py::TestEncoderOracle::test_every_rewritten_message_matches_the_reference[Protocol.P1]"),
    Mutant("rewrite_moves_channel", "src/visualauth/entities.py",
           "                    message = fields(message) if callable(fields) else dataclasses.replace(message, **fields)\n",
           "                    message = fields(message) if callable(fields) else dataclasses.replace(message, **fields)\n"
           "                    return session.inject(message)\n",
           "emit checks the sender after a Rewrite: no rewrite moves a message onto another party's channel",
           "tests/test_entities.py::TestActions::test_a_rewrite_cannot_send_on_another_partys_channel"),
    Mutant("edits_match_original_tag", "src/visualauth/entities.py",
           "            for action in session.actions:\n"
           "                if type(action) in (Drop, Rewrite) and (action.party, action.tag) == (self.kind, message.TAG):\n",
           "            tag = message.TAG\n"
           "            for action in session.actions:\n"
           "                if type(action) in (Drop, Rewrite) and (action.party, action.tag) == (self.kind, tag):\n",
           "each Drop and Rewrite meets a send as the actions before it left it: a retagged message meets later ones",
           "tests/test_entities.py::TestActions::test_a_retagged_message_meets_only_the_actions_after_its_retag"),
    Mutant("frame_over_capacity_uncaught", "src/visualauth/protocols.py",
           "            try:\n"
           "                handler(self, message)\n"
           "            except FrameOverCapacity as exc:  # fatal, and the handler sends nothing more\n"
           '                session.finish(Outcome.ABORTED, f"{exc.args[0]}_frame_over_capacity")\n',
           "            handler(self, message)\n",
           "a payload that fits no frame ends its session ABORTED, fatal, and never raises out of it",
           "tests/test_sweeps.py::test_an_oversized_field_ends_in_a_verdict[TXVERIFY-submit_tx.tx]"),
    Mutant("plant_accepts_any_key", "src/visualauth/entities.py",
           "_check_state(self.party, self.state)",
           "_check_state(self.party, {k: v for k, v in self.state.items() if k in STATE_CHECKS[self.party]})",
           "a Plant of a key its party does not declare is refused when made, never read as resistance",
           "tests/test_entities.py::TestActions::test_an_action_that_can_never_fire_is_refused[plant_misspelled_key]"),
    Mutant("snapshot_skips_key_check", "src/visualauth/entities.py",
           "_check_state(self.kind, state)",
           "_check_state(self.kind, {k: v for k, v in state.items() if k in STATE_CHECKS[self.kind]})",
           "a party that stores a key it does not declare raises when its snapshot is read",
           "tests/test_entities.py::TestDeclaredState"
           "::test_a_handler_store_the_table_refuses_raises_when_its_snapshot_is_read[undeclared_key]"),
    Mutant("goal_never_reached", "src/visualauth/adversary.py",
           "    return any(layout.resolve(positions) == password for layout in layouts for positions in clicks)\n",
           "    return False\n",
           "a row's goal can find its attack working: learn_password reads the breach the views pool",
           "tests/test_adversary.py::TestCrossSessionLayoutReplay::test_a_replayed_keyboard_frame_gives_up_the_password[1000]"),
    Mutant("later_auth_tries_non_login", "src/visualauth/adversary.py",
           "    if protocol not in AUTH_PROTOCOLS:\n",
           "    if False:\n",
           "an adversary over a flow with no login tries no later login, and raises no KeyError for one",
           "tests/test_harness.py::TestScenarioRuns::test_malware_over_a_flow_with_no_login_breaches_nothing[txverify]"),
    Mutant("stalled_session_gets_no_verdict", "src/visualauth/protocols.py",
           "    if session.outcome is None:\n",
           "    if False:\n",
           "a session left waiting for a dropped message ends ABORTED stalled, never without a verdict",
           "tests/test_sweeps.py::test_every_drop_fails_closed[Protocol.P1]"),
    Mutant("duplicate_user_id_overwrites", "src/visualauth/protocols.py",
           "        if credential.user_id in self.users:\n",
           "        if False:\n",
           "a store provisions each user id once: a second credential never replaces the first",
           "tests/test_protocols.py::TestWrongCredentials::test_a_user_id_is_provisioned_once"),
    Mutant("keypair_half_any_size", "src/visualauth/crypto.py",
           "        if len(self.public_key) != 64 or len(self.private_key) != 64:\n",
           "        if False:\n",
           "a key pair holds 32+32 bytes on each half, so no half is read short or long",
           "tests/test_crypto.py::TestKeyPairs::test_a_half_of_another_size_is_refused[public_key-63]"),
    Mutant("corrupt_count_unchecked", "src/visualauth/qr.py",
           "    if count < 0 or count > total:\n",
           "    if False:\n",
           "corrupt refuses a count outside 0..the frame's codewords itself",
           "tests/test_qr.py::TestCorruption::test_count_bounds"),
    Mutant("matrix_mismatch_unreported", "src/visualauth/harness.py",
           "            if not cell.matches_expected:\n",
           "            if False:\n",
           "a matrix cell that disagrees with its expectation fails the report and the matrix command",
           "tests/test_harness.py::TestReports::test_a_mismatched_cell_and_a_failed_check_are_reported"),
    Mutant("p1_clicks_without_keyboard", "src/visualauth/protocols.py",
           "        if ShowKeyboard.TAG not in self.state:\n            return\n        password",
           "        password",
           "the P1 user clicks only on a blank keyboard the terminal showed, never on a grid it was not shown",
           "tests/test_sweeps.py::test_every_drop_fails_closed[Protocol.P1]"),
    Mutant("deliver_to_absent_party", "src/visualauth/entities.py",
           "    if receiver is None:\n",
           "    if False:\n",
           "a message for a party the session lacks is refused as a ProtocolViolation, never an AttributeError",
           "tests/test_entities.py::TestChannelDiscipline::test_a_party_the_session_lacks_is_refused"),
    Mutant("decrypt_short_body_unchecked", "src/visualauth/crypto.py",
           "    if len(ciphertext.body) < 32 + _GCM_NONCE_LEN:\n",
           "    if False:\n",
           "a sealed body too short for an ephemeral half and a nonce is refused before any curve call",
           "tests/test_crypto.py::TestSealing::test_a_short_body_is_refused_before_any_curve_call"),
    Mutant("view_sees_every_channel", "src/visualauth/adversary.py",
           "for step, m in enumerate(self.session.transcript, 1) if m.CHANNEL.name in visible)",
           "for step, m in enumerate(self.session.transcript, 1))",
           "a view reads only the channels its kind's surface shows at its locus",
           "tests/test_adversary.py::test_each_adversary_records_its_surface[P1-keylogger-smartphone]"),
)


def mutated_text(mutant: Mutant, root: Path = ROOT) -> str:
    """The mutant's file with its anchor replaced; ValueError unless the
    anchor occurs exactly once. An anchor that begins with whitespace
    counts only where it starts a line, so that one left behind by code
    moved deeper is not found as the tail of the deeper line."""
    text = (root / mutant.path).read_text(encoding="utf-8")
    pattern = ("^" if mutant.anchor[:1].isspace() else "") + re.escape(mutant.anchor)
    found = [match.start() for match in re.finditer(pattern, text, re.MULTILINE)]
    if len(found) != 1:
        raise ValueError(f"{mutant.name}: anchor occurs {len(found)} times in {mutant.path}")
    return text[: found[0]] + mutant.replacement + text[found[0] + len(mutant.anchor) :]


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def pytest(work: Path, args) -> tuple[int, str]:
    """(exit code, output) of python with args, in work, on work's src/
    first and then the caller's PYTHONPATH, where an interpreter may find
    pytest itself."""
    path = os.pathsep.join(filter(None, (str(work / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run(
            [sys.executable, *args], cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return TIMED_OUT, f"did not finish in {TIMEOUT_S} s"
    return out.returncode, out.stdout + out.stderr


def uncollected(node_ids) -> list[str]:
    """The node ids, among node_ids, that name no test pytest collects from
    their files. The files are collected whole: one id that names nothing
    would make pytest list none of the others."""
    files = sorted({node_id.split("::")[0] for node_id in node_ids})
    _, output = pytest(ROOT, ("-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files))
    collected = set(output.splitlines())
    return [node_id for node_id in node_ids if node_id not in collected]


def run(mutant: Mutant | None) -> tuple[bool, str]:
    """(killed, by what) in a copy with mutant applied: its killer alone,
    then tier-1 only if the killer passed. None runs tier-1 on the copy as
    it is."""
    with tempfile.TemporaryDirectory(prefix="visualauth-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        stale = ""
        if mutant is not None:
            (work / mutant.path).write_text(mutated_text(mutant), encoding="utf-8")
            # any other exit, as for a killer not found, proves nothing
            code, output = pytest(work, (*PYTEST, mutant.killer))
            if code in (FAILED, TIMED_OUT):
                return True, mutant.killer if code == FAILED else f"{mutant.killer}, which {output}"
            ran = "passed" if code == 0 else f"did not run (pytest exit {code})"
            stale = f" in tier-1; its killer {mutant.killer} {ran}"
        code, output = pytest(work, TIER1)
    if code == TIMED_OUT:
        return True, f"tier-1, which {output}"
    return code != 0, first_failure(output) + stale


def timed_run(mutant: Mutant) -> tuple[bool, str, float]:
    """run(mutant) and the seconds it took."""
    start = time.perf_counter()
    return *run(mutant), time.perf_counter() - start


def main(argv: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(by_name)}", file=sys.stderr)
        return 2
    failed, where = run(None)
    if failed:
        print(f"the unmutated copy fails tier-1 at {where}; no mutant can be judged", file=sys.stderr)
        return 2
    survivors = []
    chosen = [by_name[name] for name in argv] or MUTANTS
    # each thread waits on its own tier-1 process, so the cores run the copies
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for mutant, (killed, where, seconds) in zip(chosen, pool.map(timed_run, chosen)):
            verdict = f"killed by {where}" if killed else "SURVIVED"
            print(f"{mutant.name}: {verdict} ({seconds:.1f} s)", flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(survivors)} of {len(argv) or len(MUTANTS)} mutants survived", *survivors)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
