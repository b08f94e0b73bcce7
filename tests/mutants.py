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
first failing test, or "SURVIVED". Before any mutant it runs tier-1 on
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
           "return all(fits(getattr(self, name)) for name, fits in self.CHECKS)",
           "return True",
           "a field of the wrong type is refused at delivery, before any handler",
           "tests/test_adversary.py::TestReplaysAreJudged::test_positions_off_the_grid_are_denied[not_an_int]"),
    Mutant("guard_ignores_mismatch", "src/visualauth/protocols.py",
           "            side_tx == received\n",
           "            True\n",
           "the hijack guard executes only a transaction its side copy matches",
           "tests/test_adversary.py::TestSharedAttempts::test_one_probe_per_locus_and_flags"),
    Mutant("guard_skips_verify", "src/visualauth/protocols.py",
           '            and crypto.verify(public_key, canonical_tx_bytes(side_tx), self.state["side_sig"], Role.USER)\n',
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
           ' or not crypto.verify(self.state["server_public"], wire, sig, Role.SERVER)',
           "",
           "with sign_server_payloads on, the phone opens only a server-signed challenge",
           "tests/test_adversary.py::TestVerifyBudget::test_alteration_runs_verify_nothing[0]"),
    Mutant("verify_ignores_signer", "src/visualauth/crypto.py",
           "    if signature.signer is not signer or len(signature.sig) != 64:\n",
           "    if len(signature.sig) != 64:\n",
           "a signature verifies only as the signer it names: no relabelled role byte is taken",
           "tests/test_crypto.py::TestSignatures::test_verify_takes_only_the_named_signer"),
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
    Mutant("layout_not_a_bijection", "src/visualauth/crypto.py",
           "        if sorted(self.mapping) != sorted(ALPHABET):\n",
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
           'phase = "done" if self.session.outcome is Outcome.ABORTED else self.phase',
           "phase = self.phase",
           "once a session has aborted, no party takes input",
           "tests/test_protocols.py::TestTerminalKeepsWhatItWasHanded::test_a_kept_message_is_scanned"),
    Mutant("rewrite_moves_channel", "src/visualauth/entities.py",
           "                message = fields(message) if callable(fields) else dataclasses.replace(message, **fields)\n",
           "                message = fields(message) if callable(fields) else dataclasses.replace(message, **fields)\n"
           "                return session.inject(message)\n",
           "emit checks the sender after a Rewrite: no rewrite moves a message onto another party's channel",
           "tests/test_entities.py::TestActions::test_a_rewrite_cannot_send_on_another_partys_channel"),
)


def mutated_text(mutant: Mutant, root: Path = ROOT) -> str:
    """The mutant's file with its anchor replaced; ValueError unless the
    anchor occurs exactly once."""
    text = (root / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.name}: anchor occurs {text.count(mutant.anchor)} times in {mutant.path}")
    return text.replace(mutant.anchor, mutant.replacement)


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def pytest(work: Path, args) -> tuple[int, str]:
    """(exit code, output) of python with args, in work, on work's src/."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
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
            stale = f" in tier-1; its killer {mutant.killer} passed"
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
