"""A mutation suite: each security check the matrix rests on, broken one at
a time, must fail tier-1.

    python tests/mutants.py [NAME...]

For each named mutant (every mutant when no name is given) this copies
src/, tests/, demos/ and pyproject.toml into a temporary directory, replaces
the mutant's anchor text there once, and runs tier-1 with -x. demos/ and
pyproject.toml come along because tier-1 runs the demos and reads its
pytest settings from pyproject.toml. It prints "killed" with the first
failing test, or "SURVIVED". Before any mutant it runs the same copy
unmutated, which must pass, so that a copy that cannot pass kills no
mutant by accident. The exit status is 1 if any mutant survived: a
survivor is a check that no test can see fail, so it needs a test that
kills it, never a weaker mutant. Tier-1 runs no mutant; test_mutants.py
checks that each anchor occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
# tier-1 as CI runs it, but without the table's own anchor check, which a
# mutated copy fails by construction
TIER1 = (
    "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--ignore=tests/test_mutants.py",
)
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    anchor: str  # occurs exactly once in path
    replacement: str
    aim: str  # what the check guards


MUTANTS = (
    Mutant(
        "field_check_always_true",
        "src/visualauth/entities.py",
        "return all(fits(getattr(self, name)) for name, fits in self.CHECKS)",
        "return True",
        "a field of the wrong type is refused at delivery, before any handler",
    ),
    Mutant(
        "guard_ignores_mismatch",
        "src/visualauth/protocols.py",
        "            side_tx == received\n",
        "            True\n",
        "the hijack guard executes only a transaction its side copy matches",
    ),
    Mutant(
        "guard_ignores_signer_role",
        "src/visualauth/protocols.py",
        "            and side_sig.signer is Role.USER\n",
        "",
        "the hijack guard takes a side copy signed by the user's key only",
    ),
    Mutant(
        "p3_nonce_reusable",
        "src/visualauth/protocols.py",
        'fresh = not self.state["nonce_consumed"] and nonce_value == nonce.value',
        "fresh = nonce_value == nonce.value",
        "a P3 nonce logs in at most once",
    ),
    Mutant(
        "otp_reusable",
        "src/visualauth/protocols.py",
        "ok = not token.consumed and msg.otp == token.value",
        "ok = msg.otp == token.value",
        "a one-time password logs in at most once",
    ),
    Mutant(
        "server_name_unchecked",
        "src/visualauth/protocols.py",
        'ok = fresh and server_name == self.state["name"] and entry',
        "ok = fresh and entry",
        "credentials sealed for another server are refused (phishing relay)",
    ),
    Mutant(
        "signature_role_byte_unchecked",
        "src/visualauth/crypto.py",
        "        if blob[0] > 1:\n",
        "        if False:\n",
        "a signature decodes only with a user or server role byte (decoder law)",
    ),
    Mutant(
        "phone_skips_challenge_verify",
        "src/visualauth/protocols.py",
        '                or not crypto.verify(self.state["server_public"], ct.to_bytes(), sig)\n',
        "",
        "with sign_server_payloads on, the phone opens only a server-signed challenge",
    ),
    Mutant(
        "phone_skips_challenge_signer",
        "src/visualauth/protocols.py",
        "                or sig.signer is not Role.SERVER\n",
        "",
        "the phone takes a challenge signature only from a server-role key",
    ),
    Mutant(
        "phone_skips_tx_freshness",
        "src/visualauth/protocols.py",
        'fresh = conf.nonce is not None and conf.nonce == self.state.get("session_nonce")',
        "fresh = True",
        "with tx_nonce_freshness on, the phone flags a receipt from another session",
    ),
    Mutant(
        "phone_skips_tx_signature",
        "src/visualauth/protocols.py",
        'valid = conf.verify(self.state["server_public"])',
        "valid = True",
        "the phone shows a transaction as signed only if the server signed it",
    ),
    Mutant(
        "confirmation_signer_unchecked",
        "src/visualauth/protocols.py",
        "            self.signature.signer is Role.SERVER\n            and",
        "            True\n            and",
        "a transaction confirmation verifies only under a server-role signature",
    ),
    Mutant(
        "resolve_takes_negative_positions",
        "src/visualauth/crypto.py",
        "type(p) is int and 0 <= p < len(self.mapping)",
        "type(p) is int and p < len(self.mapping)",
        "click positions off the grid never resolve to symbols",
    ),
    Mutant(
        "unpack_signed_past_the_end",
        "src/visualauth/protocols.py",
        "    if 4 + n > len(payload):\n",
        "    if False:\n",
        "a sealed challenge's length prefix cannot run past its payload (decoder law)",
    ),
    Mutant(
        "credentials_trailing_bytes",
        "src/visualauth/protocols.py",
        "    if pos != len(blob):\n",
        "    if False:\n",
        "a credential blob with bytes past its last field is refused (decoder law)",
    ),
    Mutant(
        "phone_ignores_frame_context",
        "src/visualauth/protocols.py",
        "        if msg.context != context:\n",
        "        if False:\n",
        "the phone reads a frame only in the context its flow row binds",
    ),
    Mutant(
        "hijack_guard_skipped",
        "src/visualauth/protocols.py",
        "        if self.session.config.flags.hijack_guard:\n            self._check_guard()\n        else:\n",
        "        if False:\n            self._check_guard()\n        else:\n",
        "with hijack_guard on, a submitted transaction waits for its side copy",
    ),
    Mutant(
        "ciphertext_scheme_unchecked",
        "src/visualauth/crypto.py",
        "        if blob[:1] != _HYBRID_SCHEME:\n",
        "        if False:\n",
        "a ciphertext decodes only under its one scheme byte (decoder law)",
    ),
    Mutant(
        "ciphertext_length_unchecked",
        "src/visualauth/crypto.py",
        "        if len(blob) != 5 + body_len + _GCM_TAG_LEN:\n",
        "        if False:\n",
        "a ciphertext's length prefix matches its body exactly (decoder law)",
    ),
    Mutant(
        "tx_text_not_canonical",
        "src/visualauth/protocols.py",
        "    if canonical_tx_bytes(tx, nonce) != blob:\n",
        "    if False:\n",
        "two transaction texts never parse to one transaction (decoder law)",
    ),
    Mutant(
        "scanner_ignores_allowed_set",
        "src/visualauth/entities.py",
        "violation=kind not in probe.allowed,",
        "violation=False,",
        "a secret sighted at a party outside its allowed set is a violation",
    ),
    Mutant(
        "aborted_session_takes_input",
        "src/visualauth/protocols.py",
        'phase = "done" if self.session.outcome is Outcome.ABORTED else self.phase',
        "phase = self.phase",
        "once a session has aborted, no party takes input",
    ),
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


def run(mutant: Mutant | None) -> tuple[bool, str]:
    """(tier-1 failed, its first failing test) in a copy with mutant applied;
    None runs the copy as it is."""
    with tempfile.TemporaryDirectory(prefix="visualauth-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        if mutant is not None:
            (work / mutant.path).write_text(mutated_text(mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            out = subprocess.run(
                [sys.executable, *TIER1], cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return True, f"tier-1 did not finish in {TIMEOUT_S} s"
    return out.returncode != 0, first_failure(out.stdout + out.stderr)


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
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        start = time.perf_counter()
        killed, where = run(mutant)
        verdict = f"killed by {where}" if killed else "SURVIVED"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(survivors)} of {len(argv) or len(MUTANTS)} mutants survived", *survivors)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
