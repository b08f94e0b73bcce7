"""Executable models of three smartphone-assisted login protocols.

An untrusted terminal, a trusted smartphone, and a server exchange
messages over typed channels, some of which are camera-scanned barcode
frames. The package provides the crypto and framing layers, the four
state machines, an attacker repertoire (keyloggers, malware, shoulder
surfers, phishing, guessing), and a seeded harness that derives the
protocol-vs-attack resistance matrix by actually mounting each attack.
"""

from .adversary import (
    AdversaryConfig,
    AdversaryKind,
    AttackerHandle,
    AttackOutcome,
    evaluate,
    posterior_count,
    run_matrix,
)
from .crypto import (
    ALPHABET,
    KeyboardPermutation,
    KeyPair,
    Role,
    decrypt,
    encrypt,
    generate_keypair,
    generate_otp,
    generate_permutation,
    sign,
    verify,
)
from .entities import (
    EntityKind,
    ProtocolViolation,
    Session,
    export_transcript,
    scan_states_for_secrets,
    secrecy_violations,
)
from .harness import Report, numeric_checks, parse_config, run_scenarios
from .protocols import (
    CredentialStore,
    Outcome,
    Protocol,
    SessionConfig,
    SessionFlags,
    Transaction,
    run_flow,
    run_hijack_guard,
)
from .qr import EcLevel, FrameSpec, Mode, VisualFrame, qr_decode, qr_encode

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "AdversaryConfig",
    "AdversaryKind",
    "AttackerHandle",
    "AttackOutcome",
    "CredentialStore",
    "EcLevel",
    "EntityKind",
    "FrameSpec",
    "KeyPair",
    "KeyboardPermutation",
    "Mode",
    "Outcome",
    "Protocol",
    "ProtocolViolation",
    "Report",
    "Role",
    "Session",
    "SessionConfig",
    "SessionFlags",
    "Transaction",
    "VisualFrame",
    "decrypt",
    "encrypt",
    "evaluate",
    "export_transcript",
    "generate_keypair",
    "generate_otp",
    "generate_permutation",
    "numeric_checks",
    "parse_config",
    "posterior_count",
    "qr_decode",
    "qr_encode",
    "run_flow",
    "run_hijack_guard",
    "run_matrix",
    "run_scenarios",
    "scan_states_for_secrets",
    "secrecy_violations",
    "sign",
    "verify",
]
