"""Golden sha256 digests of the simulator's deterministic outputs.

Each key names one output; ``compute()`` re-derives every digest except
the demos', whose stdout ``tests/test_demos.py`` hashes from the run it
already makes (``demo_digest``). ``digests.json`` holds the committed
values; ``regenerate.py`` rewrites it and prints the keys that moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from visualauth.adversary import ATTACKS, run_attack, run_matrix
from visualauth.entities import export_transcript
from visualauth.harness import Report, machine_records, run_scenarios
from visualauth.protocols import Protocol, SessionConfig, run_flow

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SCENARIOS = HERE / "scenarios.cfg"

FLOW_SEEDS = (0, 1)
ATTACK_SEEDS = (0, 1)
MATRIX_SEED = 2026
MATRIX_TRIALS = (1, 100)  # 100 is what `visualauth matrix --trials 100 --seed 2026 --machine` runs


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def demo_key(stem: str) -> str:
    return f"demo/{stem}/stdout"


def _outcome(session) -> str:
    return repr(
        (
            session.outcome.value,
            session.abort_reason,
            session.abort_retryable,
            session.executed_tx,
            sorted(session.view_values.items()),
            session.view_failures,
        )
    )


def _snapshots(session) -> bytes:
    out = bytearray()
    for kind, entity in session.entities.items():
        for step, snap in entity.snapshots:
            out += f"{kind.value}|{step}|{len(snap)}|".encode("ascii") + snap
    return bytes(out)


def flow_digests() -> dict[str, str]:
    digests = {}
    for protocol in Protocol:
        for seed in FLOW_SEEDS:
            session = run_flow(SessionConfig(protocol=protocol, seed=seed)).session
            key = f"flow/{protocol.value}/seed{seed}"
            digests[f"{key}/outcome"] = sha256(_outcome(session))
            digests[f"{key}/transcript"] = sha256(export_transcript(session))
            digests[f"{key}/snapshots"] = sha256(_snapshots(session))
    return digests


def matrix_digests() -> dict[str, str]:
    return {
        f"matrix/seed{MATRIX_SEED}/trials{trials}/machine_records": sha256(
            machine_records(Report(matrix=run_matrix(MATRIX_SEED, trials)))
        )
        for trials in MATRIX_TRIALS
    }


def scenario_digests() -> dict[str, str]:
    report = run_scenarios(str(SCENARIOS))
    digests = {"scenarios/machine_records": sha256(machine_records(report))}
    for sr in report.scenarios:
        digests[f"scenarios/{sr.name}/transcript"] = sha256(export_transcript(sr.first_session))
    return digests


def attack_digests() -> dict[str, str]:
    digests = {}
    for seed in ATTACK_SEEDS:
        results = (run_attack(attack, seed) for attack in ATTACKS.values())
        lines = "".join(f"{r.attack.name}|{r.outcome.value}|{r.breached}\n" for r in results)
        digests[f"attacks/seed{seed}"] = sha256(lines)
    return digests


def compute() -> dict[str, str]:
    """Every digest that needs no demo run, keyed as in digests.json."""
    return flow_digests() | matrix_digests() | scenario_digests() | attack_digests()
