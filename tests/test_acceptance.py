"""Acceptance suite: one test per shipped claim, one pass/fail line each.

Every test prints a single summary line so a plain `pytest -v -s` run reads
as a checklist. Human-subject measurements (wall-clock login times, field
success rates) are out of scope for a desk-size harness; criterion 8 pins
the determinism invariant that replaces them.
"""

from __future__ import annotations

import itertools
import math
import time

from visualauth import qr, rng as rngmod
from visualauth.adversary import (
    ATTACKS,
    posterior_count,
    replay,
    run_attack,
    run_matrix,
)
from visualauth.entities import EntityKind, export_transcript
from visualauth.harness import (
    WRONG_PASSWORD,
    Report,
    machine_records,
    numeric_checks,
    parse_config,
    render_text,
    run_scenario,
)
from visualauth.protocols import (
    AUTH_PROTOCOLS,
    CredentialStore,
    Outcome,
    Protocol,
    SessionConfig,
    SubmitCiphertext,
    SubmitOtp,
    run_flow,
)
from visualauth.qr import EcLevel, FrameSpec, Mode

BASE_SEED = 20260
HONEST_RUNS = 1000
WRONG_RUNS = 1000
REPLAY_RUNS = 1000

# the three cells conceded by design: everything else must hold
EXPECTED_BROKEN = {
    (Protocol.P2, "malware", EntityKind.SMARTPHONE),
    (Protocol.P3, "keylogger", EntityKind.SMARTPHONE),
    (Protocol.P3, "malware", EntityKind.SMARTPHONE),
}


def _line(criterion: int, label: str, ok: bool, detail: str) -> bool:
    verdict = "pass" if ok else "FAIL"
    print(f"criterion {criterion} ({label}): {verdict}, {detail}")
    return ok


def _wrong_config(protocol: Protocol, seed: int) -> SessionConfig:
    if protocol is Protocol.P2:
        return SessionConfig(protocol=protocol, seed=seed, mistype_otp=True)
    return SessionConfig(protocol=protocol, seed=seed, submit_passwords=(WRONG_PASSWORD,))


def test_criterion_1_resistance_matrix():
    started = time.perf_counter()
    cells = run_matrix(seed=BASE_SEED, trials=100)
    elapsed = time.perf_counter() - started

    assert len(cells) == 24
    mismatched = [c for c in cells if not c.matches_expected]
    broken = {
        (c.protocol, c.kind.value, c.locus) for c in cells if not c.resisted
    }
    ok = not mismatched and broken == EXPECTED_BROKEN and elapsed < 30.0
    assert _line(
        1,
        "resistance matrix",
        ok,
        f"24/24 cells at 100 trials, 3 broken cells as designed, {elapsed:.1f}s",
    )


def test_criterion_2_honest_completeness_and_soundness():
    per_protocol = {}
    for protocol in AUTH_PROTOCOLS:
        store = CredentialStore.provision(rngmod.child_seed(BASE_SEED, "store", protocol.value))
        honest_ok = 0
        for i in range(HONEST_RUNS):
            seed = rngmod.child_seed(BASE_SEED, "honest", protocol.value, str(i))
            result = run_flow(SessionConfig(protocol=protocol, seed=seed), store)
            honest_ok += result.outcome is Outcome.AUTHENTICATED
        wrong_ok = 0
        for i in range(WRONG_RUNS):
            seed = rngmod.child_seed(BASE_SEED, "wrong", protocol.value, str(i))
            result = run_flow(_wrong_config(protocol, seed), store)
            wrong_ok += result.outcome is Outcome.AUTHENTICATED
        per_protocol[protocol.value] = (honest_ok, wrong_ok)

    ok = all(v == (HONEST_RUNS, 0) for v in per_protocol.values())
    detail = ", ".join(
        f"{name}: {h}/{HONEST_RUNS} honest, {w}/{WRONG_RUNS} wrong"
        for name, (h, w) in sorted(per_protocol.items())
    )
    assert _line(2, "completeness/soundness", ok, detail)


def test_criterion_3_entropy_arithmetic():
    layout_bits = sum(math.log2(i) for i in range(2, 37))
    naive_bits = 36 * math.log2(36)
    ok = abs(layout_bits - 138) <= 0.5 and abs(naive_bits - 187) <= 1.0
    assert _line(
        3,
        "entropy arithmetic",
        ok,
        f"log2(36!)={layout_bits:.4f} within 138+-0.5, 36*log2(36)={naive_bits:.4f} within 187+-1",
    )


def test_criterion_4_capacity_constants():
    v2m = FrameSpec(2, EcLevel.M, Mode.ALPHANUMERIC).capacity
    ok = (
        qr.GLOBAL_MAX[Mode.NUMERIC] == 7089
        and qr.GLOBAL_MAX[Mode.ALPHANUMERIC] == 4296
        and qr.GLOBAL_MAX[Mode.BYTE] == 2953
        and v2m >= 36
    )
    assert _line(
        4,
        "capacity constants",
        ok,
        f"global 7089/4296/2953 exact, v2-M alphanumeric {v2m} >= 36",
    )


def test_criterion_5_error_correction_step_function():
    table = [
        FrameSpec(1, EcLevel.L, Mode.BYTE),
        FrameSpec(1, EcLevel.H, Mode.BYTE),
        FrameSpec(2, EcLevel.M, Mode.BYTE),
        FrameSpec(2, EcLevel.Q, Mode.BYTE),
        FrameSpec(3, EcLevel.Q, Mode.BYTE),
        FrameSpec(5, EcLevel.H, Mode.BYTE),
        FrameSpec(7, EcLevel.L, Mode.BYTE),
        FrameSpec(10, EcLevel.M, Mode.BYTE),
    ]
    swept = 0
    for spec in table:
        budget = qr.correction_budget(spec)
        payload = bytes((7 * i) % 256 for i in range(spec.capacity // 2))
        clean = qr.qr_encode(payload, spec)
        for count in range(budget + 1):
            healed = qr.qr_decode(qr.corrupt(clean, count, seed=1000 + count))
            assert healed == qr.qr_decode(clean), (spec, count)
            swept += 1
        try:
            qr.qr_decode(qr.corrupt(clean, budget + 1, seed=2000))
            over_budget_failed = False
        except qr.UncorrectableFrameError:
            over_budget_failed = True
        assert over_budget_failed, spec
        swept += 1
    assert _line(
        5,
        "error-correction step",
        True,
        f"{len(table)} specs, {swept} corruption counts swept, exact step at budget",
    )


def test_criterion_6_keylogger_posterior():
    # independent enumeration first: which 2-click passwords over a 5-symbol
    # alphabet stay feasible after the observer saw positions (1, 3)?
    k, observed = 5, (1, 3)
    feasible = set()
    for password in itertools.product(range(k), repeat=len(observed)):
        for layout in itertools.permutations(range(k)):
            if all(layout[pos] == sym for pos, sym in zip(observed, password)):
                feasible.add(password)
                break
    enumerated = len(feasible)
    implemented = posterior_count(observed, k=k, n=len(observed))
    ok = enumerated == 20 and implemented == 20
    assert _line(
        6,
        "keylogger posterior",
        ok,
        f"k=5 n=2 distinct clicks: enumeration {enumerated}, implementation {implemented}, both 20",
    )


def test_criterion_7_replay_and_freshness():
    store3 = CredentialStore.provision(rngmod.child_seed(BASE_SEED, "replay3-store"))
    replayed_p3 = 0
    aborted = 0  # a replay must be judged; an abort would prove nothing
    for i in range(REPLAY_RUNS):
        honest_seed = rngmod.child_seed(BASE_SEED, "replay3", "honest", str(i))
        honest = run_flow(SessionConfig(protocol=Protocol.P3, seed=honest_seed), store3)
        assert honest.outcome is Outcome.AUTHENTICATED
        blob = honest.session.entities[EntityKind.TERMINAL].state["upload_frame"].frame.payload
        replay_seed = rngmod.child_seed(BASE_SEED, "replay3", "replay", str(i))
        replayed = run_flow(
            SessionConfig(protocol=Protocol.P3, seed=replay_seed),
            store3,
            actions=replay(SubmitCiphertext(blob=blob)),
        )
        replayed_p3 += replayed.outcome is Outcome.AUTHENTICATED
        aborted += replayed.outcome is Outcome.ABORTED

    store2 = CredentialStore.provision(rngmod.child_seed(BASE_SEED, "replay2-store"))
    reused_p2 = 0
    for i in range(REPLAY_RUNS):
        honest_seed = rngmod.child_seed(BASE_SEED, "replay2", "honest", str(i))
        honest = run_flow(SessionConfig(protocol=Protocol.P2, seed=honest_seed), store2)
        assert honest.outcome is Outcome.AUTHENTICATED
        spent = honest.session.entities[EntityKind.SERVER].state["token"].value
        replay_seed = rngmod.child_seed(BASE_SEED, "replay2", "replay", str(i))
        replayed = run_flow(
            SessionConfig(protocol=Protocol.P2, seed=replay_seed),
            store2,
            actions=replay(SubmitOtp(otp=spent)),
        )
        reused_p2 += replayed.outcome is Outcome.AUTHENTICATED
        aborted += replayed.outcome is Outcome.ABORTED

    # positive control: without nonce freshness the stale receipt convinces
    control = run_attack(
        ATTACKS["stale_receipt/no_freshness"], rngmod.child_seed(BASE_SEED, "confirm-control")
    )
    gap_demonstrated = control.outcome is Outcome.CONFIRMED and control.breached
    confirmed_replays = 0
    for i in range(REPLAY_RUNS):
        result = run_attack(ATTACKS["stale_receipt"], rngmod.child_seed(BASE_SEED, "confirm", str(i)))
        confirmed_replays += result.outcome is Outcome.CONFIRMED or result.breached

    ok = (
        replayed_p3 == 0
        and reused_p2 == 0
        and aborted == 0
        and gap_demonstrated
        and confirmed_replays == 0
    )
    assert _line(
        7,
        "replay/freshness",
        ok,
        f"{replayed_p3}/{REPLAY_RUNS} ciphertext replays, {reused_p2}/{REPLAY_RUNS} reused "
        f"one-time passwords, {aborted} replays aborted, "
        f"positive control {'held' if gap_demonstrated else 'failed'}, "
        f"{confirmed_replays}/{REPLAY_RUNS} stale confirmations accepted",
    )


def test_criterion_8_determinism_replaces_timing():
    """Wall-clock login times and user success rates need humans at a desk;
    this harness substitutes seeded determinism: a fixed seed must yield a
    byte-identical transcript and a byte-identical report, every time."""
    config_text = (
        "[scenario]\nname = pin\nprotocol = p1\ntrials = 4\nseed = 90210\n"
        "expect_authenticated = 4\n"
        "[scenario]\nname = spy\nprotocol = p3\ntrials = 2\nseed = 90211\n"
        "adversary = keylogger\nlocus = smartphone\nexpect_breaches = 2\n"
    )

    def build_report() -> Report:
        parsed = parse_config(config_text)
        return Report(
            scenarios=[run_scenario(s) for s in parsed.scenarios],
            checks=numeric_checks(),
        )

    first, second = build_report(), build_report()
    reports_identical = (
        machine_records(first) == machine_records(second)
        and render_text(first) == render_text(second)
    )

    store_a = CredentialStore.provision(rngmod.child_seed(BASE_SEED, "det-store"))
    store_b = CredentialStore.provision(rngmod.child_seed(BASE_SEED, "det-store"))
    run_a = run_flow(SessionConfig(protocol=Protocol.P1, seed=777), store_a)
    run_b = run_flow(SessionConfig(protocol=Protocol.P1, seed=777), store_b)
    transcripts_identical = export_transcript(run_a.session) == export_transcript(run_b.session)

    ok = reports_identical and transcripts_identical
    assert _line(
        8,
        "determinism invariant",
        ok,
        "human timing figures excluded by design; fixed seed gives byte-identical "
        "transcript and report",
    )
