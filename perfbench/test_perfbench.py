"""Tests of the benchmark itself: tiny smoke runs, positive controls for the
correctness gate, fingerprint stability and the tracer's accounting.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from visualauth.adversary import AdversaryKind  # noqa: E402
from visualauth.entities import EntityKind, SecretKind, SecretSighting  # noqa: E402
from visualauth.protocols import CredentialStore, Protocol  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def fresh_store(seed: int = 1) -> CredentialStore:
    return CredentialStore.provision(seed)


def traced(fn, *args, **kwargs):
    tracer = spans.Tracer()
    with spans.instrumented(tracer, workloads.PACKAGE):
        result = fn(*args, tracer=tracer, **kwargs)
    return result, tracer


# -------- smoke runs of each workload at tiny size --------


def test_honest_mix_smoke():
    run = workloads.honest_mix_run(3, 0, fresh_store(), fingerprint_sessions=12, window=6)
    assert (run.tally.attempted, run.tally.failed) == (12, 0)
    assert len(run.window_rates) == 2
    assert all(len(v) == 2 for v in run.flow_ms.values())


def test_matrix_smoke():
    run = workloads.repeated_passes("matrix", 3, 0, min_passes=2, size=1)
    assert (run.tally.attempted, run.tally.failed) == (48, 0)
    assert run.sessions_per_pass == 24


def test_adverse_scenarios_smoke():
    run = workloads.repeated_passes("adverse_scenarios", 3, 0, min_passes=2, size=1)
    scenarios = len(workloads.ADVERSE_SCENARIOS)
    assert (run.tally.attempted, run.tally.failed) == (2 * scenarios, 0)
    assert run.sessions_per_pass == scenarios


def test_every_scenario_carries_an_expectation():
    text = workloads.scenario_text(5, trials=1)
    for block in text.split("[scenario]")[1:]:
        assert "expect_" in block


# -------- positive controls: a planted bad expectation is counted --------


def test_honest_mix_counts_a_wrong_password():
    configs = workloads.honest_configs(4, 6)
    configs[0] = replace(configs[0], submit_passwords=("wrongpw0",))
    _, tally, _ = workloads.honest_pass(configs, fresh_store())
    assert (tally.attempted, tally.failed) == (6, 1)
    assert "outcome denied" in tally.problems[0]


def test_honest_mix_counts_a_secrecy_violation():
    config = workloads.honest_config(4, 0)
    planted = SecretSighting(EntityKind.TERMINAL, SecretKind.PASSWORD, step=3, violation=True)
    allowed = SecretSighting(EntityKind.SERVER, SecretKind.PASSWORD, step=3, violation=False)
    assert workloads.secrecy_problem(config, [allowed]) is None
    assert "password on terminal" in workloads.secrecy_problem(config, [allowed, planted])


def test_matrix_counts_a_resisting_cell_expected_to_breach():
    planted = workloads.adversary.BROKEN_CELLS | {
        (Protocol.P1, AdversaryKind.KEYLOGGER, EntityKind.TERMINAL)
    }
    _, tally, _ = workloads.matrix_pass(workloads.matrix_seed(4), 1, broken=planted)
    assert (tally.attempted, tally.failed) == (24, 1)
    assert tally.problems == ["P1/keylogger/terminal: expected breach, got 0/1 breaches"]


def test_adverse_scenarios_counts_a_wrong_expectation():
    text = workloads.scenario_text(4, trials=1)
    planted = text.replace("expect_denied = 1", "expect_denied = 0", 1)
    assert planted != text
    _, tally, _ = workloads.adverse_pass(planted)
    assert (tally.attempted, tally.failed) == (len(workloads.ADVERSE_SCENARIOS), 1)
    assert "expected denied=0, got 1" in tally.problems[0]


# -------- fingerprints: change with the seed, not with tracing --------


def test_honest_mix_fingerprint():
    configs = workloads.honest_configs(6, 12)
    plain, _, _ = workloads.honest_pass(configs, fresh_store())
    again, _, _ = workloads.honest_pass(configs, fresh_store())
    (with_trace, _, _), _ = traced(workloads.honest_pass, configs, fresh_store())
    other, _, _ = workloads.honest_pass(workloads.honest_configs(7, 12), fresh_store())
    assert plain == again == with_trace
    assert other != plain


def test_honest_mix_fingerprint_is_the_first_sessions_of_a_run():
    pass_fingerprint, _, _ = workloads.pass_runner("honest_mix", 6, size=12)()
    run = workloads.honest_mix_run(
        6, 0, workloads.honest_store(6), fingerprint_sessions=12, window=6
    )
    assert run.fingerprint == pass_fingerprint


def test_matrix_fingerprint():
    # The matrix records hold only verdict counts, which the designed
    # pattern fixes for every seed; they change with the trial count.
    plain = workloads.matrix_pass(workloads.matrix_seed(6), 1)
    with_trace, _ = traced(workloads.matrix_pass, workloads.matrix_seed(6), 1)
    other_seed = workloads.matrix_pass(workloads.matrix_seed(7), 1)
    more_trials = workloads.matrix_pass(workloads.matrix_seed(6), 2)
    assert plain[0] == with_trace[0] == other_seed[0]
    assert plain[1].failed == with_trace[1].failed == 0
    assert more_trials[0] != plain[0]


def test_adverse_scenarios_fingerprint():
    plain = workloads.adverse_pass(workloads.scenario_text(6, trials=1))
    with_trace, _ = traced(workloads.adverse_pass, workloads.scenario_text(6, trials=1))
    other = workloads.adverse_pass(workloads.scenario_text(7, trials=1))
    assert plain[0] == with_trace[0]
    assert other[0] != plain[0]


# -------- the tracer --------


def test_wrappers_are_removed_after_the_traced_block():
    original = workloads.qr.rs_parity
    tracer = spans.Tracer()
    with spans.instrumented(tracer, workloads.PACKAGE):
        assert workloads.qr.rs_parity is not original
    assert workloads.qr.rs_parity is original
    assert tracer.missing == []


def test_trace_accounts_for_the_wall_time_and_skips_qr_on_hijackguard():
    configs = workloads.honest_configs(8, 12)
    store = fresh_store()
    tracer = spans.Tracer()
    with spans.instrumented(tracer, workloads.PACKAGE):
        t0 = time.perf_counter()
        workloads.honest_pass(configs, store, tracer)
        wall = time.perf_counter() - t0
    m = spans.per_layer_metrics(tracer, wall)
    assert spans.accounting_error_ms(m) < 1e-6
    assert m["qr.rs_parity.calls_per_session.HIJACKGUARD"] == 0
    assert m["qr.rs_parity.calls_per_session.P1"] == 2
    assert m["trace.sessions"] == m["trace.ops"] == 12
    assert m["protocols.deliveries_per_session"] == 9


def test_matrix_session_counts_repeat_exactly():
    runs = [traced(workloads.matrix_pass, workloads.matrix_seed(9), 2)[1] for _ in range(2)]
    counts = [spans.per_layer_metrics(tracer, 1.0) for tracer in runs]
    for kind in ("followup", "alteration"):
        name = f"adversary.{kind}_sessions_per_trial"
        assert counts[0][name] == counts[1][name] > 0


def test_set_up_leaves_no_lazy_work_for_the_run():
    _, _, store = workloads.set_up("honest_mix", 10, repeats=1)
    before = workloads.generator_cache_misses()
    workloads.honest_pass(workloads.honest_configs(10, 6), store)
    assert before is not None and workloads.generator_cache_misses() == before


# -------- the command and its output contract --------


def run_command(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_command_prints_the_declared_metrics(workload, trace):
    out = run_command(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_command(tmp_path, "honest_mix", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
