"""The three workloads, their correctness checks and output fingerprints.

Every workload is a closed loop with one client in one thread: the next
operation starts when the previous one has been checked. Inputs derive from
the workload seed only.

* honest_mix: round-robin over the six flows through ``protocols.run_flow``,
  honest credentials and clean frames, one freshly provisioned store per run.
  Session i runs flow i mod 6 with a seed derived from (workload seed, flow,
  i): sessions that share a seed share an rng stream across protocols, so a
  bare index would make the P3 nonce of one session the TXVERIFY nonce of
  another. Seeds never repeat within a run, so no session's output depends
  on an earlier one, and a cache keyed on inputs cannot hit.
* matrix: ``adversary.run_matrix`` over all 24 cells, repeated with the same
  seed. Each repetition must reproduce the first one's records, and the
  brute-force guesser's small chance of a lucky hit stays the same per run
  however many repetitions a faster program fits in.
* adverse_scenarios: a generated scenario file through
  ``harness.parse_config`` and ``harness.run_scenario``: wrong credentials
  with three attempts, codeword damage at the correction budget (healed),
  one past it (refused), and SECUREVIEW past the cliff. Repeated like matrix.

An operation is a session (honest_mix), a matrix cell (matrix) or a scenario
(adverse_scenarios); a failed operation is one whose output breaks the
designed result. Timed regions end only after the result is checked and
hashed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import speed
from visualauth import adversary, crypto, entities, harness, protocols, qr, rng
from visualauth.protocols import CredentialStore, Outcome, Protocol, SessionConfig

PACKAGE = {
    "qr": qr,
    "crypto": crypto,
    "entities": entities,
    "protocols": protocols,
    "adversary": adversary,
    "harness": harness,
    "rng": rng,
}

FLOWS = (
    Protocol.P1,
    Protocol.P2,
    Protocol.P3,
    Protocol.TXVERIFY,
    Protocol.SECUREVIEW,
    Protocol.HIJACKGUARD,
)
SUCCESS = {
    Protocol.P1: Outcome.AUTHENTICATED,
    Protocol.P2: Outcome.AUTHENTICATED,
    Protocol.P3: Outcome.AUTHENTICATED,
    Protocol.TXVERIFY: Outcome.CONFIRMED,
    Protocol.SECUREVIEW: Outcome.VIEWED,
    Protocol.HIJACKGUARD: Outcome.ACCEPTED,
}

HONEST_PASS = 120  # sessions in the fingerprint set and in one traced pass
HONEST_WINDOW = 60  # sessions per throughput sample: ten round-robin cycles
MATRIX_TRIALS = 2  # trials per cell in one run_matrix call
MATRIX_CELLS = 24
ADVERSE_TRIALS = 2  # trials per scenario

MAX_PROBLEMS = 20  # failure messages kept for the report


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: MAX_PROBLEMS - len(self.problems)])


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _caller(tracer):
    # One code path for traced and untraced passes: a traced call becomes a
    # span named after the benchmark-level step it stands for.
    return _direct if tracer is None else tracer.span


def _begin_op(tracer, label: str) -> None:
    if tracer is not None:
        tracer.begin_op(label)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -------- honest_mix --------


def honest_config(seed: int, index: int) -> SessionConfig:
    flow = FLOWS[index % len(FLOWS)]
    return SessionConfig(
        protocol=flow, seed=rng.child_seed(seed, "honest_mix", flow.value, index)
    )


def honest_configs(seed: int, count: int) -> list[SessionConfig]:
    return [honest_config(seed, i) for i in range(count)]


def honest_problem(config: SessionConfig, result) -> str | None:
    """Why an honest session did not end in its flow's success, or None."""
    flow = config.protocol
    if result.outcome is not SUCCESS[flow]:
        return f"{flow.value} seed={config.seed}: outcome {result.outcome.value}"
    if flow is Protocol.SECUREVIEW and result.session.view_failures:
        return f"{flow.value} seed={config.seed}: view failures {result.session.view_failures}"
    return None


def run_honest_session(config: SessionConfig, store: CredentialStore):
    """Run one session and consume it: outcome checked, transcript hashed.

    Returns (session or None, digest, problem or None).
    """
    flow = config.protocol.value
    try:
        result = protocols.run_flow(config, store)
    except Exception as exc:  # a raising session is a failed operation
        problem = f"{flow} seed={config.seed}: raised {type(exc).__name__}: {exc}"
        return None, _digest(f"{flow}|raised|{type(exc).__name__}"), problem
    problem = honest_problem(config, result)
    text = f"{flow}|{result.outcome.value}\n" + entities.export_transcript(result.session)
    return result.session, _digest(text), problem


def secrecy_problem(config: SessionConfig, sightings) -> str | None:
    violations = [s for s in sightings if s.violation]
    if not violations:
        return None
    shown = ", ".join(f"{s.kind.value} on {s.entity.value}" for s in violations)
    return f"{config.protocol.value} seed={config.seed}: secrecy violations: {shown}"


def honest_session_step(config, store, tracer=None):
    """One honest_mix operation: the session, then the secret scan.

    Returns (digest, problem or None, seconds the session took). The clock
    covers run_flow, the outcome check and the transcript hash; the scan
    runs after it stops, because it is the benchmark's check, not work the
    program does per session.
    """
    call = _caller(tracer)
    _begin_op(tracer, config.protocol.value)
    t0 = time.perf_counter()
    session, digest, problem = call("bench.session", run_honest_session, config, store)
    elapsed = time.perf_counter() - t0
    if session is not None:
        sightings = call("entities.scan", entities.scan_states_for_secrets, session)
        if tracer is not None:
            tracer.counters["scan_sightings"] += len(sightings)
        problem = problem or secrecy_problem(config, sightings)
    return digest, problem, elapsed


def honest_store(seed: int) -> CredentialStore:
    return CredentialStore.provision(rng.child_seed(seed, "store", "honest_mix"))


def honest_pass(configs, store, tracer=None):
    """A fixed list of sessions against one store: (fingerprint, tally, sessions)."""
    fingerprint = hashlib.sha256()
    tally = Tally()
    for config in configs:
        digest, problem, _ = honest_session_step(config, store, tracer)
        fingerprint.update(digest.encode())
        tally.add(problem)
    return fingerprint.hexdigest(), tally, len(configs)


@dataclass
class HonestRun:
    tally: Tally
    fingerprint: str
    session_ms: list[float]
    flow_ms: dict[str, list[float]]
    window_rates: list[float]  # sessions per second of timed wall, per window
    window_scales: list[float]  # speed.Tracker.scale() of each window


def honest_mix_run(
    seed: int,
    seconds: float,
    store: CredentialStore,
    fingerprint_sessions: int = HONEST_PASS,
    window: int = HONEST_WINDOW,
) -> HonestRun:
    """Whole windows of sessions until the time is up, and at least the
    fingerprint set (a multiple of the window). The speed probe runs between
    windows, off the clock."""
    tally = Tally()
    fingerprint = hashlib.sha256()
    session_ms: list[float] = []
    flow_ms: dict[str, list[float]] = {flow.value: [] for flow in FLOWS}
    window_rates: list[float] = []
    window_scales: list[float] = []
    window_timed = 0.0
    tracker = speed.Tracker()
    index = 0
    deadline = time.perf_counter() + seconds
    while index % window or index < fingerprint_sessions or time.perf_counter() < deadline:
        config = honest_config(seed, index)
        digest, problem, elapsed = honest_session_step(config, store)
        tally.add(problem)
        if index < fingerprint_sessions:
            fingerprint.update(digest.encode())
        session_ms.append(elapsed * 1000.0)
        flow_ms[config.protocol.value].append(elapsed * 1000.0)
        window_timed += elapsed
        index += 1
        if index % window == 0:
            window_rates.append(window / window_timed)
            window_scales.append(tracker.scale())
            window_timed = 0.0
    return HonestRun(
        tally, fingerprint.hexdigest(), session_ms, flow_ms, window_rates, window_scales
    )


# -------- matrix --------


def matrix_seed(seed: int) -> int:
    return rng.child_seed(seed, "matrix")


def matrix_problems(cells, trials: int, broken=adversary.BROKEN_CELLS) -> tuple[int, list[str]]:
    """Cells (of the designed 24) whose verdict breaks the designed pattern:
    21 resisting, the 3 in ``broken`` breached. A missing, repeated or
    short-run cell counts as failed too. Returns (failed count, messages)."""
    expected = {
        (protocol, kind, locus)
        for protocol in protocols.AUTH_PROTOCOLS
        for kind in adversary.MATRIX_KINDS
        for locus in adversary.MATRIX_LOCI
    }
    seen = set()
    messages = []
    for cell in cells:
        key = (cell.protocol, cell.kind, cell.locus)
        name = f"{cell.protocol.value}/{cell.kind.value}/{cell.locus.value}"
        if key not in expected or key in seen:
            messages.append(f"{name}: unexpected or repeated cell")
        elif cell.trials != trials:
            messages.append(f"{name}: ran {cell.trials} trials, asked for {trials}")
        elif cell.resisted != (key not in broken):
            want = "resist" if key not in broken else "breach"
            messages.append(f"{name}: expected {want}, got {cell.breaches}/{cell.trials} breaches")
        seen.add(key)
    missing = len(expected - seen)
    messages.extend(["matrix: missing cell"] * missing)
    return len(messages), messages


def matrix_pass(mseed: int, trials: int, tracer=None, broken=adversary.BROKEN_CELLS):
    """One run_matrix call, consumed.

    Returns (records digest, tally of cells, attacked sessions run).
    """
    call = _caller(tracer)
    _begin_op(tracer, "matrix")

    def run():
        try:
            cells = adversary.run_matrix(mseed, trials)
        except Exception as exc:  # every cell of a raising matrix failed
            message = f"run_matrix raised {type(exc).__name__}: {exc}"
            failed_all = Tally(MATRIX_CELLS, MATRIX_CELLS, [message])
            return _digest(f"raised|{type(exc).__name__}"), failed_all
        records = harness.machine_records(harness.Report(matrix=cells))
        failed, messages = matrix_problems(cells, trials, broken)
        attempted = max(MATRIX_CELLS, len(cells))
        return _digest(records), Tally(attempted, failed, messages[:MAX_PROBLEMS])

    digest, tally = call("bench.matrix", run)
    return digest, tally, MATRIX_CELLS * trials  # one attacked session per trial


# -------- adverse_scenarios --------

# (name, protocol, settings, expectation key). Past the cliff, the framed
# login flows abort, TXVERIFY ends with the user flagging the unreadable
# confirmation, and SECUREVIEW still ends VIEWED, with failed fields.
ADVERSE_SCENARIOS = (
    ("wrong-p1", "p1", {"credentials": "wrong", "max_attempts": 3}, "denied"),
    ("wrong-p2", "p2", {"credentials": "wrong", "max_attempts": 3}, "denied"),
    ("wrong-p3", "p3", {"credentials": "wrong", "max_attempts": 3}, "denied"),
    ("heal-p1", "p1", {"corrupt_codewords": "budget"}, "authenticated"),
    ("heal-p2", "p2", {"corrupt_codewords": "budget"}, "authenticated"),
    ("heal-p3", "p3", {"corrupt_codewords": "budget"}, "authenticated"),
    ("heal-txverify", "txverify", {"corrupt_codewords": "budget"}, "confirmed"),
    ("heal-secureview", "secureview", {"corrupt_codewords": "budget"}, "viewed"),
    ("cliff-p1", "p1", {"corrupt_codewords": "budget+1"}, "aborted"),
    ("cliff-p2", "p2", {"corrupt_codewords": "budget+1"}, "aborted"),
    ("cliff-p3", "p3", {"corrupt_codewords": "budget+1"}, "aborted"),
    ("cliff-txverify", "txverify", {"corrupt_codewords": "budget+1"}, "user_flagged_mismatch"),
    ("cliff-secureview", "secureview", {"corrupt_codewords": "budget+1"}, "viewed"),
)


def scenario_text(seed: int, trials: int = ADVERSE_TRIALS) -> str:
    """The scenario file of one pass; every scenario carries an expect_* key."""
    lines = []
    for name, protocol, settings, expect in ADVERSE_SCENARIOS:
        lines += ["[scenario]", f"name = {name}", f"protocol = {protocol}"]
        lines += [f"{key} = {value}" for key, value in settings.items()]
        lines += [
            f"trials = {trials}",
            f"seed = {rng.child_seed(seed, 'adverse_scenarios', name)}",
            f"expect_{expect} = {trials}",
        ]
    return "\n".join(lines) + "\n"


def adverse_pass(text: str, tracer=None):
    """Parse and run one scenario file, consumed.

    Returns (digest of the records and first-session transcripts, tally,
    sessions run).
    """
    call = _caller(tracer)
    tally = Tally()
    _begin_op(tracer, "parse")
    try:
        parsed = call("bench.parse", harness.parse_config, text)
    except harness.ConfigError as exc:
        tally.add(f"parse_config: {exc}")
        return _digest(f"config-error|{exc}"), tally, 0
    reports = []
    for scenario in parsed.scenarios:
        _begin_op(tracer, scenario.name)
        try:
            report = call("bench.scenario", harness.run_scenario, scenario)
        except Exception as exc:  # a raising scenario is a failed operation
            tally.add(f"{scenario.name}: raised {type(exc).__name__}: {exc}")
            continue
        reports.append(report)
        tally.add("; ".join(report.failures) if report.failures else None)
    # The records hold only outcome counts, which the expectations fix; the
    # transcript of each scenario's first session makes the digest cover
    # the seeded inputs too.
    records = harness.machine_records(harness.Report(scenarios=reports))
    transcripts = "".join(
        entities.export_transcript(r.first_session) for r in reports if r.first_session
    )
    return _digest(records + transcripts), tally, sum(s.trials for s in parsed.scenarios)


# -------- repeated passes (matrix, adverse_scenarios) --------


@dataclass
class PassRun:
    tally: Tally
    fingerprint: str
    pass_s: list[float]
    pass_scales: list[float]  # speed.Tracker.scale() of each pass
    sessions_per_pass: int


def pass_runner(workload: str, seed: int, size: int | None = None):
    """The workload's fixed pass as a callable: tracer -> (digest, tally, sessions).

    Each call starts from fresh state: honest_mix provisions a new store
    (the same one its run starts with), the other two provision their own.
    """
    if workload == "honest_mix":
        configs = honest_configs(seed, size or HONEST_PASS)
        return lambda tracer=None: honest_pass(configs, honest_store(seed), tracer)
    if workload == "matrix":
        mseed, trials = matrix_seed(seed), size or MATRIX_TRIALS
        return lambda tracer=None: matrix_pass(mseed, trials, tracer)
    text = scenario_text(seed, size or ADVERSE_TRIALS)
    return lambda tracer=None: adverse_pass(text, tracer)


def repeated_passes(
    workload: str, seed: int, seconds: float, min_passes: int = 1, size: int | None = None
) -> PassRun:
    """Repeat the workload's pass (matrix, adverse_scenarios) until the time is up.

    Every pass must reproduce the first pass's records; a pass that does not
    counts all its operations as failed. The speed probe runs between passes.
    """
    run_pass = pass_runner(workload, seed, size)
    tally = Tally()
    pass_s: list[float] = []
    pass_scales: list[float] = []
    fingerprint = None
    tracker = speed.Tracker()
    deadline = time.perf_counter() + seconds
    while len(pass_s) < min_passes or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        digest, pass_tally, sessions = run_pass()
        pass_s.append(time.perf_counter() - t0)
        pass_scales.append(tracker.scale())
        if fingerprint is None:
            fingerprint = digest
        elif digest != fingerprint:
            message = f"pass {len(pass_s)}: records differ from pass 1"
            pass_tally = Tally(pass_tally.attempted, pass_tally.attempted, [message])
        tally.merge(pass_tally)
    return PassRun(tally, fingerprint, pass_s, pass_scales, sessions)


# -------- set-up --------


def warm_up(workload: str, seed: int) -> None:
    """Do once, untimed by the run, every piece of lazy set-up the workload
    would otherwise pay inside its timed region: imports inside the program,
    the first cryptography key objects, and the Reed-Solomon generator
    polynomial of every parity degree the workload's frames use."""
    store = CredentialStore.provision(rng.child_seed(seed, "warm-up-store"))
    for flow in FLOWS:
        protocols.run_flow(
            SessionConfig(protocol=flow, seed=rng.child_seed(seed, "warm-up", flow.value)), store
        )
    if workload == "matrix":
        adversary.run_matrix(rng.child_seed(seed, "warm-up-matrix"), 1)
    elif workload == "adverse_scenarios":
        adverse_pass(scenario_text(rng.child_seed(seed, "warm-up"), trials=1))


def generator_cache_misses() -> int | None:
    """Generator polynomials computed so far, if the program caches them."""
    cached = getattr(qr, "_generator_poly", None)
    info = getattr(cached, "cache_info", None)
    return info().misses if info else None


def clear_lazy_state() -> None:
    """Empty the program's lazily filled caches, so each set-up redoes them."""
    cached = getattr(qr, "_generator_poly", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def set_up(workload: str, seed: int, repeats: int = 5):
    """Provision and warm up ``repeats`` times.

    Returns (seconds of each repetition, speed scale of each, store). The
    store of the last repetition is fresh (the warm-up sessions use a store
    of their own), and is the one honest_mix runs against.
    """
    durations, scales = [], []
    tracker = speed.Tracker()
    for rep in range(repeats):
        clear_lazy_state()
        t0 = time.perf_counter()
        store = honest_store(seed)
        warm_up(workload, rng.child_seed(seed, "set-up", rep))
        durations.append(time.perf_counter() - t0)
        scales.append(tracker.scale())
    return durations, scales, store
