"""Scenario batches, the resistance matrix, numeric checks, reports.

The config format is deliberately dumb: flat ``key = value`` lines under
``[scenario]`` section headers, hash comments, nothing nested. A scenario
names a protocol, optionally an adversary, a trial count and seed, flag
overrides, and any number of embedded ``expect_*`` assertions that the
runner checks after the batch. Reports come out twice from one structure:
a human table and line-delimited machine records; both are byte-stable
under a fixed config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import qr, rng as rngmod
from .adversary import (
    FOLLOWUP_BUDGET,
    MATRIX_KINDS,
    MATRIX_LOCI,
    AdversaryConfig,
    AdversaryKind,
    MatrixCell,
    evaluate,
    run_attacked_session,
    run_matrix,
)
from .entities import EntityKind, export_transcript
from .protocols import (
    AUTH_PROTOCOLS,
    CredentialStore,
    Outcome,
    Protocol,
    SessionConfig,
    SessionFlags,
    run_flow,
)

WRONG_PASSWORD = "wrongpw0"  # over the same alphabet, never the provisioned one

SCAN_MODEL_A = 1.2  # seconds, per-scan fixed cost
SCAN_MODEL_B = 0.00048  # seconds per module

_COUNT_KEYS = (
    "authenticated",
    "denied",
    "aborted_retryable",
    "aborted_fatal",
    "confirmed",
    "user_flagged_mismatch",
    "accepted",
    "rejected",
    "viewed",
)


class ConfigError(Exception):
    """A scenario file that cannot be run; carries the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# -------- scenario model --------


_PROTOCOL_NAMES = {p.value.lower(): p for p in Protocol}
_ADVERSARY_NAMES = {k.value: k for k in AdversaryKind}
_LOCUS_NAMES = {"terminal": EntityKind.TERMINAL, "smartphone": EntityKind.SMARTPHONE}
_EC_NAMES = {level.value.lower(): level for level in qr.EcLevel}


@dataclass
class Scenario:
    name: str
    protocol: Protocol
    trials: int = 1
    seed: int = 0
    adversary: AdversaryConfig | None = None
    flags: SessionFlags = SessionFlags()
    ec_level: qr.EcLevel = qr.EcLevel.M
    corrupt_codewords: int | str = 0
    corrupt_context: str | None = None
    credentials: str = "honest"  # or "wrong"
    max_attempts: int = 1
    drop_side_copy: bool = False
    followup_budget: int = FOLLOWUP_BUDGET
    expectations: dict[str, int] = field(default_factory=dict)

    def session_config(self) -> SessionConfig:
        wrong = self.credentials == "wrong"
        return SessionConfig(
            protocol=self.protocol,
            seed=self.seed,
            flags=self.flags,
            frame_ec=self.ec_level,
            corrupt_codewords=self.corrupt_codewords,
            corrupt_context=self.corrupt_context,
            max_attempts=self.max_attempts,
            drop_side_copy=self.drop_side_copy,
            submit_passwords=(WRONG_PASSWORD,) if wrong and self.protocol is not Protocol.P2 else None,
            mistype_otp=wrong and self.protocol is Protocol.P2,
        )


def _parse_bool(raw: str, line_no: int) -> bool:
    lowered = raw.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ConfigError(line_no, f"expected a boolean, got {raw!r}")


def _parse_int(raw: str, line_no: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(line_no, f"{key} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class MatrixRequest:
    trials: int = 100
    seed: int = 2026
    followup_budget: int = FOLLOWUP_BUDGET


@dataclass
class ParsedConfig:
    scenarios: list[Scenario]
    matrix: MatrixRequest | None = None


_MATRIX_KEYS = ("trials", "seed", "followup_budget")


def parse_config(text: str) -> ParsedConfig:
    """Parse a scenario file; every complaint names its line number."""
    scenarios: list[Scenario] = []
    matrix: MatrixRequest | None = None
    current: dict | None = None
    section: str | None = None
    seen_keys: set[str] = set()

    def close_current(line_no: int) -> None:
        nonlocal current, matrix
        if current is None:
            return
        if section == "matrix":
            request = MatrixRequest(
                trials=current.get("trials", 100),
                seed=current.get("seed", 2026),
                followup_budget=current.get("followup_budget", FOLLOWUP_BUDGET),
            )
            if request.trials < 1:
                raise ConfigError(line_no, "trials must be >= 1")
            matrix = request
            current = None
            return
        if "protocol" not in current:
            raise ConfigError(line_no, f"scenario {current['name']!r} never named a protocol")
        adversary = None
        if current.get("adversary") is not None:
            adversary = AdversaryConfig(current["adversary"], current.get("locus", EntityKind.TERMINAL))
        scenario = Scenario(
            name=current["name"],
            protocol=current["protocol"],
            trials=current.get("trials", 1),
            seed=current.get("seed", 0),
            adversary=adversary,
            flags=SessionFlags(
                sign_server_payloads=current.get("sign_server_payloads", True),
                hijack_guard=current.get("hijack_guard", True),
                tx_nonce_freshness=current.get("tx_nonce_freshness", True),
            ),
            ec_level=current.get("ec_level", qr.EcLevel.M),
            corrupt_codewords=current.get("corrupt_codewords", 0),
            corrupt_context=current.get("corrupt_context"),
            credentials=current.get("credentials", "honest"),
            max_attempts=current.get("max_attempts", 1),
            drop_side_copy=current.get("drop_side_copy", False),
            followup_budget=current.get("followup_budget", FOLLOWUP_BUDGET),
            expectations=current.get("expectations", {}),
        )
        if scenario.trials < 1:
            raise ConfigError(line_no, "trials must be >= 1")
        if not 0 <= scenario.seed < 1 << 64:
            raise ConfigError(line_no, "seed must fit in 64 bits")
        scenarios.append(scenario)
        current = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[scenario]":
                close_current(line_no)
                section = "scenario"
                current = {"name": f"scenario-{len(scenarios) + 1}"}
            elif line == "[matrix]":
                close_current(line_no)
                if matrix is not None:
                    raise ConfigError(line_no, "only one [matrix] section allowed")
                section = "matrix"
                current = {}
            else:
                raise ConfigError(line_no, f"unknown section {line!r}")
            seen_keys = set()
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(line_no, "key outside any [scenario] section")
        key, _, raw_value = line.partition("=")
        key, value = key.strip(), raw_value.strip()
        if key in seen_keys:
            raise ConfigError(line_no, f"duplicate key {key!r} in one scenario")
        seen_keys.add(key)

        if section == "matrix":
            if key not in _MATRIX_KEYS:
                raise ConfigError(line_no, f"unknown key {key!r} in [matrix]")
            current[key] = _parse_int(value, line_no, key)
            continue

        if key == "name":
            current["name"] = value
        elif key == "protocol":
            if value.lower() not in _PROTOCOL_NAMES:
                raise ConfigError(line_no, f"unknown protocol {value!r}")
            current["protocol"] = _PROTOCOL_NAMES[value.lower()]
        elif key == "adversary":
            if value.lower() == "none":
                current["adversary"] = None
            elif value.lower() in _ADVERSARY_NAMES:
                current["adversary"] = _ADVERSARY_NAMES[value.lower()]
            else:
                raise ConfigError(line_no, f"unknown adversary {value!r}")
        elif key == "locus":
            if value.lower() not in _LOCUS_NAMES:
                raise ConfigError(line_no, f"unknown locus {value!r}")
            current["locus"] = _LOCUS_NAMES[value.lower()]
        elif key in ("trials", "seed", "max_attempts", "followup_budget"):
            current[key] = _parse_int(value, line_no, key)
        elif key in ("sign_server_payloads", "hijack_guard", "tx_nonce_freshness", "drop_side_copy"):
            current[key] = _parse_bool(value, line_no)
        elif key == "ec_level":
            if value.lower() not in _EC_NAMES:
                raise ConfigError(line_no, f"unknown ec level {value!r}")
            current["ec_level"] = _EC_NAMES[value.lower()]
        elif key == "corrupt_codewords":
            if value in ("budget", "budget+1"):
                current["corrupt_codewords"] = value
            else:
                current["corrupt_codewords"] = _parse_int(value, line_no, key)
        elif key == "corrupt_context":
            current["corrupt_context"] = value
        elif key == "credentials":
            if value not in ("honest", "wrong"):
                raise ConfigError(line_no, f"credentials must be honest or wrong, got {value!r}")
            current["credentials"] = value
        elif key.startswith("expect_"):
            current.setdefault("expectations", {})[key[len("expect_") :]] = _parse_int(
                value, line_no, key
            )
        else:
            raise ConfigError(line_no, f"unknown key {key!r}")

    close_current(len(text.splitlines()) + 1)
    if not scenarios and matrix is None:
        raise ConfigError(0, "config declares no [scenario] or [matrix] sections")
    return ParsedConfig(scenarios=scenarios, matrix=matrix)


# -------- execution --------


@dataclass
class ScenarioReport:
    name: str
    protocol: Protocol
    trials: int
    counts: dict[str, int]
    breaches: int | None  # None when no adversary configured
    frame_specs: tuple[tuple[str, int, str], ...]  # (context, version, ec)
    failures: list[str]
    first_session: object = None  # kept for transcript/frame export


def _count_key(result) -> str:
    outcome = result.outcome
    if outcome is Outcome.ABORTED:
        return "aborted_retryable" if result.session.abort_retryable else "aborted_fatal"
    return outcome.value


def run_scenario(scenario: Scenario) -> ScenarioReport:
    store = CredentialStore.provision(rngmod.child_seed(scenario.seed, "store", scenario.name))
    counts = {key: 0 for key in _COUNT_KEYS}
    breaches = 0 if scenario.adversary else None
    frame_specs: list[tuple[str, int, str]] = []
    first_session = None

    for trial in range(scenario.trials):
        trial_seed = rngmod.child_seed(scenario.seed, scenario.name, str(trial))
        config = replace(scenario.session_config(), seed=trial_seed)
        if scenario.adversary is not None:
            handle, result = run_attacked_session(
                scenario.protocol,
                scenario.adversary,
                trial_seed,
                store,
                session_config=config,
            )
            attack = evaluate(handle, scenario.followup_budget)
            if attack.can_authenticate_later:
                breaches += 1
        else:
            result = run_flow(config, store)
        counts[_count_key(result)] += 1
        if trial == 0:
            first_session = result.session
            for _, context, frame in result.session.frame_log:
                frame_specs.append((context, frame.spec.version, frame.spec.ec_level.value))

    failures = []
    for key, expected in scenario.expectations.items():
        if key == "breaches":
            actual = breaches if breaches is not None else 0
        elif key == "aborted":
            actual = counts["aborted_retryable"] + counts["aborted_fatal"]
        elif key in counts:
            actual = counts[key]
        else:
            failures.append(f"{scenario.name}: unknown expectation {key!r}")
            continue
        if actual != expected:
            failures.append(f"{scenario.name}: expected {key}={expected}, got {actual}")

    return ScenarioReport(
        name=scenario.name,
        protocol=scenario.protocol,
        trials=scenario.trials,
        counts=counts,
        breaches=breaches,
        frame_specs=tuple(frame_specs),
        failures=failures,
        first_session=first_session,
    )


# -------- numeric checks --------


@dataclass(frozen=True)
class NumericCheck:
    name: str
    computed: float
    expected: float
    tolerance: float  # 0 means exact
    passed: bool
    comparison: str = "within"  # or "at_least"


def numeric_checks() -> list[NumericCheck]:
    """The arithmetic the design leans on, recomputed and compared."""
    log2_fact = sum(math.log2(i) for i in range(1, 37))
    naive_bits = 36 * math.log2(36)
    checks = [
        NumericCheck("log2(36!)", log2_fact, 138.0, 0.5, abs(log2_fact - 138.0) <= 0.5),
        NumericCheck("36*log2(36)", naive_bits, 187.0, 1.0, abs(naive_bits - 187.0) <= 1.0),
    ]
    for mode, expected in (
        (qr.Mode.NUMERIC, 7089),
        (qr.Mode.ALPHANUMERIC, 4296),
        (qr.Mode.BYTE, 2953),
    ):
        got = qr.GLOBAL_MAX[mode]
        checks.append(NumericCheck(f"max_capacity_{mode.value}", got, expected, 0.0, got == expected))
    v2m = qr.capacity(qr.FrameSpec(2, qr.EcLevel.M, qr.Mode.ALPHANUMERIC))
    checks.append(
        NumericCheck("capacity_v2_M_alnum", v2m, 36, 0.0, v2m >= 36, comparison="at_least")
    )
    return checks


# -------- report assembly --------


@dataclass
class Report:
    scenarios: list[ScenarioReport] = field(default_factory=list)
    matrix: list[MatrixCell] = field(default_factory=list)
    checks: list[NumericCheck] = field(default_factory=list)
    scan_model: tuple[float, float] = (SCAN_MODEL_A, SCAN_MODEL_B)

    @property
    def failures(self) -> list[str]:
        out = []
        for sr in self.scenarios:
            out.extend(sr.failures)
        for cell in self.matrix:
            if not cell.matches_expected:
                out.append(
                    f"matrix: {cell.protocol.value}/{cell.kind.value}/{cell.locus.value} "
                    f"expected {'resist' if cell.expected_resist else 'breach'}, "
                    f"got {cell.breaches}/{cell.trials} breaches"
                )
        for check in self.checks:
            if not check.passed:
                out.append(f"check: {check.name} computed {check.computed} vs {check.expected}")
        return out

    @property
    def ok(self) -> bool:
        return not self.failures


def run_scenarios(path: str) -> Report:
    with open(path, "r", encoding="utf-8") as fh:
        parsed = parse_config(fh.read())
    report = Report()
    for scenario in parsed.scenarios:
        report.scenarios.append(run_scenario(scenario))
    if parsed.matrix is not None:
        report.matrix = run_matrix(
            parsed.matrix.seed, parsed.matrix.trials, parsed.matrix.followup_budget
        )
    return report


def _matrix_rows(cells: list[MatrixCell]) -> list[tuple]:
    by_key = {(c.protocol, c.kind, c.locus): c for c in cells}
    rows = []
    for protocol in AUTH_PROTOCOLS:
        for kind in MATRIX_KINDS:
            found = (by_key.get((protocol, kind, locus)) for locus in MATRIX_LOCI)
            pair = [cell for cell in found if cell is not None]
            if pair:
                rows.append((protocol, kind, pair))
    return rows


def render_text(report: Report) -> str:
    """The human half: aligned tables, estimates clearly labeled."""
    lines: list[str] = []
    if report.scenarios:
        lines.append("scenarios")
        lines.append("-" * 72)
        for sr in report.scenarios:
            shown = ", ".join(f"{k}={v}" for k, v in sorted(sr.counts.items()) if v)
            extra = f", breaches={sr.breaches}" if sr.breaches is not None else ""
            lines.append(f"{sr.name:28} {sr.protocol.value:10} trials={sr.trials:<5} {shown}{extra}")
        lines.append("")
    if report.matrix:
        trials = report.matrix[0].trials
        lines.append(f"resistance matrix ({trials} seeded trials per cell)")
        lines.append("-" * 72)
        lines.append(f"{'protocol':9} {'adversary':17} {'terminal':19} {'smartphone':19}")
        for protocol, kind, pair in _matrix_rows(report.matrix):
            fields = [f"{protocol.value:9}", f"{kind.value:17}"]
            for cell in pair:
                verdict = "resist" if cell.resisted else f"breach {cell.breaches}/{cell.trials}"
                mark = "OK  " if cell.matches_expected else "FAIL"
                fields.append(f"{mark} {verdict:14}")
            lines.append(" ".join(fields))
        lines.append("")
    if report.checks:
        lines.append("numeric checks")
        lines.append("-" * 72)
        for check in report.checks:
            if check.comparison == "at_least":
                bound = f"expected>={check.expected:g}"
            elif check.tolerance:
                bound = f"expected={check.expected:g} tol={check.tolerance:g}"
            else:
                bound = f"expected={check.expected:g} exact"
            lines.append(
                f"{'pass' if check.passed else 'FAIL'}  {check.name:28} "
                f"computed={check.computed:.4f} {bound}"
            )
        lines.append("")
    frame_specs = sorted(
        {(ctx, v, ec) for sr in report.scenarios for (ctx, v, ec) in sr.frame_specs}
    )
    if frame_specs:
        a, b = report.scan_model
        lines.append("frame usage (scan seconds are a fitted estimate, never asserted)")
        lines.append("-" * 72)
        for ctx, version, ec in frame_specs:
            spec = qr.FrameSpec(version, qr.EcLevel(ec), qr.Mode.BYTE)
            est = qr.estimated_scan_seconds(spec, a, b)
            lines.append(f"{ctx:28} version={version:<3} ec={ec} est_scan={est:.3f}s")
        lines.append("")
    lines.append("RESULT: " + ("pass" if report.ok else "FAIL"))
    for failure in report.failures:
        lines.append("  " + failure)
    return "\n".join(lines) + "\n"


def machine_records(report: Report) -> str:
    """The machine half: one pipe-delimited record per fact, stable order."""
    records: list[str] = []
    for sr in report.scenarios:
        counts = ",".join(f"{k}={v}" for k, v in sorted(sr.counts.items()) if v)
        breaches = "" if sr.breaches is None else f"|breaches={sr.breaches}"
        records.append(
            f"scenario|{sr.name}|{sr.protocol.value}|trials={sr.trials}|{counts}{breaches}"
        )
    for cell in sorted(
        report.matrix, key=lambda c: (c.protocol.value, c.kind.value, c.locus.value)
    ):
        records.append(
            f"cell|{cell.protocol.value}|{cell.kind.value}|{cell.locus.value}"
            f"|trials={cell.trials}|breaches={cell.breaches}"
            f"|expected={'resist' if cell.expected_resist else 'breach'}"
            f"|{'OK' if cell.matches_expected else 'FAIL'}"
        )
    for check in report.checks:
        records.append(
            f"check|{check.name}|computed={check.computed!r}|expected={check.expected!r}"
            f"|tol={check.tolerance!r}|{check.comparison}|{'pass' if check.passed else 'FAIL'}"
        )
    for failure in report.failures:
        records.append(f"failure|{failure}")
    records.append(f"result|{'pass' if report.ok else 'FAIL'}")
    return "\n".join(records) + "\n"


# -------- artifact export --------


def export_artifacts(report: Report, frames_dir: str | None, transcripts_dir: str | None) -> None:
    """Write trial-0 transcripts and frame dumps for whoever wants to look."""
    import os

    for sr in report.scenarios:
        session = sr.first_session
        if session is None:
            continue
        if transcripts_dir:
            os.makedirs(transcripts_dir, exist_ok=True)
            path = os.path.join(transcripts_dir, f"{sr.name}.transcript")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(export_transcript(session))
        if frames_dir:
            os.makedirs(frames_dir, exist_ok=True)
            for step, context, frame in session.frame_log:
                safe = context.replace(":", "_")
                path = os.path.join(frames_dir, f"{sr.name}_{step:02d}_{safe}.qrv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(qr.dump_frame(frame))
