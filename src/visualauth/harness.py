"""Scenario batches, the resistance matrix, numeric checks, reports.

The config format is deliberately dumb: flat ``key = value`` lines under
``[scenario]`` section headers, hash comments, nothing nested. A scenario
is one SessionConfig run for a number of trials, optionally under an
adversary, plus any number of embedded ``expect_*`` assertions that the
runner checks after the batch. Each key has one parser in
``_SCENARIO_KEYS``, and its value lands on the Scenario, SessionFlags or
SessionConfig field of the same name; ``_build_scenario`` maps the few
keys that differ. Defaults live only in those dataclasses.

Reports come out twice from one structure: a human table and
line-delimited machine records; both are byte-stable under a fixed config
and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

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
from .entities import export_transcript
from .protocols import (
    AUTH_PROTOCOLS,
    CAPTURE_CONTEXTS,
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

# one count per outcome; an abort counts as retryable or fatal
_COUNT_KEYS = tuple(
    key
    for outcome in Outcome
    for key in (
        ("aborted_retryable", "aborted_fatal") if outcome is Outcome.ABORTED else (outcome.value,)
    )
)


class ConfigError(Exception):
    """A scenario file that cannot be run; carries the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# -------- scenario model --------


@dataclass
class Scenario:
    """A batch: config.seed seeds the store and every trial's session."""

    name: str
    config: SessionConfig
    trials: int = 1
    adversary: AdversaryConfig | None = None
    followup_budget: int = FOLLOWUP_BUDGET
    expectations: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class MatrixRequest:
    trials: int = 100
    seed: int = 2026
    followup_budget: int = FOLLOWUP_BUDGET


@dataclass
class ParsedConfig:
    scenarios: list[Scenario]
    matrix: MatrixRequest | None = None


# -------- the key table: key -> parser(raw, key) -> value, raising ValueError --------


def _choice(names: dict, complaint: str):
    """A case-insensitive pick from names; complaint formats the raw value."""

    def parse(raw: str, key: str):
        try:
            return names[raw.lower()]
        except KeyError:
            raise ValueError(complaint.format(raw)) from None

    return parse


def _integer(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {raw!r}") from None


def _at_least(minimum: int):
    def parse(raw: str, key: str) -> int:
        value = _integer(raw, key)
        if value < minimum:
            raise ValueError(f"{key} must be >= {minimum}")
        return value

    return parse


def _seed(raw: str, key: str) -> int:
    value = _integer(raw, key)
    if not 0 <= value < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    return value


def _codewords(raw: str, key: str) -> int | str:
    return raw if raw in ("budget", "budget+1") else _at_least(0)(raw, key)


_boolean = _choice(
    {word: True for word in ("on", "true", "yes", "1")}
    | {word: False for word in ("off", "false", "no", "0")},
    "expected a boolean, got {!r}",
)

_SCENARIO_KEYS = {
    "name": lambda raw, key: raw,
    "protocol": _choice({p.value.lower(): p for p in Protocol}, "unknown protocol {!r}"),
    "trials": _at_least(1),
    "seed": _seed,
    "adversary": _choice(
        {"none": None} | {k.value: k for k in AdversaryKind}, "unknown adversary {!r}"
    ),
    "locus": _choice({locus.value: locus for locus in MATRIX_LOCI}, "unknown locus {!r}"),
    "sign_server_payloads": _boolean,
    "hijack_guard": _boolean,
    "tx_nonce_freshness": _boolean,
    "drop_side_copy": _boolean,
    "ec_level": _choice({level.value.lower(): level for level in qr.EcLevel}, "unknown ec level {!r}"),
    "corrupt_codewords": _codewords,
    "corrupt_context": _choice(
        {context: context for contexts in CAPTURE_CONTEXTS.values() for context in contexts},
        "unknown capture context {!r}",
    ),
    "credentials": _choice(
        {"honest": False, "wrong": True}, "credentials must be honest or wrong, got {!r}"
    ),
    "max_attempts": _at_least(1),
    "followup_budget": _at_least(1),
}
_MATRIX_KEYS = ("trials", "seed", "followup_budget")
_FLAG_FIELDS = tuple(f.name for f in fields(SessionFlags))
_SCENARIO_FIELDS = tuple(f.name for f in fields(Scenario))


def _build_scenario(values: dict, lines: dict[str, int], end_line: int) -> Scenario:
    """Route parsed values to the Scenario, SessionFlags or SessionConfig
    field of the same name; ec_level, credentials, adversary and locus map
    by hand. A key the scenario's flow or adversary would ignore is refused."""
    if "protocol" not in values:
        raise ConfigError(end_line, f"scenario {values['name']!r} never named a protocol")
    protocol = values["protocol"]
    if values.get("adversary") is not None:
        locus = {"locus": values.pop("locus")} if "locus" in values else {}
        values["adversary"] = AdversaryConfig(values["adversary"], **locus)
    else:
        for key in ("locus", "expect_breaches", "followup_budget"):
            if key in lines:
                raise ConfigError(lines[key], f"{key} needs an adversary")
    contexts = CAPTURE_CONTEXTS[protocol]
    for key in ("ec_level", "corrupt_codewords"):
        if key in lines and not contexts:
            raise ConfigError(lines[key], f"{key} does nothing: {protocol.value} captures no frames")
    context = values.get("corrupt_context")
    if context is not None and context not in contexts:
        raise ConfigError(lines["corrupt_context"], f"{protocol.value} makes no {context!r} capture")
    if "drop_side_copy" in lines and protocol is not Protocol.HIJACKGUARD:
        raise ConfigError(lines["drop_side_copy"], "drop_side_copy needs protocol = hijackguard")
    if "ec_level" in values:
        values["frame_ec"] = values.pop("ec_level")
    if "max_attempts" in lines and protocol not in AUTH_PROTOCOLS:
        raise ConfigError(lines["max_attempts"], "max_attempts needs a login protocol")
    if values.pop("credentials", False):
        if protocol not in AUTH_PROTOCOLS:
            raise ConfigError(lines["credentials"], "credentials = wrong needs a login protocol")
        if protocol is Protocol.P2:
            values["mistype_otp"] = True
        else:
            values["submit_passwords"] = (WRONG_PASSWORD,)
    flags = SessionFlags(**{key: values.pop(key) for key in _FLAG_FIELDS if key in values})
    outer = {key: values.pop(key) for key in _SCENARIO_FIELDS if key in values}
    return Scenario(config=SessionConfig(flags=flags, **values), **outer)


def parse_config(text: str) -> ParsedConfig:
    """Parse a scenario file; every complaint names its line number."""
    scenarios: list[Scenario] = []
    matrix: MatrixRequest | None = None
    section: str | None = None
    values: dict = {}
    lines: dict[str, int] = {}  # key -> the line that set it

    def close(line_no: int) -> None:
        nonlocal matrix
        if section == "matrix":
            matrix = MatrixRequest(**values)
        elif section == "scenario":
            scenarios.append(_build_scenario(values, lines, line_no))

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[scenario]", "[matrix]"):
                raise ConfigError(line_no, f"unknown section {line!r}")
            close(line_no)
            if line == "[matrix]" and matrix is not None:
                raise ConfigError(line_no, "only one [matrix] section allowed")
            section, lines = line[1:-1], {}
            values = {"name": f"scenario-{len(scenarios) + 1}"} if section == "scenario" else {}
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(line_no, "key outside any [scenario] section")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in lines:
            raise ConfigError(line_no, f"duplicate key {key!r} in one scenario")
        lines[key] = line_no
        if section == "matrix" and key not in _MATRIX_KEYS:
            raise ConfigError(line_no, f"unknown key {key!r} in [matrix]")
        expectation = section == "scenario" and key.startswith("expect_")
        parse = _integer if expectation else _SCENARIO_KEYS.get(key)
        if parse is None:
            raise ConfigError(line_no, f"unknown key {key!r}")
        try:
            value = parse(raw, key)
        except ValueError as exc:
            raise ConfigError(line_no, str(exc)) from None
        if expectation:
            values.setdefault("expectations", {})[key[len("expect_") :]] = value
        else:
            values[key] = value

    close(len(text.splitlines()) + 1)
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
    base = scenario.config
    store = CredentialStore.provision(rngmod.child_seed(base.seed, "store", scenario.name))
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    breaches = 0 if scenario.adversary else None
    frame_specs: list[tuple[str, int, str]] = []
    first_session = None

    for trial in range(scenario.trials):
        config = replace(base, seed=rngmod.child_seed(base.seed, scenario.name, str(trial)))
        if scenario.adversary is not None:
            handle, result = run_attacked_session(config, scenario.adversary, store)
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
            actual = breaches
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
        protocol=base.protocol,
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
        lines.append("frame usage (scan seconds are a fitted estimate, never asserted)")
        lines.append("-" * 72)
        for ctx, version, ec in frame_specs:
            spec = qr.FrameSpec(version, qr.EcLevel(ec), qr.Mode.BYTE)
            est = qr.estimated_scan_seconds(spec, SCAN_MODEL_A, SCAN_MODEL_B)
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
