"""Config parsing, scenario batches, report rendering, CLI exit codes."""

from __future__ import annotations

import math
import os

import pytest

from visualauth import adversary, crypto, harness, qr
from visualauth.adversary import AdversaryConfig, AdversaryKind, MatrixCell
from visualauth.cli import main
from visualauth.entities import EntityKind, export_transcript
from visualauth.harness import (
    WRONG_PASSWORD,
    ConfigError,
    MatrixRequest,
    NumericCheck,
    Report,
    Scenario,
    machine_records,
    numeric_checks,
    parse_config,
    render_text,
    run_scenario,
    run_scenarios,
)
from visualauth.protocols import Protocol, SessionConfig, SessionFlags

GOOD_CONFIG = """
# three honest logins and a watched one
[scenario]
name = honest-p1
protocol = p1
trials = 5
seed = 31
expect_authenticated = 5

[scenario]
name = wrong-p2
protocol = p2
trials = 4
seed = 32
credentials = wrong
expect_denied = 4

[scenario]
name = watched-p1
protocol = p1
trials = 3
seed = 33
adversary = keylogger
locus = terminal
expect_breaches = 0
"""

FAILING_CONFIG = """
[scenario]
name = doomed
protocol = p1
trials = 2
seed = 41
expect_denied = 2
"""


class TestParsing:
    def test_good_config(self):
        parsed = parse_config(GOOD_CONFIG)
        assert [s.name for s in parsed.scenarios] == ["honest-p1", "wrong-p2", "watched-p1"]
        assert parsed.scenarios[0].config.protocol is Protocol.P1
        assert parsed.scenarios[0].expectations == {"authenticated": 5}
        assert parsed.scenarios[1].config.mistype_otp
        assert parsed.scenarios[2].adversary is not None
        assert parsed.matrix is None

    def test_default_names_number_the_sections(self):
        parsed = parse_config("[scenario]\nprotocol = p1\n\n[scenario]\nprotocol = p2\n")
        assert [s.name for s in parsed.scenarios] == ["scenario-1", "scenario-2"]

    def test_comments_and_blanks_ignored(self):
        parsed = parse_config("# header\n\n[scenario]\nprotocol = p3  # inline\n")
        assert parsed.scenarios[0].config.protocol is Protocol.P3

    def test_matrix_section(self):
        parsed = parse_config("[matrix]\ntrials = 7\nseed = 99\n")
        assert parsed.matrix == MatrixRequest(trials=7, seed=99)
        assert parsed.scenarios == []

    def test_protocol_names_case_insensitive(self):
        parsed = parse_config("[scenario]\nprotocol = TXVERIFY\n")
        assert parsed.scenarios[0].config.protocol is Protocol.TXVERIFY

    @pytest.mark.parametrize(
        "text,line_no,fragment",
        [
            ("[bogus]\n", 1, "unknown section"),
            ("[scenario]\nprotocol = p9\n", 2, "unknown protocol"),
            ("[scenario]\nprotocol = p1\ncolor = red\n", 3, "unknown key"),
            ("protocol = p1\n", 1, "outside any"),
            ("[scenario]\nname = x\ntrials = 3\n", 4, "never named a protocol"),
            ("[scenario]\nprotocol = p1\nprotocol = p2\n", 3, "duplicate key"),
            ("[scenario]\nprotocol = p1\nhijack_guard = maybe\n", 3, "boolean"),
            ("[scenario]\nprotocol = p1\ntrials = soon\n", 3, "integer"),
            ("[matrix]\n\n[matrix]\n", 3, "one [matrix]"),
            ("[scenario]\nprotocol = p1\nadversary = ghost\n", 3, "unknown adversary"),
            ("[scenario]\nprotocol = p1\nadversary = fake_server\n", 3, "unknown adversary"),
            ("[scenario]\nprotocol = p1\nlocus = server\n", 3, "unknown locus"),
            ("[scenario]\nprotocol = p1\nec_level = z\n", 3, "unknown ec level"),
            ("[scenario]\nprotocol = p1\ncredentials = stolen\n", 3, "honest or wrong"),
            ("[scenario]\nprotocol = p1\ntrials = 0\n", 3, "trials must be"),
            ("[scenario]\nprotocol = p1\nseed = 99999999999999999999\n", 3, "64 bits"),
            ("[scenario]\nprotocol = p1\ncorrupt_codewords = -1\n", 3, "corrupt_codewords must be >= 0"),
            ("[scenario]\nprotocol = p1\nmax_attempts = 0\n", 3, "max_attempts must be >= 1"),
            ("[scenario]\nprotocol = p1\nexpect_breaches = 0\n", 3, "needs an adversary"),
            ("[scenario]\nlocus = smartphone\nprotocol = p1\n", 2, "needs an adversary"),
            ("[scenario]\nprotocol = p1\nadversary = none\nlocus = terminal\n", 4, "needs an adversary"),
            ("[scenario]\nprotocol = p1\ncorrupt_codewords = budget+1\ncorrupt_context = keybaord\n", 4, "unknown capture context"),
            ("[scenario]\nprotocol = txverify\ncredentials = wrong\n", 3, "needs a login protocol"),
            ("[scenario]\ncredentials = wrong\nprotocol = secureview\n", 2, "needs a login protocol"),
            ("[scenario]\nprotocol = hijackguard\ncredentials = wrong\n", 3, "needs a login protocol"),
            ("[scenario]\nprotocol = p1\ncorrupt_codewords = budget+1\ncorrupt_context = otp\n", 4, "P1 makes no 'otp' capture"),
            ("[scenario]\nprotocol = hijackguard\ncorrupt_codewords = budget+1\n", 3, "HIJACKGUARD captures no frames"),
            ("[scenario]\nprotocol = p2\nfollowup_budget = 3\n", 3, "unknown key 'followup_budget'"),
            ("[scenario]\nprotocol = hijackguard\nec_level = h\n", 3, "ec_level does nothing: HIJACKGUARD captures no frames"),
            ("[scenario]\nprotocol = txverify\nmax_attempts = 3\n", 3, "max_attempts needs a login protocol"),
            ("[scenario]\nmax_attempts = 2\nprotocol = secureview\n", 2, "max_attempts needs a login protocol"),
            ("[scenario]\nprotocol = hijackguard\nmax_attempts = 3\n", 3, "max_attempts needs a login protocol"),
            ("[scenario]\ndrop_side_copy = on\nprotocol = hijackguard\n", 2, "unknown key 'drop_side_copy'"),
            ("[scenario]\nprotocol = p3\nsign_server_payloads = off\n", 3, "sign_server_payloads needs protocol = p1 or p2"),
            ("[scenario]\nsign_server_payloads = on\nprotocol = txverify\n", 2, "sign_server_payloads needs protocol = p1 or p2"),
            ("[scenario]\nprotocol = p1\ntx_nonce_freshness = off\n", 3, "tx_nonce_freshness needs protocol = txverify"),
            ("[scenario]\nprotocol = hijackguard\ntx_nonce_freshness = off\n", 3, "tx_nonce_freshness needs protocol = txverify"),
            ("[scenario]\nprotocol = p2\nadversary = malware\nhijack_guard = off\n", 4, "hijack_guard needs protocol = hijackguard"),
            ("[scenario]\nhijack_guard = on\nprotocol = txverify\n", 2, "hijack_guard needs protocol = hijackguard"),
            ("[scenario]\nprotocol = p1\nexpect_rainbows = 1\n", 3, "unknown expectation 'expect_rainbows'"),
            ("[scenario]\nprotocol = p1\ntrials = 2\nexpect_authenticatd = 2\n", 4, "unknown expectation"),
            ("[scenario]\nprotocol = p1\ntrials = 2\nexpect_denied = -1\n", 4, "expect_denied must be >= 0"),
            ("[scenario]\nprotocol = p1\nexpect_authenticated = 7\ntrials = 2\n", 3,
             "expect_authenticated = 7 exceeds trials = 2"),
            ("[scenario]\nprotocol = p1\nexpect_aborted = 2\n", 3, "expect_aborted = 2 exceeds trials = 1"),
            ("[scenario]\nprotocol = p1\nadversary = keylogger\nexpect_breaches = 3\ntrials = 2\n", 4,
             "expect_breaches = 3 exceeds trials = 2"),
            ("[scenario]\nprotocol = p1\njust words\n", 3, "key = value"),
            ("[matrix]\ncolor = red\n", 2, "in [matrix]"),
            ("# nothing here\n", 0, "no [scenario]"),
            ("[scenario]\nname = sub/dir\nprotocol = p1\n", 2, "name must match"),
            ("[scenario]\nprotocol = p1\nname = ../x\n", 3, "name must match"),
            ("[scenario]\nname = a|b\nprotocol = p1\n", 2, "name must match"),
            ("[scenario]\nname = twin\nprotocol = p1\n[scenario]\nprotocol = p2\nname = twin\n", 6, "'twin' used twice"),
            ("[scenario]\nprotocol = p1\n[scenario]\nname = scenario-1\nprotocol = p2\n", 4, "used twice"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == line_no
        assert fragment in str(err.value)

    def test_corrupt_codewords_accepts_budget_words(self):
        parsed = parse_config(
            "[scenario]\nprotocol = p1\ncorrupt_codewords = budget\n"
            "[scenario]\nprotocol = p1\ncorrupt_codewords = budget+1\n"
            "[scenario]\nprotocol = p1\ncorrupt_codewords = 3\n"
        )
        values = [s.config.corrupt_codewords for s in parsed.scenarios]
        assert values == ["budget", "budget+1", 3]

    def test_wrong_credential_mapping_per_protocol(self):
        parsed = parse_config(
            "[scenario]\nprotocol = p1\ncredentials = wrong\n"
            "[scenario]\nprotocol = p2\ncredentials = wrong\n"
        )
        p1_cfg = parsed.scenarios[0].config
        p2_cfg = parsed.scenarios[1].config
        assert p1_cfg.submit_passwords == (WRONG_PASSWORD,)
        assert not p1_cfg.mistype_otp
        assert p2_cfg.submit_passwords is None
        assert p2_cfg.mistype_otp

    def test_every_key_lands_on_its_field(self):
        # the transaction keys only mean something on their own flows, so
        # they get a scenario each; between them the three set every key
        text = (
            "[scenario]\nname = every-key\nprotocol = p1\ntrials = 3\nseed = 77\n"
            "adversary = malware\nlocus = smartphone\nsign_server_payloads = off\n"
            "ec_level = h\ncorrupt_codewords = 2\ncorrupt_context = keyboard\n"
            "credentials = wrong\nmax_attempts = 2\n"
            "expect_denied = 3\nexpect_breaches = 0\n"
            "[scenario]\nname = side-copy\nprotocol = hijackguard\nhijack_guard = no\n"
            "[scenario]\nname = stale\nprotocol = txverify\ntx_nonce_freshness = false\n"
        )
        keys = {line.split(" = ")[0] for line in text.splitlines() if " = " in line}
        assert keys - {"expect_denied", "expect_breaches"} == set(harness._SCENARIO_KEYS)
        every_key = Scenario(
            name="every-key",
            config=SessionConfig(
                protocol=Protocol.P1,
                seed=77,
                submit_passwords=(WRONG_PASSWORD,),
                max_attempts=2,
                flags=SessionFlags(sign_server_payloads=False),
                frame_ec=qr.EcLevel.H,
                corrupt_codewords=2,
                corrupt_context="keyboard",
            ),
            trials=3,
            adversary=AdversaryConfig(AdversaryKind.MALWARE, EntityKind.SMARTPHONE),
            expectations={"denied": 3, "breaches": 0},
        )
        side_copy = Scenario(
            name="side-copy",
            config=SessionConfig(protocol=Protocol.HIJACKGUARD, flags=SessionFlags(hijack_guard=False)),
        )
        stale = Scenario(
            name="stale",
            config=SessionConfig(protocol=Protocol.TXVERIFY, flags=SessionFlags(tx_nonce_freshness=False)),
        )
        assert parse_config(text).scenarios == [every_key, side_copy, stale]

    def test_wrong_password_is_typeable_and_wrong(self):
        assert all(ch in crypto.ALPHABET for ch in WRONG_PASSWORD)
        assert WRONG_PASSWORD != "data"


class TestScenarioRuns:
    def test_counts_sum_to_trials(self):
        parsed = parse_config(GOOD_CONFIG)
        for scenario in parsed.scenarios:
            report = run_scenario(scenario)
            assert sum(report.counts.values()) == scenario.trials
            assert report.failures == []

    def test_failed_expectation_is_reported(self):
        parsed = parse_config(FAILING_CONFIG)
        report = run_scenario(parsed.scenarios[0])
        assert report.failures == ["doomed: expected denied=2, got 0"]

    def test_aborted_alias_sums_both_buckets(self):
        parsed = parse_config(
            "[scenario]\nname = shredded\nprotocol = p1\ntrials = 3\nseed = 51\n"
            "corrupt_codewords = budget+1\nexpect_aborted = 3\n"
        )
        report = run_scenario(parsed.scenarios[0])
        assert report.failures == []
        assert report.counts["aborted_retryable"] == 3

    def test_count_past_the_frame_is_refused(self):
        parsed = parse_config(
            "[scenario]\nname = overkill\nprotocol = p1\ntrials = 2\nseed = 54\n"
            "corrupt_codewords = 5000\nexpect_aborted = 2\n"
        )
        report = run_scenario(parsed.scenarios[0])
        assert report.failures == []
        assert report.counts["aborted_retryable"] == 2

    def test_adversary_breach_counting(self):
        parsed = parse_config(
            "[scenario]\nname = spied\nprotocol = p3\ntrials = 2\nseed = 52\n"
            "adversary = keylogger\nlocus = smartphone\nexpect_breaches = 2\n"
        )
        report = run_scenario(parsed.scenarios[0])
        assert report.failures == []
        assert report.breaches == 2

    def test_a_scenario_mounts_one_alteration_probe(self, spy):
        # the trials share one attempts map, as run_matrix's sessions do:
        # the probe, a value of (locus, flags), runs once per scenario, and
        # each trial still mounts its own follow-up, keyed by its seed
        followups, probes = spy(adversary, "run_flow"), spy(adversary, "run_hijack_guard")
        parsed = parse_config(
            "[scenario]\nname = infected\nprotocol = p2\ntrials = 3\nseed = 61\n"
            "adversary = malware\nlocus = smartphone\nexpect_breaches = 3\n"
        )
        report = run_scenario(parsed.scenarios[0])
        assert report.failures == []
        assert (len(followups), len(probes)) == (3 + 3, 1)

    @pytest.mark.parametrize("protocol", ["txverify", "secureview", "hijackguard"])
    def test_malware_over_a_flow_with_no_login_breaches_nothing(self, protocol):
        # a flow with no login has no later login to try: no trial breaches,
        # and no login's replay is looked up for it
        for locus in ("terminal", "smartphone"):
            parsed = parse_config(
                f"[scenario]\nname = infected\nprotocol = {protocol}\ntrials = 2\nseed = 62\n"
                f"adversary = malware\nlocus = {locus}\nexpect_breaches = 0\n"
            )
            report = run_scenario(parsed.scenarios[0])
            assert (report.breaches, report.failures) == (0, []), locus

    def test_honest_scenario_has_no_breach_column(self):
        parsed = parse_config("[scenario]\nprotocol = p1\n")
        report = run_scenario(parsed.scenarios[0])
        assert report.breaches is None

    def test_frame_specs_recorded_from_first_trial(self):
        parsed = parse_config("[scenario]\nname = f\nprotocol = p1\ntrials = 2\nseed = 53\n")
        report = run_scenario(parsed.scenarios[0])
        contexts = [ctx for _, ctx, _ in report.first_session.frame_log]
        assert contexts == ["keyboard"]


class TestNumericChecks:
    def test_all_pass(self):
        for check in numeric_checks():
            assert check.passed, check.name

    def test_entropy_values(self):
        by_name = {check.name: check for check in numeric_checks()}
        assert round(by_name["log2(36!)"].computed, 4) == 138.0943
        assert round(by_name["36*log2(36)"].computed, 4) == 186.1173
        assert by_name["log2(36!)"].tolerance == 0.5
        assert by_name["36*log2(36)"].tolerance == 1.0

    def test_capacity_checks_are_exact(self):
        by_name = {check.name: check for check in numeric_checks()}
        assert by_name["max_capacity_numeric"].computed == 7089
        assert by_name["max_capacity_alphanumeric"].computed == 4296
        assert by_name["max_capacity_byte"].computed == 2953
        assert by_name["capacity_v2_M_alnum"].comparison == "at_least"
        assert by_name["capacity_v2_M_alnum"].computed == 38

    def test_independent_recomputation(self):
        by_name = {check.name: check for check in numeric_checks()}
        assert abs(by_name["log2(36!)"].computed - math.lgamma(37) / math.log(2)) < 1e-9


class TestReports:
    def _report(self, text):
        parsed = parse_config(text)
        report = Report(checks=numeric_checks())
        for scenario in parsed.scenarios:
            report.scenarios.append(run_scenario(scenario))
        return report

    def test_same_config_same_bytes(self):
        a = self._report(GOOD_CONFIG)
        b = self._report(GOOD_CONFIG)
        assert machine_records(a) == machine_records(b)
        assert render_text(a) == render_text(b)

    def test_ok_report_renders_pass(self):
        report = self._report(GOOD_CONFIG)
        assert report.ok
        text = render_text(report)
        assert "RESULT: pass" in text
        assert "fitted estimate, never asserted" in text
        machine = machine_records(report)
        assert machine.rstrip().splitlines()[-1] == "result|pass"

    def test_failing_report_renders_failures(self):
        report = self._report(FAILING_CONFIG)
        assert not report.ok
        assert "RESULT: FAIL" in render_text(report)
        assert any(line.startswith("failure|") for line in machine_records(report).splitlines())

    def test_a_mismatched_cell_and_a_failed_check_are_reported(self):
        cell = MatrixCell(Protocol.P1, AdversaryKind.KEYLOGGER, EntityKind.TERMINAL, 100, 1, expected_resist=True)
        check = NumericCheck("log2(36!)", 140.0, 138.0, 0.5, passed=False)
        report = Report(matrix=[cell], checks=[check])
        text = render_text(report).splitlines()
        assert "P1        keylogger         FAIL breach 1/100  " in text
        assert "FAIL  log2(36!)                    computed=140.0000 expected=138 tol=0.5" in text
        assert text[-3:] == [
            "RESULT: FAIL",
            "  matrix: P1/keylogger/terminal expected resist, got 1/100 breaches",
            "  check: log2(36!) computed 140.0 vs 138.0",
        ]
        assert machine_records(report).splitlines() == [
            "cell|P1|keylogger|terminal|trials=100|breaches=1|expected=resist|FAIL",
            "check|log2(36!)|computed=140.0|expected=138.0|tol=0.5|within|FAIL",
            "failure|matrix: P1/keylogger/terminal expected resist, got 1/100 breaches",
            "failure|check: log2(36!) computed 140.0 vs 138.0",
            "result|FAIL",
        ]

    def test_machine_records_are_pipe_delimited(self):
        report = self._report(GOOD_CONFIG)
        for line in machine_records(report).rstrip().splitlines():
            assert line.split("|")[0] in ("scenario", "cell", "check", "failure", "result")

    def test_scenario_line_shape(self):
        report = self._report("[scenario]\nname = solo\nprotocol = p2\ntrials = 2\nseed = 61\n")
        line = next(
            l for l in machine_records(report).splitlines() if l.startswith("scenario|solo")
        )
        assert line == "scenario|solo|P2|trials=2|authenticated=2"

    def test_matrix_through_config_file(self, tmp_path):
        path = tmp_path / "matrix.cfg"
        path.write_text("[matrix]\ntrials = 1\nseed = 71\n")
        report = run_scenarios(str(path))
        assert len(report.matrix) == 24
        assert report.ok
        text = render_text(report)
        assert "resistance matrix (1 seeded trials per cell)" in text
        lines = text.splitlines()
        assert lines[lines.index("resistance matrix (1 seeded trials per cell)") + 1] == (
            "a cell scores later authentication only: whether the loot logs in to a fresh session"
        )
        cells = [l for l in machine_records(report).splitlines() if l.startswith("cell|")]
        assert len(cells) == 24
        assert all(line.endswith("|OK") for line in cells)


class TestArtifactExport:
    def test_transcripts_and_frames_written(self, tmp_path):
        parsed = parse_config("[scenario]\nname = art\nprotocol = p3\nseed = 81\n")
        report = Report(scenarios=[run_scenario(parsed.scenarios[0])])
        frames_dir = tmp_path / "frames"
        transcripts_dir = tmp_path / "transcripts"
        harness.export_artifacts(report, str(frames_dir), str(transcripts_dir))

        transcript_path = transcripts_dir / "art.transcript"
        assert transcript_path.read_text() == export_transcript(
            report.scenarios[0].first_session
        )
        dumps = sorted(os.listdir(frames_dir))
        assert len(dumps) == 2  # nonce challenge + credential upload
        for name in dumps:
            content = (frames_dir / name).read_text()
            assert content.startswith("QRV ")
            assert name.endswith(".qrv")

    def test_export_is_optional_per_direction(self, tmp_path):
        parsed = parse_config("[scenario]\nname = half\nprotocol = p1\nseed = 82\n")
        report = Report(scenarios=[run_scenario(parsed.scenarios[0])])
        only_transcripts = tmp_path / "t"
        harness.export_artifacts(report, None, str(only_transcripts))
        assert (only_transcripts / "half.transcript").exists()
        assert not (tmp_path / "frames").exists()


class TestCli:
    def test_checks_pass(self, capsys):
        assert main(["checks"]) == 0
        out = capsys.readouterr().out
        assert "numeric checks" in out
        assert "RESULT: pass" in out

    def test_checks_machine_format(self, capsys):
        assert main(["checks", "--machine"]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert all(l.startswith(("check|", "result|")) for l in lines)
        assert lines[-1] == "result|pass"

    def test_run_good_config(self, tmp_path, capsys):
        path = tmp_path / "good.cfg"
        path.write_text(GOOD_CONFIG)
        assert main(["run", str(path)]) == 0
        assert "RESULT: pass" in capsys.readouterr().out

    def test_run_failing_expectations(self, tmp_path, capsys):
        path = tmp_path / "fail.cfg"
        path.write_text(FAILING_CONFIG)
        assert main(["run", str(path)]) == 1
        assert "RESULT: FAIL" in capsys.readouterr().out

    def test_run_an_impossible_expectation_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "impossible.cfg"
        path.write_text("[scenario]\nprotocol = p1\ntrials = 2\nexpect_denied = -1\nexpect_authenticated = 7\n")
        assert main(["run", str(path)]) == 2
        assert "config error: line 4: expect_denied must be >= 0" in capsys.readouterr().err

    def test_run_an_ec_level_no_frame_holds_ends_in_verdicts(self, tmp_path, capsys):
        # at q the P1 and TXVERIFY challenges fit no frame up to version 10,
        # and at h the P2 one too
        flows = [("p1", "q"), ("txverify", "q"), ("p1", "h"), ("p2", "h"), ("txverify", "h")]
        path = tmp_path / "ec.cfg"
        path.write_text("".join(
            f"[scenario]\nprotocol = {flow}\nec_level = {ec}\nseed = 3\nexpect_aborted_fatal = 1\n" for flow, ec in flows
        ))
        assert main(["run", str(path)]) == 0
        assert "RESULT: pass" in capsys.readouterr().out
        reasons = [run_scenario(s).first_session.abort_reason for s in parse_config(path.read_text()).scenarios]
        assert reasons == [
            "keyboard_frame_over_capacity", "tx_confirmation_frame_over_capacity",
            "keyboard_frame_over_capacity", "otp_frame_over_capacity", "tx_confirmation_frame_over_capacity",
        ]

    def test_run_missing_file(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("unreadable", ["directory", "undecodable"])
    def test_run_unreadable_config(self, tmp_path, capsys, unreadable):
        path = tmp_path
        if unreadable == "undecodable":
            path = tmp_path / "binary.cfg"
            path.write_bytes(b"[scenario]\nname = \xff\n")
        assert main(["run", str(path)]) == 2
        assert f"config error: cannot read {str(path)!r}: " in capsys.readouterr().err

    def test_run_unparseable_config(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("[scenario]\nprotocol = p9\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 2" in err

    def test_run_exports_artifacts(self, tmp_path, capsys):
        path = tmp_path / "good.cfg"
        path.write_text("[scenario]\nname = cliart\nprotocol = p1\nseed = 83\n")
        frames = tmp_path / "f"
        transcripts = tmp_path / "t"
        code = main(
            ["run", str(path), "--dump-frames", str(frames), "--transcripts", str(transcripts)]
        )
        capsys.readouterr()
        assert code == 0
        assert (transcripts / "cliart.transcript").exists()
        assert any(n.endswith(".qrv") for n in os.listdir(frames))

    def test_run_refuses_a_path_in_a_name(self, tmp_path, capsys):
        path = tmp_path / "escape.cfg"
        path.write_text("[scenario]\nprotocol = p1\nname = sub/dir\n")
        transcripts = tmp_path / "t"
        assert main(["run", str(path), "--transcripts", str(transcripts)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not transcripts.exists()

    def test_artifacts_land_directly_in_their_directories(self, tmp_path, capsys):
        path = tmp_path / "names.cfg"
        path.write_text(
            "[scenario]\nname = v1..2\nprotocol = p3\nseed = 84\n"
            "[scenario]\nname = A_b-c.d\nprotocol = p1\nseed = 85\n"
            "[scenario]\nprotocol = txverify\nseed = 86\n"
        )
        frames, transcripts = tmp_path / "f", tmp_path / "t"
        code = main(["run", str(path), "--dump-frames", str(frames), "--transcripts", str(transcripts)])
        capsys.readouterr()
        assert code == 0
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p != path]
        assert all(p.parent in (frames, transcripts) for p in written)
        assert sorted(p.name for p in transcripts.iterdir()) == [
            "A_b-c.d.transcript", "scenario-3.transcript", "v1..2.transcript",
        ]
        prefixes = ("v1..2_", "A_b-c.d_", "scenario-3_")
        dumps = list(frames.iterdir())
        assert dumps and all(p.name.startswith(prefixes) for p in dumps)

    def test_matrix_exit_codes(self, capsys):
        assert main(["matrix", "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        assert main(["matrix", "--trials", "1", "--seed", "-5"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert main(["matrix", "--trials", "1", "--seed", "7", "--machine"]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert sum(1 for l in lines if l.startswith("cell|")) == 24
        assert lines[-1] == "result|pass"

    def test_matrix_that_disagrees_with_its_expectations_exits_1(self, monkeypatch, capsys):
        # expecting every cell to resist, the three conceded cells mismatch
        monkeypatch.setattr(adversary, "BROKEN_CELLS", frozenset())
        assert main(["matrix", "--trials", "1", "--seed", "7", "--machine"]) == 1
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert [l for l in lines if l.startswith("failure|")] == [
            "failure|matrix: P2/malware/smartphone expected resist, got 1/1 breaches",
            "failure|matrix: P3/keylogger/smartphone expected resist, got 1/1 breaches",
            "failure|matrix: P3/malware/smartphone expected resist, got 1/1 breaches",
        ]
        assert lines[-1] == "result|FAIL"

    def test_usage_errors_return_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["frobnicate"]) == 2
