"""Config parsing, scenario batches, report rendering, CLI exit codes."""

from __future__ import annotations

import math
import os

import pytest

from visualauth import crypto, harness, qr
from visualauth.adversary import AdversaryConfig, AdversaryKind
from visualauth.cli import main
from visualauth.entities import EntityKind, export_transcript
from visualauth.harness import (
    WRONG_PASSWORD,
    ConfigError,
    MatrixRequest,
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
            ("[scenario]\nprotocol = p1\nadversary = brute_force\nfollowup_budget = -5\n", 4, "followup_budget must be >= 1"),
            ("[matrix]\nfollowup_budget = -1\n", 2, "followup_budget must be >= 1"),
            ("[scenario]\nprotocol = p1\ncorrupt_codewords = budget+1\ncorrupt_context = otp\n", 4, "P1 makes no 'otp' capture"),
            ("[scenario]\nprotocol = hijackguard\ncorrupt_codewords = budget+1\n", 3, "HIJACKGUARD captures no frames"),
            ("[scenario]\nprotocol = p2\nfollowup_budget = 3\n", 3, "followup_budget needs an adversary"),
            ("[scenario]\nprotocol = hijackguard\nec_level = h\n", 3, "ec_level does nothing: HIJACKGUARD captures no frames"),
            ("[scenario]\nprotocol = txverify\nmax_attempts = 3\n", 3, "max_attempts needs a login protocol"),
            ("[scenario]\nmax_attempts = 2\nprotocol = secureview\n", 2, "max_attempts needs a login protocol"),
            ("[scenario]\nprotocol = hijackguard\nmax_attempts = 3\n", 3, "max_attempts needs a login protocol"),
            ("[scenario]\ndrop_side_copy = on\nprotocol = p2\n", 2, "drop_side_copy needs protocol = hijackguard"),
            ("[scenario]\nprotocol = p1\njust words\n", 3, "key = value"),
            ("[matrix]\ncolor = red\n", 2, "in [matrix]"),
            ("# nothing here\n", 0, "no [scenario]"),
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
        # drop_side_copy only means something on HIJACKGUARD, so it gets a
        # second scenario; between them the two set every key
        text = (
            "[scenario]\nname = every-key\nprotocol = p1\ntrials = 3\nseed = 77\n"
            "adversary = malware\nlocus = smartphone\nsign_server_payloads = off\n"
            "hijack_guard = no\ntx_nonce_freshness = false\n"
            "ec_level = h\ncorrupt_codewords = 2\ncorrupt_context = keyboard\n"
            "credentials = wrong\nmax_attempts = 2\nfollowup_budget = 5\n"
            "expect_denied = 3\nexpect_breaches = 0\n"
            "[scenario]\nname = side-copy\nprotocol = hijackguard\ndrop_side_copy = yes\n"
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
                flags=SessionFlags(
                    sign_server_payloads=False, hijack_guard=False, tx_nonce_freshness=False
                ),
                frame_ec=qr.EcLevel.H,
                corrupt_codewords=2,
                corrupt_context="keyboard",
            ),
            trials=3,
            adversary=AdversaryConfig(AdversaryKind.MALWARE, EntityKind.SMARTPHONE),
            followup_budget=5,
            expectations={"denied": 3, "breaches": 0},
        )
        side_copy = Scenario(
            name="side-copy",
            config=SessionConfig(protocol=Protocol.HIJACKGUARD, drop_side_copy=True),
        )
        assert parse_config(text).scenarios == [every_key, side_copy]

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

    def test_unknown_expectation_is_reported(self):
        parsed = parse_config("[scenario]\nprotocol = p1\nexpect_rainbows = 1\n")
        report = run_scenario(parsed.scenarios[0])
        assert any("unknown expectation" in f for f in report.failures)

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

    def test_honest_scenario_has_no_breach_column(self):
        parsed = parse_config("[scenario]\nprotocol = p1\n")
        report = run_scenario(parsed.scenarios[0])
        assert report.breaches is None

    def test_frame_specs_recorded_from_first_trial(self):
        parsed = parse_config("[scenario]\nname = f\nprotocol = p1\ntrials = 2\nseed = 53\n")
        report = run_scenario(parsed.scenarios[0])
        contexts = [ctx for ctx, _, _ in report.frame_specs]
        assert contexts == ["keyboard_challenge"]


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

    def test_run_missing_file(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

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

    def test_matrix_exit_codes(self, capsys):
        assert main(["matrix", "--trials", "0"]) == 2
        capsys.readouterr()
        assert main(["matrix", "--trials", "1", "--seed", "7", "--machine"]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert sum(1 for l in lines if l.startswith("cell|")) == 24
        assert lines[-1] == "result|pass"

    def test_usage_errors_return_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["frobnicate"]) == 2
