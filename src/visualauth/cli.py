"""Command-line front end.

    visualauth run <config> [--machine] [--dump-frames DIR] [--transcripts DIR]
    visualauth matrix [--trials N] [--seed S] [--machine]
    visualauth checks [--machine]

Exit codes: 0 everything passed, 1 an assertion or expected-pattern check
failed, 2 the config (or invocation) was unusable.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .adversary import run_matrix


def _key_type(key: str):
    """The config file's parser for key, as an argparse type."""

    def convert(raw: str):
        try:
            return harness._SCENARIO_KEYS[key](raw, key)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visualauth",
        description="Seeded simulation harness for the visual-channel login protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config file")
    run_p.add_argument("config", help="path to a [scenario] key=value file")
    run_p.add_argument("--machine", action="store_true", help="emit line records instead of tables")
    run_p.add_argument("--dump-frames", metavar="DIR", help="write trial-0 frame dumps here")
    run_p.add_argument("--transcripts", metavar="DIR", help="write trial-0 transcripts here")

    matrix_p = sub.add_parser("matrix", help="run the full protocol x adversary matrix")
    matrix_p.add_argument("--trials", type=_key_type("trials"), default=harness.MatrixRequest.trials)
    matrix_p.add_argument("--seed", type=_key_type("seed"), default=harness.MatrixRequest.seed)
    matrix_p.add_argument("--machine", action="store_true")

    checks_p = sub.add_parser("checks", help="recompute the entropy/capacity arithmetic")
    checks_p.add_argument("--machine", action="store_true")
    return parser


def _emit(report: harness.Report, machine: bool) -> None:
    text = harness.machine_records(report) if machine else harness.render_text(report)
    sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize the value
        return 2 if exc.code not in (0, None) else 0

    if args.command == "run":
        try:
            report = harness.run_scenarios(args.config)
        except FileNotFoundError:
            print(f"config error: no such file {args.config!r}", file=sys.stderr)
            return 2
        except (OSError, UnicodeDecodeError) as exc:
            print(f"config error: cannot read {args.config!r}: {exc}", file=sys.stderr)
            return 2
        except harness.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        harness.export_artifacts(report, args.dump_frames, args.transcripts)
        _emit(report, args.machine)
        return 0 if report.ok else 1

    if args.command == "matrix":
        report = harness.Report(matrix=run_matrix(args.seed, args.trials))
        _emit(report, args.machine)
        return 0 if report.ok else 1

    if args.command == "checks":
        report = harness.Report(checks=harness.numeric_checks())
        _emit(report, args.machine)
        return 0 if report.ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
