"""visualauth benchmark: one command, three workloads, end to end or traced.

    python3 perfbench/run.py --workload honest_mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``
of the checkout this file sits in, never from an installed copy. With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
repeats a fixed pass of the workload untraced and then traced, and reports
the per-layer metrics (see ``spans.py``). Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every operation's output was correct. Everything runs in this one
process and its one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"  # span files of traced runs

WORKLOADS = ("honest_mix", "matrix", "adverse_scenarios")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import the benchmark's workloads and, through them, the program.

    Returns (workloads module, seconds the imports took), or exits with
    status 1 and no result when the checkout holds no program source.
    """
    if not (SRC / "visualauth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'visualauth'}; run from a full checkout")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports visualauth and cryptography

    import_s = time.perf_counter() - t0
    imported = Path(workloads.protocols.__file__).resolve()
    if SRC.resolve() not in imported.parents:
        sys.exit(f"perfbench: imported visualauth from {imported}, not from {SRC}")
    return workloads, import_s


def git_commit() -> str:
    """The commit checked out at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the program's source files, to identify a non-git checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "visualauth").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(args) -> dict:
    import cryptography

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": 1,
        "threads": 1,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile q (0..100) and the samples above its rank."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def scaled_median(rates: list[float], scales: list[float]) -> float:
    """Median rate at nominal machine speed: each sample times its speed scale."""
    return statistics.median(rate * scale for rate, scale in zip(rates, scales))


def end_to_end(args, workloads, setup: dict, store, env: dict):
    """Untraced run. Returns (gated metrics, more metric lines, tally, fingerprint)."""
    extra = {}
    if args.workload == "honest_mix":
        run = workloads.honest_mix_run(args.seed, args.seconds, store)
        rates, scales = run.window_rates, run.window_scales
        samples = sorted(run.session_ms)
        p50, _ = percentile(samples, 50)
        p99, beyond = percentile(samples, 99)
        extra["session_ms_p50"] = (p50, "ms")
        extra["session_ms_p99"] = (p99, "ms")
        for flow, values in run.flow_ms.items():
            extra[f"flow_ms.{flow}"] = (statistics.median(values), "ms")
        env["sessions"] = len(samples)
        env["fingerprint_sessions"] = workloads.HONEST_PASS
        env["samples"] = {
            "session_ms": len(samples),
            "session_ms_p99_beyond": beyond,
            "flow_ms": {flow: len(values) for flow, values in run.flow_ms.items()},
            "sessions_per_s_windows": len(rates),
            "sessions_per_window": workloads.HONEST_WINDOW,
        }
        if beyond < 10:
            env["warning"] = "fewer than 10 samples beyond session_ms_p99"
    else:
        run = workloads.repeated_passes(args.workload, args.seed, args.seconds)
        rates = [run.sessions_per_pass / s for s in run.pass_s]
        scales = run.pass_scales
        env["passes"] = len(rates)
        env["sessions"] = run.sessions_per_pass * len(rates)
        env["samples"] = {"sessions_per_s_passes": len(rates)}
        if args.workload == "matrix":
            env["trials_per_cell"] = workloads.MATRIX_TRIALS
            extra["trials_per_s"] = (scaled_median(rates, scales), "1/s")
            extra["raw.trials_per_s"] = (statistics.median(rates), "1/s")
        else:
            env["trials_per_scenario"] = workloads.ADVERSE_TRIALS
            env["scenarios_per_pass"] = len(workloads.ADVERSE_SCENARIOS)
    metrics = {
        "setup_s": (setup["scaled_s"], "s"),
        "sessions_per_s": (scaled_median(rates, scales), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra.update({
        "raw.setup_s": (setup["raw_s"], "s"),
        "raw.sessions_per_s": (statistics.median(rates), "1/s"),
        "speed_scale": (statistics.median(scales), "ratio"),
    })
    return metrics, extra, run.tally, run.fingerprint


def traced(args, workloads, env: dict):
    """Repeat one fixed pass untraced and then traced until the time is up.

    Returns (per-layer metrics, tally, fingerprint). Each metric is the
    median over the traced passes; counts repeat exactly from pass to pass.
    The spans of the last traced pass are written to OUT_DIR.
    """
    import spans

    run_pass = workloads.pass_runner(args.workload, args.seed)

    def timed(tracer):
        """(wall seconds, seconds at nominal speed, fingerprint, tally) of one pass."""
        tracker = speed.Tracker()
        t0 = time.perf_counter()
        fingerprint, tally, _ = run_pass(tracer)
        elapsed = time.perf_counter() - t0
        return elapsed, elapsed / tracker.scale(), fingerprint, tally

    total = workloads.Tally()
    per_pass: list[dict] = []
    overheads = []
    fingerprint = None
    deadline = time.perf_counter() + args.seconds
    while not per_pass or time.perf_counter() < deadline:
        _, plain_s, plain_fp, plain_tally = timed(None)
        tracer = spans.Tracer()
        with spans.instrumented(tracer, workloads.PACKAGE):
            traced_wall, traced_s, traced_fp, traced_tally = timed(tracer)
        total.merge(plain_tally)
        total.merge(traced_tally)
        fingerprint = fingerprint or plain_fp
        for label, fp in (("untraced", plain_fp), ("traced", traced_fp)):
            if fp != fingerprint:
                total.add(f"{label} pass {len(per_pass) + 1}: fingerprint differs from pass 1")
        metrics = spans.per_layer_metrics(tracer, traced_wall)
        error_ms = spans.accounting_error_ms(metrics)
        if error_ms > 1e-6 * max(1.0, metrics["trace.wall_ms"]):
            total.add(f"trace pass {len(per_pass) + 1}: self times miss the wall by {error_ms} ms")
        per_pass.append(metrics)
        overheads.append(traced_s / plain_s - 1.0)

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(span_file)
    env["passes"] = len(per_pass)
    env["pass_size"] = {
        "honest_mix": f"{workloads.HONEST_PASS} sessions",
        "matrix": f"24 cells x {workloads.MATRIX_TRIALS} trials",
        "adverse_scenarios": (
            f"{len(workloads.ADVERSE_SCENARIOS)} scenarios x {workloads.ADVERSE_TRIALS} trials"
        ),
    }[args.workload]
    env["span_file"] = str(span_file.relative_to(ROOT))
    env["spans_missing"] = tracer.missing
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), spans.unit_of(name))
        for name in per_pass[0]
    }
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    return metrics, total, fingerprint


def main(argv=None) -> int:
    args = parse_args(argv)
    tracker = speed.Tracker()
    workloads, import_s = import_program()
    import_scale = tracker.scale()
    env = environment(args)
    durations, scales, store = workloads.set_up(args.workload, args.seed)
    # Each part is scaled by the probes taken right around it: the speed at
    # process start differs from the speed later in the run.
    setup = {
        "raw_s": import_s + statistics.median(durations),
        "scaled_s": import_s / import_scale
        + statistics.median(durations) / statistics.median(scales),
    }
    env["setup"] = {"import_s": import_s, "warm_up_s": durations, "repeats": len(durations)}
    misses_after_setup = workloads.generator_cache_misses()

    if args.trace:
        metrics, tally, fingerprint = traced(args, workloads, env)
        extra = {}
    else:
        metrics, extra, tally, fingerprint = end_to_end(args, workloads, setup, store, env)
    misses = workloads.generator_cache_misses()
    env["lazy_setup_in_run"] = None if misses is None else misses - misses_after_setup
    failed_ops_frac = tally.failed / tally.attempted

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric failed_ops_frac {failed_ops_frac!r} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    print(f"fingerprint {args.workload} {fingerprint}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
