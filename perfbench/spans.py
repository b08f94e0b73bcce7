"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces module attributes and class methods of ``visualauth``
with timing wrappers, at the names the callers actually look up (a module
global such as ``qr.rs_parity``, or ``adversary.run_flow`` for the flows the
adversary starts). Nothing under ``src/`` changes. The recursive
``canonical_bytes`` is deliberately not wrapped: a span per recursion step
would cost more than the work it times.

Each span records its name, start, end, parent span and the id of the
top-level operation it belongs to, plus the exception type it ended with,
if any. Spans stay in memory; the caller writes them out after the pass
(``Tracer.write``). A name the program no
longer defines is skipped and listed in ``Tracer.missing``, so the
benchmark still runs on a refactored program; its counts then read 0.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

# (module name, attribute, span name). The span name is "<layer>.<function>",
# the layer being the module that owns the code.
FUNCTION_SPANS = (
    ("qr", "rs_parity", "qr.rs_parity"),
    ("qr", "qr_encode", "qr.qr_encode"),
    ("qr", "qr_decode", "qr.qr_decode"),
    ("qr", "corrupt", "qr.corrupt"),
    ("crypto", "encrypt", "crypto.encrypt"),
    ("crypto", "decrypt", "crypto.decrypt"),
    ("crypto", "sign", "crypto.sign"),
    ("crypto", "verify", "crypto.verify"),
    ("crypto", "generate_keypair", "crypto.generate_keypair"),
    ("entities", "deliver", "entities.deliver"),
    ("protocols", "build_session", "protocols.build_session"),
    ("adversary", "run_flow", "adversary.run_flow"),
    ("adversary", "run_hijack_guard", "adversary.run_hijack_guard"),
    ("adversary", "evaluate", "adversary.evaluate"),
    ("adversary", "run_attacked_session", "adversary.run_attacked_session"),
    ("adversary", "brute_force_guessing", "adversary.brute_force_guessing"),
    ("harness", "run_scenario", "harness.run_scenario"),
    ("harness", "parse_config", "harness.parse_config"),
    ("rng", "child_seed", "rng.child_seed"),
)

# (module name, class, method, span name)
METHOD_SPANS = (
    ("entities", "Entity", "take_snapshot", "entities.take_snapshot"),
    ("entities", "Entity", "handle", "protocols.handler"),
    ("entities", "Message", "digest", "entities.digest"),
)

LAYERS = ("qr", "crypto", "entities", "protocols", "adversary", "harness", "rng")
FLOWS = ("P1", "P2", "P3", "TXVERIFY", "SECUREVIEW", "HIJACKGUARD")

# Counted exceptions: a refused decode and a rejected ciphertext.
REFUSED = ("qr.qr_decode", "UncorrectableFrameError")
REJECTED = ("crypto.decrypt", "IntegrityError")


class Tracer:
    """In-memory span store. One instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.errors: list[str | None] = []
        self.op_labels: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, label: str) -> None:
        """Start a new top-level operation; later spans carry its id."""
        self.op_labels.append(label)
        self._op = len(self.op_labels) - 1

    def call(self, name, fn, args, kwargs):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.errors.append(None)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[index] = type(exc).__name__
            raise
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span of the benchmark's own."""
        return self.call(name, fn, args, kwargs)

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\top\tparent\tname\tstart_s\tend_s\terror\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.ops[i]}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\t{self.errors[i] or ''}\n"
                )


def _function_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _snapshot_wrapper(tracer: Tracer, name: str, fn):
    # Entity.take_snapshot also counts the bytes the snapshot holds.
    def wrapper(entity, *args, **kwargs):
        before = len(entity.snapshots)
        result = tracer.call(name, fn, (entity,) + args, kwargs)
        for _, blob in entity.snapshots[before:]:
            tracer.counters["snapshot_bytes"] += len(blob)
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer, package: dict):
    """Install every wrapper for the duration of the block.

    package maps module names ("qr", "crypto", ...) to the imported modules.
    """
    installed = []
    try:
        for module_name, attr, name in FUNCTION_SPANS:
            module = package[module_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                tracer.missing.append(name)
                continue
            setattr(module, attr, _function_wrapper(tracer, name, fn))
            installed.append((module, attr, fn))
        for module_name, class_name, method, name in METHOD_SPANS:
            cls = getattr(package[module_name], class_name, None)
            fn = cls.__dict__.get(method) if cls is not None else None
            if not callable(fn):
                tracer.missing.append(name)
                continue
            make = _snapshot_wrapper if method == "take_snapshot" else _function_wrapper
            setattr(cls, method, make(tracer, name, fn))
            installed.append((cls, method, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(installed):
            setattr(owner, attr, fn)


def per_layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Derive the per-layer metrics of one traced pass.

    wall_s is the traced pass's wall time, measured by the caller around the
    whole pass. Every span's self time is its duration minus the durations
    of its direct children; the self times of all spans plus the gaps between
    top-level spans add up to wall_s.
    """
    n = len(tracer.names)
    child_time = [0.0] * n
    for i in range(n):
        parent = tracer.parents[i]
        if parent >= 0:
            child_time[parent] += tracer.ends[i] - tracer.starts[i]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    errors: dict[tuple[str, str], int] = defaultdict(int)
    top_level = 0.0
    for i, name in enumerate(tracer.names):
        duration = tracer.ends[i] - tracer.starts[i]
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - child_time[i]
        if tracer.errors[i] is not None:
            errors[(name, tracer.errors[i])] += 1
        if tracer.parents[i] < 0:
            top_level += duration

    def ms(seconds: float) -> float:
        return seconds * 1000.0

    def has_ancestor(i: int, name: str) -> bool:
        parent = tracer.parents[i]
        while parent >= 0:
            if tracer.names[parent] == name:
                return True
            parent = tracer.parents[parent]
        return False

    m: dict[str, float] = {}
    for name in ("qr.rs_parity", "qr.corrupt", "entities.deliver", "entities.take_snapshot",
                 "rng.child_seed"):
        m[f"{name}.calls"] = calls[name]
    for fn in ("encrypt", "decrypt", "sign", "verify", "generate_keypair"):
        m[f"crypto.{fn}.calls"] = calls[f"crypto.{fn}"]
        m[f"crypto.{fn}.ms"] = ms(total[f"crypto.{fn}"])
    for name in ("qr.rs_parity", "entities.take_snapshot", "entities.digest", "entities.scan",
                 "protocols.build_session", "adversary.run_attacked_session",
                 "adversary.brute_force_guessing", "harness.parse_config", "rng.child_seed"):
        m[f"{name}.ms"] = ms(total[name])
    for name in ("qr.qr_encode", "qr.qr_decode", "entities.deliver", "protocols.handler",
                 "adversary.evaluate", "harness.run_scenario"):
        m[f"{name}.self_ms"] = ms(self_time[name])
    m["qr.qr_decode.refused"] = errors[REFUSED]
    m["crypto.decrypt.rejected"] = errors[REJECTED]

    # rs_parity calls per session of each flow, where ops are labelled by
    # flow (honest_mix); 0 on workloads whose ops carry no flow label.
    flow_sessions: dict[str, int] = defaultdict(int)
    flow_parity: dict[str, int] = defaultdict(int)
    for i, name in enumerate(tracer.names):
        if name == "protocols.build_session" and tracer.ops[i] >= 0:
            flow_sessions[tracer.op_labels[tracer.ops[i]]] += 1
        elif name == "qr.rs_parity" and tracer.ops[i] >= 0:
            flow_parity[tracer.op_labels[tracer.ops[i]]] += 1
    for flow in FLOWS:
        sessions = flow_sessions[flow]
        m[f"qr.rs_parity.calls_per_session.{flow}"] = (
            flow_parity[flow] / sessions if sessions else 0.0
        )

    sessions = calls["protocols.build_session"]
    m["entities.snapshot_bytes_per_session"] = (
        tracer.counters["snapshot_bytes"] / sessions if sessions else 0.0
    )
    m["entities.scan.sightings"] = tracer.counters["scan_sightings"]
    m["protocols.deliveries_per_session"] = (
        calls["entities.deliver"] / sessions if sessions else 0.0
    )

    # A follow-up or alteration session is one the adversary starts while
    # evaluating a trial; the attacked session itself also goes through
    # adversary.run_flow, but under run_attacked_session.
    trials = calls["adversary.run_attacked_session"]
    followups = sum(
        1 for i, name in enumerate(tracer.names)
        if name == "adversary.run_flow" and has_ancestor(i, "adversary.evaluate")
    )
    alterations = sum(
        1 for i, name in enumerate(tracer.names)
        if name == "adversary.run_hijack_guard" and has_ancestor(i, "adversary.evaluate")
    )
    m["adversary.followup_sessions_per_trial"] = followups / trials if trials else 0.0
    m["adversary.alteration_sessions_per_trial"] = alterations / trials if trials else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_time.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = ms(layer_self[layer])
    layers_ms = ms(sum(layer_self.values()))
    # The remainder is traced wall time that no layer span covers: the
    # benchmark's own op spans (bench.*) plus the gaps between top-level spans.
    m["trace.wall_ms"] = ms(wall_s)
    m["trace.remainder_ms"] = ms(wall_s) - layers_ms
    m["trace.bench_self_ms"] = ms(
        sum(seconds for name, seconds in self_time.items() if name.startswith("bench."))
    )
    m["trace.gap_ms"] = ms(wall_s - top_level)
    m["trace.spans"] = n
    m["trace.sessions"] = sessions
    m["trace.ops"] = len(tracer.op_labels)
    return m


def unit_of(name: str) -> str:
    """The unit of a metric per_layer_metrics returns, from its name."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes_per_session"):
        return "bytes/session"
    if name.endswith("per_session") or ".calls_per_session." in name:
        return "count/session"
    if name.endswith("per_trial"):
        return "count/trial"
    return "count"


def accounting_error_ms(m: dict[str, float]) -> float:
    """How far layer self times + bench self time + gaps miss the wall time.

    The three are summed from independent span sums; a tracer that lost,
    overlapped or double-counted a span shows here as more than rounding.
    """
    layers = sum(m[f"{layer}.self_ms"] for layer in LAYERS)
    return abs(layers + m["trace.bench_self_ms"] + m["trace.gap_ms"] - m["trace.wall_ms"])
