"""Layer-boundary spans for the traced benchmark run.

The program's own tracer (:mod:`repro.obs`) stays off in every benchmark run,
so the per-layer numbers come from this module instead: :func:`install`
wraps the public entry point of each layer *where the callers look it up*
(a module that did ``from x import f`` holds its own reference, so both
names are patched), records one :class:`Span` per call in memory, and
closing the :class:`contextlib.ExitStack` it returns puts every original
back.  The tracer records only while a round is open
(:attr:`Tracer.active`), so untimed work between rounds leaves no spans.  Nothing under ``src/`` changes.

Parents are tracked per asyncio task and per thread through a
:class:`contextvars.ContextVar`, so interleaved service requests nest
correctly.  A span opened in a thread with no open span (the compile
service's executor thread) is parented under the current round.  Spans of
one op (a sweep cell, a Toffoli triplet, a service request) carry the same
``op`` id.

A layer's *self* time is its span's duration minus the durations of its
child spans.  Within one round every span descends from the round span, so
the self times of all spans add up to the round's duration.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from unittest import mock


@dataclass
class Span:
    """One call into a layer: name, clock interval, parent and op id."""

    span_id: int
    parent_id: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0
    op: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "layer": self.layer,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "op": self.op,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans in memory while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Parent for spans opened where no span is open (executor threads).
        self.fallback: Optional[Span] = None

    def start(self, layer: str, name: str, new_op: bool = False):
        """Open a span under the current one; returns it and a reset token."""
        parent = self._current.get() or self.fallback
        op = next(self._ops) if new_op else (parent.op if parent else None)
        span = Span(next(self._ids), parent.span_id if parent else None, layer, name,
                    time.perf_counter(), op=op)
        return span, self._current.set(span)

    def finish(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    def child(self, parent: Span, layer: str, name: str, start: float,
              duration: float, **attrs: Any) -> None:
        """Record a finished leaf span under ``parent``."""
        self.spans.append(Span(
            next(self._ids), parent.span_id, layer, name,
            start, start + duration, parent.op, attrs,
        ))


def _wrap(tracer: Tracer, layer: str, name: str, fn: Callable,
          after: Optional[Callable] = None, new_op: bool = False) -> Callable:
    """``fn`` inside a span; ``after(span, args, kwargs, result)`` annotates it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span, token = tracer.start(layer, name, new_op=new_op)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        finally:
            tracer.finish(span, token)

    return traced


def op_clock(durations: List[float], tracer: Optional[Tracer], fn: Callable) -> Callable:
    """Time each call of a driver's cell function as one op.

    Untraced runs need per-op latency too, and the drivers expose no op
    boundary, so this wrapper (two clock reads per op) is the one patch an
    untraced run installs.  In a traced run it also opens the op's span.
    """
    if tracer is not None:
        fn = _wrap(tracer, "experiments", "experiments.cell", fn, new_op=True)

    @functools.wraps(fn)
    def timed(payload):
        start = time.perf_counter()
        try:
            return fn(payload)
        finally:
            durations.append(time.perf_counter() - start)

    return timed


def install(tracer: Tracer) -> contextlib.ExitStack:
    """Wrap every layer entry point the workloads reach; see module docs.

    Closing the returned stack undoes every patch, in reverse order.
    """
    from repro.bench_circuits import suite
    from repro.compiler.result import CompilationResult
    from repro.experiments import benchmarks as sweep_driver
    from repro.experiments import toffoli as toffoli_driver
    from repro.runtime.runner import CellRunner
    from repro.service import jobs
    from repro.service.cache import ShardedLRUCache
    from repro.service import service as service_module
    from repro.service.service import CompileService
    import repro.sim

    stack = contextlib.ExitStack()

    def patch(owner: Any, attr: str, value: Any) -> None:
        stack.enter_context(mock.patch.object(owner, attr, value))

    build = _wrap(tracer, "bench_circuits", "bench_circuits.get_benchmark",
                  suite.get_benchmark)
    patch(suite, "get_benchmark", build)
    patch(sweep_driver, "get_benchmark", build)

    patch(jobs, "to_qasm", _wrap(tracer, "circuits", "circuits.to_qasm", jobs.to_qasm))
    patch(jobs, "from_qasm",
                _wrap(tracer, "circuits", "circuits.from_qasm", jobs.from_qasm))

    for attr in ("from_circuit", "from_qasm"):
        original = jobs.CompileJob.__dict__[attr].__func__
        patch(jobs.CompileJob, attr, classmethod(
            _wrap(tracer, "service", "service.jobs.key", original)))

    def on_transpile(span, args, kwargs, result):
        # Pass spans are the pipeline's own telemetry, stamped on another
        # clock: keep their durations and order, laid end to end from the
        # start of the transpile span.
        start = span.start
        for record in result.pass_spans:
            tracer.child(
                span, "passes", f"passes.{record.name}", start, record.duration,
                size_before=record.attrs["size_before"],
                size_after=record.attrs["size_after"],
            )
            start += record.duration

    patch(jobs, "transpile",
                _wrap(tracer, "compiler", "compiler.transpile", jobs.transpile,
                      after=on_transpile))

    patch(CompilationResult, "success_probability",
                _wrap(tracer, "sim", "sim.estimator",
                      CompilationResult.success_probability))

    def note_shots(span, args, kwargs, result):
        shots = kwargs.get("shots", args[1] if len(args) > 1 else 0)
        span.attrs["shots"] = int(shots)

    def traced_backend(get_backend):
        @functools.wraps(get_backend)
        def make(*args, **kwargs):
            engine = get_backend(*args, **kwargs)
            engine.run_counts = _wrap(tracer, "sim", "sim.sampler",
                                      engine.run_counts, after=note_shots)
            if callable(getattr(engine, "run_probabilities", None)):
                engine.run_probabilities = _wrap(
                    tracer, "sim", "sim.sampler", engine.run_probabilities)
            return engine
        return make

    for module in (repro.sim, sweep_driver, toffoli_driver):
        patch(module, "get_backend", traced_backend(module.get_backend))

    def note_records(span, args, kwargs, records):
        span.attrs["cells"] = len(records)
        span.attrs["attempts"] = sum(r.attempts for r in records)
        span.attrs["failed"] = sum(1 for r in records if not r.ok)

    patch(CellRunner, "run",
                _wrap(tracer, "runtime", "runtime.run", CellRunner.run,
                      after=note_records))

    def cache_method(attr: str) -> Callable:
        original = ShardedLRUCache.__dict__[attr]

        def note_hit(span, args, kwargs, value):
            span.attrs["key"] = args[1]
            span.attrs["hit"] = value is not None

        traced = _wrap(tracer, "service", f"service.cache.{attr}", original,
                       after=note_hit if attr == "get" else None)

        # Only the compile-result cache is a layer of its own; the job
        # module's raw-QASM cache is part of key derivation.
        @functools.wraps(original)
        def dispatch(self, *args, **kwargs):
            if self.name == "compile":
                return traced(self, *args, **kwargs)
            return original(self, *args, **kwargs)

        return dispatch

    for attr in ("get", "put", "stats"):
        patch(ShardedLRUCache, attr, cache_method(attr))

    # The service's runner cell; only its in-process runs leave spans (a
    # pool worker records into its own copy of the tracer, which is lost).
    patch(service_module, "_compile_cell",
                _wrap(tracer, "service", "service.compile_cell",
                      service_module._compile_cell))

    original_compile = CompileService.compile

    @functools.wraps(original_compile)
    async def traced_compile(self, request):
        if not tracer.active:
            return await original_compile(self, request)
        span, token = tracer.start("service", "service.request", new_op=True)
        try:
            response = await original_compile(self, request)
            span.attrs["status"] = response.status
            return response
        finally:
            tracer.finish(span, token)

    patch(CompileService, "compile", traced_compile)
    patch(CompileService, "stats_json",
                _wrap(tracer, "service", "service.stats",
                      CompileService.stats_json))
    return stack


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one parent can overlap (two clients' requests in flight at
    once), so coverage is the length of the union of their intervals.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    own = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        own[span.span_id] = span.duration - covered
    return own


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def layer_metrics(spans: List[Span], pass_names: List[str],
                  pool_compiles: int) -> Dict[str, float]:
    """Per-layer self time and work counts of one traced round.

    ``pass_names`` seeds a zero entry for every pass class the benchmark
    reports, so a workload that never runs a pass still reports it.
    ``pool_compiles`` is the compile service's dispatch count in the round;
    without a service, compile attempts are the transpile calls.
    """
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(*names: str) -> float:
        return sum(own[s.span_id] for n in names for s in by_name.get(n, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    transpiles = by_name.get("compiler.transpile", [])
    gets = by_name.get("service.cache.get", [])
    hits = sum(1 for s in gets if s.attrs.get("hit"))
    runs = by_name.get("runtime.run", [])
    requests = by_name.get("service.request", [])
    # A key missed twice (a coalesced request) was compiled once.
    missed_keys = {s.attrs["key"] for s in gets if not s.attrs.get("hit")}
    attempts = pool_compiles or len(transpiles)

    def request_ms(status: str) -> float:
        return _median_ms([s.duration for s in requests if s.attrs.get("status") == status])

    metrics: Dict[str, float] = {
        "compiler.transpile_s": total("compiler.transpile"),
        "compiler.transpile_ms_p50": _median_ms([s.duration for s in transpiles]),
        "compiler.transpile_ms_p90": percentile([s.duration for s in transpiles], 90) * 1000.0
        if transpiles else 0.0,
        "compiler.calls": len(transpiles),
        "compiler.self_s": self_total("compiler.transpile"),
        "sim.estimator_s": self_total("sim.estimator"),
        "sim.estimator_calls": count("sim.estimator"),
        "sim.sampler_s": self_total("sim.sampler"),
        "sim.sampler_calls": count("sim.sampler"),
        "sim.shots": sum(s.attrs.get("shots", 0) for s in by_name.get("sim.sampler", ())),
        "bench_circuits.build_s": self_total("bench_circuits.get_benchmark"),
        "circuits.to_qasm_s": self_total("circuits.to_qasm"),
        "circuits.from_qasm_s": self_total("circuits.from_qasm"),
        "service.jobs.key_s": self_total("service.jobs.key"),
        "service.jobs.key_calls": count("service.jobs.key"),
        "service.cache.get_s": self_total("service.cache.get"),
        "service.cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "service.cache.hits": hits,
        "service.cache.misses": len(gets) - hits,
        "service.cache.put_s": self_total("service.cache.put"),
        "service.compiles_per_unique_miss": len(missed_keys) / attempts if attempts else 0.0,
        "service.request_ms_p50.hit": request_ms("hit"),
        "service.request_ms_p50.miss": request_ms("miss"),
        "service.request_ms_p50.coalesced": request_ms("coalesced"),
        "runtime.run_s": total("runtime.run"),
        "runtime.cell_s": total("experiments.cell") + total("service.compile_cell"),
        "runtime.overhead_s": self_total("runtime.run"),
        "runtime.batch_ms_p50": _median_ms([s.duration for s in runs]),
        "runtime.attempts": sum(s.attrs.get("attempts", 0) for s in runs),
        "runtime.retries": sum(s.attrs.get("attempts", 0) - s.attrs.get("cells", 0)
                               for s in runs),
        "runtime.failed_cells": sum(s.attrs.get("failed", 0) for s in runs),
        "experiments.unattributed_s": self_total("experiments.round", "experiments.cell"),
    }
    for name in pass_names:
        metrics[f"passes.{name}.self_s"] = 0.0
        metrics[f"passes.{name}.runs"] = 0.0
        metrics[f"passes.{name}.gates_removed"] = 0.0
    for span in spans:
        if span.layer == "passes":
            for suffix, amount in (
                ("self_s", span.duration),
                ("runs", 1),
                ("gates_removed", span.attrs["size_before"] - span.attrs["size_after"]),
            ):
                key = f"{span.name}.{suffix}"
                metrics[key] = metrics.get(key, 0.0) + amount
    return metrics


def layer_self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Total self time per layer (``experiments`` = time in no layer span)."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.span_id]
    return totals
