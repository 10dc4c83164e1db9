"""Tests for the unified observability layer (``repro.obs``).

Covers the tracer and metrics primitives, the Chrome trace-event export, and
the three cross-layer guarantees the instrumentation makes:

- worker spans survive the process-pool boundary and arrive re-parented under
  the driver's per-attempt ``cell`` spans;
- a faulted (retried / timed-out) cell's trace shows every attempt plus the
  backoff spans between them;
- a parallel (``jobs=N``) experiment sweep records the same span multiset as
  the serial sweep.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.experiments import run_benchmark_experiment
from repro.experiments.benchmarks import clear_compile_cache
from repro.hardware.library import johannesburg
from repro.runtime import CellRunner, FailurePolicy, Fault, FaultPlan

# Near-zero backoff so retry loops don't sleep (mirrors test_runtime).
FAST = dict(backoff_base=0.001, backoff_cap=0.002, backoff_jitter=0.0)


@pytest.fixture(autouse=True)
def clean_obs(monkeypatch):
    """Every test starts and ends with telemetry off and no stray env."""
    monkeypatch.delenv(obs.TRACE_ENV_VAR, raising=False)
    obs.disable()
    yield
    obs.disable()


def traced_cell(payload):
    """Pool worker that emits its own span and simulator-style metrics."""
    with obs.span("worker_op", category="test", payload=payload):
        obs.counter("test.cells").inc()
    return payload + 1


# ----------------------------------------------------------------------
# Tracer primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_are_parented(self):
        obs.enable()
        with obs.span("outer", category="test") as outer:
            outer.add_attrs(level=0)
            with obs.span("inner", category="test"):
                pass
        spans = {s.name: s for s in obs.trace_spans()}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attrs["level"] == 0
        assert spans["inner"].start >= spans["outer"].start
        assert spans["inner"].end <= spans["outer"].end + 1e-6

    def test_disabled_is_a_noop(self):
        assert not obs.is_enabled()
        with obs.span("ghost", category="test") as handle:
            handle.add_attrs(ignored=True)
        assert obs.trace_spans() == []
        obs.counter("ghost.counter").inc()
        obs.histogram("ghost.hist").observe(1.0)
        assert obs.metrics_summary() == {}

    def test_clear_keeps_collection_on(self):
        obs.enable()
        with obs.span("before", category="test"):
            pass
        obs.clear()
        assert obs.trace_spans() == []
        assert obs.is_enabled()
        with obs.span("after", category="test"):
            pass
        assert [s.name for s in obs.trace_spans()] == ["after"]

    def test_spans_pickle_safely(self):
        obs.enable()
        with obs.span("picklable", category="test", payload=[1, 2]):
            pass
        (span,) = obs.trace_spans()
        clone = pickle.loads(pickle.dumps(span))
        assert clone == span
        assert clone.attrs["payload"] == [1, 2]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_summary_shape(self):
        obs.enable()
        obs.counter("compiles").inc()
        obs.counter("compiles").inc(2)
        obs.gauge("pool.workers").set(4)
        summary = obs.metrics_summary()
        assert summary["compiles"] == {"count": 3}
        assert summary["pool.workers"] == {"value": 4}

    def test_histogram_percentiles(self):
        obs.enable()
        hist = obs.histogram("latency")
        for value in range(1, 101):
            hist.observe(float(value))
        stats = obs.metrics_summary()["latency"]
        assert stats["count"] == 100
        assert stats["min"] == 1.0 and stats["max"] == 100.0
        assert stats["sum"] == pytest.approx(5050.0)
        assert 49.0 <= stats["p50"] <= 51.0
        assert 89.0 <= stats["p90"] <= 91.0
        assert stats["p90"] <= stats["p99"] <= 100.0


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_export_and_validate(self, tmp_path):
        obs.enable()
        with obs.span("root", category="test"):
            with obs.span("child", category="test"):
                pass
        out = tmp_path / "trace.json"
        assert obs.export_chrome_trace(str(out)) == 2
        report = obs.validate_chrome_trace(str(out))
        assert report["events"] == 2
        assert report["categories"] == {"test": 2}

    def test_parent_links_resolve(self, tmp_path):
        obs.enable()
        with obs.span("root", category="test"):
            with obs.span("child", category="test"):
                pass
        out = tmp_path / "trace.json"
        obs.export_chrome_trace(str(out))
        events = json.loads(out.read_text())["traceEvents"]
        ids = {e["args"]["span_id"] for e in events}
        for event in events:
            parent = event["args"].get("parent_id")
            assert parent is None or parent in ids

    def test_empty_trace_is_still_valid(self, tmp_path):
        obs.enable()
        out = tmp_path / "trace.json"
        assert obs.export_chrome_trace(str(out)) == 0
        assert obs.validate_chrome_trace(str(out))["events"] == 0

    def test_env_var_exports_at_interpreter_exit(self, tmp_path):
        """REPRO_TRACE=trace.json traces a plain library script, no CLI."""
        out = tmp_path / "trace.json"
        script = (
            "from repro import obs\n"
            "obs.maybe_enable_from_env()\n"
            "with obs.span('library_work', category='test'):\n"
            "    pass\n"
        )
        env = dict(os.environ)
        env[obs.TRACE_ENV_VAR] = str(out)
        env["PYTHONPATH"] = str(Path(obs.__file__).resolve().parents[2])
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
        report = obs.validate_chrome_trace(out)
        assert report["events"] == 1
        assert report["categories"] == {"test": 1}


# ----------------------------------------------------------------------
# Spans across the process-pool boundary
# ----------------------------------------------------------------------
class TestPoolTelemetry:
    def test_worker_spans_survive_the_pool_boundary(self):
        obs.enable()
        runner = CellRunner(jobs=2, faults=None, label="obs pool test")
        records = runner.run(list(range(4)), traced_cell)
        assert [r.value for r in records] == [1, 2, 3, 4]

        spans = obs.trace_spans()
        by_id = {s.span_id: s for s in spans}
        worker_spans = [s for s in spans if s.name == "worker_op"]
        assert len(worker_spans) == 4
        # The spans were recorded in worker processes, then adopted.
        driver = os.getpid()
        assert all(s.pid != driver for s in worker_spans)
        # Each one is re-parented under a driver-side per-attempt cell span.
        for span in worker_spans:
            parent = by_id[span.parent_id]
            assert parent.name == "cell"
            assert parent.category == "runtime.cell"
            assert parent.pid == driver
        # Worker metric increments merged into the driver registry.
        assert obs.metrics_summary()["test.cells"] == {"count": 4}

    def test_retried_cell_trace_shows_attempts_and_backoff(self):
        obs.enable()
        plan = FaultPlan.single(1, Fault("raise", attempts=(1,)))
        runner = CellRunner(
            jobs=2,
            policy=FailurePolicy(retries=2, **FAST),
            faults=plan,
            label="obs retry test",
        )
        records = runner.run(list(range(3)), traced_cell)
        assert records[1].ok and records[1].attempts == 2

        spans = obs.trace_spans()
        cell_1 = [
            s for s in spans
            if s.name == "cell" and s.attrs.get("index") == 1
        ]
        assert sorted(s.attrs["attempt"] for s in cell_1) == [1, 2]
        statuses = {s.attrs["attempt"]: s.attrs["status"] for s in cell_1}
        assert statuses == {1: "failed", 2: "ok"}
        backoffs = [s for s in spans if s.category == "runtime.backoff"]
        assert [s.attrs.get("index") for s in backoffs] == [1]

    def test_timed_out_cell_trace_shows_timeout_attempts(self):
        obs.enable()
        plan = FaultPlan.single(1, Fault("hang", duration=60.0))
        runner = CellRunner(
            jobs=2,
            policy=FailurePolicy(timeout=0.5, retries=1, on_error="skip", **FAST),
            faults=plan,
            label="obs timeout test",
        )
        records = runner.run(list(range(3)), traced_cell)
        assert records[1].status == "timed_out"

        spans = obs.trace_spans()
        timed_out = [
            s for s in spans
            if s.name == "cell" and s.attrs.get("status") == "timed_out"
        ]
        assert sorted(s.attrs["attempt"] for s in timed_out) == [1, 2]
        assert all(s.attrs["index"] == 1 for s in timed_out)
        backoffs = [s for s in spans if s.category == "runtime.backoff"]
        assert [s.attrs.get("index") for s in backoffs] == [1]
        # The hung worker was killed, so the pool had to respawn.
        assert any(s.category == "runtime.pool" for s in spans)


# ----------------------------------------------------------------------
# Parallel sweep == serial sweep (span multiset)
# ----------------------------------------------------------------------
class TestParallelTraceEquivalence:
    def test_jobs2_sweep_matches_serial_span_multiset(self):
        topologies = {"johannesburg": johannesburg}
        benchmarks = ["cnx_inplace-4", "incrementer_borrowedbit-5"]

        def traced_sweep(jobs):
            obs.disable()
            obs.enable()
            clear_compile_cache()
            run_benchmark_experiment(
                topologies=topologies, benchmarks=benchmarks, jobs=jobs
            )
            names = Counter((s.category, s.name) for s in obs.trace_spans())
            metrics = obs.metrics_summary()
            obs.disable()
            return names, metrics

        serial_names, serial_metrics = traced_sweep(jobs=1)
        pool_names, pool_metrics = traced_sweep(jobs=2)
        assert pool_names == serial_names
        assert serial_names[("compiler.pass", "TriosRouter")] > 0
        # Lookup-table misses depend on what each process compiled before
        # (see Consolidate1qRunsPass), so they are bounded, not matched; a
        # worker whose tables were warm reports none.
        for metrics in (serial_metrics, pool_metrics):
            misses = metrics.pop("passes.consolidate_1q.syntheses", {"count": 0})["count"]
            assert 0 <= misses <= metrics["passes.consolidate_1q.runs_rewritten"]["count"]
        assert pool_metrics == serial_metrics
        assert serial_metrics["sim.estimator.calls"]["count"] > 0
