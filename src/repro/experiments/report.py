"""Plain-text reports mirroring the paper's tables and figure captions.

Every formatter takes the structured result of an experiment harness and
returns a printable string; the benchmark harness under ``benchmarks/`` and the
example scripts use these to show the regenerated rows/series.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..bench_circuits.suite import PAPER_TABLE1, BenchmarkStats
from ..obs import Span
from ..runtime import CellFailure
from .benchmarks import BenchmarkExperimentResult
from .sensitivity import SensitivityResult
from .toffoli import CONFIGURATIONS, ToffoliExperimentResult


def _format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_table1(stats: Sequence[BenchmarkStats]) -> str:
    """Table 1: benchmark inventory, measured vs. the paper's printed numbers."""
    rows = []
    for stat in stats:
        paper = PAPER_TABLE1.get(stat.name, {})
        rows.append(
            (
                stat.name,
                stat.qubits,
                paper.get("qubits", "-"),
                stat.toffolis,
                paper.get("toffolis", "-"),
                stat.cnots_after_8cnot_decomposition,
                paper.get("cnots", "-"),
            )
        )
    headers = ("benchmark", "qubits", "(paper)", "toffolis", "(paper)", "cnots", "(paper)")
    return _format_table(headers, rows)


def format_toffoli_gate_counts(result: ToffoliExperimentResult) -> str:
    """Figure 7: CNOT counts per triplet for the four configurations."""
    headers = ("triplet",) + CONFIGURATIONS
    rows = [
        (row.label,) + tuple(row.cnot_counts[c] for c in CONFIGURATIONS)
        for row in result.rows
    ]
    rows.append(
        ("geo-mean",)
        + tuple(f"{result.geomean_cnots(c):.1f}" for c in CONFIGURATIONS)
    )
    return _format_table(headers, rows)


def format_toffoli_success(result: ToffoliExperimentResult) -> str:
    """Figure 6: success probabilities per triplet for the four configurations."""
    headers = ("triplet",) + CONFIGURATIONS
    rows = [
        (row.label,) + tuple(f"{row.success_rates[c]:.3f}" for c in CONFIGURATIONS)
        for row in result.rows
    ]
    rows.append(
        ("geo-mean",)
        + tuple(f"{result.geomean_success(c):.3f}" for c in CONFIGURATIONS)
    )
    return _format_table(headers, rows)


def format_toffoli_normalized(result: ToffoliExperimentResult) -> str:
    """Figure 8: Trios success normalised to the Qiskit baseline, per triplet."""
    headers = ("triplet", "p_trios / p_baseline")
    rows = [(row.label, f"{row.improvement():.2f}") for row in result.rows]
    rows.append(("geo-mean", f"{result.geomean_improvement():.2f}"))
    return _format_table(headers, rows)


def format_benchmark_success(result: BenchmarkExperimentResult) -> str:
    """Figure 9: simulated success probability, baseline vs Trios, per topology."""
    lines: List[str] = []
    for topology in result.topologies():
        table = result.comparisons[topology]
        headers = ("benchmark", "baseline", "trios")
        rows = [
            (name, f"{cmp.baseline_success:.4f}", f"{cmp.trios_success:.4f}")
            for name, cmp in table.items()
        ]
        rows.append(
            (
                "geo-mean (toffoli only)",
                f"{result.geomean_success(topology, 'baseline'):.4f}",
                f"{result.geomean_success(topology, 'trios'):.4f}",
            )
        )
        lines.append(f"== {topology} ==")
        lines.append(_format_table(headers, rows))
        lines.append("")
    return "\n".join(lines)


def format_benchmark_reduction(result: BenchmarkExperimentResult) -> str:
    """Figure 10: percent fewer CNOT gates with Trios, per topology."""
    topologies = result.topologies()
    headers = ("benchmark",) + tuple(topologies)
    benchmarks = list(result.comparisons[topologies[0]])
    rows = []
    for name in benchmarks:
        row = [name]
        for topology in topologies:
            comparison = result.comparisons[topology].get(name)
            row.append("-" if comparison is None else f"{comparison.cnot_reduction * 100:.1f}%")
        rows.append(row)
    rows.append(
        ["geo-mean (toffoli only)"]
        + [f"{result.geomean_cnot_reduction(t) * 100:.1f}%" for t in topologies]
    )
    return _format_table(headers, rows)


def format_benchmark_normalized(result: BenchmarkExperimentResult) -> str:
    """Figure 11: Trios success normalised to the baseline, per topology."""
    topologies = result.topologies()
    headers = ("benchmark",) + tuple(topologies)
    benchmarks = list(result.comparisons[topologies[0]])
    rows = []
    for name in benchmarks:
        row = [name]
        for topology in topologies:
            comparison = result.comparisons[topology].get(name)
            row.append("-" if comparison is None else f"{comparison.success_ratio:.2f}x")
        rows.append(row)
    rows.append(
        ["geo-mean (toffoli only)"]
        + [f"{result.geomean_success_ratio(t):.2f}x" for t in topologies]
    )
    return _format_table(headers, rows)


def format_sensitivity(result: SensitivityResult) -> str:
    """Figure 12: success ratio vs error-rate improvement factor, per benchmark."""
    headers = ("benchmark",) + tuple(f"{f:.1f}x" for f in result.factors)
    rows = []
    for name, curve in result.curves.items():
        rows.append((name,) + tuple(f"{r:.2f}" for r in curve.ratios))
    return _format_table(headers, rows)


def format_failure_summary(failures: Sequence[CellFailure]) -> str:
    """The fault-tolerant runtime's failure table for a partial sweep.

    One row per cell the runtime could not complete (worker crashed, timed
    out, or kept raising after retries); the surrounding report's aggregates
    cover only the surviving cells, so this table is what makes a partial
    sweep honest.
    """
    if not failures:
        return "(no failed cells)"
    headers = ("cell", "status", "attempts", "error")
    rows = [
        (failure.label, failure.status, failure.attempts, failure.error or "-")
        for failure in failures
    ]
    return _format_table(headers, rows)


def format_pass_profile(spans: Iterable[Span]) -> str:
    """Aggregate per-pass telemetry into a time / gate-delta table.

    ``spans`` are the :class:`~repro.obs.Span` records the pass manager
    stores in ``CompilationResult.pass_spans``; spans of the same pass
    (across compilations and fixed-point sweeps) are summed.
    """
    totals: Dict[str, Dict[str, float]] = {}
    order: List[str] = []
    for span in spans:
        key = f"{span.attrs.get('stage') or '-'}/{span.name}"
        if key not in totals:
            totals[key] = {"calls": 0, "seconds": 0.0, "delta": 0}
            order.append(key)
        entry = totals[key]
        entry["calls"] += 1
        entry["seconds"] += span.duration
        entry["delta"] += int(span.attrs["size_after"]) - int(span.attrs["size_before"])
    if not totals:
        return "(no pass telemetry recorded)"
    rows = []
    for key in sorted(order, key=lambda k: -totals[k]["seconds"]):
        stage, name = key.split("/", 1)
        entry = totals[key]
        rows.append(
            (
                name,
                stage,
                int(entry["calls"]),
                f"{entry['seconds'] * 1e3:.1f}",
                f"{int(entry['delta']):+d}",
            )
        )
    headers = ("pass", "stage", "calls", "total ms", "gate delta")
    return _format_table(headers, rows)


def format_trace_summary(spans: Sequence[Span], top: Optional[int] = None) -> str:
    """Aggregate a span list into a per-(category, name) duration table.

    One row per distinct ``(category, name)`` pair with call count, total,
    mean and max duration in milliseconds, sorted by total descending; the
    terminal-friendly counterpart of the Chrome trace export.  ``top`` caps
    the number of rows (all by default).
    """
    if not spans:
        return "(no spans recorded)"
    totals: Dict[tuple, Dict[str, float]] = {}
    pids = set()
    for span in spans:
        pids.add(span.pid)
        entry = totals.setdefault(
            (span.category or "-", span.name),
            {"calls": 0, "total": 0.0, "max": 0.0},
        )
        entry["calls"] += 1
        entry["total"] += span.duration
        entry["max"] = max(entry["max"], span.duration)
    ranked = sorted(totals.items(), key=lambda item: -item[1]["total"])
    if top is not None:
        ranked = ranked[:top]
    rows = []
    for (category, name), entry in ranked:
        calls = int(entry["calls"])
        rows.append(
            (
                name,
                category,
                calls,
                f"{entry['total'] * 1e3:.1f}",
                f"{entry['total'] * 1e3 / calls:.2f}",
                f"{entry['max'] * 1e3:.2f}",
            )
        )
    headers = ("span", "category", "calls", "total ms", "mean ms", "max ms")
    table = _format_table(headers, rows)
    footer = f"\n({len(spans)} spans from {len(pids)} process(es))"
    return table + footer


def format_metrics_summary(summary: Mapping[str, Mapping[str, float]]) -> str:
    """Render :func:`repro.obs.metrics_summary` as a flat metric/stat table.

    Counters and gauges get one row; histograms get one row per statistic
    (count, sum, min, max, p50/p90/p99).
    """
    if not summary:
        return "(no metrics recorded)"
    rows = []
    for name in sorted(summary):
        stats = summary[name]
        for stat in stats:
            value = stats[stat]
            rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
            rows.append((name, stat, rendered))
    headers = ("metric", "stat", "value")
    return _format_table(headers, rows)
