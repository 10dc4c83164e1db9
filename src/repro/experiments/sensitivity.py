"""Error-rate sensitivity study (paper §6.4, Figure 12).

For a range of error-rate improvement factors (1x = today's Johannesburg,
20x = the near-term model used in Figures 9-11, up to 100x), the compiled
baseline and Trios circuits are re-evaluated under the scaled calibration and
the success ratio ``p_trios / p_baseline`` is reported per benchmark.  The
circuits themselves are compiled once — only the error model changes — exactly
as in the paper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from .. import obs
from ..bench_circuits.suite import TOFFOLI_BENCHMARKS, get_benchmark
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration, johannesburg_aug19_2020
from ..hardware.library import johannesburg
from ..hardware.topology import CouplingMap
from .benchmarks import (
    ExperimentResult,
    RunConfig,
    compile_benchmark_cached,
    ideal_expected_outcome,
    sampled_success,
)


@dataclass
class SensitivityCurve:
    """Success-ratio curve for one benchmark over the improvement factors."""

    benchmark: str
    factors: List[float]
    ratios: List[float]
    pass_spans: List[obs.Span] = field(default_factory=list)

    def ratio_at(self, factor: float) -> float:
        """Ratio at the factor closest to ``factor``."""
        index = int(np.argmin([abs(f - factor) for f in self.factors]))
        return self.ratios[index]


@dataclass
class SensitivityResult(ExperimentResult):
    """Figure 12: one curve per Toffoli-containing benchmark."""

    device: str
    factors: List[float]
    curves: Dict[str, SensitivityCurve] = field(default_factory=dict)

    def benchmarks(self) -> List[str]:
        return list(self.curves)

    def _rows(self) -> Iterable[SensitivityCurve]:
        return self.curves.values()


def default_factors(num_points: int = 9, maximum: float = 100.0) -> List[float]:
    """Log-spaced improvement factors from 1x to ``maximum`` (the Figure 12 x-axis)."""
    return [float(f) for f in np.logspace(0, np.log10(maximum), num_points)]


def _sensitivity_cell(
    payload,
) -> "Optional[SensitivityCurve]":
    """Evaluate one benchmark's whole curve; process-pool entry point."""
    benchmark, coupling_map, base_calibration, factors, seed, run = payload
    backend, shots = run.backend, run.shots
    circuit = get_benchmark(benchmark)
    # The circuits are compiled once — only the error model changes — and the
    # compilation is shared with the Figures 9-11 sweep via the compile cache.
    baseline = compile_benchmark_cached(benchmark, coupling_map, "baseline", seed, circuit)
    trios = compile_benchmark_cached(benchmark, coupling_map, "trios", seed, circuit)
    expected = None if backend == "analytic" else ideal_expected_outcome(circuit)
    ratios: List[float] = []
    try:
        for factor in factors:
            calibration = base_calibration.improved(factor)
            if backend == "analytic":
                base_p = baseline.success_probability(calibration)
                trios_p = trios.success_probability(calibration)
            else:
                base_p, trios_p = (
                    sampled_success(compiled, circuit, backend, calibration,
                                    shots, seed, expected, exact=run.exact)
                    for compiled in (baseline, trios)
                )
                if not run.exact:
                    # Floor at half a shot so a deep circuit that happens to
                    # score zero matches in a finite sample yields a large
                    # but finite ratio instead of poisoning the curve with
                    # inf.  Analytic probabilities carry no shot noise, so
                    # there a true zero stays zero (handled below).
                    floor = 1.0 / (2.0 * shots)
                    base_p, trios_p = max(floor, base_p), max(floor, trios_p)
            if base_p <= 0:
                ratios.append(float("inf") if trios_p > 0 else 1.0)
            else:
                ratios.append(trios_p / base_p)
    except SimulationError as exc:
        # The sampling backend cannot simulate this compiled circuit
        # (e.g. too many active qubits); skip the whole curve.
        warnings.warn(
            f"skipping the {benchmark} sensitivity curve: {exc}",
            RuntimeWarning, stacklevel=2,
        )
        return None
    return SensitivityCurve(
        benchmark=benchmark, factors=list(factors), ratios=ratios,
        pass_spans=baseline.pass_spans + trios.pass_spans,
    )


def run_sensitivity_experiment(
    coupling_map: Optional[CouplingMap] = None,
    base_calibration: Optional[DeviceCalibration] = None,
    benchmarks: Optional[Sequence[str]] = None,
    factors: Optional[Sequence[float]] = None,
    seed: int = 11,
    **run: Any,
) -> SensitivityResult:
    """Reproduce Figure 12 on the Johannesburg topology.

    Args:
        coupling_map: Device topology (Johannesburg by default).
        base_calibration: The 1x error model that the factors scale.
        benchmarks: Benchmark labels (the Toffoli-containing set by default).
        factors: Error-rate improvement factors (log-spaced 1x-100x default).
        seed: Seed for the baseline's stochastic routing (and the sampler).
        **run: Execution settings (``backend``, ``shots``, ``exact``,
            ``jobs``, ``timeout``, ``retries``, ``on_error``, ``faults``);
            see :class:`~repro.experiments.benchmarks.RunConfig`.  The
            ``"analytic"`` default re-evaluates the closed-form model at each
            factor (the paper's method); a simulator re-samples the compiled
            circuits under each scaled calibration.  Failed curves land in
            :attr:`SensitivityResult.failures`.
    """
    config = RunConfig(**run)
    coupling_map = coupling_map or johannesburg()
    base_calibration = base_calibration or johannesburg_aug19_2020()
    benchmarks = list(benchmarks or TOFFOLI_BENCHMARKS)
    factors = list(factors or default_factors())
    result = SensitivityResult(device=coupling_map.name, factors=list(factors))
    fitting = [
        name for name in benchmarks
        if get_benchmark(name).num_qubits <= coupling_map.num_qubits
    ]
    payloads = [
        (name, coupling_map, base_calibration, list(factors), seed, config)
        for name in fitting
    ]
    curves, result.failures = config.run(
        _sensitivity_cell, payloads, fitting,
        span="sensitivity_experiment", runner_label="sensitivity study",
        curves=len(payloads),
    )
    result.curves = {
        name: curve for name, curve in zip(fitting, curves) if curve is not None
    }
    return result
