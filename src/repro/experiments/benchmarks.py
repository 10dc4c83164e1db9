"""The simulated NISQ-benchmark experiment (paper §5.2, Figures 9, 10 and 11).

Every Table 1 benchmark is compiled with the baseline and with Trios onto each
of the four 20-qubit topologies of Figure 5, and the analytic success model
(§2.6) is evaluated with error rates 20x better than the 2020-08-19
Johannesburg calibration — exactly the setup the paper simulates.

The sweep is embarrassingly parallel over its (topology, benchmark) cells,
which run under a :class:`RunConfig` — the execution settings all three
experiment drivers share.  Compilations are memoized in a per-process,
content-addressed cache (the service layer's sharded LRU, keyed by
``sha256(canonical QASM + topology signature + canonical options)``), so
repeated sweeps — and the sensitivity study, which compiles the same
circuits — reuse them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from .. import obs
from ..bench_circuits.suite import (
    PAPER_BENCHMARKS,
    TOFFOLI_BENCHMARKS,
    get_benchmark,
)
from ..circuits.circuit import QuantumCircuit
from ..compiler.result import CompilationResult
from ..exceptions import ReproError, SimulationError
from ..hardware.calibration import DeviceCalibration, near_term_calibration
from ..hardware.library import PAPER_TOPOLOGIES
from ..hardware.topology import CouplingMap
from ..runtime import (
    CellFailure,
    CellRunner,
    FailurePolicy,
    FaultPlan,
    failure_records,
    resolve_jobs,
)
from ..service.cache import ShardedLRUCache
from ..service.jobs import CompileJob, run_job_cached
from ..sim import (
    BACKEND_NAMES,
    EXACT_PROBABILITY_BACKENDS,
    StatevectorSimulator,
    get_backend,
    supports_exact_probabilities,
)
from .stats import geometric_mean, percent_reduction


@dataclass
class ExperimentResult:
    """What every experiment driver's result holds besides its rows.

    ``failures`` lists the cells the fault-tolerant runtime could not
    complete (worker crashed, timed out, or kept raising) as explicit skip
    records, so a partial run reports what is missing instead of crashing;
    the aggregates cover only the surviving rows.
    """

    failures: List[CellFailure] = field(default_factory=list, kw_only=True)

    def _rows(self) -> Iterable[Any]:
        raise NotImplementedError

    def all_pass_spans(self) -> List[obs.Span]:
        """Every pass-telemetry span across the rows (``--profile-passes`` data)."""
        return [span for row in self._rows() for span in row.pass_spans]


@dataclass
class BenchmarkComparison:
    """Baseline-vs-Trios numbers for one benchmark on one topology."""

    benchmark: str
    topology: str
    baseline_cnots: int
    trios_cnots: int
    baseline_success: float
    trios_success: float
    baseline_depth: int
    trios_depth: int
    #: Per-pass telemetry spans of the baseline compilation, then Trios'.
    pass_spans: List[obs.Span] = field(default_factory=list)

    @property
    def cnot_reduction(self) -> float:
        """Figure 10's metric: fraction of CNOTs removed by Trios."""
        return percent_reduction(self.baseline_cnots, self.trios_cnots)

    @property
    def success_ratio(self) -> float:
        """Figure 11's metric: ``p_trios / p_baseline``."""
        if self.baseline_success <= 0:
            return float("inf") if self.trios_success > 0 else 1.0
        return self.trios_success / self.baseline_success


@dataclass
class BenchmarkExperimentResult(ExperimentResult):
    """All comparisons, indexed by topology label then benchmark label."""

    calibration_name: str
    comparisons: Dict[str, Dict[str, BenchmarkComparison]] = field(default_factory=dict)

    def topologies(self) -> List[str]:
        return list(self.comparisons)

    def row(self, topology: str, benchmark: str) -> BenchmarkComparison:
        return self.comparisons[topology][benchmark]

    # Aggregates over the Toffoli-containing benchmarks, as in the figures.
    def geomean_cnot_reduction(self, topology: str) -> float:
        rows = self._toffoli_rows(topology)
        return 1.0 - geometric_mean(
            max(r.trios_cnots, 1) / max(r.baseline_cnots, 1) for r in rows
        )

    def geomean_success(self, topology: str, method: str) -> float:
        rows = self._toffoli_rows(topology)
        if method == "baseline":
            return geometric_mean(r.baseline_success for r in rows)
        if method == "trios":
            return geometric_mean(r.trios_success for r in rows)
        raise ReproError(f"unknown method {method!r}")

    def geomean_success_ratio(self, topology: str) -> float:
        rows = self._toffoli_rows(topology)
        return geometric_mean(min(r.success_ratio, 1e9) for r in rows)

    def _toffoli_rows(self, topology: str) -> List[BenchmarkComparison]:
        table = self.comparisons[topology]
        return [table[name] for name in table if name in TOFFOLI_BENCHMARKS]

    def _rows(self) -> Iterable[BenchmarkComparison]:
        return (row for table in self.comparisons.values() for row in table.values())


# ----------------------------------------------------------------------
# Compile-once cache
# ----------------------------------------------------------------------
#: The drivers' compile memoization — the same bounded, sharded,
#: content-addressed LRU the compile service uses (one implementation, one
#: key recipe: ``sha256(canonical QASM + topology signature + canonical
#: options)``).  Keying by content bounds the cache in a long-lived process
#: and keeps two calls differing in any semantic transpile option
#: (``optimization_level``, ``toffoli_mode``, ...) on separate entries.  Both
#: pipelines are deterministic given a seed, so caching never changes
#: results.  The cache is per process; pool workers each warm their own copy.
_COMPILE_CACHE = ShardedLRUCache(name="compile")


def clear_compile_cache() -> None:
    """Drop all memoized compilations (mainly useful in benchmarks/tests)."""
    _COMPILE_CACHE.clear()


def compile_cache_stats():
    """Counters of the shared compile cache (hits/misses/evictions/bytes)."""
    return _COMPILE_CACHE.stats()


def compile_benchmark_cached(
    benchmark: str,
    coupling_map: CouplingMap,
    method: str,
    seed: Optional[int],
    circuit: Optional[QuantumCircuit] = None,
    **options: object,
) -> CompilationResult:
    """Compile a Table 1 benchmark with one pipeline, memoized.

    A thin client of the service's job API: the request is keyed by
    content (:func:`repro.service.compile_job_key`), so any further
    ``transpile()`` keyword passed via ``options`` participates in the key
    and differing option sets never share an entry.

    ``circuit`` may pass in an already-built instance of the benchmark to
    avoid regenerating it; it must be the circuit ``get_benchmark(benchmark)``
    would return (with content addressing an impostor would merely miss).
    """
    if method not in ("baseline", "trios"):
        raise ReproError(f"unknown compilation method {method!r}")
    if circuit is None:
        circuit = get_benchmark(benchmark)
    job = CompileJob.from_circuit(
        circuit, coupling_map, method, seed=seed, **options
    )
    result, _ = run_job_cached(job, _COMPILE_CACHE)
    return result


def ideal_expected_outcome(logical: QuantumCircuit) -> str:
    """The most likely outcome of the *ideal* logical circuit.

    This is the success criterion the paper's hardware runs use — the
    benchmarks are engineered to concentrate on one answer.  Compute it once
    per benchmark and pass it to :func:`sampled_success`; the dense statevector
    simulation behind it is the expensive part of a sampled sweep.
    """
    ideal = StatevectorSimulator(num_qubits_limit=24).probabilities(
        logical.without(["measure"])
    )
    return max(ideal, key=ideal.get)


#: Every name :func:`repro.sim.get_backend` accepts, aliases included.
SIMULATION_BACKENDS = frozenset(BACKEND_NAMES + EXACT_PROBABILITY_BACKENDS)


def require_exact_capable_backend(backend: str) -> None:
    """Reject ``exact=True`` with a backend that has no analytic distribution.

    Validates the *name* against :data:`repro.sim.EXACT_PROBABILITY_BACKENDS`
    so the drivers fail up front — before any compilation or process-pool
    fan-out — instead of erroring per cell.
    """
    if backend.lower() not in EXACT_PROBABILITY_BACKENDS:
        raise ReproError(
            f"exact=True requires a backend with analytic run_probabilities "
            f"({', '.join(EXACT_PROBABILITY_BACKENDS)}); got {backend!r}"
        )


@dataclass(frozen=True)
class RunConfig:
    """How an experiment driver executes its cells.

    The Toffoli, benchmark and sensitivity drivers take these settings as
    keywords (``run_benchmark_experiment(backend="ptm", exact=True,
    jobs=4)``) and build one config from them.  Every value is checked here,
    before any circuit is built or compiled.

    Attributes:
        backend: ``"analytic"`` evaluates the paper's closed-form success
            model (§2.6); any registered :class:`~repro.sim.SimulationBackend`
            name (``"failure"``, ``"trajectory"``, ``"density"``, ``"ptm"``,
            ``"ideal"``) instead simulates the compiled circuits.  The
            Toffoli driver calls this its ``sampler`` and has no analytic
            model.
        shots: Shots per compiled circuit when a sampling backend is
            selected; ignored when ``exact`` is set.  At least 1.
        exact: Record the backend's analytic success probabilities
            (``run_probabilities``, zero shot variance) instead of sampled
            frequencies; requires a probability-capable backend
            (``"density"``, ``"ptm"`` or ``"ideal"``).
        jobs: Worker processes for the cells; ``1`` runs serially, ``0``
            uses all CPUs.  Results are identical either way: every cell
            derives its randomness from the seed in its own payload, so a
            cell that succeeds after retries is byte-identical to its
            fault-free serial run.
        timeout: Per-cell wall-clock seconds (pool mode) before a hung
            cell's worker is killed and the cell retried; ``None`` disables.
        retries: Extra attempts per faulted cell (crash, timeout, exception).
        on_error: What a permanently failed cell does — ``"fail"`` aborts the
            experiment, ``"skip"`` records it under the result's
            ``failures``, ``"serial"`` additionally degrades to in-process
            execution when the pool keeps breaking.
        faults: Deterministic fault-injection plan (tests/benchmarks);
            ``None`` honours the ``REPRO_FAULTS`` environment variable.
    """

    backend: str = "analytic"
    shots: int = 2048
    exact: bool = False
    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    on_error: str = "skip"
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.backend != "analytic" and self.backend.lower() not in SIMULATION_BACKENDS:
            raise ReproError(
                f"unknown backend {self.backend!r}; available: analytic, "
                f"{', '.join(BACKEND_NAMES)}"
            )
        if self.exact:
            require_exact_capable_backend(self.backend)
        if self.shots < 1:
            raise ReproError(f"shots must be >= 1, got {self.shots}")
        self.policy  # FailurePolicy checks timeout, retries and on_error
        resolve_jobs(self.jobs)

    @property
    def policy(self) -> FailurePolicy:
        return FailurePolicy(
            timeout=self.timeout, retries=self.retries, on_error=self.on_error
        )

    def run(
        self,
        cell: Callable[[Any], Any],
        payloads: Sequence[Any],
        labels: Sequence[str],
        span: str,
        runner_label: str,
        **attrs: Any,
    ) -> Tuple[List[Any], List[CellFailure]]:
        """Run ``cell`` over ``payloads`` on the fault-tolerant runtime.

        The run sits under an ``experiment`` span named ``span`` carrying the
        backend, ``jobs`` and ``attrs``.  Returns each cell's value in
        payload order (``None`` for a failed cell) and the failed cells as
        report records labelled by ``labels``.
        """
        obs.maybe_enable_from_env()
        runner = CellRunner(
            jobs=resolve_jobs(self.jobs),
            policy=self.policy,
            faults=self.faults if self.faults is not None else "env",
            label=runner_label,
        )
        with obs.span(span, category="experiment", backend=self.backend,
                      jobs=self.jobs, **attrs):
            records = runner.run(payloads, cell)
        values = [record.value if record.ok else None for record in records]
        return values, failure_records(records, labels)


def sampled_success(
    compiled: CompilationResult,
    logical: QuantumCircuit,
    backend: str,
    calibration: DeviceCalibration,
    shots: int,
    seed: int,
    expected: Optional[str] = None,
    exact: bool = False,
) -> float:
    """Success rate of a compiled circuit under a shot-level backend.

    ``expected`` is the ideal outcome from :func:`ideal_expected_outcome`;
    it is computed on the fly when omitted, but callers evaluating the same
    logical circuit repeatedly should hoist it.  With ``exact=True`` the
    backend's analytic ``run_probabilities`` replaces shot sampling, so the
    returned probability carries zero shot variance (requires a
    probability-capable backend such as ``"density"`` or ``"ptm"``).
    """
    if expected is None:
        expected = ideal_expected_outcome(logical)
    measured = compiled.physical_qubits_of(list(range(logical.num_qubits)))
    engine = get_backend(backend, calibration, seed=seed)
    circuit = compiled.circuit.without(["measure"])
    if exact:
        if not supports_exact_probabilities(engine):
            raise ReproError(
                f"backend {backend!r} cannot produce exact probabilities; "
                "use 'density' or 'ptm' (noisy) or 'ideal' (noiseless)"
            )
        return engine.run_probabilities(circuit, measured_qubits=measured).get(
            expected, 0.0
        )
    result = engine.run_counts(circuit, shots, measured_qubits=measured)
    return result.success_rate(expected)


def compare_benchmark(
    benchmark: str,
    coupling_map: CouplingMap,
    calibration: DeviceCalibration,
    seed: int = 11,
    backend: str = "analytic",
    shots: int = 2048,
    expected: Optional[str] = None,
    circuit: Optional[QuantumCircuit] = None,
    exact: bool = False,
) -> BenchmarkComparison:
    """Compile one benchmark with both pipelines and evaluate its success.

    Args:
        benchmark: Table 1 benchmark label.
        coupling_map: Target topology.
        calibration: Device error model.
        seed: Seed for the baseline's stochastic routing (and the sampler).
        backend, shots, exact: How success is measured; see
            :class:`RunConfig`.
        expected: Precomputed :func:`ideal_expected_outcome` for sampling
            backends; computed on the fly when omitted.
        circuit: Already-built instance of the benchmark, so sweep callers
            construct each logical circuit once instead of once per cell.
    """
    RunConfig(backend=backend, shots=shots, exact=exact)  # rejects bad settings
    if circuit is None:
        circuit = get_benchmark(benchmark)
    baseline = compile_benchmark_cached(benchmark, coupling_map, "baseline", seed, circuit)
    # Same routing policy and seed as the baseline so that Toffoli-free
    # circuits compile identically (the paper's "no effect" control).
    trios = compile_benchmark_cached(benchmark, coupling_map, "trios", seed, circuit)
    if backend == "analytic":
        baseline_success = baseline.success_probability(calibration)
        trios_success = trios.success_probability(calibration)
    else:
        if expected is None:
            expected = ideal_expected_outcome(circuit)
        baseline_success, trios_success = (
            sampled_success(compiled, circuit, backend, calibration, shots,
                            seed, expected, exact=exact)
            for compiled in (baseline, trios)
        )
    return BenchmarkComparison(
        benchmark=benchmark,
        topology=coupling_map.name,
        baseline_cnots=baseline.two_qubit_gate_count,
        trios_cnots=trios.two_qubit_gate_count,
        baseline_success=baseline_success,
        trios_success=trios_success,
        baseline_depth=baseline.depth,
        trios_depth=trios.depth,
        pass_spans=baseline.pass_spans + trios.pass_spans,
    )


def _benchmark_cell(
    payload: Tuple[str, CouplingMap, str, QuantumCircuit, DeviceCalibration,
                   int, Optional[str], RunConfig],
) -> Optional[BenchmarkComparison]:
    """Evaluate one (topology, benchmark) cell; process-pool entry point."""
    label, coupling_map, benchmark, circuit, calibration, seed, expected, run = payload
    try:
        return compare_benchmark(
            benchmark, coupling_map, calibration, seed,
            backend=run.backend, shots=run.shots, expected=expected,
            circuit=circuit, exact=run.exact,
        )
    except SimulationError as exc:
        # The selected sampling backend cannot simulate this compiled
        # circuit (e.g. too many active qubits for the trajectory
        # sampler); skip the row rather than aborting the sweep.
        warnings.warn(
            f"skipping {benchmark} on {label}: {exc}", RuntimeWarning,
            stacklevel=2,
        )
        return None


def run_benchmark_experiment(
    topologies: Optional[Mapping[str, Callable[[], CouplingMap]]] = None,
    calibration: Optional[DeviceCalibration] = None,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 11,
    **run: Any,
) -> BenchmarkExperimentResult:
    """Run the full Figures 9-11 sweep on the fault-tolerant runtime.

    Args:
        topologies: Mapping from label to topology builder; defaults to the
            paper's four devices.
        calibration: Error model; defaults to 20x-improved Johannesburg.
        benchmarks: Benchmark labels to include; defaults to all of Table 1.
        seed: Seed for the baseline's stochastic routing (and the sampler).
        **run: Execution settings (``backend``, ``shots``, ``exact``,
            ``jobs``, ``timeout``, ``retries``, ``on_error``, ``faults``);
            see :class:`RunConfig`.  Failed cells land in
            :attr:`BenchmarkExperimentResult.failures`.
    """
    config = RunConfig(**run)
    topologies = topologies or PAPER_TOPOLOGIES
    calibration = calibration or near_term_calibration()
    benchmarks = list(benchmarks or PAPER_BENCHMARKS)
    result = BenchmarkExperimentResult(calibration_name=calibration.name)
    # Build each topology and each logical circuit exactly once per sweep.
    built = {label: builder() for label, builder in topologies.items()}
    circuits = {name: get_benchmark(name) for name in benchmarks}
    # The ideal expected outcome depends only on the logical circuit, so
    # compute it once per benchmark, not once per (topology, benchmark) cell.
    expected: Dict[str, str] = {}
    payloads = []
    for label, coupling_map in built.items():
        result.comparisons[label] = {}
        for benchmark in benchmarks:
            circuit = circuits[benchmark]
            if circuit.num_qubits > coupling_map.num_qubits:
                continue
            if config.backend != "analytic" and benchmark not in expected:
                expected[benchmark] = ideal_expected_outcome(circuit)
            payloads.append(
                (label, coupling_map, benchmark, circuit, calibration, seed,
                 expected.get(benchmark), config)
            )
    cells = [(label, benchmark) for label, _, benchmark, *_rest in payloads]
    comparisons, result.failures = config.run(
        _benchmark_cell, payloads, [f"{label}|{benchmark}" for label, benchmark in cells],
        span="benchmark_experiment", runner_label="benchmark sweep",
        benchmarks=len(benchmarks),
    )
    for (label, benchmark), comparison in zip(cells, comparisons):
        if comparison is not None:
            result.comparisons[label][benchmark] = comparison
    return result
