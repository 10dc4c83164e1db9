"""The benchmark's three seeded workloads, driven through the public API.

Each workload builds its inputs from the seed, runs an untimed warm-up round
in :meth:`setup`, then runs rounds through :meth:`run_round`.  A round
returns a :class:`Round`: the seed of its inputs, ops attempted and failed,
per-op latencies, the paper-facing outputs and a fingerprint of every
result, so rounds with the same inputs can be compared for identity.
:meth:`check` verifies outputs outside the timed region and returns one
message per wrong output.

* ``fig9_11_sweep`` -- ``run_benchmark_experiment()`` with analytic
  defaults: 11 Table 1 benchmarks x 4 topologies x 2 pipelines (88
  compile+estimate ops, two per runner cell).  The routing seed of round 0
  is the workload seed (11 reproduces the paper).
* ``toffoli_fig8`` -- ``run_toffoli_experiment(shots=2048,
  sampler="failure")`` on Johannesburg with 99 triplets the seed draws,
  stratified by total distance.  396 ops (4 configurations per triplet
  cell).
* ``service_warm_stream`` -- an in-process ``CompileService`` (default
  ``pool_jobs=2``) whose cache holds the 88 sweep keys.  Two asyncio clients
  run a closed loop in lockstep: each step both send one request and wait
  for both replies.  A stream is 1000 steps (2000 requests); 44 fresh keys
  (seeded routing seeds on a fixed circuit mix) make ~2.6% of the requests
  misses, 8 of them sent by both clients at once so that they coalesce.
  Lockstep makes every hit/miss/coalesced outcome and every batch
  deterministic.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

from repro.bench_circuits.suite import PAPER_BENCHMARKS, TOFFOLI_BENCHMARKS, get_benchmark
from repro.circuits.qasm import from_qasm, to_qasm
from repro.compiler.result import CompilationResult, check_connectivity
from repro.exceptions import EquivalenceError, SimulationError
from repro.experiments import benchmarks as sweep_driver
from repro.experiments import toffoli as toffoli_driver
from repro.experiments.benchmarks import (
    clear_compile_cache,
    compile_benchmark_cached,
    compile_cache_stats,
    run_benchmark_experiment,
)
from repro.experiments.stats import geometric_mean
from repro.experiments.toffoli import (
    CONFIGURATIONS,
    compile_configuration,
    run_toffoli_experiment,
)
from repro.hardware.calibration import near_term_calibration
from repro.hardware.library import PAPER_TOPOLOGIES, johannesburg
from repro.service import CompileRequest, CompileService, ShardedLRUCache
from repro.service.jobs import CompileJob, execute_compile_job
from repro.sim import estimate_success

from tracing import Tracer, op_clock

#: The paper's routing seed; only this seed has frozen reference hashes.
PAPER_SEED = 11


@dataclass
class Round:
    """What one round did and produced; rounds of one seed must agree."""

    seed: int
    ops: int
    failed: int
    wall: float
    cpu: float
    latencies: List[float]
    outputs: Dict[str, float]
    fingerprint: Any
    counts: Dict[str, float] = field(default_factory=dict)


def _toffoli_rows(comparisons):
    return [row for table in comparisons.values() for name, row in table.items()
            if name in TOFFOLI_BENCHMARKS]


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class RoundClock:
    """Wall and CPU time of one round; in a traced run also its root span."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer

    def __enter__(self) -> "RoundClock":
        if self.tracer is not None:
            self.tracer.active = True
            self.span, self.token = self.tracer.start("experiments", "experiments.round")
            self.tracer.fallback = self.span
        self.start = time.perf_counter()
        self.cpu_start = cpu_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.start
        self.cpu = cpu_seconds() - self.cpu_start
        if self.tracer is not None:
            self.tracer.finish(self.span, self.token)
            self.tracer.fallback = None
            self.tracer.active = False


def _cache_counts(before, after) -> Dict[str, float]:
    return {
        "service.cache.evictions": after.evictions - before.evictions,
        "service.cache.bytes": after.current_bytes,
    }


def check_compiled(cells: Dict[str, Tuple[Any, CompilationResult]],
                   reference: Optional[Dict[str, str]], canonical_bytes) -> List[str]:
    """One message per compiled circuit that fails a check.

    ``cells`` maps ``"topology|benchmark|method"`` to (logical circuit,
    compilation).  With ``reference`` (the frozen seed-11 hashes) every
    circuit must hash to its entry; every circuit narrow enough to simulate
    must also be semantically equivalent to its logical source.  A circuit
    counts once however many checks it fails.
    """
    problems = []
    for label, (logical, compiled) in sorted(cells.items()):
        reasons = []
        if reference is not None:
            digest = hashlib.sha256(canonical_bytes(compiled.circuit).encode()).hexdigest()
            if reference.get(label) != digest:
                reasons.append("sha256 differs from the frozen reference")
        try:
            compiled.assert_equivalent(logical, trials=1)
        except EquivalenceError as exc:  # a SimulationError: catch it first
            reasons.append(str(exc))
        except SimulationError:
            pass  # too many active wires to simulate densely
        if reasons:
            problems.append(f"{label}: {'; '.join(reasons)}")
    return problems


def round_seed(seed: int, index: int) -> int:
    """The input seed of round ``index`` of a cycle: the workload seed for round 0.

    The other rounds of a workload's cycle draw fresh inputs, so a run
    averages over several draws of the seed-dependent work instead of
    repeating one draw.  A run times whole cycles only, so how fast the
    program goes never changes which inputs it is timed on.
    """
    return seed + 100_000 * index


class Sweep:
    """``fig9_11_sweep``: the Figures 9-11 analytic sweep, cold cache each round.

    Round ``r`` of a cycle of three routes with :func:`round_seed`; round 0
    uses the workload seed itself, so seed 11 reproduces the paper and is
    held to its frozen hashes.
    """

    name = "fig9_11_sweep"
    cycle = 3

    def __init__(self, seed: int, tiny: bool, reference, canonical_bytes):
        self.seed = seed
        self.topologies = None
        self.benchmarks = None
        if tiny:
            self.topologies = {k: PAPER_TOPOLOGIES[k] for k in list(PAPER_TOPOLOGIES)[:2]}
            self.benchmarks = ["cnx_inplace-4", "incrementer_borrowedbit-5"]
        self.reference = reference
        self.canonical_bytes = canonical_bytes
        self.problems: List[str] = []
        self.checked: set = set()

    def setup(self) -> None:
        self.warmup = self.run_round(None, 0)

    def run_round(self, tracer: Optional[Tracer], index: int) -> Round:
        seed = round_seed(self.seed, index)
        clear_compile_cache()
        before = compile_cache_stats()
        latencies: List[float] = []
        clock_cells = mock.patch.object(
            sweep_driver, "_benchmark_cell",
            op_clock(latencies, tracer, sweep_driver._benchmark_cell))
        with clock_cells, RoundClock(tracer) as clock:
            result = run_benchmark_experiment(
                topologies=self.topologies, benchmarks=self.benchmarks, seed=seed)
            after = compile_cache_stats()
        if seed not in self.checked:
            self.checked.add(seed)
            self.problems += check_compiled(
                self.compiled_cells(seed),
                self.reference if seed == PAPER_SEED else None, self.canonical_bytes)
        rows = [row for table in result.comparisons.values() for row in table.values()]
        cells = len(latencies)
        toffoli = _toffoli_rows(result.comparisons)
        return Round(
            seed=seed,
            ops=2 * cells,
            failed=2 * (cells - len(rows)),
            wall=clock.wall,
            cpu=clock.cpu,
            latencies=latencies,
            outputs={
                "cnots_total": sum(r.baseline_cnots + r.trios_cnots for r in rows),
                "geomean_cnot_reduction": 1.0 - geometric_mean(
                    max(r.trios_cnots, 1) / max(r.baseline_cnots, 1) for r in toffoli),
                "geomean_success_ratio": geometric_mean(
                    min(r.success_ratio, 1e9) for r in toffoli),
            },
            fingerprint=sorted(
                (r.topology, r.benchmark, r.baseline_cnots, r.trios_cnots,
                 r.baseline_success, r.trios_success) for r in rows),
            counts=_cache_counts(before, after),
        )

    def extra_outputs(self) -> Dict[str, float]:
        return {}

    def compiled_cells(self, seed: int) -> Dict[str, Tuple[Any, CompilationResult]]:
        """Every compilation of a round on ``seed``, from the compile cache."""
        cells = {}
        topologies = self.topologies or PAPER_TOPOLOGIES
        for label, build in topologies.items():
            coupling_map = build()
            for name in self.benchmarks or PAPER_BENCHMARKS:
                circuit = get_benchmark(name)
                if circuit.num_qubits > coupling_map.num_qubits:
                    continue
                for method in ("baseline", "trios"):
                    cells[f"{label}|{name}|{method}"] = (circuit, compile_benchmark_cached(
                        name, coupling_map, method, seed, circuit))
        return cells

    def check(self) -> List[str]:
        """Every compiled circuit of every round, checked once per input seed."""
        return self.problems


def stratified_triplets(coupling_map, count: int, seed: int) -> List[Tuple[int, int, int]]:
    """``count`` random triplets, stratified by total distance.

    Each distance class gets its proportional share of ``count`` (largest
    remainders round), so every seed draws the same mix of near and distant
    triplets -- the distant ones route through many qubits and dominate
    sampler time -- while the seed still draws the triplets themselves.
    """
    rng = random.Random(seed)
    classes: Dict[int, List[Tuple[int, int, int]]] = {}
    for triplet in itertools.permutations(range(coupling_map.num_qubits), 3):
        classes.setdefault(coupling_map.total_distance(triplet), []).append(triplet)
    total = sum(len(members) for members in classes.values())
    quotas = {d: count * len(members) / total for d, members in sorted(classes.items())}
    shares = {d: int(q) for d, q in quotas.items()}
    by_remainder = sorted(quotas, key=lambda d: (shares[d] - quotas[d], d))
    for d in by_remainder[:count - sum(shares.values())]:
        shares[d] += 1
    triplets = [t for d, k in shares.items() for t in rng.sample(classes[d], k)]
    rng.shuffle(triplets)
    return triplets


class Toffoli:
    """``toffoli_fig8``: the Figure 8 triplet experiment with the failure sampler.

    Round ``r`` of a cycle of six is one experiment on its own 99 triplets,
    drawn from :func:`round_seed` (round 0 uses the workload seed).  A few
    triplets route the baseline across most of the chip, and the sampler's
    cost grows exponentially with the active qubits, so one set of 99
    triplets is a heavy-tailed sample of the experiment's cost; six sets
    average that tail over the run.
    """

    name = "toffoli_fig8"
    cycle = 6

    def __init__(self, seed: int, tiny: bool, reference=None, canonical_bytes=None):
        self.seed = seed
        self.coupling_map = johannesburg()
        self.num_triplets = 4 if tiny else 99
        self.shots = 256 if tiny else 2048
        self.problems: List[str] = []

    def setup(self) -> None:
        self.warmup = self.run_round(None, 0)

    def run_round(self, tracer: Optional[Tracer], index: int) -> Round:
        seed = round_seed(self.seed, index)
        triplets = stratified_triplets(self.coupling_map, self.num_triplets, seed)
        clear_compile_cache()
        before = compile_cache_stats()
        latencies: List[float] = []
        clock_cells = mock.patch.object(
            toffoli_driver, "_toffoli_cell",
            op_clock(latencies, tracer, toffoli_driver._toffoli_cell))
        with clock_cells, RoundClock(tracer) as clock:
            result = run_toffoli_experiment(
                coupling_map=self.coupling_map, triplets=triplets,
                shots=self.shots, seed=seed, sampler="failure")
            after = compile_cache_stats()
        self.problems += self.off_coupling_map(triplets, seed)
        per_cell = len(CONFIGURATIONS)
        improvement = result.geomean_improvement()
        return Round(
            seed=seed,
            ops=per_cell * len(latencies),
            failed=per_cell * (len(latencies) - len(result.rows)),
            wall=clock.wall,
            cpu=clock.cpu,
            latencies=latencies,
            outputs={
                "cnots_total": sum(sum(row.cnot_counts.values()) for row in result.rows),
                "geomean_cnot_reduction": result.gate_reduction(),
                "geomean_success_ratio": improvement,
                "toffoli_success_improvement": improvement,
            },
            fingerprint=sorted(
                (row.triplet, sorted(row.cnot_counts.items()),
                 sorted(row.success_rates.items())) for row in result.rows),
            counts=_cache_counts(before, after),
        )

    def off_coupling_map(self, triplets, seed: int) -> List[str]:
        """The round's compiled circuits (still cached) that break the coupling map."""
        problems = []
        for index, triplet in enumerate(triplets):
            placement = dict(enumerate(triplet))
            for configuration in CONFIGURATIONS:
                compiled = compile_configuration(
                    configuration, self.coupling_map, placement, seed=seed + index)
                violations = check_connectivity(compiled.circuit, self.coupling_map)
                if violations:
                    problems.append(
                        f"triplet {triplet} {configuration}: {len(violations)} "
                        f"instruction(s) off the coupling map")
        return problems

    def extra_outputs(self) -> Dict[str, float]:
        return {}

    def check(self) -> List[str]:
        """Every compiled circuit of every round respects the coupling map."""
        return self.problems


@dataclass(frozen=True)
class _Key:
    """One compile request of the stream, by circuit, target and options."""

    topology: str
    benchmark: str
    method: str
    routing_seed: int


class ServiceStream:
    """``service_warm_stream``: a warm compile service under two lockstep clients.

    Every round sends the same stream, so a cycle is one round.
    """

    name = "service_warm_stream"
    cycle = 1

    def __init__(self, seed: int, tiny: bool, reference=None, canonical_bytes=None):
        self.seed = seed
        rng = random.Random(seed)
        topologies = list(PAPER_TOPOLOGIES)
        benchmarks = list(PAPER_BENCHMARKS)
        if tiny:
            topologies, benchmarks = topologies[:2], ["cnx_inplace-4", "incrementer_borrowedbit-5"]
        self.qasm = {name: to_qasm(get_benchmark(name)) for name in benchmarks}
        self.warm_keys = [
            _Key(t, b, m, seed)
            for t in topologies for b in benchmarks for m in ("baseline", "trios")
        ]
        # Fresh keys: every (topology, benchmark) once, with the pipeline and
        # the grouping into coalesced pairs, two-miss steps and single misses
        # fixed, so each seed sends the same circuit mix down the miss path;
        # the seed draws the routing seeds, the hit keys and the step order.
        fresh = [
            _Key(t, b, ("baseline", "trios")[(ti + bi) % 2],
                 rng.randrange(10**6, 2 * 10**6))
            for ti, t in enumerate(topologies) for bi, b in enumerate(benchmarks)
        ]
        random.Random(0).shuffle(fresh)
        pairs, doubles = (1, 1) if tiny else (8, 8)
        total_steps = 40 if tiny else 1000
        steps: List[Tuple[_Key, _Key]] = [(k, k) for k in fresh[:pairs]]
        rest = fresh[pairs:]
        steps += [(rest[2 * i], rest[2 * i + 1]) for i in range(doubles)]
        steps += [(k, rng.choice(self.warm_keys)) for k in rest[2 * doubles:]]
        while len(steps) < total_steps:
            steps.append((rng.choice(self.warm_keys), rng.choice(self.warm_keys)))
        rng.shuffle(steps)
        self.steps = steps
        self.artifacts: Dict[str, Any] = {}   # warm job key -> cached artifact
        self.served: Dict[_Key, set] = {}     # key -> distinct QASM texts served
        self.key_of: Dict[_Key, str] = {}

    def request(self, key: _Key) -> CompileRequest:
        return CompileRequest(qasm=self.qasm[key.benchmark], target=key.topology,
                              method=key.method, options={"seed": key.routing_seed})

    def setup(self) -> None:
        """Pre-warm a cold service with the sweep keys, then one warm-up stream."""
        async def prewarm():
            service = CompileService()
            await service.start()
            try:
                responses = await asyncio.gather(
                    *(service.compile(self.request(k)) for k in self.warm_keys))
                for key, response in zip(self.warm_keys, responses):
                    self._record(key, response)
                    self.artifacts[response.key] = service.cache.get(response.key)
            finally:
                await service.stop()

        asyncio.run(prewarm())
        self.warmup = self.run_round(None, 0)

    def _record(self, key: _Key, response) -> None:
        self.key_of[key] = response.key
        self.served.setdefault(key, set()).add(response.qasm)

    def run_round(self, tracer: Optional[Tracer], index: int) -> Round:
        cache = ShardedLRUCache(name="compile")
        for job_key, artifact in self.artifacts.items():
            cache.put(job_key, artifact)
        before = cache.stats()
        latencies: List[float] = []
        outcomes: List[Tuple[_Key, Any]] = []

        async def send(service, key):
            start = time.perf_counter()
            try:
                response = await service.compile(self.request(key))
            finally:
                latencies.append(time.perf_counter() - start)
            outcomes.append((key, response))

        async def main():
            service = CompileService(cache=cache)
            await service.start()
            failed = 0
            try:
                with RoundClock(tracer) as clock:
                    for a, b in self.steps:
                        results = await asyncio.gather(
                            send(service, a), send(service, b), return_exceptions=True)
                        failed += sum(isinstance(r, BaseException) for r in results)
                    stats = service.stats_json()
            finally:
                await service.stop()
            return failed, stats, clock

        failed, stats, clock = asyncio.run(main())
        for key, response in outcomes:
            self._record(key, response)
        counts = _cache_counts(before, cache.stats())
        counts["service.batches"] = stats["service"]["batches"]
        counts["service.pool_compiles"] = stats["service"]["pool_compiles"]
        return Round(
            seed=self.seed,
            ops=len(latencies),
            failed=failed,
            wall=clock.wall,
            cpu=clock.cpu,
            latencies=latencies,
            outputs={"cnots_total": sum({r.key: r.cnots for _, r in outcomes}.values())},
            fingerprint=sorted(
                (key.topology, key.benchmark, key.method, key.routing_seed,
                 response.status, response.cnots) for key, response in outcomes),
            counts=counts,
        )

    def extra_outputs(self) -> Dict[str, float]:
        """Figures 10 and 11 recomputed from the served warm artifacts.

        Over the Toffoli benchmarks on every topology: one minus the geomean
        of trios/baseline CNOTs, and the geomean of the success ratios, with
        success re-estimated from each artifact's parsed QASM.
        """
        calibration = near_term_calibration()
        served = {}
        for key in self.warm_keys:
            artifact = self.artifacts[self.key_of[key]]
            circuit = from_qasm(artifact.qasm).without(["barrier"])
            served[(key.topology, key.benchmark, key.method)] = (
                artifact.cnots, estimate_success(circuit, calibration).probability)
        cnot_ratios, success_ratios = [], []
        for (topology, benchmark, method), (cnots, success) in served.items():
            if method == "baseline" and benchmark in TOFFOLI_BENCHMARKS:
                trios_cnots, trios_success = served[(topology, benchmark, "trios")]
                cnot_ratios.append(max(trios_cnots, 1) / max(cnots, 1))
                # BenchmarkComparison.success_ratio, capped as the sweep caps it.
                ratio = (trios_success / success if success > 0
                         else float("inf") if trios_success > 0 else 1.0)
                success_ratios.append(min(ratio, 1e9))
        return {
            "geomean_cnot_reduction": 1.0 - geometric_mean(cnot_ratios),
            "geomean_success_ratio": geometric_mean(success_ratios),
        }

    def check(self) -> List[str]:
        """Every served artifact equals a direct in-process compile of its key."""
        problems = []
        for key, texts in sorted(self.served.items(), key=lambda kv: repr(kv[0])):
            request = self.request(key)
            job = CompileJob.from_qasm(request.qasm, request.resolve_coupling_map(),
                                       request.method, **request.options)
            expected = to_qasm(execute_compile_job(job).circuit)
            if texts != {expected}:
                problems.append(f"{key}: served QASM differs from a direct compile")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Toffoli, ServiceStream)}
