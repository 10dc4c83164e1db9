"""Content-addressed compile jobs: one key recipe for drivers and server.

A :class:`CompileJob` pins everything that determines a compiled circuit —
the canonical QASM of the input, the target topology's signature and the
resolved :class:`~repro.compiler.pipeline.TranspileOptions` (pipeline name
included) — into a single SHA-256 key.  The experiment drivers
(:func:`repro.experiments.benchmarks.compile_benchmark_cached`, the Toffoli
configurations) and the compile service (:mod:`repro.service.service`) all
build their cache keys here, so a result cached by one is a hit for the
others and the historical options-blind-key bug class cannot recur.

The key recipe (also documented in the README's service section)::

    sha256("repro-compile-job/v2" + topology_signature
           + canonical_options + canonical_qasm)

* ``canonical_qasm`` is ``to_qasm(circuit)`` — the bit-exact QASM
  round-trip makes the text a faithful content address for the circuit.
* ``topology_signature`` is the device name, qubit count and edge list.
* ``canonical_options`` is :meth:`TranspileOptions.canonical`: the same
  resolution ``transpile()`` runs, so ``transpile(c, t)`` and
  ``transpile(c, t, optimization_level=1)`` share a key while
  ``optimization_level=2`` never collides with either, and options that
  cannot change the compiled output (``jobs``, ``validate``) are left out.

Resolving the options up front also checks them: an unknown, invalid or
ineffective option is a :class:`~repro.exceptions.ServiceRequestError` when
the job is built, before anything is dispatched.

Caching safety: a job whose resolved seed is ``None`` under stochastic
routing is **not cacheable** (:attr:`CompileJob.cacheable`) — its output is
intentionally non-reproducible, and serving a memoized copy would silently
change that contract.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.qasm import from_qasm, to_qasm
from ..compiler.pipeline import TranspileOptions, transpile
from ..compiler.result import CompilationResult
from ..exceptions import AnalysisError, ReproError, ServiceRequestError, TranspilerError
from ..hardware.topology import CouplingMap
from .cache import ShardedLRUCache

#: Version tag mixed into every key; bump when the recipe changes shape.
_KEY_VERSION = "repro-compile-job/v2"


def topology_signature(coupling_map: CouplingMap) -> tuple:
    """The hashable identity of a target device: name, size, edge list."""
    return (coupling_map.name, coupling_map.num_qubits, tuple(coupling_map.edges))


def compile_job_key(
    canonical_qasm: str, topology: tuple, options: TranspileOptions
) -> str:
    """The SHA-256 content address of one compile job (hex digest)."""
    rendered_options = ";".join(
        f"{name}={value}" for name, value in options.canonical()
    )
    payload = "\n".join(
        (
            _KEY_VERSION,
            f"topology={topology!r}",
            f"options={rendered_options}",
            "qasm:",
            canonical_qasm,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Raw QASM text digest → canonical QASM.  Bounded like every other cache
#: here; keeps the warm-path key derivation free of parsing entirely.
_CANONICAL_QASM_CACHE = ShardedLRUCache(max_bytes=32 * 1024 * 1024, name="qasm")


@dataclass
class CompileJob:
    """One fully specified compile: content key + everything to execute it."""

    qasm: str
    coupling_map: CouplingMap
    options: TranspileOptions
    key: str
    #: The parsed/original circuit, carried to skip a re-parse at execution.
    circuit: Optional[QuantumCircuit] = None

    @classmethod
    def from_circuit(
        cls,
        circuit: QuantumCircuit,
        coupling_map: CouplingMap,
        method: str,
        **options: Any,
    ) -> "CompileJob":
        """A job from an in-memory circuit (the drivers' entry point)."""
        qasm = to_qasm(circuit)
        return cls._build(qasm, circuit, coupling_map, method, options)

    @classmethod
    def from_qasm(
        cls,
        text: str,
        coupling_map: CouplingMap,
        method: str,
        **options: Any,
    ) -> "CompileJob":
        """A job from QASM text (the service's entry point).

        The text is parsed and re-emitted so formatting differences never
        produce distinct keys for the same circuit.  The raw-text →
        canonical-text step is memoized (bounded, content-addressed), so a
        warm-cache request never pays the parse again.
        """
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        canonical = _CANONICAL_QASM_CACHE.get(digest)
        circuit: Optional[QuantumCircuit] = None
        if canonical is None:
            try:
                circuit = from_qasm(text)
            except ReproError as exc:
                raise ServiceRequestError(f"unparseable QASM: {exc}") from exc
            canonical = to_qasm(circuit)
            _CANONICAL_QASM_CACHE.put(digest, canonical)
        return cls._build(canonical, circuit, coupling_map, method, options)

    @classmethod
    def _build(
        cls,
        qasm: str,
        circuit: Optional[QuantumCircuit],
        coupling_map: CouplingMap,
        method: str,
        options: Mapping[str, Any],
    ) -> "CompileJob":
        try:
            resolved = TranspileOptions.resolve(method, **options)
            key = compile_job_key(qasm, topology_signature(coupling_map), resolved)
        except (TranspilerError, AnalysisError) as exc:
            raise ServiceRequestError(str(exc)) from exc
        return cls(
            qasm=qasm,
            coupling_map=coupling_map,
            options=resolved,
            key=key,
            circuit=circuit,
        )

    @property
    def cacheable(self) -> bool:
        """False for seedless stochastic routing; see :class:`TranspileOptions`."""
        return self.options.cacheable


def execute_compile_job(job: CompileJob) -> CompilationResult:
    """Run one job through ``transpile()`` with its resolved options."""
    circuit = job.circuit if job.circuit is not None else from_qasm(job.qasm)
    return transpile(
        circuit, job.coupling_map, job.options.method, **job.options.as_kwargs()
    )


@dataclass(frozen=True)
class CompiledArtifact:
    """A compiled result rendered for serving: what the service caches.

    Rendering the compiled circuit to QASM costs tens of milliseconds for the
    larger Fig 9/10 benchmarks — far more than a cache lookup — so it happens
    exactly once, in the pool worker, and every subsequent hit ships these
    pre-rendered bytes untouched.
    """

    method: str
    qasm: str
    cnots: int
    depth: int
    swaps: int

    @classmethod
    def from_result(cls, result: CompilationResult) -> "CompiledArtifact":
        return cls(
            method=result.method,
            qasm=to_qasm(result.circuit),
            cnots=result.two_qubit_gate_count,
            depth=result.depth,
            swaps=result.swaps_inserted,
        )


def run_job_cached(
    job: CompileJob, cache: ShardedLRUCache
) -> Tuple[CompilationResult, str]:
    """Serve a job from the cache, compiling on a miss; returns (result, how).

    ``how`` is ``"hit"``, ``"miss"`` or ``"uncached"`` (a non-cacheable job,
    which bypasses the cache entirely — including its counters).
    """
    if not job.cacheable:
        return execute_compile_job(job), "uncached"
    cached = cache.get(job.key)
    if cached is not None:
        return cached, "hit"
    result = execute_compile_job(job)
    cache.put(job.key, result)
    return result, "miss"
