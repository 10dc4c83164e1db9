"""Pass framework: DAG-based passes, stages, fixed-point loops and telemetry.

Every pass runs on the :class:`~repro.circuits.dag.DagCircuit` IR:

* an :class:`AnalysisPass` inspects the DAG and records results in the
  :class:`PropertySet` (layout selection, scheduling, ...);
* a :class:`TransformationPass` rewrites the DAG — in place for local rewrites
  (decomposition, cancellation, consolidation) or by building a fresh DAG when
  the wire set changes (routing onto physical qubits).

A :class:`PassManager` executes named :class:`Stage` groups in order,
converting the input circuit to a DAG exactly once and back exactly once, and
records one :class:`repro.obs.Span` per executed pass in
``properties["pass_spans"]`` (mirrored into the global trace when
:mod:`repro.obs` is enabled).  The :class:`FixedPoint` combinator repeats a
pass group until a whole sweep makes no structural modification, which is how
the optimisation stage iterates cancellation/consolidation to convergence
instead of one hard-coded sweep.

For convenience (and backwards compatibility with the list-IR era) every pass
also accepts a plain :class:`~repro.circuits.circuit.QuantumCircuit` in
:meth:`BasePass.run` and returns a circuit in that case.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import DagCircuit
from ..exceptions import TranspilerError


class PropertySet(dict):
    """Shared key/value store threaded through a pass pipeline.

    Well-known keys:

    * ``"layout"`` — the initial logical→physical :class:`~repro.passes.layout.Layout`.
    * ``"final_layout"`` — logical→physical layout after routing.
    * ``"swaps_inserted"`` — number of SWAP gates added by routing.
    * ``"coupling_map"`` — the target :class:`~repro.hardware.topology.CouplingMap`.
    * ``"pass_history"`` — names of the passes executed, in order.
    * ``"pass_spans"`` — one :class:`repro.obs.Span` per executed pass
      (name, stage/size attrs, wall-aligned start, duration) — the single
      source of pass telemetry.
    * ``"fixed_point_iterations"`` — sweeps each :class:`FixedPoint` loop took.
    """


def record_pass_span(
    properties: PropertySet,
    pass_name: str,
    stage: Optional[str],
    start: float,
    seconds: float,
    size_before: int,
    size_after: int,
) -> obs.Span:
    """Record one executed pass in ``properties["pass_spans"]``.

    When :mod:`repro.obs` is enabled the span also lands in the global trace,
    parented under the innermost open span (the ``transpile`` span); when
    disabled a detached record is created so per-pass telemetry keeps working
    with zero setup.
    """
    attrs: Dict[str, object] = {
        "stage": stage,
        "size_before": size_before,
        "size_after": size_after,
    }
    tracer = obs.get_tracer()
    if tracer is not None:
        span = tracer.record(
            pass_name, "compiler.pass", start=start, duration=seconds, attrs=attrs
        )
    else:
        span = obs.Span(
            name=pass_name,
            category="compiler.pass",
            start=start,
            duration=max(0.0, seconds),
            span_id=0,
            parent_id=None,
            pid=os.getpid(),
            attrs=attrs,
        )
    properties.setdefault("pass_spans", []).append(span)
    return span


class BasePass(ABC):
    """A single compilation step running on the DAG IR."""

    #: Set by combinators (e.g. :class:`FixedPoint`) that time their inner
    #: passes themselves, so the pass manager does not double-record them.
    records_own_telemetry = False

    # -- pass contracts (see repro.analysis.contracts) -------------------
    #: Pipeline properties that must hold before this pass runs.
    requires: Tuple[str, ...] = ()
    #: Pipeline properties guaranteed to hold after this pass.
    establishes: Tuple[str, ...] = ()
    #: Properties this pass keeps intact: ``"*"`` (everything not explicitly
    #: invalidated) or an explicit tuple.
    preserves: Union[str, Tuple[str, ...]] = "*"
    #: Properties this pass may destroy.
    invalidates: Tuple[str, ...] = ()
    #: Per-execution assertions (e.g. ``"gate_count_nonincreasing"``) the
    #: contract validator evaluates after every run of this pass.
    checks: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """Human-readable pass name (the class name by default)."""
        return type(self).__name__

    @abstractmethod
    def execute(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        """Run on ``dag`` and return the (possibly new, possibly same) DAG."""

    def run(
        self,
        circuit: Union[QuantumCircuit, DagCircuit],
        properties: Optional[PropertySet] = None,
    ):
        """Convenience entry point accepting a circuit or a DAG.

        Given a :class:`QuantumCircuit`, converts to a DAG, executes, and
        converts back; given a :class:`DagCircuit`, executes directly and
        returns the DAG.
        """
        properties = properties if properties is not None else PropertySet()
        if isinstance(circuit, DagCircuit):
            return self.execute(circuit, properties)
        dag = DagCircuit.from_circuit(circuit)
        out = self.execute(dag, properties)
        if out is None:
            raise TranspilerError(f"pass {self.name} returned None")
        return out.to_circuit()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"


class AnalysisPass(BasePass):
    """A pass that inspects the DAG and writes results into the property set."""

    @abstractmethod
    def analyze(self, dag: DagCircuit, properties: PropertySet) -> None:
        """Inspect ``dag`` (read-only) and record findings in ``properties``."""

    def execute(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        self.analyze(dag, properties)
        return dag

    def run(
        self,
        circuit: Union[QuantumCircuit, DagCircuit],
        properties: Optional[PropertySet] = None,
    ):
        properties = properties if properties is not None else PropertySet()
        if isinstance(circuit, DagCircuit):
            self.analyze(circuit, properties)
            return circuit
        self.analyze(DagCircuit.from_circuit(circuit), properties)
        return circuit


class TransformationPass(BasePass):
    """A pass that rewrites the DAG (in place or by returning a new one)."""

    #: Any rewrite invalidates a previously computed schedule by default;
    #: passes that keep timing intact override this back to ``()``.
    invalidates: Tuple[str, ...] = ("scheduled",)

    @abstractmethod
    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        """Rewrite ``dag``; return the resulting DAG (may be ``dag`` itself)."""

    def execute(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        out = self.run_dag(dag, properties)
        if out is None:
            raise TranspilerError(f"pass {self.name} returned None")
        return out


def _same_instruction_sequence(left: Sequence, right: Sequence) -> bool:
    """True when both linearisations hold identical instruction objects."""
    if len(left) != len(right):
        return False
    return all(a is b or a == b for a, b in zip(left, right))


class FixedPoint(TransformationPass):
    """Repeat a pass group until a full sweep makes no structural change.

    Convergence is detected through :attr:`DagCircuit.modification_count`: a
    sweep that neither removes, inserts nor substitutes any node (on the same
    DAG object) is a fixed point.  Passes that rebuild a fresh DAG instead of
    mutating in place are supported through an O(n) fallback comparing the
    instruction sequences (instructions are immutable and shared, so an
    unchanged rebuild carries the same objects).  The passes in the group are
    responsible for not reporting byte-churn as progress (see
    :class:`~repro.passes.optimization.Consolidate1qRunsPass`).
    """

    records_own_telemetry = True

    def __init__(self, passes: Sequence[BasePass], max_iterations: int = 64) -> None:
        self.passes: List[BasePass] = list(passes)
        for single_pass in self.passes:
            if not isinstance(single_pass, BasePass):
                raise TranspilerError(f"{single_pass!r} is not a BasePass")
        self.max_iterations = int(max_iterations)

    @property
    def name(self) -> str:
        inner = ", ".join(p.name for p in self.passes)
        return f"FixedPoint[{inner}]"

    # -- aggregated contracts -------------------------------------------
    # The combinator's contract is derived from its inner passes by
    # simulating one sweep in order: a requirement satisfied by an earlier
    # inner pass does not leak out, an invalidated property that is
    # re-established by sweep end is not reported as invalidated, and a
    # check only holds for the loop if every inner pass declares it.
    def _simulate_sweep(self):
        requires: List[str] = []
        established: set = set()
        absent: set = set()
        checks: Optional[set] = None
        for single_pass in self.passes:
            for req in single_pass.requires:
                if req not in established and req not in requires:
                    requires.append(req)
            if single_pass.preserves != "*":
                established &= set(single_pass.preserves)
            for prop in single_pass.invalidates:
                established.discard(prop)
                absent.add(prop)
            for prop in single_pass.establishes:
                established.add(prop)
                absent.discard(prop)
            inner_checks = set(single_pass.checks)
            checks = inner_checks if checks is None else checks & inner_checks
        return (
            tuple(requires),
            tuple(sorted(established)),
            tuple(sorted(absent)),
            tuple(sorted(checks or ())),
        )

    @property
    def requires(self) -> Tuple[str, ...]:  # type: ignore[override]
        return self._simulate_sweep()[0]

    @property
    def establishes(self) -> Tuple[str, ...]:  # type: ignore[override]
        return self._simulate_sweep()[1]

    @property
    def invalidates(self) -> Tuple[str, ...]:  # type: ignore[override]
        return self._simulate_sweep()[2]

    @property
    def checks(self) -> Tuple[str, ...]:  # type: ignore[override]
        return self._simulate_sweep()[3]

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        stage = properties.get("_current_stage")
        for iteration in range(1, self.max_iterations + 1):
            before_dag = dag
            before_mods = dag.modification_count
            # Snapshot for the rebuild fallback below: `before_dag` itself may
            # be mutated in place during the sweep, so comparing against the
            # object at sweep end would miss those changes.
            before_instructions = dag.instructions
            for single_pass in self.passes:
                start = obs.now()
                size_before = len(dag)
                dag = single_pass.execute(dag, properties)
                if dag is None:
                    raise TranspilerError(f"pass {single_pass.name} returned None")
                record_pass_span(
                    properties,
                    single_pass.name,
                    stage,
                    start,
                    obs.now() - start,
                    size_before,
                    len(dag),
                )
            if dag is before_dag:
                converged = dag.modification_count == before_mods
            else:
                # A pass rebuilt the DAG; compare content against the
                # sweep-start snapshot instead of counters.
                converged = dag.num_qubits == before_dag.num_qubits and (
                    _same_instruction_sequence(
                        dag.instructions, before_instructions
                    )
                )
            if converged:
                properties.setdefault("fixed_point_iterations", []).append(iteration)
                return dag
        raise TranspilerError(
            f"{self.name} did not converge within {self.max_iterations} sweeps"
        )


@dataclass
class Stage:
    """A named group of passes — the unit the driver's pipelines are built from."""

    name: str
    passes: List[BasePass]

    def __post_init__(self) -> None:
        self.passes = list(self.passes)
        for single_pass in self.passes:
            if not isinstance(single_pass, BasePass):
                raise TranspilerError(f"{single_pass!r} is not a BasePass")


class PassManager:
    """Runs stages (or a flat pass list) over a circuit via the DAG IR.

    The input circuit is converted to a :class:`DagCircuit` once, every pass
    runs on the DAG, and the final DAG is linearised back to a circuit once —
    transformation passes never round-trip through an instruction list.

    ``validate`` selects contract checking (see
    :mod:`repro.analysis.contracts`): ``"off"`` runs no checks,
    ``"contracts"`` (or ``True``) checks the declared
    ``requires``/``establishes``/``invalidates`` contracts and per-pass
    ``checks``, ``"full"`` additionally lints the IR structurally and
    re-verifies held properties against the DAG after every pass.  ``None``
    (the default) defers to the ``REPRO_VALIDATE`` environment variable,
    which the test suite and CI set to ``full``.
    """

    def __init__(
        self,
        passes: Optional[Sequence[Union[BasePass, Stage]]] = None,
        validate: Union[None, bool, str] = None,
    ) -> None:
        from ..analysis.contracts import resolve_validation_mode

        self._units: List[Tuple[Optional[str], BasePass]] = []
        self.validate = resolve_validation_mode(validate)
        for item in passes or []:
            self.append(item)

    # ------------------------------------------------------------------
    def append(
        self,
        item: Union[BasePass, Stage],
        stage: Optional[str] = None,
    ) -> "PassManager":
        """Add a pass (optionally under a stage name) or a whole stage."""
        if isinstance(item, Stage):
            for single_pass in item.passes:
                self._units.append((item.name, single_pass))
            return self
        if not isinstance(item, BasePass):
            raise TranspilerError(f"{item!r} is not a BasePass")
        self._units.append((stage, item))
        return self

    @property
    def passes(self) -> List[BasePass]:
        """The flat pass list, in execution order."""
        return [single_pass for _, single_pass in self._units]

    def stages(self) -> List[str]:
        """Distinct stage names, in first-appearance order."""
        seen: List[str] = []
        for stage, _ in self._units:
            if stage is not None and stage not in seen:
                seen.append(stage)
        return seen

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Union[QuantumCircuit, DagCircuit],
        properties: Optional[PropertySet] = None,
    ) -> Tuple[Union[QuantumCircuit, DagCircuit], PropertySet]:
        """Run every pass in order; returns the final circuit and properties.

        The return type mirrors the input: a circuit in, a circuit out; a DAG
        in, a DAG out.
        """
        properties = properties if properties is not None else PropertySet()
        was_circuit = isinstance(circuit, QuantumCircuit)
        dag = DagCircuit.from_circuit(circuit) if was_circuit else circuit
        history: List[str] = properties.setdefault("pass_history", [])
        validator = None
        if self.validate != "off":
            from ..analysis.contracts import ContractValidator

            validator = ContractValidator(self.validate)
        for stage, single_pass in self._units:
            properties["_current_stage"] = stage
            if validator is not None:
                validator.before_pass(single_pass, dag, properties)
            start = obs.now()
            size_before = len(dag)
            dag = single_pass.execute(dag, properties)
            if dag is None:
                raise TranspilerError(f"pass {single_pass.name} returned None")
            if not single_pass.records_own_telemetry:
                record_pass_span(
                    properties,
                    single_pass.name,
                    stage,
                    start,
                    obs.now() - start,
                    size_before,
                    len(dag),
                )
            if validator is not None:
                validator.after_pass(single_pass, dag, properties)
            history.append(single_pass.name)
        properties.pop("_current_stage", None)
        return (dag.to_circuit() if was_circuit else dag), properties

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(p.name for p in self.passes)
        return f"PassManager([{names}])"
