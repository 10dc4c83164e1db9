"""Compilation results and the metrics the paper reports.

A :class:`CompilationResult` bundles the final hardware-basis circuit with the
:class:`~repro.hardware.target.Target` it was compiled for, the layouts and
bookkeeping produced by the pass pipeline — including per-pass telemetry
(:attr:`CompilationResult.pass_spans`) — and exposes the metrics used
throughout the evaluation: two-qubit gate count (§2.5), depth, scheduled
duration and the analytic success-probability estimate (§2.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis import LintReport
    from ..obs import Span

from ..circuits.circuit import QuantumCircuit
from ..exceptions import TranspilerError
from ..hardware.calibration import DeviceCalibration
from ..hardware.target import Target
from ..hardware.topology import CouplingMap
from ..passes.base import PropertySet
from ..passes.layout import Layout
from ..passes.scheduling import asap_schedule
from ..sim.estimator import SuccessEstimate, estimate_success


@dataclass
class CompilationResult:
    """The output of :func:`repro.compiler.pipeline.transpile` and friends."""

    circuit: QuantumCircuit
    coupling_map: CouplingMap
    method: str
    initial_layout: Layout
    final_layout: Layout
    swaps_inserted: int
    source_name: str = ""
    properties: PropertySet = field(default_factory=PropertySet)
    target: Optional[Target] = None
    # Barrier-free view of the circuit, memoized by _bare_circuit() (kept out
    # of `properties`, which is the pass pipeline's data and gets serialised).
    _bare: Optional[QuantumCircuit] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Gate metrics
    # ------------------------------------------------------------------
    def gate_counts(self) -> Dict[str, int]:
        """Histogram of gate names in the compiled circuit."""
        return self.circuit.count_ops()

    @property
    def two_qubit_gate_count(self) -> int:
        """Total number of two-qubit gates (CNOTs), the paper's primary proxy metric."""
        return self.circuit.two_qubit_gate_count(count_swap_as=3)

    @property
    def depth(self) -> int:
        """Depth of the compiled circuit."""
        return self.circuit.depth()

    # ------------------------------------------------------------------
    # Pass telemetry
    # ------------------------------------------------------------------
    @property
    def seed_search(self) -> Optional[Dict[str, object]]:
        """Telemetry of the level-3 multi-seed layout/routing search.

        ``None`` below ``optimization_level=3``; otherwise a dict with the
        ``seeds`` tried, one ``candidates`` record per seed (``seed``,
        ``cnots``, ``depth``, ``estimated_success``, ``admissible``) and the
        ``chosen_seed``/``chosen_index`` that produced this result.
        """
        return self.properties.get("optimization3_search")

    @property
    def pass_spans(self) -> List["Span"]:
        """Per-pass telemetry spans recorded by the pass manager.

        One :class:`repro.obs.Span` per executed pass (fixed-point loops
        contribute one span per pass per sweep), carrying the pass name, the
        stage and instruction-count deltas as attrs, and wall-aligned
        start/duration.  This is the single source of pass telemetry and
        the data behind the CLI's ``--profile-passes`` table.
        """
        return list(self.properties.get("pass_spans", []))

    # ------------------------------------------------------------------
    # Time / noise metrics
    # ------------------------------------------------------------------
    def _bare_circuit(self) -> QuantumCircuit:
        """The compiled circuit without barriers, built once and cached.

        Duration and success queries both schedule this circuit.
        """
        if self._bare is None:
            self._bare = self.circuit.without(["barrier"])
        return self._bare

    def duration(self, calibration: Optional[DeviceCalibration] = None) -> float:
        """ASAP-scheduled makespan in microseconds.

        ``calibration`` defaults to the target's calibration when present.
        """
        return asap_schedule(self._bare_circuit(), self._calibration(calibration)).duration

    def success_estimate(
        self,
        calibration: Optional[DeviceCalibration] = None,
        include_readout: bool = True,
    ) -> SuccessEstimate:
        """The paper's analytic success-probability estimate for this circuit."""
        return estimate_success(
            self._bare_circuit(),
            self._calibration(calibration),
            include_readout=include_readout,
        )

    def success_probability(
        self,
        calibration: Optional[DeviceCalibration] = None,
        include_readout: bool = True,
    ) -> float:
        """Shorthand for ``success_estimate(...).probability``."""
        return self.success_estimate(calibration, include_readout).probability

    def _calibration(self, calibration: Optional[DeviceCalibration]) -> DeviceCalibration:
        if calibration is not None:
            return calibration
        if self.target is not None and self.target.calibration is not None:
            return self.target.calibration
        raise TranspilerError(
            "no calibration given and the compilation target carries none"
        )

    # ------------------------------------------------------------------
    # Machine verification
    # ------------------------------------------------------------------
    def assert_equivalent(
        self,
        logical: QuantumCircuit,
        trials: int = 3,
        seed: int = 7,
        max_active: int = 14,
    ) -> None:
        """Machine-check this compilation against its logical source.

        Delegates to :func:`repro.sim.equivalence.assert_routed_equivalent`
        with this result's initial/final layouts: random product states are
        prepared on the initial wires and the outputs must appear on the
        final wires with every ancilla wire back in |0⟩.  Raises
        :class:`~repro.exceptions.EquivalenceError` on deviation.
        """
        from ..sim.equivalence import assert_routed_equivalent

        assert_routed_equivalent(
            logical,
            self.circuit,
            self.initial_layout.to_dict(),
            self.final_layout.to_dict(),
            trials=trials,
            seed=seed,
            max_active=max_active,
            context=f"{self.method} compilation of {self.source_name!r}",
        )

    def lint(self, suppress=()) -> "LintReport":
        """Run the static circuit linter over this compilation.

        Checks the compiled circuit's structural IR invariants, hardware
        legality against this result's target/coupling map, the recorded
        layouts, and the resource rules (see :mod:`repro.analysis.rules` for
        the ``QLxxx`` codes).  Returns a
        :class:`~repro.analysis.LintReport`; a correct compilation lints
        without error-severity findings.
        """
        from ..analysis import CircuitLinter

        return CircuitLinter(suppress=suppress).lint(
            self, name=f"{self.method}:{self.source_name or self.circuit.name}"
        )

    # ------------------------------------------------------------------
    def physical_qubits_of(self, logical_qubits) -> list:
        """Final physical positions of the given logical qubits (after routing)."""
        return [self.final_layout.physical(q) for q in logical_qubits]

    def summary(self) -> Dict[str, object]:
        """A compact, printable summary of the compilation."""
        return {
            "method": self.method,
            "source": self.source_name,
            "device": self.coupling_map.name,
            "two_qubit_gates": self.two_qubit_gate_count,
            "depth": self.depth,
            "swaps_inserted": self.swaps_inserted,
            "gate_counts": self.gate_counts(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompilationResult(method={self.method!r}, source={self.source_name!r}, "
            f"device={self.coupling_map.name!r}, cnots={self.two_qubit_gate_count}, "
            f"depth={self.depth}, swaps={self.swaps_inserted})"
        )


def gate_reduction(baseline: CompilationResult, improved: CompilationResult) -> float:
    """Fractional two-qubit gate reduction, the metric of Figure 10.

    Returns ``1 - improved/baseline`` so 0.35 means "35% fewer CNOT gates".
    """
    base = baseline.two_qubit_gate_count
    if base == 0:
        return 0.0
    return 1.0 - improved.two_qubit_gate_count / base


def check_connectivity(circuit: QuantumCircuit, coupling_map: CouplingMap) -> list:
    """Return the list of two-qubit instructions that violate the coupling map.

    An empty list means the circuit is executable on the device (every CNOT or
    SWAP acts on a coupled pair).  Compiled circuits must always pass this.
    """
    violations = []
    for instruction in circuit.instructions:
        if not instruction.gate.is_unitary:
            continue
        if instruction.gate.num_qubits == 2:
            a, b = instruction.qubits
            if not coupling_map.are_adjacent(a, b):
                violations.append(instruction)
        elif instruction.gate.num_qubits >= 3:
            violations.append(instruction)
    return violations
