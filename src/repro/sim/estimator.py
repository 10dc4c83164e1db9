"""Analytic success-probability estimation (the paper's model, §2.6).

The paper estimates the probability that a compiled program succeeds as

    P_success = P(no gate error) * P(no coherence error)
              = prod_i (1 - e_i)  *  exp(-(Δ/T1 + Δ/T2))

where ``e_i`` is the error rate of gate ``i`` and ``Δ`` is the total scheduled
program duration.  This module computes both factors from a compiled circuit
and a :class:`~repro.hardware.calibration.DeviceCalibration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import obs
from ..circuits.circuit import QuantumCircuit, asap_makespan
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration


@dataclass(frozen=True)
class SuccessEstimate:
    """Breakdown of the analytic success-probability estimate."""

    gate_success: float
    coherence_success: float
    readout_success: float
    duration: float
    num_two_qubit_gates: int
    num_one_qubit_gates: int
    num_measurements: int

    @property
    def probability(self) -> float:
        """The combined success probability (upper bound, per the paper)."""
        return self.gate_success * self.coherence_success * self.readout_success


def circuit_duration(circuit: QuantumCircuit, calibration: DeviceCalibration) -> float:
    """Scheduled duration (µs) of a hardware-basis circuit under ASAP scheduling."""

    def duration_of(instruction) -> float:
        if instruction.gate.num_qubits >= 3:
            raise SimulationError(
                f"gate {instruction.name!r} is not hardware-native; decompose "
                "the circuit before estimating duration"
            )
        return calibration.gate_duration(instruction.name, instruction.qubits)

    return asap_makespan(circuit.instructions, duration_of)


def estimate_success(
    circuit: QuantumCircuit,
    calibration: DeviceCalibration,
    include_readout: bool = True,
) -> SuccessEstimate:
    """Estimate the success probability of a compiled (hardware-basis) circuit.

    Args:
        circuit: Circuit containing only one- and two-qubit gates (SWAPs are
            treated as three CNOTs), plus optional measurements/barriers.
        calibration: Device error rates and timings.
        include_readout: Whether measurement errors contribute; the paper's
            simulation model folds readout into the gate-error product, so this
            defaults to True but is exposed for sensitivity studies.

    Returns:
        A :class:`SuccessEstimate` whose ``probability`` is the product of the
        gate, coherence and readout success factors.
    """
    with obs.span(
        "estimate_success",
        category="sim",
        source=circuit.name,
        include_readout=include_readout,
    ):
        return _estimate_success(circuit, calibration, include_readout)


def _estimate_success(
    circuit: QuantumCircuit,
    calibration: DeviceCalibration,
    include_readout: bool,
) -> SuccessEstimate:
    gate_success = 1.0
    readout_success = 1.0
    num_two_qubit = 0
    num_one_qubit = 0
    num_measure = 0
    for instruction in circuit.instructions:
        name = instruction.name
        if name == "barrier":
            continue
        if name == "measure":
            num_measure += 1
            if include_readout:
                readout_success *= 1.0 - calibration.readout_error
            continue
        if name == "reset":
            continue
        if instruction.gate.num_qubits >= 3:
            raise SimulationError(
                f"gate {name!r} on {instruction.gate.num_qubits} qubits is not "
                "hardware-native; run the second decomposition pass first"
            )
        if name == "swap":
            # A SWAP still present in the circuit costs three CNOTs.
            error = calibration.gate_error("cx", instruction.qubits)
            gate_success *= (1.0 - error) ** 3
            num_two_qubit += 3
        elif instruction.gate.num_qubits == 2:
            gate_success *= 1.0 - calibration.gate_error(name, instruction.qubits)
            num_two_qubit += 1
        else:
            gate_success *= 1.0 - calibration.gate_error(name, instruction.qubits)
            num_one_qubit += 1
    duration = circuit_duration(circuit, calibration)
    coherence_success = math.exp(-(duration / calibration.t1 + duration / calibration.t2))
    if obs.is_enabled():
        obs.counter("sim.estimator.calls").inc()
        obs.add_attrs(two_qubit_gates=num_two_qubit, duration_us=duration)
    return SuccessEstimate(
        gate_success=gate_success,
        coherence_success=coherence_success,
        readout_success=readout_success,
        duration=duration,
        num_two_qubit_gates=num_two_qubit,
        num_one_qubit_gates=num_one_qubit,
        num_measurements=num_measure,
    )


def success_probability(
    circuit: QuantumCircuit,
    calibration: DeviceCalibration,
    include_readout: bool = True,
) -> float:
    """Shorthand for ``estimate_success(...).probability``."""
    return estimate_success(circuit, calibration, include_readout).probability


def success_ratio(
    trios_circuit: QuantumCircuit,
    baseline_circuit: QuantumCircuit,
    calibration: DeviceCalibration,
) -> float:
    """``p_trios / p_baseline`` — the normalised metric of Figures 8, 11 and 12."""
    baseline = success_probability(baseline_circuit, calibration)
    trios = success_probability(trios_circuit, calibration)
    if baseline <= 0.0:
        return math.inf if trios > 0 else 1.0
    return trios / baseline
