"""Equivalence tests for the batched shot engine.

The batched samplers draw the same distributions as the original per-shot
implementations — only the order of RNG consumption changed — so seeded runs
of both must agree within a total-variation-distance (TVD) tolerance.  The
reference samplers are the seed repository's per-shot loops, frozen verbatim
in ``benchmarks/_legacy_samplers.py`` (shared with the throughput benchmark).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim import (
    GateFailureSampler,
    NoisyResult,
    PauliTrajectorySampler,
    SimulationBackend,
    StatevectorSimulator,
    counts_from_bit_array,
    get_backend,
    marginal_probabilities,
)
from repro.sim.statevector import zero_state

_LEGACY_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "_legacy_samplers.py"
_spec = importlib.util.spec_from_file_location("_legacy_samplers", _LEGACY_PATH)
_legacy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_legacy)
ReferenceTrajectorySampler = _legacy.LegacyTrajectorySampler
ReferenceGateFailureSampler = _legacy.LegacyGateFailureSampler


def total_variation_distance(a: NoisyResult, b: NoisyResult) -> float:
    """TVD between the empirical distributions of two count results."""
    keys = set(a.counts) | set(b.counts)
    return 0.5 * sum(
        abs(a.counts.get(k, 0) / a.shots - b.counts.get(k, 0) / b.shots)
        for k in keys
    )


def toffoli_workload() -> QuantumCircuit:
    """A decomposed |110⟩-input Toffoli plus a spectator CNOT (4 qubits)."""
    circuit = QuantumCircuit(4)
    circuit.x(0).x(1)
    circuit.h(2).cx(1, 2).tdg(2).cx(0, 2).t(2).cx(1, 2).tdg(2).cx(0, 2)
    circuit.t(1).t(2).h(2).cx(0, 1).t(0).tdg(1).cx(0, 1)
    circuit.cx(2, 3)
    return circuit


class TestBatchedEquivalence:
    SHOTS = 4096
    TVD_TOLERANCE = 0.05

    def test_trajectory_sampler_matches_reference(self, hardware_calibration):
        circuit = toffoli_workload()
        batched = PauliTrajectorySampler(hardware_calibration, seed=7).run(
            circuit, shots=self.SHOTS
        )
        reference = ReferenceTrajectorySampler(hardware_calibration, seed=7).run(
            circuit, shots=self.SHOTS
        )
        assert sum(batched.counts.values()) == self.SHOTS
        assert total_variation_distance(batched, reference) <= self.TVD_TOLERANCE

    def test_trajectory_sampler_matches_reference_no_readout(self, hardware_calibration):
        circuit = toffoli_workload()
        kwargs = dict(include_decoherence=False, include_readout_error=False)
        batched = PauliTrajectorySampler(hardware_calibration, seed=3, **kwargs).run(
            circuit, shots=self.SHOTS
        )
        reference = ReferenceTrajectorySampler(hardware_calibration, seed=3, **kwargs).run(
            circuit, shots=self.SHOTS
        )
        assert total_variation_distance(batched, reference) <= self.TVD_TOLERANCE

    def test_failure_sampler_matches_reference(self, hardware_calibration):
        circuit = toffoli_workload()
        batched = GateFailureSampler(hardware_calibration, seed=11).run(
            circuit, shots=self.SHOTS
        )
        reference = ReferenceGateFailureSampler(hardware_calibration, seed=11).run(
            circuit, shots=self.SHOTS
        )
        assert sum(batched.counts.values()) == self.SHOTS
        assert total_variation_distance(batched, reference) <= self.TVD_TOLERANCE

    def test_trajectory_seeded_runs_are_reproducible(self, hardware_calibration):
        circuit = toffoli_workload()
        sampler = PauliTrajectorySampler(hardware_calibration)
        first = sampler.run_counts(circuit, shots=512, seed=21)
        second = sampler.run_counts(circuit, shots=512, seed=21)
        assert first.counts == second.counts

    def test_high_error_rates_still_sum_to_shots(self, hardware_calibration):
        # Stress the pattern-grouping path: errors on nearly every gate.
        noisy = hardware_calibration.improved(0.05)  # 20x worse
        circuit = toffoli_workload()
        result = PauliTrajectorySampler(noisy, seed=5).run(circuit, shots=256)
        assert sum(result.counts.values()) == 256

    def test_single_shot_run(self, hardware_calibration):
        result = PauliTrajectorySampler(hardware_calibration, seed=1).run(
            toffoli_workload(), shots=1
        )
        assert sum(result.counts.values()) == 1


class TestSimulationBackendProtocol:
    def test_samplers_satisfy_protocol(self, hardware_calibration):
        assert isinstance(PauliTrajectorySampler(hardware_calibration), SimulationBackend)
        assert isinstance(GateFailureSampler(hardware_calibration), SimulationBackend)
        assert isinstance(StatevectorSimulator(), SimulationBackend)

    def test_get_backend_by_name(self, hardware_calibration):
        assert isinstance(get_backend("trajectory", hardware_calibration),
                          PauliTrajectorySampler)
        assert isinstance(get_backend("failure", hardware_calibration),
                          GateFailureSampler)
        assert isinstance(get_backend("ideal"), StatevectorSimulator)
        assert isinstance(get_backend("statevector"), StatevectorSimulator)

    def test_get_backend_unknown_name(self):
        with pytest.raises(SimulationError, match="unknown simulation backend"):
            get_backend("quantum-annealer")

    def test_noisy_backend_requires_calibration(self):
        with pytest.raises(SimulationError, match="requires a device calibration"):
            get_backend("failure")

    def test_ideal_backend_run_counts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        circuit.measure(0, 0).measure(1, 1)
        result = StatevectorSimulator().run_counts(circuit, shots=300, seed=9)
        assert result.shots == 300
        assert set(result.counts) <= {"00", "11"}
        assert sum(result.counts.values()) == 300
        again = StatevectorSimulator().run_counts(circuit, shots=300, seed=9)
        assert again.counts == result.counts

    def test_ideal_backend_draws_fresh_samples_per_call(self):
        # Regression: a seeded instance must advance its RNG across calls
        # (independent batches), matching the noisy samplers' behavior.
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        backend = StatevectorSimulator(seed=5)
        first = backend.run_counts(circuit, shots=4096)
        second = backend.run_counts(circuit, shots=4096)
        assert first.counts != second.counts

    def test_ideal_backend_reduces_wide_circuits(self):
        # A 30-qubit device circuit with two active qubits must not blow the
        # simulator's width limit (the noisy samplers reduce the same way).
        wide = QuantumCircuit(30)
        wide.h(12).cx(12, 17)
        result = StatevectorSimulator().run_counts(wide, shots=64, seed=3)
        assert result.measured_qubits == (12, 17)
        assert set(result.counts) <= {"00", "11"}

    def test_all_backends_agree_on_noiseless_device(self, hardware_calibration):
        perfect = hardware_calibration.improved(1e12)
        circuit = toffoli_workload()
        for name in ("failure", "trajectory"):
            backend = get_backend(name, perfect, seed=2,
                                  include_readout_error=False)
            result = backend.run_counts(circuit, shots=128)
            assert result.counts == {"1111": 128}, name


class TestSatelliteFixes:
    def test_marginal_rejects_duplicate_qubits(self):
        state = zero_state(3)
        with pytest.raises(SimulationError, match="duplicate"):
            marginal_probabilities(state, 3, [0, 0])

    def test_marginal_rejects_out_of_range_qubits(self):
        state = zero_state(3)
        with pytest.raises(SimulationError, match="out of range"):
            marginal_probabilities(state, 3, [0, 3])
        with pytest.raises(SimulationError, match="out of range"):
            marginal_probabilities(state, 3, [-1])

    def test_failure_sampler_max_active_qubits(self, hardware_calibration):
        wide = QuantumCircuit(8)
        for qubit in range(7):
            wide.cx(qubit, qubit + 1)
        sampler = GateFailureSampler(hardware_calibration, seed=0, max_active_qubits=4)
        with pytest.raises(SimulationError, match="exceeds the gate-failure"):
            sampler.run(wide, shots=8)

    def test_counts_from_bit_array(self):
        bits = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.int8)
        assert counts_from_bit_array(bits) == {"01": 2, "10": 1}


class TestPinnedSeededCounts:
    """Seeded counts on a wide routed Toffoli, recorded with the ``tensordot``
    gate kernel: a kernel change must not move a single sampled outcome."""

    @pytest.fixture(scope="class")
    def routed_toffoli(self):
        from repro.experiments.toffoli import compile_configuration
        from repro.hardware import johannesburg

        compiled = compile_configuration(
            "Qiskit (baseline)", johannesburg(), {0: 0, 1: 9, 2: 15}, seed=1
        )
        circuit = compiled.circuit.without(["measure"])
        assert len(circuit.active_qubits()) == 16
        return circuit, compiled.physical_qubits_of([0, 1, 2])

    def test_failure_sampler_counts(self, routed_toffoli, hardware_calibration):
        circuit, measured = routed_toffoli
        counts = GateFailureSampler(hardware_calibration, seed=0).run(
            circuit, shots=2048, measured_qubits=measured
        ).counts
        assert counts == {
            "000": 220, "001": 211, "010": 214, "011": 229,
            "100": 226, "101": 258, "110": 238, "111": 452,
        }

    def test_trajectory_sampler_counts(self, routed_toffoli, hardware_calibration):
        circuit, measured = routed_toffoli
        counts = PauliTrajectorySampler(hardware_calibration, seed=0).run(
            circuit, shots=64, measured_qubits=measured
        ).counts
        assert counts == {
            "000": 5, "001": 2, "010": 8, "011": 4,
            "100": 13, "101": 5, "110": 15, "111": 12,
        }
