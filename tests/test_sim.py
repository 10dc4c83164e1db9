"""Tests for the statevector/unitary simulators and the analytic success model."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim import (
    GateFailureSampler,
    PauliTrajectorySampler,
    StatevectorSimulator,
    basis_state,
    circuit_duration,
    circuit_unitary,
    circuits_equivalent,
    equal_up_to_global_phase,
    estimate_success,
    marginal_probabilities,
    permutation_unitary,
    statevector_fidelity,
    success_probability,
    success_ratio,
    zero_state,
)


class TestStatevector:
    def test_zero_state(self):
        state = zero_state(3)
        assert state[0] == 1 and np.count_nonzero(state) == 1

    def test_basis_state_ordering(self):
        # Qubit 0 is the most significant bit.
        state = basis_state([1, 0, 1])
        assert state[0b101] == 1

    def test_bell_state_probabilities(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        probs = StatevectorSimulator().probabilities(circuit)
        assert probs == pytest.approx({"00": 0.5, "11": 0.5})

    def test_ghz_state(self):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        for qubit in range(3):
            circuit.cx(qubit, qubit + 1)
        probs = StatevectorSimulator().probabilities(circuit)
        assert probs == pytest.approx({"0000": 0.5, "1111": 0.5})

    def test_marginal_probabilities_subset_and_order(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        state = StatevectorSimulator().run(circuit)
        assert marginal_probabilities(state, 3, [0]) == pytest.approx({"1": 1.0})
        assert marginal_probabilities(state, 3, [1, 0]) == pytest.approx({"01": 1.0})

    def test_sample_counts_sum_to_shots(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        counts = StatevectorSimulator().sample_counts(circuit, shots=200, seed=1)
        assert sum(counts.values()) == 200
        assert set(counts) <= {"00", "11"}

    def test_toffoli_truth_table(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        sim = StatevectorSimulator()
        out = sim.run(circuit, basis_state([1, 1, 0]))
        assert statevector_fidelity(out, basis_state([1, 1, 1])) == pytest.approx(1.0)
        out = sim.run(circuit, basis_state([1, 0, 0]))
        assert statevector_fidelity(out, basis_state([1, 0, 0])) == pytest.approx(1.0)

    def test_simulator_qubit_limit(self):
        with pytest.raises(SimulationError):
            StatevectorSimulator(num_qubits_limit=4).run(QuantumCircuit(5))


class TestUnitary:
    def test_identity_circuit(self):
        circuit = QuantumCircuit(2)
        assert np.allclose(circuit_unitary(circuit), np.eye(4))

    def test_global_phase_equality(self):
        a = np.eye(2)
        b = np.exp(1j * 0.7) * np.eye(2)
        assert equal_up_to_global_phase(a, b)
        assert not equal_up_to_global_phase(a, np.array([[0, 1], [1, 0]]))

    def test_permutation_unitary_moves_data(self):
        perm = permutation_unitary({0: 1, 1: 0}, 2)
        state = perm @ basis_state([1, 0])
        assert statevector_fidelity(state, basis_state([0, 1])) == pytest.approx(1.0)

    def test_circuits_equivalent_with_permutation(self):
        original = QuantumCircuit(2)
        original.cx(0, 1)
        swapped = QuantumCircuit(2)
        swapped.swap(0, 1)
        swapped.cx(1, 0)
        assert circuits_equivalent(original, swapped, final_permutation={0: 1, 1: 0})
        assert not circuits_equivalent(original, swapped)

    def test_non_unitary_rejected(self):
        circuit = QuantumCircuit(1)
        circuit.measure(0)
        with pytest.raises(SimulationError):
            circuit_unitary(circuit)


class TestSuccessEstimator:
    def test_gate_error_product(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(0, 1)
        estimate = estimate_success(circuit, hardware_calibration)
        assert estimate.num_two_qubit_gates == 2
        assert estimate.gate_success == pytest.approx((1 - 0.0147) ** 2)

    def test_duration_and_coherence(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(0, 1)
        duration = circuit_duration(circuit, hardware_calibration)
        assert duration == pytest.approx(2 * 0.559)
        estimate = estimate_success(circuit, hardware_calibration)
        expected = math.exp(-(duration / 70.87 + duration / 72.72))
        assert estimate.coherence_success == pytest.approx(expected)

    def test_swap_counts_as_three_cnots(self, hardware_calibration):
        with_swap = QuantumCircuit(2)
        with_swap.swap(0, 1)
        expanded = QuantumCircuit(2)
        expanded.cx(0, 1).cx(1, 0).cx(0, 1)
        assert success_probability(with_swap, hardware_calibration) == pytest.approx(
            success_probability(expanded, hardware_calibration)
        )

    def test_readout_error_included_when_measuring(self, hardware_calibration):
        circuit = QuantumCircuit(1)
        circuit.measure(0)
        with_readout = estimate_success(circuit, hardware_calibration, include_readout=True)
        without = estimate_success(circuit, hardware_calibration, include_readout=False)
        assert with_readout.probability < without.probability

    def test_three_qubit_gate_rejected(self, hardware_calibration):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(SimulationError):
            estimate_success(circuit, hardware_calibration)

    def test_fewer_gates_means_higher_success(self, hardware_calibration):
        short = QuantumCircuit(2)
        short.cx(0, 1)
        long = QuantumCircuit(2)
        for _ in range(20):
            long.cx(0, 1)
        assert success_probability(short, hardware_calibration) > success_probability(
            long, hardware_calibration
        )
        assert success_ratio(short, long, hardware_calibration) > 1.0

    def test_improved_calibration_raises_success(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        for _ in range(30):
            circuit.cx(0, 1)
        better = hardware_calibration.improved(20)
        assert success_probability(circuit, better) > success_probability(
            circuit, hardware_calibration
        )


class TestOneMakespan:
    """``circuit_duration`` is the ASAP makespan over qubits and clbits."""

    @staticmethod
    def _reference_makespan(circuit, calibration):
        """An independent ASAP loop over the instruction list."""
        makespan = 0.0
        ready_qubit, ready_clbit = {}, {}
        for instruction in circuit.instructions:
            start = 0.0
            for qubit in instruction.qubits:
                start = max(start, ready_qubit.get(qubit, 0.0))
            for clbit in instruction.clbits:
                start = max(start, ready_clbit.get(clbit, 0.0))
            end = start + float(
                calibration.gate_duration(instruction.name, instruction.qubits)
            )
            for qubit in instruction.qubits:
                ready_qubit[qubit] = end
            for clbit in instruction.clbits:
                ready_clbit[clbit] = end
            makespan = max(makespan, end)
        return makespan

    def _assert_one_makespan(self, circuit, calibration):
        duration = circuit_duration(circuit, calibration)
        assert duration == self._reference_makespan(circuit, calibration)
        return duration

    def test_measures_barriers_and_clbits(self, hardware_calibration):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).barrier(1, 2).x(2)
        circuit.measure(0, 1).measure(2, 1)  # the shared clbit serialises them
        circuit.cx(1, 2).measure(1, 0).reset(0).t(0)
        duration = self._assert_one_makespan(circuit, hardware_calibration)
        cal = hardware_calibration
        two_measures = (
            cal.one_qubit_gate_time + cal.two_qubit_gate_time + 2 * cal.readout_time
        )
        assert duration >= two_measures

    def test_clbit_dependency_is_scheduled(self, hardware_calibration):
        shared = QuantumCircuit(2).measure(0, 0).measure(1, 0)
        separate = QuantumCircuit(2).measure(0, 0).measure(1, 1)
        readout = hardware_calibration.readout_time
        assert self._assert_one_makespan(shared, hardware_calibration) == 2 * readout
        assert self._assert_one_makespan(separate, hardware_calibration) == readout

    @pytest.mark.parametrize("method", ["baseline", "trios"])
    def test_wide_compiled_cell(self, hardware_calibration, method):
        from repro.bench_circuits.suite import get_benchmark
        from repro.compiler import transpile
        from repro.hardware import johannesburg

        compiled = transpile(
            get_benchmark("cnx_halfborrowed-19"), johannesburg(), method=method, seed=11
        ).circuit
        compiled.measure_all()
        assert compiled.num_qubits == 20
        self._assert_one_makespan(compiled, hardware_calibration)


class TestNoisySamplers:
    def _toffoli_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.x(0).x(1)
        circuit.h(2).cx(1, 2).tdg(2).cx(0, 2).t(2).cx(1, 2).tdg(2).cx(0, 2)
        circuit.t(1).t(2).h(2).cx(0, 1).t(0).tdg(1).cx(0, 1)
        return circuit

    def test_noiseless_trajectory_sampler_is_exact(self, hardware_calibration):
        perfect = hardware_calibration.improved(1e9)
        sampler = PauliTrajectorySampler(perfect, seed=3, include_decoherence=False,
                                         include_readout_error=False)
        result = sampler.run(self._toffoli_circuit(), shots=64, measured_qubits=[0, 1, 2])
        assert result.counts == {"111": 64}

    def test_noisy_trajectory_sampler_degrades_success(self, hardware_calibration):
        sampler = PauliTrajectorySampler(hardware_calibration, seed=3)
        result = sampler.run(self._toffoli_circuit(), shots=256, measured_qubits=[0, 1, 2])
        assert 0.3 < result.success_rate("111") < 1.0

    def test_gate_failure_sampler_matches_analytic_scale(self, hardware_calibration):
        circuit = self._toffoli_circuit()
        sampler = GateFailureSampler(hardware_calibration, seed=5,
                                     include_readout_error=False)
        result = sampler.run(circuit, shots=4000, measured_qubits=[0, 1, 2])
        analytic = estimate_success(circuit, hardware_calibration, include_readout=False)
        # Trouble-free shots give |111>; errored shots land on |111> 1/8 of the time.
        expected = analytic.probability + (1 - analytic.probability) / 8
        assert result.success_rate("111") == pytest.approx(expected, abs=0.05)

    def test_sampler_counts_sum_to_shots(self, hardware_calibration):
        sampler = GateFailureSampler(hardware_calibration, seed=1)
        result = sampler.run(self._toffoli_circuit(), shots=123)
        assert sum(result.counts.values()) == 123
        assert result.shots == 123

    def test_sampler_restricts_to_active_qubits(self, hardware_calibration):
        wide = QuantumCircuit(20)
        wide.x(3).cx(3, 4)
        sampler = PauliTrajectorySampler(hardware_calibration, seed=2)
        result = sampler.run(wide, shots=32, measured_qubits=[3, 4])
        assert set(result.counts) <= {"00", "01", "10", "11"}
