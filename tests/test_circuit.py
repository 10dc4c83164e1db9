"""Unit tests for the QuantumCircuit IR, the DAG and OpenQASM I/O."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, circuit_layers, draw, from_qasm, to_qasm
from repro.circuits import library
from repro.circuits.circuit import Instruction, asap_makespan
from repro.circuits.dag import DagCircuit
from repro.exceptions import CircuitError


class TestCircuitConstruction:
    def test_builder_methods_append_instructions(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).ccx(0, 1, 2).t(2).measure(2, 0)
        assert len(circuit) == 5
        assert circuit.count_ops() == {"h": 1, "cx": 1, "ccx": 1, "t": 1, "measure": 1}

    def test_out_of_range_qubit_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.h(2)

    def test_duplicate_qubits_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.cx(1, 1)

    def test_zero_qubit_circuit_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        clone = circuit.copy()
        clone.x(1)
        assert len(circuit) == 1
        assert len(clone) == 2

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(4)
        outer.compose(inner, qubits=[3, 1])
        assert outer.instructions[0].qubits == (3, 1)

    def test_compose_size_mismatch(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(3).compose(QuantumCircuit(2), qubits=[0])


class TestIndexCoercion:
    """Qubit and clbit indices must be integers; a float is an error, not truncated."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Instruction(library.cx_gate(), (0.9, 2.7)),
            lambda: Instruction(library.h_gate(), (np.float64(1.0),)),
            lambda: Instruction(library.measure_op(), (0,), (0.5,)),
            lambda: Instruction(library.h_gate(), 1),
            lambda: QuantumCircuit(3).append(library.h_gate(), [1.5]),
            lambda: QuantumCircuit(3).measure(0, 1.5),
            lambda: DagCircuit(3).append(library.cx_gate(), (2.2, 0.1)),
            lambda: QuantumCircuit(3).compose(QuantumCircuit(1).h(0), [1.5]),
        ],
        ids=["instruction", "numpy-float", "clbit", "not-a-sequence",
             "circuit-append", "circuit-measure", "dag-append", "compose"],
    )
    def test_non_integer_indices_rejected(self, build):
        with pytest.raises(CircuitError, match="integers"):
            build()

    def test_numpy_integers_become_ints(self):
        instruction = Instruction(
            library.measure_op(), (np.int64(2),), (np.int32(1),)
        )
        assert instruction.qubits == (2,) and instruction.clbits == (1,)
        assert type(instruction.qubits[0]) is int
        assert type(instruction.clbits[0]) is int
        circuit = QuantumCircuit(3).cx(np.int16(0), np.uint8(2))
        assert circuit.instructions[0].qubits == (0, 2)

    def test_append_instruction_keeps_the_range_check(self):
        instruction = Instruction(library.cx_gate(), (0, 3))
        with pytest.raises(CircuitError, match="out of range"):
            QuantumCircuit(3).append_instruction(instruction)
        circuit = QuantumCircuit(4).append_instruction(instruction)
        assert circuit.instructions[0] is instruction


class TestCircuitMetrics:
    def test_two_qubit_gate_count_counts_swaps_as_three(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).swap(1, 2).ccx(0, 1, 2)
        assert circuit.two_qubit_gate_count(count_swap_as=3) == 4
        assert circuit.two_qubit_gate_count(count_swap_as=1) == 2

    def test_depth_of_parallel_gates(self):
        circuit = QuantumCircuit(4)
        circuit.h(0).h(1).h(2).h(3)
        assert circuit.depth() == 1
        circuit.cx(0, 1).cx(2, 3)
        assert circuit.depth() == 2
        circuit.cx(1, 2)
        assert circuit.depth() == 3

    def test_depth_ignores_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().h(1)
        assert circuit.depth() == 1

    def test_active_qubits(self):
        circuit = QuantumCircuit(5)
        circuit.cx(1, 3)
        circuit.barrier()
        assert circuit.active_qubits() == {1, 3}

    def test_interactions_weight_toffoli_pairs(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        circuit.cx(0, 1)
        weights = circuit.interactions(toffoli_weight=2)
        assert weights[(0, 1)] == 3
        assert weights[(0, 2)] == 2
        assert weights[(1, 2)] == 2

    def test_num_clbits(self):
        circuit = QuantumCircuit(3)
        assert circuit.num_clbits() == 0
        circuit.measure(1, 2)
        assert circuit.num_clbits() == 3


class TestCircuitTransforms:
    def test_remap_qubits(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        remapped = circuit.remap_qubits({0: 4, 1: 2}, num_qubits=5)
        assert remapped.instructions[0].qubits == (4, 2)
        assert remapped.num_qubits == 5

    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).t(0).cx(0, 1)
        inverse = circuit.inverse()
        names = [inst.name for inst in inverse.instructions]
        assert names == ["cx", "tdg", "h"]

    def test_inverse_rejects_measurement(self):
        circuit = QuantumCircuit(1)
        circuit.measure(0)
        with pytest.raises(CircuitError):
            circuit.inverse()

    def test_without_drops_named_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().measure(0)
        cleaned = circuit.without(["barrier", "measure"])
        assert [inst.name for inst in cleaned.instructions] == ["h"]


class TestCircuitLayers:
    def test_layers_group_parallel_gates(self):
        circuit = QuantumCircuit(4)
        circuit.h(0).h(1).cx(0, 1).cx(2, 3)
        layers = circuit_layers(circuit)
        assert [sorted(inst.name for inst in layer) for layer in layers] == [
            ["cx", "h", "h"],
            ["cx"],
        ]

    def test_shared_clbit_orders_layers_but_not_depth(self):
        # depth() follows qubits only; the layering (and so the drawer's
        # columns) also waits on the shared clbit.
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).measure(0, 0).measure(1, 0)
        assert circuit.depth() == 2
        layers = circuit_layers(circuit, ignore=())
        assert [[inst.name for inst in layer] for layer in layers] == [
            ["h", "h"],
            ["measure"],
            ["measure"],
        ]
        first_line = draw(circuit).splitlines()[0]
        assert first_line == "q0  : " + "-h-" + "-M-" + "---"

    def test_barrier_layers_only_when_not_ignored(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().h(1)
        assert len(circuit_layers(circuit)) == 1
        assert len(circuit_layers(circuit, ignore=())) == 3

    def test_asap_makespan_uses_durations(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        circuit.u3(0.1, 0.2, 0.3, 0).cx(0, 1).u3(0.1, 0.2, 0.3, 1)
        duration = asap_makespan(
            circuit.instructions,
            lambda inst: hardware_calibration.gate_duration(inst.name, inst.qubits),
        )
        expected = 0.07 + 0.559 + 0.07
        assert duration == pytest.approx(expected)


class TestOpenQasm:
    def test_roundtrip_preserves_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).t(1).cx(0, 1).ccx(0, 1, 2).rz(0.25, 2).swap(1, 2)
        circuit.measure(2, 0)
        text = to_qasm(circuit)
        parsed = from_qasm(text)
        assert parsed.count_ops() == circuit.count_ops()
        assert [inst.qubits for inst in parsed.instructions] == [
            inst.qubits for inst in circuit.instructions
        ]

    def test_qasm_contains_headers_and_registers(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).measure_all()
        text = to_qasm(circuit)
        assert "OPENQASM 2.0;" in text
        assert "qreg q[2];" in text
        assert "creg c[2];" in text
        assert "measure q[0] -> c[0];" in text

    def test_pi_fractions_are_rendered_exactly(self):
        circuit = QuantumCircuit(1)
        circuit.rz(math.pi / 2, 0)
        assert "pi/2" in to_qasm(circuit)

    def test_parse_rejects_unknown_gate(self):
        bad = 'OPENQASM 2.0;\nqreg q[1];\nfancy q[0];\n'
        with pytest.raises(CircuitError):
            from_qasm(bad)
