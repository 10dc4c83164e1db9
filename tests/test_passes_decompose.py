"""Tests for unitary synthesis, basis decomposition and the Toffoli decompositions."""


import numpy as np
import pytest

from repro.circuits import Gate, QuantumCircuit
from repro.circuits.library import GATE_ARITY
from repro.exceptions import TranspilerError
from repro.hardware import CouplingMap, johannesburg
from repro.passes import (
    DecomposeToBasisPass,
    MappingAwareToffoliDecomposePass,
    PropertySet,
    RemoveIdentitiesPass,
    ToffoliDecomposePass,
    ccz_6cnot,
    ccz_8cnot_line,
    matrix_is_identity,
    toffoli_6cnot,
    toffoli_8cnot_line,
    u3_from_matrix,
    zyz_angles,
)
from repro.sim import circuits_equivalent, equal_up_to_global_phase


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(matrix)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestZyzSynthesis:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_unitaries_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        unitary = random_unitary_2x2(rng)
        theta, phi, lam, phase = zyz_angles(unitary)
        rebuilt = np.exp(1j * phase) * Gate("u3", 1, (theta, phi, lam)).matrix()
        assert np.allclose(rebuilt, unitary, atol=1e-9)

    @pytest.mark.parametrize("name", ["x", "y", "z", "h", "s", "t", "sx"])
    def test_named_gates_roundtrip(self, name):
        matrix = Gate(name, 1).matrix()
        rebuilt = u3_from_matrix(matrix).matrix()
        assert equal_up_to_global_phase(rebuilt, matrix)

    def test_diagonal_and_antidiagonal_edge_cases(self):
        assert equal_up_to_global_phase(
            u3_from_matrix(Gate("z", 1).matrix()).matrix(), Gate("z", 1).matrix()
        )
        assert equal_up_to_global_phase(
            u3_from_matrix(Gate("x", 1).matrix()).matrix(), Gate("x", 1).matrix()
        )

    def test_identity_detection(self):
        assert matrix_is_identity(np.eye(2))
        assert matrix_is_identity(np.exp(1j * 0.3) * np.eye(2))
        assert not matrix_is_identity(Gate("x", 1).matrix())

    def test_tiny_rotations_are_not_identity(self):
        # Regression: numpy's default rtol=1e-5 used to make any rotation
        # below ~1e-5 rad count as the identity, so RemoveIdentitiesPass
        # deleted real gates.
        tiny = Gate("rz", 1, (1e-6,))
        assert not tiny.is_identity()
        assert not matrix_is_identity(tiny.matrix())
        assert Gate("rz", 1, (0.0,)).is_identity()
        circuit = QuantumCircuit(1)
        circuit.rz(1e-6, 0)
        kept = RemoveIdentitiesPass().run(circuit)
        assert [inst.gate for inst in kept.instructions] == [tiny]

    def test_non_unitary_rejected(self):
        with pytest.raises(TranspilerError):
            zyz_angles(np.array([[1, 0], [0, 2]], dtype=complex))


class TestToffoliDecompositions:
    def test_6cnot_toffoli_is_exact(self):
        reference = QuantumCircuit(3)
        reference.ccx(0, 1, 2)
        candidate = QuantumCircuit(3)
        candidate.extend(toffoli_6cnot(0, 1, 2))
        assert circuits_equivalent(reference, candidate)
        assert candidate.count_ops()["cx"] == 6

    @pytest.mark.parametrize("middle", [0, 1, 2])
    def test_8cnot_toffoli_is_exact_for_any_middle(self, middle):
        reference = QuantumCircuit(3)
        reference.ccx(0, 1, 2)
        candidate = QuantumCircuit(3)
        candidate.extend(toffoli_8cnot_line(0, 1, 2, middle=middle))
        assert circuits_equivalent(reference, candidate)
        assert candidate.count_ops()["cx"] == 8

    def test_8cnot_toffoli_only_touches_line_pairs(self):
        instructions = toffoli_8cnot_line(0, 1, 2, middle=1)
        pairs = {inst.qubits for inst in instructions if inst.name == "cx"}
        assert pairs <= {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_ccz_decompositions_are_exact(self):
        reference = QuantumCircuit(3)
        reference.ccz(0, 1, 2)
        for instructions in (ccz_6cnot(0, 1, 2), ccz_8cnot_line(0, 1, 2)):
            candidate = QuantumCircuit(3)
            candidate.extend(instructions)
            assert circuits_equivalent(reference, candidate)

    def test_8cnot_middle_must_be_a_gate_qubit(self):
        with pytest.raises(TranspilerError):
            toffoli_8cnot_line(0, 1, 2, middle=5)

    def test_fixed_mode_pass_expands_every_toffoli(self):
        circuit = QuantumCircuit(4)
        circuit.ccx(0, 1, 2).ccx(1, 2, 3)
        expanded = ToffoliDecomposePass(mode="8cnot").run(circuit, PropertySet())
        assert expanded.count_ops().get("ccx", 0) == 0
        assert expanded.count_ops()["cx"] == 16


class TestMappingAwareDecomposition:
    def test_triangle_selects_6cnot(self):
        cmap = CouplingMap(3, [(0, 1), (1, 2), (0, 2)])
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        out = MappingAwareToffoliDecomposePass(cmap).run(circuit, PropertySet())
        assert out.count_ops()["cx"] == 6

    def test_line_selects_8cnot_with_correct_middle(self):
        cmap = CouplingMap(3, [(0, 1), (1, 2)])
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 2, 1)  # middle hardware qubit is 1, the Toffoli target
        out = MappingAwareToffoliDecomposePass(cmap).run(circuit, PropertySet())
        assert out.count_ops()["cx"] == 8
        pairs = {tuple(sorted(inst.qubits)) for inst in out.instructions if inst.name == "cx"}
        assert pairs <= {(0, 1), (1, 2)}
        reference = QuantumCircuit(3)
        reference.ccx(0, 2, 1)
        assert circuits_equivalent(reference, out)

    def test_disconnected_trio_rejected(self):
        cmap = CouplingMap(4, [(0, 1), (2, 3)])
        circuit = QuantumCircuit(4)
        circuit.ccx(0, 1, 3)
        with pytest.raises(TranspilerError):
            MappingAwareToffoliDecomposePass(cmap).run(circuit, PropertySet())

    def test_johannesburg_always_uses_8cnot(self):
        cmap = johannesburg()
        circuit = QuantumCircuit(20)
        circuit.ccx(0, 1, 6)  # 1 is adjacent to both 0 and 6? (0-1 yes, 1-6 no)
        circuit.instructions.clear()
        circuit.ccx(5, 6, 7)  # a line 5-6-7 on Johannesburg
        out = MappingAwareToffoliDecomposePass(cmap).run(circuit, PropertySet())
        assert out.count_ops()["cx"] == 8


class TestBasisDecomposition:
    @pytest.mark.parametrize(
        "name",
        [n for n, arity in GATE_ARITY.items() if n not in ("measure", "reset")],
    )
    def test_every_gate_decomposes_to_basis_and_stays_exact(self, name):
        arity = GATE_ARITY[name]
        params = tuple(0.37 * (i + 1) for i in range(_num_params(name)))
        circuit = QuantumCircuit(arity)
        circuit.append(Gate(name, arity, params), tuple(range(arity)))
        decomposed = DecomposeToBasisPass().run(circuit, PropertySet())
        allowed = {"u1", "u2", "u3", "cx", "swap"}
        assert {inst.name for inst in decomposed.instructions} <= allowed
        assert circuits_equivalent(circuit, decomposed)

    def test_keep_leaves_toffolis_intact(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).ccx(0, 1, 2).t(2)
        kept = DecomposeToBasisPass(keep=("ccx", "ccz")).run(circuit, PropertySet())
        assert kept.count_ops().get("ccx") == 1
        assert "h" not in kept.count_ops()

    def test_toffoli_mode_selects_decomposition_size(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        six = DecomposeToBasisPass(toffoli_mode="6cnot").run(circuit, PropertySet())
        eight = DecomposeToBasisPass(toffoli_mode="8cnot").run(circuit, PropertySet())
        assert six.count_ops()["cx"] == 6
        assert eight.count_ops()["cx"] == 8

    def test_measure_and_barrier_pass_through(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().measure(0, 0)
        out = DecomposeToBasisPass().run(circuit, PropertySet())
        assert out.count_ops().get("measure") == 1
        assert out.count_ops().get("barrier") == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(TranspilerError):
            DecomposeToBasisPass(toffoli_mode="7cnot")


def _num_params(name: str) -> int:
    return {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "p": 1, "cp": 1, "crz": 1,
            "rzz": 1, "u2": 2, "u3": 3}.get(name, 0)
