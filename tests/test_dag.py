"""Unit and property tests for the mutable DagCircuit IR."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import DagCircuit, Instruction, QuantumCircuit, library
from repro.exceptions import CircuitError
from repro.passes.toffoli import toffoli_6cnot
from repro.sim import circuits_equivalent

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ONE_QUBIT = ("h", "x", "t", "tdg", "s", "z")


@st.composite
def circuits_with_everything(draw, max_qubits: int = 5, max_gates: int = 16):
    """Random circuits over 1q/2q/3q gates plus measure and barrier."""
    num_qubits = draw(st.integers(min_value=3, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, "random")
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["1q", "2q", "3q", "measure", "barrier"]))
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=3, max_size=3, unique=True,
            )
        )
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(_ONE_QUBIT)))(qubits[0])
        elif kind == "2q":
            circuit.cx(qubits[0], qubits[1])
        elif kind == "3q":
            circuit.ccx(qubits[0], qubits[1], qubits[2])
        elif kind == "measure":
            circuit.measure(qubits[0], draw(st.integers(min_value=0, max_value=3)))
        else:
            circuit.barrier()
    return circuit


def wire_orders(circuit: QuantumCircuit):
    """Per-wire instruction sequences (qubit wires and clbit wires)."""
    orders = {}
    for instruction in circuit.instructions:
        for qubit in instruction.qubits:
            orders.setdefault(("q", qubit), []).append(instruction)
        for clbit in instruction.clbits:
            orders.setdefault(("c", clbit), []).append(instruction)
    return orders


class TestRoundTrip:
    @given(circuit=circuits_with_everything())
    @settings(**_SETTINGS)
    def test_to_circuit_of_from_circuit_is_identity(self, circuit):
        dag = DagCircuit.from_circuit(circuit)
        back = dag.to_circuit()
        assert back.num_qubits == circuit.num_qubits
        assert back.instructions == circuit.instructions

    @given(circuit=circuits_with_everything())
    @settings(**_SETTINGS)
    def test_from_circuit_of_to_circuit_preserves_wire_order(self, circuit):
        dag = DagCircuit.from_circuit(circuit)
        rebuilt = DagCircuit.from_circuit(dag.to_circuit())
        assert wire_orders(rebuilt.to_circuit()) == wire_orders(circuit)

    @given(circuit=circuits_with_everything())
    @settings(**_SETTINGS)
    def test_wire_chain_matches_instruction_order(self, circuit):
        dag = DagCircuit.from_circuit(circuit)
        for qubit in range(circuit.num_qubits):
            chain = []
            node = dag.wire_front(qubit)
            while node is not None:
                chain.append(node.instruction)
                node = node.next_on(qubit)
            expected = [
                inst for inst in circuit.instructions if qubit in inst.qubits
            ]
            assert chain == expected


class TestMutation:
    def _hcx(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).t(1).cx(1, 2)
        return DagCircuit.from_circuit(circuit)

    def test_remove_relinks_wires(self):
        dag = self._hcx()
        t_node = [n for n in dag if n.name == "t"][0]
        dag.remove_node(t_node)
        names = [n.name for n in dag]
        assert names == ["h", "cx", "cx"]
        first_cx, second_cx = [n for n in dag if n.name == "cx"]
        assert first_cx.next_on(1) is second_cx
        assert second_cx.prev_on(1) is first_cx
        with pytest.raises(CircuitError):
            dag.remove_node(t_node)

    def test_insert_before_and_after(self):
        dag = self._hcx()
        t_node = [n for n in dag if n.name == "t"][0]
        dag.insert_before(t_node, Instruction(library.x_gate(), (1,)))
        dag.insert_after(t_node, Instruction(library.z_gate(), (1,)))
        assert [n.name for n in dag] == ["h", "cx", "x", "t", "z", "cx"]
        # Wire 1 chain must interleave correctly.
        chain = []
        node = dag.wire_front(1)
        while node is not None:
            chain.append(node.name)
            node = node.next_on(1)
        assert chain == ["cx", "x", "t", "z", "cx"]

    def test_insert_on_unshared_wire_scans_for_neighbours(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(2)
        dag = DagCircuit.from_circuit(circuit)
        anchor = [n for n in dag if n.qubits == (2,)][0]
        node = dag.insert_before(anchor, Instruction(library.x_gate(), (0,)))
        assert [n.name for n in dag] == ["h", "x", "h"]
        assert node.prev_on(0).name == "h"
        assert node.next_on(0) is None
        assert dag.wire_back(0) is node

    def test_substitute_with_circuit_preserves_semantics(self):
        circuit = QuantumCircuit(4)
        circuit.h(0).ccx(0, 2, 3).cx(3, 1)
        dag = DagCircuit.from_circuit(circuit)
        ccx_node = [n for n in dag if n.name == "ccx"][0]
        replacement = QuantumCircuit(3)
        replacement.extend(toffoli_6cnot(0, 1, 2))
        dag.substitute_node_with_circuit(ccx_node, replacement)
        out = dag.to_circuit()
        assert out.count_ops().get("ccx", 0) == 0
        assert circuits_equivalent(circuit, out)
        # The replacement occupies the old node's slot: h first, cx(3,1) last.
        assert out.instructions[0].name == "h"
        assert out.instructions[-1].qubits == (3, 1)

    def test_substitute_rejects_foreign_wires(self):
        dag = self._hcx()
        t_node = [n for n in dag if n.name == "t"][0]
        with pytest.raises(CircuitError):
            dag.substitute_node_with_instructions(
                t_node, [Instruction(library.x_gate(), (2,))]
            )

    def test_modification_count_tracks_edits(self):
        dag = self._hcx()
        before = dag.modification_count
        node = [n for n in dag if n.name == "t"][0]
        dag.remove_node(node)
        assert dag.modification_count == before + 1
        dag.append(library.x_gate(), (0,))
        assert dag.modification_count == before + 2


class TestContainer:
    def test_len_counts_nodes(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).measure(0)
        dag = DagCircuit.from_circuit(circuit)
        assert len(dag) == 3
        assert [node.name for node in dag] == ["h", "cx", "measure"]

    def test_constructor_takes_a_qubit_count_only(self):
        circuit = QuantumCircuit(2, "named")
        circuit.h(0)
        with pytest.raises(TypeError):
            DagCircuit(circuit)
        dag = DagCircuit.from_circuit(circuit)
        assert (dag.num_qubits, dag.name, len(dag)) == (2, "named", 1)


class TestCircuitMemoization:
    def test_depth_invalidated_by_append_after_query(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert circuit.depth() == 1
        circuit.cx(0, 1)  # append *after* a depth() call must invalidate
        assert circuit.depth() == 2
        circuit.x(1)
        assert circuit.depth() == 3

    def test_count_ops_invalidated_by_append(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert circuit.count_ops() == {"h": 1}
        circuit.h(0)
        assert circuit.count_ops() == {"h": 2}

    def test_count_ops_result_is_not_aliased(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        counts = circuit.count_ops()
        counts["h"] = 99
        assert circuit.count_ops() == {"h": 1}

    def test_copy_does_not_share_cache(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert circuit.depth() == 1
        clone = circuit.copy()
        clone.h(0)
        assert clone.depth() == 2
        assert circuit.depth() == 1


class TestPickling:
    """Circuits and DAGs must survive pickling (the --jobs pool boundary)."""

    def _deep_circuit(self, depth: int = 6000) -> QuantumCircuit:
        circuit = QuantumCircuit(2)
        for _ in range(depth // 2):
            circuit.h(0).cx(0, 1)
        return circuit

    def test_circuit_with_memoized_metrics_pickles(self):
        import pickle

        circuit = self._deep_circuit()
        circuit.depth()
        circuit.count_ops()
        restored = pickle.loads(pickle.dumps(circuit))
        assert [str(i) for i in restored.instructions] == [
            str(i) for i in circuit.instructions
        ]
        assert restored.depth() == circuit.depth()

    def test_dag_pickle_round_trip(self):
        import pickle

        dag = DagCircuit.from_circuit(self._deep_circuit())
        restored = pickle.loads(pickle.dumps(dag))
        assert isinstance(restored, DagCircuit)
        assert [str(i) for i in restored.instructions] == [
            str(i) for i in dag.instructions
        ]
        restored.append(library.x_gate(), (1,))  # the copy is mutable
        assert len(restored) == len(dag) + 1

    def test_deepcopy_of_deep_dag_and_circuit(self):
        import copy

        circuit = self._deep_circuit()
        dag = DagCircuit.from_circuit(circuit)
        dag_clone = copy.deepcopy(dag)
        assert dag_clone.instructions == dag.instructions
        dag_clone.remove_node(dag_clone.head)
        assert len(dag) == len(circuit)
        clone = copy.deepcopy(circuit)
        clone.h(0)
        assert clone.depth() == circuit.depth() + 1


class TestSubstituteAtomicity:
    def test_failed_substitution_leaves_dag_untouched(self):
        dag = DagCircuit(3)
        dag.append(library.h_gate(), (0,))
        node = dag.append(library.cx_gate(), (0, 1))
        before = [str(i) for i in dag.instructions]
        bad = [
            Instruction(library.cx_gate(), (0, 1), ()),
            Instruction(library.cx_gate(), (0, 2), ()),  # wire 2: not the node's
        ]
        with pytest.raises(CircuitError):
            dag.substitute_node_with_instructions(node, bad)
        assert [str(i) for i in dag.instructions] == before
