"""Circuit-level optimisation passes, expressed as local DAG rewrites.

These mirror the "light optimisation" the paper says Qiskit's default transpile
performs (§5.2): single-qubit gate consolidation and adjacent inverse-gate
cancellation, plus the SWAP→3-CNOT expansion that every routed circuit needs
before gate counting, scheduling and noise estimation.

All passes here mutate the :class:`~repro.circuits.dag.DagCircuit` in place —
removing cancelled pairs, splicing merged gates before their anchor — instead
of rebuilding an instruction list per sweep, which is what lets the driver's
:class:`~repro.passes.base.FixedPoint` combinator iterate them to convergence
cheaply.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..circuits.circuit import Instruction
from ..circuits.dag import DagCircuit, DagNode
from ..circuits import library
from .base import PropertySet, TransformationPass
from .synthesis import matrix_is_identity, u3_from_matrix


class DecomposeSwapsPass(TransformationPass):
    """Expand every explicit SWAP into its three-CNOT implementation (§2.2)."""

    establishes = ("swaps_expanded",)

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        node = dag.head
        while node is not None:
            if node.name != "swap":
                node = node.next_node
                continue
            a, b = node.qubits
            _, node = dag.substitute_node_with_instructions(
                node,
                [
                    Instruction(library.cx_gate(), (a, b)),
                    Instruction(library.cx_gate(), (b, a)),
                    Instruction(library.cx_gate(), (a, b)),
                ],
            )
        return dag


def is_inverse_pair(first: Instruction, second: Instruction) -> bool:
    """Whether ``first · second`` is the identity: same qubits, inverse gates.

    The shared cancellation test of :class:`CancelAdjacentInversesPass` and the
    commutation-aware :class:`~repro.passes.commutation.CommutativeCancellationPass`.
    """
    # Compare ``first == second.inverse()`` (not the flipped form): the two
    # differ at the object level for gates whose ``inverse()`` changes the
    # gate name (``u2`` inverts to a ``u3``), and this orientation is the one
    # the byte-frozen level-1 pipelines have always used.
    return (
        first.gate.is_unitary
        and second.gate.is_unitary
        and first.qubits == second.qubits
        and first.gate == second.gate.inverse()
    )


class CancelAdjacentInversesPass(TransformationPass):
    """Cancel neighbouring gate pairs ``G · G⁻¹`` acting on the same qubits.

    Routing frequently produces back-to-back CNOT pairs (end of one SWAP,
    start of the next gate); removing them is the cheapest of Qiskit's standard
    clean-ups and keeps the baseline comparison fair.

    A gate cancels when its immediate predecessor *on every one of its wires*
    is one single gate applied to the same qubits in the same order whose gate
    object is the inverse.  Because removing a pair relinks the wire chains,
    cancellations enabled by earlier cancellations (e.g. ``[X, CX, CX, X]``)
    are found in the same sweep; ``max_iterations`` extra sweeps remain as a
    safety net and for convergence under the fixed-point combinator.
    """

    checks = ("gate_count_nonincreasing",)

    def __init__(self, max_iterations: int = 10) -> None:
        self.max_iterations = max_iterations

    def _sweep(self, dag: DagCircuit) -> bool:
        changed = False
        node = dag.head
        while node is not None:
            nxt = node.next_node
            instruction = node.instruction
            qubits = instruction.qubits
            if instruction.gate.is_unitary and qubits:
                previous: Optional[DagNode] = node.prev_on(qubits[0])
                if previous is not None and all(
                    node.prev_on(q) is previous for q in qubits
                ):
                    if is_inverse_pair(previous.instruction, instruction):
                        dag.remove_node(previous)
                        dag.remove_node(node)
                        changed = True
            node = nxt
        return changed

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        for _ in range(self.max_iterations):
            if not self._sweep(dag):
                break
        return dag


#: Read-only start of every 1q run product in :class:`Consolidate1qRunsPass`.
_IDENTITY_2X2 = np.eye(2, dtype=complex)
_IDENTITY_2X2.setflags(write=False)


class Consolidate1qRunsPass(TransformationPass):
    """Merge runs of single-qubit gates on a wire into a single ``u3`` gate.

    This is Qiskit's "single qubit gate consolidation" (§5.2).  Runs that
    multiply to the identity are dropped entirely.  The merged ``u3`` is
    spliced immediately before the instruction that ended the run (or appended
    at the end of the DAG), exactly where the list-based pass used to emit it.

    ZYZ synthesis is not byte-idempotent (re-deriving the angles of a ``u3``
    from its own matrix can wobble in the last float bit or wrap a phase), so
    nodes this pass emits are tagged ``canonical_1q``; a later sweep that finds
    a run consisting of one already-canonical gate leaves it untouched and
    reports no modification.  That makes the pass a genuine fixed point for the
    :class:`~repro.passes.base.FixedPoint` combinator while keeping its first
    application bit-identical to the historical behaviour.
    """

    checks = ("gate_count_nonincreasing",)

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        # Per-qubit pending run: [the nodes collected so far, their product].
        pending: Dict[int, List] = {}

        def flush(qubit: int, anchor: Optional[DagNode]) -> None:
            run = pending.pop(qubit, None)
            if run is None:
                return
            nodes, matrix = run
            if len(nodes) == 1 and nodes[0].canonical_1q:
                return  # already in canonical form; rewriting would only churn bytes
            for stale in nodes:
                dag.remove_node(stale)
            if matrix_is_identity(matrix):
                return
            instruction = Instruction(u3_from_matrix(matrix), (qubit,))
            if anchor is None:
                new = dag.append_instruction(instruction)
            else:
                new = dag.insert_before(anchor, instruction)
            new.canonical_1q = True

        node = dag.head
        while node is not None:
            nxt = node.next_node
            instruction = node.instruction
            if instruction.gate.is_unitary and instruction.gate.num_qubits == 1:
                qubit = instruction.qubits[0]
                run = pending.get(qubit)
                if run is None:
                    run = pending[qubit] = [[], _IDENTITY_2X2]
                run[0].append(node)
                # Left-multiply onto the product, starting from the identity:
                # the exact float sequence every frozen compile was made with.
                run[1] = instruction.gate.matrix() @ run[1]
                node = nxt
                continue
            for qubit in instruction.qubits:
                flush(qubit, node)
            node = nxt
        for qubit in sorted(pending):
            flush(qubit, None)
        return dag


class RemoveIdentitiesPass(TransformationPass):
    """Remove explicit identity gates and zero-angle rotations."""

    checks = ("gate_count_nonincreasing",)

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        node = dag.head
        while node is not None:
            nxt = node.next_node
            gate = node.instruction.gate
            if gate.is_unitary and gate.num_qubits == 1 and gate.is_identity():
                dag.remove_node(node)
            node = nxt
        return dag
