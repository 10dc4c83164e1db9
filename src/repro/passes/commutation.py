"""Commutation-aware optimisation: analysis and cancellation through commuting gates.

The adjacent-inverse cleanup of :mod:`repro.passes.optimization` only cancels
gate pairs that touch on every shared wire.  Routed circuits, however, are full
of CNOT pairs separated by *commuting* gates — diagonals on the control wire,
X-rotations on the target wire — that the paper's late Toffoli decomposition
exposes (§5.2 follow-ons).  This module cancels through them:

* :func:`gates_commute` decides whether two gates commute by comparing the two
  products of their matrices on the union of their wires.  Results are
  memoized per (gate, gate, relative-placement) triple, so the matrix algebra
  runs once per distinct gate pair, not once per circuit site.
* :class:`CommutationAnalysisPass` is an :class:`~repro.passes.base.AnalysisPass`
  that walks every wire chain of the DAG and groups consecutive instructions
  into maximal *commutation runs* — spans in which every pair of instructions
  commutes.  The runs are recorded in the property set.
* :class:`CommutativeCancellationPass` consumes those runs: any two gates in
  the same run on all their wires can be made adjacent by commuting one past
  the gates between them, so inverse pairs inside a run annihilate and
  same-axis rotations merge into a single rotation — even when separated by
  commuting gates.

Soundness rests on one argument, machine-checked by ``verify=True`` and by the
equivalence property tests: if ``a`` and ``b`` sit in the same commutation run
on every wire of ``a``, then ``a`` commutes with each instruction between them
on those wires (runs are *pairwise* commuting), and instructions on disjoint
wires commute trivially — so ``a`` can be displaced until it is adjacent to
``b`` without changing the circuit's unitary.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.dag import DagCircuit, DagNode
from ..circuits.gate import Gate
from ..exceptions import TranspilerError
from .base import AnalysisPass, PropertySet, TransformationPass
from .optimization import is_inverse_pair

#: Memoized commutation verdicts keyed by (gate_a, placement_a, gate_b,
#: placement_b) with placements expressed in canonical relative coordinates,
#: so e.g. ``cx(2,7)`` vs ``rz(2)`` and ``cx(0,4)`` vs ``rz(0)`` share one
#: entry.  Gates are frozen value objects, hence hashable.
_COMMUTATION_CACHE: Dict[tuple, bool] = {}

#: Cap on the memo above.  Parameterised gates (synthesised ``u3`` triples,
#: random-angle rotations) can make effectively unique keys, so a long-lived
#: process sweeping many circuits would otherwise grow the dict without
#: bound.  On overflow the whole cache is dropped — the hot parameter-free
#: entries rebuild in microseconds.
_COMMUTATION_CACHE_LIMIT = 50_000

#: Rotation families merged by :class:`CommutativeCancellationPass`: gates in
#: one family are (up to global phase) rotations about a shared axis, so their
#: angles add.  Maps gate name → (family axis, angle contribution builder).
_ROTATION_ANGLES: Dict[str, Tuple[str, float]] = {
    # Z axis: diagonal phases; u1(theta) carries the angle exactly.
    "rz": ("z", None),  # angle from params[0]
    "u1": ("z", None),
    "p": ("z", None),
    "z": ("z", np.pi),
    "s": ("z", np.pi / 2),
    "sdg": ("z", -np.pi / 2),
    "t": ("z", np.pi / 4),
    "tdg": ("z", -np.pi / 4),
    # X axis (up to global phase).
    "rx": ("x", None),
    "x": ("x", np.pi),
    "sx": ("x", np.pi / 2),
    "sxdg": ("x", -np.pi / 2),
    # Y axis (up to global phase).
    "ry": ("y", None),
    "y": ("y", np.pi),
}

#: The gate emitted when a family's angles are merged, per axis.
_ROTATION_SYNTH = {"z": "u1", "x": "rx", "y": "ry"}

_TWO_PI = 2.0 * np.pi


def clear_commutation_cache() -> None:
    """Drop all memoized commutation verdicts (mainly for tests)."""
    _COMMUTATION_CACHE.clear()


def commutation_cache_size() -> int:
    """Number of memoized (gate, gate, placement) verdicts."""
    return len(_COMMUTATION_CACHE)


def _relative_placement(
    qubits_a: Sequence[int], qubits_b: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """Canonical coordinates of two gates' qubits on the union of their wires."""
    union: List[int] = []
    for qubit in (*qubits_a, *qubits_b):
        if qubit not in union:
            union.append(qubit)
    position = {qubit: index for index, qubit in enumerate(union)}
    return (
        tuple(position[q] for q in qubits_a),
        tuple(position[q] for q in qubits_b),
        len(union),
    )


def _product_unitary(
    first: Gate,
    first_qubits: Sequence[int],
    second: Gate,
    second_qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    from ..sim.unitary import circuit_unitary

    circuit = QuantumCircuit(num_qubits)
    circuit.append(first, first_qubits)
    circuit.append(second, second_qubits)
    return circuit_unitary(circuit)


def gates_commute(
    gate_a: Gate,
    qubits_a: Sequence[int],
    gate_b: Gate,
    qubits_b: Sequence[int],
    atol: float = 1e-10,
) -> bool:
    """Whether ``gate_a`` on ``qubits_a`` commutes with ``gate_b`` on ``qubits_b``.

    Decided from the gate matrices — ``A·B`` and ``B·A`` are built on the
    union of the wires and compared — so the answer is exact for every gate in
    the library, including parameterised rotations, with no hand-maintained
    commutation table to fall out of date.  Non-unitary operations (measure,
    reset, barrier) commute with nothing.

    Results are memoized by (gate, gate, relative placement); the matrices for
    a pair seen before are never rebuilt.
    """
    if not gate_a.is_unitary or not gate_b.is_unitary:
        return False
    if not set(qubits_a) & set(qubits_b):
        return True  # disjoint supports always commute
    placement_a, placement_b, union_size = _relative_placement(qubits_a, qubits_b)
    key = (gate_a, placement_a, gate_b, placement_b)
    cached = _COMMUTATION_CACHE.get(key)
    if cached is not None:
        return cached
    forward = _product_unitary(gate_a, placement_a, gate_b, placement_b, union_size)
    backward = _product_unitary(gate_b, placement_b, gate_a, placement_a, union_size)
    verdict = bool(np.allclose(forward, backward, atol=atol))
    if len(_COMMUTATION_CACHE) >= _COMMUTATION_CACHE_LIMIT:
        _COMMUTATION_CACHE.clear()
    _COMMUTATION_CACHE[key] = verdict
    # Commutation is symmetric; prime the mirrored key too.
    _COMMUTATION_CACHE[(gate_b, placement_b, gate_a, placement_a)] = verdict
    return verdict


def instructions_commute(first: Instruction, second: Instruction) -> bool:
    """Instruction-level convenience wrapper over :func:`gates_commute`."""
    if first.clbits or second.clbits:
        return False
    return gates_commute(first.gate, first.qubits, second.gate, second.qubits)


class CommutationSets:
    """Per-wire commutation runs computed by :class:`CommutationAnalysisPass`.

    For each qubit wire, ``runs(wire)`` is the wire's instruction chain split
    into maximal spans of pairwise-commuting instructions, in program order;
    ``run_index(node, wire)`` is the position of ``node``'s span on ``wire``.
    Two instructions that share the same run index on *every* common wire can
    be made adjacent by commuting.
    """

    def __init__(self) -> None:
        self._runs_by_wire: Dict[int, List[List[DagNode]]] = {}
        self._index: Dict[Tuple[DagNode, int], int] = {}

    def _add_run(self, wire: int, run: List[DagNode]) -> None:
        runs = self._runs_by_wire.setdefault(wire, [])
        for node in run:
            self._index[(node, wire)] = len(runs)
        runs.append(run)

    def wires(self) -> List[int]:
        return list(self._runs_by_wire)

    def runs(self, wire: int) -> List[List[DagNode]]:
        return self._runs_by_wire.get(wire, [])

    def run_index(self, node: DagNode, wire: int) -> int:
        try:
            return self._index[(node, wire)]
        except KeyError:
            raise TranspilerError(
                f"node {node!r} has no commutation run on wire {wire}"
            ) from None

    def signature(self, node: DagNode) -> Tuple[int, ...]:
        """The node's run index on each of its qubit wires, in qubit order."""
        return tuple(self.run_index(node, wire) for wire in node.qubits)

    def stats(self) -> Dict[str, float]:
        """Pickle-safe summary (no node references) for telemetry."""
        run_lengths = [
            len(run) for runs in self._runs_by_wire.values() for run in runs
        ]
        return {
            "wires": len(self._runs_by_wire),
            "runs": len(run_lengths),
            "max_run": max(run_lengths, default=0),
            "mean_run": float(np.mean(run_lengths)) if run_lengths else 0.0,
        }


class CommutationAnalysisPass(AnalysisPass):
    """Compute per-wire commutation runs and record them in the property set.

    Writes two keys:

    * ``"commutation_sets"`` — the :class:`CommutationSets` instance.  It
      holds live :class:`~repro.circuits.dag.DagNode` references, so it is
      only valid until the next DAG mutation; transformation passes that
      consume it (:class:`CommutativeCancellationPass`) pop it when done.
    * ``"commutation_stats"`` — a pickle-safe ``{wires, runs, max_run,
      mean_run}`` summary that survives on the
      :class:`~repro.compiler.result.CompilationResult`.
    """

    def analyze(self, dag: DagCircuit, properties: PropertySet) -> None:
        sets = CommutationSets()
        for wire in range(dag.num_qubits):
            node = dag.wire_front(wire)
            run: List[DagNode] = []
            while node is not None:
                extends_run = bool(run) and node.instruction.gate.is_unitary and all(
                    instructions_commute(member.instruction, node.instruction)
                    for member in run
                )
                if extends_run:
                    run.append(node)
                else:
                    if run:
                        sets._add_run(wire, run)
                    run = [node]
                node = node.next_on(wire)
            if run:
                sets._add_run(wire, run)
        properties["commutation_sets"] = sets
        properties["commutation_stats"] = sets.stats()


class CommutativeCancellationPass(TransformationPass):
    """Cancel inverse pairs and merge rotations *through* commuting gates.

    Within each commutation run (see :class:`CommutationAnalysisPass`), any
    two instructions on the same qubits with the same run signature can be
    made adjacent, so:

    1. **Inverse pairs annihilate** — ``cx … cx`` separated by diagonals on
       the control wire and X-rotations on the target wire, ``h … h`` through
       anything Hadamard-commuting, ``cp(θ) … cp(-θ)``, and so on.  Pairs are
       matched with a stack per (qubits, signature) group, so odd leftovers
       survive in place.
    2. **Same-axis rotations merge** — leftover single-qubit Z-family gates
       (``rz``/``u1``/``p``/``z``/``s``/``sdg``/``t``/``tdg``), X-family
       (``rx``/``x``/``sx``/``sxdg``) and Y-family (``ry``/``y``) gates in one
       run add their angles into a single ``u1``/``rx``/``ry`` (global phase
       aside), which is dropped entirely when the total is a multiple of 2π.
    3. **Two-qubit diagonal rotations merge** — surviving ``cp``/``rzz``/
       ``crz`` gates on the same qubit pair in the same run add their angles
       into one gate of the same kind, dropped when the merged gate is the
       identity (``cp`` at multiples of 2π; ``rzz`` at multiples of 2π up to
       global phase; a merged ``crz`` is only ever dropped at multiples of
       4π — ``crz(2π) = diag(1, 1, −1, −1)`` is *not* the identity).

    The pass runs its own analysis on entry (its rewrites invalidate node
    references, so a stale shared analysis would be unsound) and removes the
    node-bearing ``"commutation_sets"`` entry from the property set when done.
    Gate count never increases and circuit depth never grows — the pass only
    removes nodes or rewrites one in place — which is what lets the level-3
    pipeline guarantee it never regresses the level-2 metrics.

    Args:
        verify: Debug mode — snapshot the circuit before rewriting and
            machine-check equivalence (via
            :func:`repro.sim.equivalence.circuits_equivalent`) after, raising
            :class:`~repro.exceptions.TranspilerError` on any mismatch.
            Quadratic-to-exponential in circuit size; meant for tests and
            debugging, not production compiles.
        verify_qubit_limit: Skip verification (rather than fail) for circuits
            wider than this when ``verify=True``.
    """

    checks = ("gate_count_nonincreasing", "unitary_equivalent")

    def __init__(self, verify: bool = False, verify_qubit_limit: int = 20) -> None:
        self.verify = verify
        self.verify_qubit_limit = int(verify_qubit_limit)

    # ------------------------------------------------------------------
    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        snapshot: Optional[QuantumCircuit] = None
        if self.verify and dag.num_qubits <= self.verify_qubit_limit:
            snapshot = dag.to_circuit()
        CommutationAnalysisPass().analyze(dag, properties)
        sets: CommutationSets = properties.pop("commutation_sets")
        removed = self._cancel_inverse_pairs(dag, sets)
        self._merge_rotations(dag, sets, removed)
        self._merge_diagonal_pairs(dag, sets, removed)
        if snapshot is not None:
            self._verify(snapshot, dag)
        return dag

    # ------------------------------------------------------------------
    def _groups(
        self, dag: DagCircuit, sets: CommutationSets
    ) -> "Dict[tuple, List[DagNode]]":
        """Nodes bucketed by (qubits, commutation-run signature), program order."""
        groups: Dict[tuple, List[DagNode]] = defaultdict(list)
        for node in dag:
            instruction = node.instruction
            if not instruction.gate.is_unitary or instruction.clbits:
                continue
            if not instruction.qubits:
                continue
            groups[(instruction.qubits, sets.signature(node))].append(node)
        return groups

    def _cancel_inverse_pairs(
        self, dag: DagCircuit, sets: CommutationSets
    ) -> "set":
        """Stack-match and remove inverse pairs inside each commuting group."""
        removed = set()
        for nodes in self._groups(dag, sets).values():
            if len(nodes) < 2:
                continue
            stack: List[DagNode] = []
            for node in nodes:
                if stack and is_inverse_pair(
                    stack[-1].instruction, node.instruction
                ):
                    partner = stack.pop()
                    dag.remove_node(partner)
                    dag.remove_node(node)
                    removed.add(partner)
                    removed.add(node)
                else:
                    stack.append(node)
        return removed

    def _merge_rotations(
        self, dag: DagCircuit, sets: CommutationSets, removed: "set"
    ) -> None:
        """Merge surviving same-axis 1q rotations within each commutation run."""
        for wire in sets.wires():
            for run in sets.runs(wire):
                families: Dict[str, List[DagNode]] = defaultdict(list)
                for node in run:
                    if node in removed:
                        continue
                    instruction = node.instruction
                    if instruction.gate.num_qubits != 1 or instruction.clbits:
                        continue
                    family = _ROTATION_ANGLES.get(instruction.name)
                    if family is not None:
                        families[family[0]].append(node)
                for axis, members in families.items():
                    if len(members) < 2:
                        continue
                    total = 0.0
                    for node in members:
                        _, fixed = _ROTATION_ANGLES[node.name]
                        total += (
                            node.instruction.gate.params[0] if fixed is None else fixed
                        )
                    anchor, rest = members[0], members[1:]
                    for node in rest:
                        dag.remove_node(node)
                        removed.add(node)
                    merged = Gate(_ROTATION_SYNTH[axis], 1, (total,))
                    if merged.is_identity():
                        dag.remove_node(anchor)
                        removed.add(anchor)
                        continue
                    replacement = Instruction(merged, anchor.qubits)
                    dag.substitute_node_with_instructions(anchor, [replacement])
                    removed.add(anchor)

    #: Two-qubit diagonal rotations whose angles add under composition.
    _DIAGONAL_2Q = ("cp", "rzz", "crz")

    def _merge_diagonal_pairs(
        self, dag: DagCircuit, sets: CommutationSets, removed: "set"
    ) -> None:
        """Merge surviving same-kind 2q diagonal rotations within each run.

        Same displacement argument as the 1q merges: nodes sharing (qubits,
        run signature) can be made adjacent, and ``cp``/``rzz``/``crz`` pairs
        on the same ordered qubit pair compose by angle addition.  Grouping by
        the exact qubit tuple keeps the direction-sensitive ``crz`` sound
        (``crz(a, b)`` never merges with ``crz(b, a)``); for the
        exchange-symmetric ``cp``/``rzz`` it merely misses reversed-order
        pairs, which is conservative.

        Grouping is rebuilt here rather than via :meth:`_groups` because the
        preceding merges spliced in fresh nodes unknown to ``sets``; the
        diagonal candidates themselves are always original nodes (merges only
        ever synthesise 1q rotations), so their signatures are still valid.
        """
        groups: Dict[tuple, List[DagNode]] = defaultdict(list)
        for node in dag:
            if node in removed or node.name not in self._DIAGONAL_2Q:
                continue
            if node.instruction.clbits:
                continue
            groups[
                (node.name, node.qubits, sets.signature(node))
            ].append(node)
        for (name, _, _), members in groups.items():
            if len(members) < 2:
                continue
            total = 0.0
            for node in members:
                total += node.instruction.gate.params[0]
            anchor, rest = members[0], members[1:]
            for node in rest:
                dag.remove_node(node)
                removed.add(node)
            merged = Gate(name, 2, (float(total),))
            if merged.is_identity():
                dag.remove_node(anchor)
                removed.add(anchor)
                continue
            replacement = Instruction(merged, anchor.qubits)
            dag.substitute_node_with_instructions(anchor, [replacement])
            removed.add(anchor)

    # ------------------------------------------------------------------
    def _verify(self, before: QuantumCircuit, dag: DagCircuit) -> None:
        from ..sim.equivalence import circuits_equivalent

        after = dag.to_circuit()
        if not circuits_equivalent(before, after):
            raise TranspilerError(
                f"{self.name} produced a non-equivalent circuit "
                f"(before: {before.count_ops()}, after: {after.count_ops()}); "
                "this is a bug in the commutation rules"
            )
