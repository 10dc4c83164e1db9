"""The linter's rule set: structural, hardware-legality and resource checks.

Rules are small classes with a stable ``code`` (``QL0xx`` structural IR
invariants, ``QL1xx`` hardware legality, ``QL2xx`` resource/usage analyses),
a default :class:`~repro.analysis.diagnostics.Severity` and a ``check``
method that yields :class:`~repro.analysis.diagnostics.Diagnostic` objects.
All rules run over a shared :class:`LintContext` that pre-computes the DAG
walk once (linear positions, per-wire recounts), so a full lint stays O(n)
in the circuit size regardless of how many rules are registered.

Unlike the simulation-based equivalence harness (bounded at ~20 qubits),
every rule here is purely structural and runs at any width — this is the
machine check that covers the Figure 9/10 cells the dynamic verifier skips.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from ..circuits.dag import DagCircuit, DagNode
from ..hardware.target import Target
from .diagnostics import Diagnostic, Severity

#: Two-qubit gates whose unitary is symmetric under qubit exchange; QL102
#: (edge direction) never fires for these.
SYMMETRIC_2Q_GATES: Tuple[str, ...] = ("swap", "cz", "cp", "rzz")

#: Gate names allowed besides the target basis: non-unitary operations plus
#: the routing-internal ``swap`` (expanded by ``DecomposeSwapsPass``).
ALWAYS_LEGAL_NAMES: Tuple[str, ...] = ("measure", "reset", "barrier", "swap")


class LintContext:
    """Everything one lint run needs, computed once and shared by all rules."""

    def __init__(
        self,
        dag: DagCircuit,
        target: Optional[Target] = None,
        initial_layout: Optional[Dict[int, int]] = None,
        final_layout: Optional[Dict[int, int]] = None,
    ) -> None:
        self.dag = dag
        self.target = target
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        #: Nodes in linear (claimed topological) order, walked via ``_next``.
        self.linear: List[DagNode] = []
        #: Linear position of each node (by identity).
        self.position: Dict[DagNode, int] = {}
        node = dag.head
        guard = 0
        limit = len(dag) + 2  # a corrupted chain may disagree with _size
        while node is not None and guard <= limit:
            self.linear.append(node)
            self.position[node] = guard
            node = node.next_node
            guard += 1
        #: Wires (qubits and encoded clbits) each reachable node touches.
        self.wires_of: Dict[DagNode, Tuple[int, ...]] = {
            n: DagCircuit._wires_of(n.instruction) for n in self.linear
        }

    @property
    def num_qubits(self) -> int:
        return self.dag.num_qubits


class LintRule:
    """Base class: a stable code, a default severity, and a check generator."""

    code: str = "QL000"
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Whether the rule needs a :class:`Target` to say anything.
    needs_target: bool = False

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def make(
        self,
        message: str,
        qubits: Tuple[int, ...] = (),
        node: Optional[DagNode] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Build a diagnostic carrying this rule's code and severity."""
        return Diagnostic(
            code=self.code,
            severity=severity if severity is not None else self.severity,
            message=message,
            qubits=qubits,
            node_index=node.index if node is not None else None,
            gate=node.name if node is not None else None,
        )


# ----------------------------------------------------------------------
# QL0xx — structural IR invariants
# ----------------------------------------------------------------------
class WireChainConsistencyRule(LintRule):
    """QL001: per-wire chains must be symmetric and match the node's wires."""

    code = "QL001"
    severity = Severity.ERROR
    description = "wire-chain links are asymmetric, broken or mismatched"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        dag = ctx.dag
        seen_wires: Set[int] = set()
        for node in ctx.linear:
            expected = ctx.wires_of[node]
            actual = sorted(node._wprev)
            if sorted(expected) != actual or sorted(node._wnext) != actual:
                yield self.make(
                    f"node {node.index} ({node.name}) is linked on wires "
                    f"{actual} but its instruction touches {sorted(expected)}",
                    qubits=node.qubits,
                    node=node,
                )
                continue
            for wire in expected:
                seen_wires.add(wire)
                nxt = node._wnext[wire]
                if nxt is not None and nxt._wprev.get(wire) is not node:
                    yield self.make(
                        f"wire {wire} chain is asymmetric after node "
                        f"{node.index} ({node.name}): its successor does not "
                        "link back",
                        qubits=node.qubits,
                        node=node,
                    )
                prev = node._wprev[wire]
                if prev is None and dag.wire_front(wire) is not node:
                    yield self.make(
                        f"node {node.index} ({node.name}) has no predecessor "
                        f"on wire {wire} but is not the wire's recorded front",
                        qubits=node.qubits,
                        node=node,
                    )
                if nxt is None and dag.wire_back(wire) is not node:
                    yield self.make(
                        f"node {node.index} ({node.name}) has no successor "
                        f"on wire {wire} but is not the wire's recorded back",
                        qubits=node.qubits,
                        node=node,
                    )
        for wire in list(dag._wire_first) + list(dag._wire_last):
            if wire not in seen_wires:
                yield self.make(
                    f"wire {wire} has recorded endpoints but no reachable "
                    "instruction touches it",
                    qubits=(wire,) if wire >= 0 else (),
                )
                seen_wires.add(wire)


class DanglingNodeRule(LintRule):
    """QL002: the linear chain must be symmetric, sized and fully in-DAG."""

    code = "QL002"
    severity = Severity.ERROR
    description = "dangling node or corrupted linear chain"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        dag = ctx.dag
        for node in ctx.linear:
            if not node._in_dag:
                yield self.make(
                    f"node {node.index} ({node.name}) is reachable from the "
                    "head but marked as removed",
                    qubits=node.qubits,
                    node=node,
                )
            nxt = node.next_node
            if nxt is not None and nxt.prev_node is not node:
                yield self.make(
                    f"linear chain is asymmetric after node {node.index} "
                    f"({node.name}): its successor does not link back",
                    qubits=node.qubits,
                    node=node,
                )
        if ctx.linear and dag.tail is not ctx.linear[-1]:
            yield self.make(
                "the DAG's recorded tail is not the last reachable node"
            )
        if len(ctx.linear) != len(dag):
            yield self.make(
                f"the DAG reports {len(dag)} nodes but {len(ctx.linear)} are "
                "reachable from the head"
            )


class DuplicateQubitArgsRule(LintRule):
    """QL003: an instruction must not name the same qubit twice."""

    code = "QL003"
    severity = Severity.ERROR
    description = "instruction applies a gate to a repeated qubit"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ctx.linear:
            qubits = node.qubits
            if len(set(qubits)) != len(qubits):
                yield self.make(
                    f"{node.name} applied to repeated qubit arguments {qubits}",
                    qubits=qubits,
                    node=node,
                )


class QubitRangeRule(LintRule):
    """QL004: every qubit must lie inside the DAG's declared register."""

    code = "QL004"
    severity = Severity.ERROR
    description = "qubit index outside the circuit register"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ctx.linear:
            for qubit in node.qubits:
                if not 0 <= qubit < ctx.num_qubits:
                    yield self.make(
                        f"{node.name} touches qubit {qubit}, outside the "
                        f"{ctx.num_qubits}-qubit register",
                        qubits=node.qubits,
                        node=node,
                    )


class TopologicalOrderRule(LintRule):
    """QL005: wire-chain order must agree with the linear (topological) order."""

    code = "QL005"
    severity = Severity.ERROR
    description = "wire chain disagrees with the linear instruction order"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ctx.linear:
            base = ctx.position[node]
            for wire, nxt in node._wnext.items():
                if nxt is None:
                    continue
                successor_position = ctx.position.get(nxt)
                if successor_position is None or successor_position <= base:
                    yield self.make(
                        f"wire {wire} orders node {node.index} ({node.name}) "
                        f"before node {nxt.index} ({nxt.name}) but the linear "
                        "order disagrees",
                        qubits=node.qubits,
                        node=node,
                    )


# ----------------------------------------------------------------------
# QL1xx — hardware legality (need a Target)
# ----------------------------------------------------------------------
class CouplingEdgeRule(LintRule):
    """QL101: every two-qubit unitary must act on a coupled pair."""

    code = "QL101"
    severity = Severity.ERROR
    description = "two-qubit gate on a pair the device does not couple"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        coupling_map = ctx.target.coupling_map
        for node in ctx.linear:
            gate = node.instruction.gate
            if not gate.is_unitary or gate.num_qubits != 2:
                continue
            a, b = node.qubits
            if a == b or not 0 <= a < coupling_map.num_qubits \
                    or not 0 <= b < coupling_map.num_qubits:
                continue  # QL003/QL104 report these
            if not coupling_map.are_adjacent(a, b):
                yield self.make(
                    f"{node.name} on qubits ({a}, {b}) but the device has no "
                    f"({a}, {b}) coupling",
                    qubits=node.qubits,
                    node=node,
                )


class EdgeDirectionRule(LintRule):
    """QL102: direction-sensitive gates must follow the native edge direction.

    Only meaningful when the target declares ``directed_edges``; devices
    modelled with an undirected coupling map (the paper's) skip this rule.
    Exchange-symmetric gates (``cz``, ``cp``, ``rzz``, ``swap``) are exempt.
    """

    code = "QL102"
    severity = Severity.ERROR
    description = "two-qubit gate against the native edge direction"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        directed = ctx.target.directed_edges
        if not directed:
            return
        for node in ctx.linear:
            gate = node.instruction.gate
            if not gate.is_unitary or gate.num_qubits != 2:
                continue
            if node.name in SYMMETRIC_2Q_GATES:
                continue
            pair = (node.qubits[0], node.qubits[1])
            if pair not in directed and (pair[1], pair[0]) in directed:
                yield self.make(
                    f"{node.name} on qubits {pair} runs against the native "
                    f"direction; the device only drives ({pair[1]}, {pair[0]})",
                    qubits=node.qubits,
                    node=node,
                )


class BasisGateRule(LintRule):
    """QL103: gates should belong to the target's native basis.

    Multi-qubit gates outside the basis are errors (the hardware cannot run
    them); single-qubit strays are warnings — any 1q unitary is trivially
    synthesisable into ``u3``, so they cost a synthesis step, not
    executability.
    """

    code = "QL103"
    severity = Severity.ERROR
    description = "gate outside the target's basis gate set"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        legal = set(ctx.target.basis_gates) | set(ALWAYS_LEGAL_NAMES)
        for node in ctx.linear:
            gate = node.instruction.gate
            if not gate.is_unitary or node.name in legal:
                continue
            if gate.num_qubits == 1:
                yield self.make(
                    f"1q gate {node.name!r} is outside the "
                    f"{'/'.join(ctx.target.basis_gates)} basis (synthesisable)",
                    qubits=node.qubits,
                    node=node,
                    severity=Severity.WARNING,
                )
            else:
                yield self.make(
                    f"{gate.num_qubits}q gate {node.name!r} is outside the "
                    f"{'/'.join(ctx.target.basis_gates)} basis",
                    qubits=node.qubits,
                    node=node,
                )


class DeviceSizeRule(LintRule):
    """QL104: every qubit must exist on the device."""

    code = "QL104"
    severity = Severity.ERROR
    description = "qubit index outside the device"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        device_size = ctx.target.num_qubits
        for node in ctx.linear:
            for qubit in node.qubits:
                if qubit >= device_size:
                    yield self.make(
                        f"{node.name} touches qubit {qubit} but the device "
                        f"has only {device_size} qubits",
                        qubits=node.qubits,
                        node=node,
                    )


class LayoutValidityRule(LintRule):
    """QL105: the recorded layouts must be valid device permutations."""

    code = "QL105"
    severity = Severity.ERROR
    description = "initial/final layout is not a valid placement"
    needs_target = True

    def _check_one(
        self, which: str, mapping: Dict[int, int], device_size: int
    ) -> Iterator[Diagnostic]:
        used: Dict[int, int] = {}
        for logical, physical in mapping.items():
            if not 0 <= physical < device_size:
                yield self.make(
                    f"{which} layout places logical qubit {logical} on "
                    f"physical qubit {physical}, outside the "
                    f"{device_size}-qubit device",
                    qubits=(physical,),
                )
            if physical in used:
                yield self.make(
                    f"{which} layout places logical qubits {used[physical]} "
                    f"and {logical} on the same physical qubit {physical}",
                    qubits=(physical,),
                )
            used[physical] = logical
        expected = set(range(len(mapping)))
        if set(mapping) != expected:
            yield self.make(
                f"{which} layout does not cover logical qubits 0.."
                f"{len(mapping) - 1} (got {sorted(mapping)})"
            )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        device_size = ctx.target.num_qubits
        for which, mapping in (
            ("initial", ctx.initial_layout),
            ("final", ctx.final_layout),
        ):
            if mapping is not None:
                yield from self._check_one(which, mapping, device_size)
        if ctx.initial_layout is not None and ctx.final_layout is not None:
            if set(ctx.initial_layout) != set(ctx.final_layout):
                yield self.make(
                    "initial and final layouts place different logical qubits"
                )


class MultiQubitGateRule(LintRule):
    """QL106: three-or-more-qubit unitaries cannot execute on hardware."""

    code = "QL106"
    severity = Severity.ERROR
    description = "unitary acting on three or more qubits"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ctx.linear:
            gate = node.instruction.gate
            if gate.is_unitary and gate.num_qubits >= 3:
                yield self.make(
                    f"{gate.num_qubits}q unitary {node.name!r} has no native "
                    "implementation; decompose it first",
                    qubits=node.qubits,
                    node=node,
                )


# ----------------------------------------------------------------------
# QL2xx — resource / usage analyses
# ----------------------------------------------------------------------
class IdleQubitRule(LintRule):
    """QL201: device/register qubits no instruction ever touches."""

    code = "QL201"
    severity = Severity.INFO
    description = "qubits never used by any instruction"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        touched: Set[int] = set()
        for node in ctx.linear:
            touched.update(node.qubits)
        idle = sorted(set(range(ctx.num_qubits)) - touched)
        if idle:
            yield self.make(
                f"{len(idle)} of {ctx.num_qubits} qubits are never used: "
                f"{idle}",
                qubits=tuple(idle),
            )


class MeasurementCoverageRule(LintRule):
    """QL202: active qubits should be measured.

    A circuit with no measurements at all gets one finding (common for
    unitary benchmarks); otherwise each active-but-unmeasured qubit is
    reported individually — the classic "dropped measurement" bug.
    """

    code = "QL202"
    severity = Severity.WARNING
    description = "active qubit is never measured"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        active: Set[int] = set()
        measured: Set[int] = set()
        for node in ctx.linear:
            if node.name == "measure":
                measured.update(node.qubits)
            elif node.instruction.gate.is_unitary:
                active.update(node.qubits)
        if not measured:
            if active:
                yield self.make(
                    "circuit contains no measurements; results are "
                    "unobservable"
                )
            return
        for qubit in sorted(active - measured):
            yield self.make(
                f"qubit {qubit} is operated on but never measured",
                qubits=(qubit,),
            )


class ClobberedClbitRule(LintRule):
    """QL203: a classical bit written by more than one measurement."""

    code = "QL203"
    severity = Severity.WARNING
    description = "classical bit overwritten by a second measurement"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        writer: Dict[int, DagNode] = {}
        for node in ctx.linear:
            if node.name != "measure":
                continue
            for clbit in node.clbits:
                if clbit in writer:
                    yield self.make(
                        f"measurement into clbit {clbit} overwrites the "
                        f"result recorded by node {writer[clbit].index}",
                        qubits=node.qubits,
                        node=node,
                    )
                writer[clbit] = node


class OperationAfterMeasureRule(LintRule):
    """QL204: a unitary applied to a qubit after its final measurement."""

    code = "QL204"
    severity = Severity.WARNING
    description = "gate applied after the qubit was measured"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        measured_at: Dict[int, DagNode] = {}
        for node in ctx.linear:
            if node.name == "measure":
                for qubit in node.qubits:
                    measured_at[qubit] = node
                continue
            if not node.instruction.gate.is_unitary:
                continue
            for qubit in node.qubits:
                if qubit in measured_at:
                    yield self.make(
                        f"{node.name} acts on qubit {qubit} after it was "
                        f"measured (node {measured_at[qubit].index}); the "
                        "result no longer reflects the final state",
                        qubits=node.qubits,
                        node=node,
                    )
                    del measured_at[qubit]  # one finding per measurement


class AncillaReturnRule(LintRule):
    """QL205: an ancilla wire whose last operation is a 1q non-identity gate.

    With a final layout available, device wires that carry no program qubit
    at the end of the circuit are ancillas and must return to |0⟩.  A full
    check needs simulation, but one failure mode is visible statically: a
    correctly compiled circuit never *ends* an ancilla wire with a
    single-qubit gate (a trailing 1q gate marks the final home of some
    program qubit), so a non-identity 1q tail on an ancilla wire is a
    leftover that likely perturbs the ancilla's state.
    """

    code = "QL205"
    severity = Severity.WARNING
    description = "ancilla wire ends in a non-identity single-qubit gate"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.final_layout is None:
            return
        data_wires = set(ctx.final_layout.values())
        for wire in range(ctx.num_qubits):
            if wire in data_wires:
                continue
            tail = ctx.dag.wire_back(wire)
            if tail is None:
                continue
            gate = tail.instruction.gate
            if (
                gate.is_unitary
                and gate.num_qubits == 1
                and not gate.is_identity()
            ):
                yield self.make(
                    f"ancilla wire {wire} ends with {tail.name}; ancillas "
                    "must be returned to |0⟩ for the routed circuit to be "
                    "equivalent",
                    qubits=(wire,),
                    node=tail,
                )


#: Every registered rule, in code order.  ``CircuitLinter`` instantiates from
#: this list; new rules only need to be appended here.
ALL_RULES: Tuple[Type[LintRule], ...] = (
    WireChainConsistencyRule,
    DanglingNodeRule,
    DuplicateQubitArgsRule,
    QubitRangeRule,
    TopologicalOrderRule,
    CouplingEdgeRule,
    EdgeDirectionRule,
    BasisGateRule,
    DeviceSizeRule,
    LayoutValidityRule,
    MultiQubitGateRule,
    IdleQubitRule,
    MeasurementCoverageRule,
    ClobberedClbitRule,
    OperationAfterMeasureRule,
    AncillaReturnRule,
)

#: ``code -> rule class`` for suppression validation and documentation.
RULES_BY_CODE: Dict[str, Type[LintRule]] = {
    rule.code: rule for rule in ALL_RULES
}
