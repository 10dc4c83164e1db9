"""The dependency-DAG intermediate representation of the compiler.

A :class:`DagCircuit` captures the "happens before" relation induced by shared
qubits (and shared classical bits) and is the representation every compiler
pass runs on.  It is *mutable*: passes rewrite it locally — substituting a
node with its decomposition, removing a cancelled pair, splicing a synthesised
gate before an anchor — without ever rebuilding a full instruction list.
Circuit metrics and layering live on :mod:`repro.circuits.circuit`, over the
instruction list; this module is the pass IR only.

Representation.  Nodes live on a doubly-linked global sequence whose order is
always a valid topological order (it starts as program order and every edit
splices new nodes into the slot of the node they replace), plus one
doubly-linked chain *per wire* ("wire" = a qubit or a classical bit).  This
gives O(1) append/remove/substitute, O(1) per-wire neighbour lookups, and an
O(n) :meth:`to_circuit` that emits exactly the linearisation the pass pipeline
built — which is what keeps compiled circuits byte-identical across the
list-IR → DAG-IR refactor.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import CircuitError
from .circuit import Instruction, QuantumCircuit
from .gate import Gate


def _clbit_wire(clbit: int) -> int:
    """Wire key of a classical bit (negative, so it cannot clash with a qubit)."""
    return -(clbit + 1)


class DagNode:
    """One instruction in the DAG, linked into the global and per-wire chains.

    ``index`` is the node's creation order inside its DAG, which for a DAG
    built by :meth:`DagCircuit.from_circuit` equals the instruction's position
    in the source circuit (lint diagnostics report it).
    """

    __slots__ = (
        "instruction",
        "index",
        "_prev",
        "_next",
        "_wprev",
        "_wnext",
        "_in_dag",
        "canonical_1q",
    )

    def __init__(self, instruction: Instruction, index: int) -> None:
        self.instruction = instruction
        self.index = index
        self._prev: Optional["DagNode"] = None
        self._next: Optional["DagNode"] = None
        self._wprev: Dict[int, Optional["DagNode"]] = {}
        self._wnext: Dict[int, Optional["DagNode"]] = {}
        self._in_dag = False
        #: Set by ``Consolidate1qRunsPass`` on the ``u3`` gates it synthesises,
        #: so re-running the pass leaves already-canonical singletons untouched
        #: (ZYZ synthesis is not byte-idempotent; see the pass docstring).
        self.canonical_1q = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.instruction.name

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.instruction.qubits

    @property
    def clbits(self) -> Tuple[int, ...]:
        return self.instruction.clbits

    @property
    def next_node(self) -> Optional["DagNode"]:
        """The next node in the DAG's linear (topological) order."""
        return self._next

    @property
    def prev_node(self) -> Optional["DagNode"]:
        """The previous node in the DAG's linear (topological) order."""
        return self._prev

    def next_on(self, qubit: int) -> Optional["DagNode"]:
        """The next instruction touching ``qubit`` (its successor on that wire)."""
        try:
            return self._wnext[qubit]
        except KeyError:
            raise CircuitError(
                f"node {self!r} does not touch wire {qubit}"
            ) from None

    def prev_on(self, qubit: int) -> Optional["DagNode"]:
        """The previous instruction touching ``qubit`` (its predecessor on that wire)."""
        try:
            return self._wprev[qubit]
        except KeyError:
            raise CircuitError(
                f"node {self!r} does not touch wire {qubit}"
            ) from None

    @property
    def wires(self) -> List[int]:
        """Wire keys this node touches (qubits, then encoded clbits)."""
        return list(self._wprev)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DagNode({self.index}, {self.instruction!r})"


class DagCircuit:
    """A mutable dependency DAG over circuit instructions — the compiler IR."""

    __slots__ = (
        "num_qubits",
        "name",
        "_head",
        "_tail",
        "_wire_first",
        "_wire_last",
        "_size",
        "_mods",
        "_next_index",
    )

    def __init__(self, num_qubits: int, name: Optional[str] = None) -> None:
        num_qubits = operator.index(num_qubits)
        if num_qubits < 1:
            raise CircuitError("a DAG needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name or "circuit"
        self._head: Optional[DagNode] = None
        self._tail: Optional[DagNode] = None
        self._wire_first: Dict[int, DagNode] = {}
        self._wire_last: Dict[int, DagNode] = {}
        self._size = 0
        self._mods = 0
        self._next_index = 0

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "DagCircuit":
        """Build a mutable DAG from a circuit (O(n))."""
        return cls(circuit.num_qubits, circuit.name).extend(circuit.instructions)

    def to_circuit(self, name: Optional[str] = None) -> QuantumCircuit:
        """Emit the circuit in the DAG's linear (topological) order (O(n))."""
        out = QuantumCircuit(self.num_qubits, name or self.name)
        out.instructions = [node.instruction for node in self._iter_nodes()]
        return out

    def copy(self) -> "DagCircuit":
        """An independent mutable copy (instructions are immutable and shared)."""
        return DagCircuit(self.num_qubits, self.name).extend(self.instructions)

    def __reduce__(self):
        # The node chain is deeply linked; the default pickle walk recurses
        # past the interpreter limit on large circuits.  Rebuild from the
        # linear instruction order instead (node identity is not preserved).
        return (DagCircuit.from_circuit, (self.to_circuit(),))

    # ------------------------------------------------------------------
    # Container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _iter_nodes(self) -> Iterator[DagNode]:
        node = self._head
        while node is not None:
            yield node
            node = node._next

    def __iter__(self) -> Iterator[DagNode]:
        return self._iter_nodes()

    @property
    def head(self) -> Optional[DagNode]:
        """First node in the linear order (None when empty)."""
        return self._head

    @property
    def tail(self) -> Optional[DagNode]:
        """Last node in the linear order (None when empty)."""
        return self._tail

    @property
    def modification_count(self) -> int:
        """Monotone counter bumped by every structural edit.

        The :class:`~repro.passes.base.FixedPoint` combinator compares this
        across sweeps to detect convergence.
        """
        return self._mods

    @property
    def instructions(self) -> List[Instruction]:
        """The instruction list in linear order (a fresh list each call)."""
        return [node.instruction for node in self._iter_nodes()]

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _wires_of(instruction: Instruction) -> Tuple[int, ...]:
        if not instruction.clbits:
            return instruction.qubits
        return instruction.qubits + tuple(map(_clbit_wire, instruction.clbits))

    def wire_front(self, qubit: int) -> Optional[DagNode]:
        """First instruction on a wire (``qubit`` may also be a clbit wire key)."""
        return self._wire_first.get(qubit)

    def wire_back(self, qubit: int) -> Optional[DagNode]:
        """Last instruction on a wire."""
        return self._wire_last.get(qubit)

    # ------------------------------------------------------------------
    # Mutation: append
    # ------------------------------------------------------------------
    def append(
        self,
        gate: Gate,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
    ) -> DagNode:
        """Append ``gate`` on ``qubits`` at the end of the DAG (mirrors the circuit API)."""
        return self.append_instruction(Instruction(gate, qubits, clbits))

    def append_instruction(self, instruction: Instruction) -> DagNode:
        """Append an already-built instruction; returns its new node."""
        for qubit in instruction.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for a {self.num_qubits}-qubit DAG"
                )
        node = self._new_node(instruction)
        node._prev = self._tail
        node._next = None
        if self._tail is not None:
            self._tail._next = node
        else:
            self._head = node
        self._tail = node
        for wire in self._wires_of(instruction):
            last = self._wire_last.get(wire)
            node._wprev[wire] = last
            node._wnext[wire] = None
            if last is not None:
                last._wnext[wire] = node
            else:
                self._wire_first[wire] = node
            self._wire_last[wire] = node
        self._size += 1
        self._mods += 1
        return node

    def extend(self, instructions: Iterable[Instruction]) -> "DagCircuit":
        for instruction in instructions:
            self.append_instruction(instruction)
        return self

    def _new_node(self, instruction: Instruction) -> DagNode:
        node = DagNode(instruction, self._next_index)
        self._next_index += 1
        node._in_dag = True
        return node

    # ------------------------------------------------------------------
    # Mutation: remove
    # ------------------------------------------------------------------
    def remove_node(self, node: DagNode) -> None:
        """Unlink ``node``; its wire predecessors and successors become adjacent."""
        if not node._in_dag:
            raise CircuitError(f"node {node!r} is not in this DAG (already removed?)")
        if node._prev is not None:
            node._prev._next = node._next
        else:
            self._head = node._next
        if node._next is not None:
            node._next._prev = node._prev
        else:
            self._tail = node._prev
        for wire, wprev in node._wprev.items():
            wnext = node._wnext[wire]
            if wprev is not None:
                wprev._wnext[wire] = wnext
            elif wnext is not None:
                self._wire_first[wire] = wnext
            else:
                del self._wire_first[wire]
            if wnext is not None:
                wnext._wprev[wire] = wprev
            elif wprev is not None:
                self._wire_last[wire] = wprev
            else:
                del self._wire_last[wire]
        node._in_dag = False
        node._prev = node._next = None
        self._size -= 1
        self._mods += 1

    # ------------------------------------------------------------------
    # Mutation: insert
    # ------------------------------------------------------------------
    def insert_before(self, anchor: DagNode, instruction: Instruction) -> DagNode:
        """Splice ``instruction`` immediately before ``anchor`` in the linear order."""
        return self._insert(anchor, instruction, before=True)

    def insert_after(self, anchor: DagNode, instruction: Instruction) -> DagNode:
        """Splice ``instruction`` immediately after ``anchor`` in the linear order."""
        return self._insert(anchor, instruction, before=False)

    def _insert(self, anchor: DagNode, instruction: Instruction, before: bool) -> DagNode:
        if not anchor._in_dag:
            raise CircuitError(f"anchor {anchor!r} is not in this DAG")
        for qubit in instruction.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for a {self.num_qubits}-qubit DAG"
                )
        node = self._new_node(instruction)
        left = anchor._prev if before else anchor
        right = anchor if before else anchor._next
        node._prev, node._next = left, right
        if left is not None:
            left._next = node
        else:
            self._head = node
        if right is not None:
            right._prev = node
        else:
            self._tail = node
        for wire in self._wires_of(instruction):
            if wire in anchor._wprev:
                # Fast path: the anchor shares the wire, so the new node slots
                # directly against it.
                if before:
                    wprev, wnext = anchor._wprev[wire], anchor
                else:
                    wprev, wnext = anchor, anchor._wnext[wire]
            else:
                # General case: scan left from the insertion point for the
                # nearest node on this wire (rare; inserts almost always share
                # wires with their anchor).
                scan = left
                while scan is not None and wire not in scan._wprev:
                    scan = scan._prev
                wprev = scan
                wnext = wprev._wnext[wire] if wprev is not None else self._wire_first.get(wire)
            node._wprev[wire] = wprev
            node._wnext[wire] = wnext
            if wprev is not None:
                wprev._wnext[wire] = node
            else:
                self._wire_first[wire] = node
            if wnext is not None:
                wnext._wprev[wire] = node
            else:
                self._wire_last[wire] = node
        self._size += 1
        self._mods += 1
        return node

    # ------------------------------------------------------------------
    # Mutation: substitute
    # ------------------------------------------------------------------
    def substitute_node_with_instructions(
        self,
        node: DagNode,
        instructions: Sequence[Instruction],
    ) -> Tuple[Optional[DagNode], Optional[DagNode]]:
        """Replace ``node`` by ``instructions`` spliced into its slot.

        Every replacement instruction must act on a subset of ``node``'s wires
        (the local-rewrite contract of the decomposition passes).  Returns
        ``(first_replacement, node_after_block)``; ``first_replacement`` is
        ``None`` when the node was simply removed.
        """
        if not node._in_dag:
            raise CircuitError(f"node {node!r} is not in this DAG")
        # Validate the whole block before touching the DAG, so a bad
        # instruction cannot leave a half-spliced replacement behind.
        for instruction in instructions:
            for wire in self._wires_of(instruction):
                if wire not in node._wprev:
                    raise CircuitError(
                        f"replacement instruction {instruction!r} touches wire "
                        f"{wire}, which {node.instruction!r} does not"
                    )
        after = node._next
        first: Optional[DagNode] = None
        # Each insert_before splices onto the old node's wire predecessors, so
        # the replacement block's internal dependencies chain implicitly.
        for instruction in instructions:
            new = self.insert_before(node, instruction)
            if first is None:
                first = new
        self.remove_node(node)
        return first, after

    def substitute_node_with_circuit(
        self,
        node: DagNode,
        circuit: QuantumCircuit,
        wires: Optional[Sequence[int]] = None,
    ) -> Tuple[Optional[DagNode], Optional[DagNode]]:
        """Replace ``node`` by ``circuit``, mapping circuit qubit ``i`` to ``wires[i]``.

        ``wires`` defaults to the node's own qubits, i.e. a circuit written on
        qubits ``0..k-1`` lands on the node's ``k`` qubits positionally.
        """
        targets = tuple(wires) if wires is not None else node.qubits
        if circuit.num_qubits > len(targets):
            raise CircuitError(
                f"substitution circuit uses {circuit.num_qubits} qubits but only "
                f"{len(targets)} target wires were given"
            )
        mapping = {i: targets[i] for i in range(circuit.num_qubits)}
        return self.substitute_node_with_instructions(
            node, [inst.remap(mapping) for inst in circuit.instructions]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DagCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"nodes={self._size})"
        )

