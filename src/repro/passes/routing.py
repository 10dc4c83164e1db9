"""Baseline SWAP routing of one- and two-qubit gates.

This pass models the conventional compiler's routing stage: every gate is taken
in program order, and when a two-qubit gate acts on physical qubits that are
not coupled, SWAPs are inserted along a shortest path until the two data qubits
become adjacent (§2.4, §3).  The router works on *logical* circuits plus a
:class:`~repro.passes.layout.Layout`; its output is a circuit on the device's
physical wires that still contains explicit ``swap`` gates (expanded to CNOTs
by :class:`~repro.passes.optimization.DecomposeSwapsPass`).

The router optionally takes noise-aware edge weights (``-log`` CNOT success),
in which case "shortest" means "most reliable" (§4).

Path queries go through :class:`~repro.hardware.topology.CouplingMap`'s cached
shortest-path machinery: deterministic paths are memoized, and the stochastic
policy samples a uniformly random tied path from the cached predecessor DAG in
O(path length) instead of enumerating every shortest path (the frozen original
enumeration lives in ``benchmarks/_legacy_routing.py`` for comparison).
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Tuple

from ..circuits.circuit import Instruction
from ..circuits.dag import DagCircuit
from ..circuits import library
from ..exceptions import HardwareError, RoutingError
from ..hardware.topology import CouplingMap
from .base import PropertySet, TransformationPass
from .layout import Layout

Edge = Tuple[int, int]


class GreedySwapRouter(TransformationPass):
    """Route two-qubit gates one at a time along shortest SWAP paths.

    Args:
        coupling_map: Target device connectivity.
        edge_weights: Optional per-edge weights for noise-aware routing.
        stochastic: Model Qiskit's stochastic swap policy (the paper's
            baseline, §5.2): pick uniformly at random which endpoint walks and
            which of the tied shortest paths it follows.  The paper's §3
            motivation — "there is an even chance that the SWAPs for the second
            CNOT separate the two qubits that were just brought together" — is
            exactly this behaviour.
        seed: RNG seed for the stochastic mode.
    """

    establishes = ("routed",)
    invalidates = ("scheduled", "swaps_expanded")

    def __init__(
        self,
        coupling_map: CouplingMap,
        edge_weights: Optional[Mapping[Edge, float]] = None,
        stochastic: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        self.coupling_map = coupling_map
        self.edge_weights = dict(edge_weights) if edge_weights else None
        self.stochastic = stochastic
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Helpers shared with the Trios router
    # ------------------------------------------------------------------
    def _shortest_path(self, a: int, b: int, avoid: Tuple[int, ...] = ()) -> List[int]:
        """Shortest path from ``a`` to ``b``, preferring to avoid given nodes."""
        if avoid:
            blocked = tuple(sorted(set(avoid) - {a, b}))
            if blocked:
                try:
                    return self._pick_path(a, b, blocked)
                except HardwareError:
                    pass  # avoiding those nodes is impossible; use the full graph
        return self._pick_path(a, b)

    def _pick_path(self, a: int, b: int, avoid: Tuple[int, ...] = ()) -> List[int]:
        """One shortest path; in stochastic mode a uniformly random tied path."""
        if not self.stochastic:
            return self.coupling_map.shortest_path(
                a, b, weight=self.edge_weights, avoid=avoid
            )
        return self.coupling_map.sample_shortest_path(
            a, b, self._rng, weight=self.edge_weights, avoid=avoid
        )

    def _emit_swap(
        self, out: DagCircuit, layout: Layout, physical_a: int, physical_b: int
    ) -> None:
        if not self.coupling_map.are_adjacent(physical_a, physical_b):
            raise RoutingError(
                f"internal error: SWAP on non-adjacent qubits {physical_a}, {physical_b}"
            )
        out.append(library.swap_gate(), (physical_a, physical_b))
        layout.swap_physical(physical_a, physical_b)

    def _route_pair(
        self, out: DagCircuit, layout: Layout, logical_a: int, logical_b: int
    ) -> int:
        """Insert SWAPs until the two logical qubits sit on coupled wires."""
        swaps = 0
        physical_a = layout.physical(logical_a)
        physical_b = layout.physical(logical_b)
        if self.coupling_map.are_adjacent(physical_a, physical_b):
            return 0
        if self.stochastic and self._rng.random() < 0.5:
            # Qiskit's stochastic policy may just as well move the other qubit.
            physical_a, physical_b = physical_b, physical_a
        path = self._shortest_path(physical_a, physical_b)
        # Walk the data at ``a`` along the path until adjacent to ``b``.
        for step in range(len(path) - 2):
            self._emit_swap(out, layout, path[step], path[step + 1])
            swaps += 1
        return swaps

    # ------------------------------------------------------------------
    def _route_instruction(
        self, out: DagCircuit, layout: Layout, instruction: Instruction
    ) -> int:
        """Route one instruction; returns the number of SWAPs inserted."""
        logical_qubits = instruction.qubits
        if instruction.name == "barrier" or len(logical_qubits) == 1:
            physical = tuple(layout.physical(q) for q in logical_qubits)
            out.append(instruction.gate, physical, instruction.clbits)
            return 0
        if len(logical_qubits) == 2:
            swaps = self._route_pair(out, layout, *logical_qubits)
            physical = tuple(layout.physical(q) for q in logical_qubits)
            out.append(instruction.gate, physical, instruction.clbits)
            return swaps
        return self._route_multi(out, layout, instruction)

    def _route_multi(
        self, out: DagCircuit, layout: Layout, instruction: Instruction
    ) -> int:
        raise RoutingError(
            f"{type(self).__name__} cannot route the {instruction.gate.num_qubits}-qubit "
            f"gate {instruction.name!r}; decompose it first or use the Trios router"
        )

    # ------------------------------------------------------------------
    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        layout: Layout = properties.get("layout") or Layout.trivial(dag.num_qubits)
        if layout.num_logical < dag.num_qubits:
            raise RoutingError(
                f"layout places {layout.num_logical} qubits but the circuit has "
                f"{dag.num_qubits}"
            )
        layout = layout.copy()
        properties.setdefault("initial_layout", layout.copy())
        # Routing changes the wire set (logical program wires → the device's
        # physical wires), so it emits a fresh DAG in one O(1)-per-append sweep
        # over the input's topological order.
        out = DagCircuit(self.coupling_map.num_qubits, dag.name)
        swaps = 0
        for node in dag:
            swaps += self._route_instruction(out, layout, node.instruction)
        properties["final_layout"] = layout.copy()
        properties["swaps_inserted"] = properties.get("swaps_inserted", 0) + swaps
        return out


class LegalizationRouter(GreedySwapRouter):
    """Re-route a circuit that already lives on physical wires.

    Used after a non-mapping-aware second decomposition (the "Trios (6-CNOT
    Toffoli)" ablation): any CNOT that the decomposition produced between
    non-coupled physical qubits gets the usual SWAP treatment.  For the real
    Trios flow this pass inserts zero SWAPs, which the tests assert.
    """

    establishes = ("routed",)
    invalidates = ("scheduled", "swaps_expanded")

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        # The circuit is already expressed on physical wires; route with an
        # identity layout over the whole device, then compose the wire
        # permutation it introduces into the recorded final layout.
        saved_layout = properties.get("layout")
        saved_initial = properties.get("initial_layout")
        saved_final = properties.get("final_layout")
        properties["layout"] = Layout.trivial(self.coupling_map.num_qubits)
        routed = super().run_dag(dag, properties)
        wire_permutation: Layout = properties["final_layout"]
        if saved_final is not None:
            composed = {
                logical: wire_permutation.physical(physical)
                for logical, physical in saved_final.to_dict().items()
            }
            properties["final_layout"] = Layout(composed)
        # Restore (or remove) the keys the temporary trivial layout touched so
        # no full-device placeholder leaks into later passes.
        if saved_initial is not None:
            properties["initial_layout"] = saved_initial
        else:
            properties.pop("initial_layout", None)
        if saved_layout is not None:
            properties["layout"] = saved_layout
        else:
            properties.pop("layout", None)
        return routed
