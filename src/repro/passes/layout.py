"""Initial placement of program (logical) qubits onto hardware (physical) qubits.

The paper's mapper "can simply treat the non-decomposed Toffoli as it would the
equivalent 6 CNOTs for the purposes of determining which qubits most need to be
placed nearby" (§4).  :class:`GreedyInteractionLayoutPass` implements that: it
builds a weighted interaction graph (each Toffoli contributes weight 2 to each
of its three qubit pairs, i.e. 6 CNOTs total) and greedily places heavily
interacting program qubits on nearby, well-connected hardware qubits.
:class:`NoiseAwareLayoutPass` swaps the hop-count distance for the ``-log``
CNOT-success distance, mirroring the noise-aware extension described in §4.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..circuits.circuit import QuantumCircuit, interaction_graph
from ..circuits.dag import DagCircuit
from ..exceptions import LayoutError
from ..hardware.calibration import DeviceCalibration
from ..hardware.topology import CouplingMap
from .base import AnalysisPass, PropertySet


class Layout:
    """A bijection between logical (program) qubits and physical (device) qubits."""

    def __init__(self, logical_to_physical: Mapping[int, int]) -> None:
        self._l2p: Dict[int, int] = {
            int(logical): int(physical)
            for logical, physical in logical_to_physical.items()
        }
        self._p2l: Dict[int, int] = {}
        for logical, physical in self._l2p.items():
            if physical in self._p2l:
                raise LayoutError(
                    f"physical qubit {physical} assigned to both logical "
                    f"{self._p2l[physical]} and {logical}"
                )
            self._p2l[physical] = logical

    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, num_logical: int) -> "Layout":
        """Logical qubit ``i`` on physical qubit ``i``."""
        return cls({i: i for i in range(num_logical)})

    # ------------------------------------------------------------------
    def physical(self, logical: int) -> int:
        """Physical qubit currently holding logical qubit ``logical``."""
        try:
            return self._l2p[logical]
        except KeyError as exc:
            raise LayoutError(f"logical qubit {logical} has no placement") from exc

    def logical(self, physical: int) -> Optional[int]:
        """Logical qubit currently held by ``physical`` (None if unassigned)."""
        return self._p2l.get(physical)

    def to_dict(self) -> Dict[int, int]:
        """The logical→physical mapping as a plain dict."""
        return dict(self._l2p)

    @property
    def num_logical(self) -> int:
        return len(self._l2p)

    def physical_qubits(self) -> List[int]:
        """All physical qubits currently in use."""
        return sorted(self._p2l)

    # ------------------------------------------------------------------
    def copy(self) -> "Layout":
        return Layout(self._l2p)

    def swap_physical(self, physical_a: int, physical_b: int) -> None:
        """Exchange whatever data sits on two physical qubits (a routing SWAP)."""
        logical_a = self._p2l.pop(physical_a, None)
        logical_b = self._p2l.pop(physical_b, None)
        if logical_a is not None:
            self._p2l[physical_b] = logical_a
            self._l2p[logical_a] = physical_b
        if logical_b is not None:
            self._p2l[physical_a] = logical_b
            self._l2p[logical_b] = physical_a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._l2p == other._l2p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Layout({self._l2p})"


# ----------------------------------------------------------------------
# Layout passes
# ----------------------------------------------------------------------
class TrivialLayoutPass(AnalysisPass):
    """Place logical qubit ``i`` on physical qubit ``i``."""

    establishes = ("laid_out",)

    def __init__(self, coupling_map: CouplingMap) -> None:
        self.coupling_map = coupling_map

    def analyze(self, dag: DagCircuit, properties: PropertySet) -> None:
        if dag.num_qubits > self.coupling_map.num_qubits:
            raise LayoutError(
                f"circuit needs {dag.num_qubits} qubits but the device has "
                f"{self.coupling_map.num_qubits}"
            )
        properties["layout"] = Layout.trivial(dag.num_qubits)
        properties["coupling_map"] = self.coupling_map


class FixedLayoutPass(AnalysisPass):
    """Use an explicit logical→physical placement.

    The paper's Toffoli-only experiments place the three inputs at chosen
    physical locations and "fix the initial mapping to force routing to occur";
    this pass is how the experiment harness does that.
    """

    establishes = ("laid_out",)

    def __init__(self, coupling_map: CouplingMap, mapping: Mapping[int, int]) -> None:
        self.coupling_map = coupling_map
        self.mapping = dict(mapping)

    def analyze(self, dag: DagCircuit, properties: PropertySet) -> None:
        for logical in range(dag.num_qubits):
            if logical not in self.mapping:
                raise LayoutError(f"fixed layout is missing logical qubit {logical}")
            physical = self.mapping[logical]
            if not 0 <= physical < self.coupling_map.num_qubits:
                raise LayoutError(f"physical qubit {physical} outside the device")
        properties["layout"] = Layout(self.mapping)
        properties["coupling_map"] = self.coupling_map


class GreedyInteractionLayoutPass(AnalysisPass):
    """Greedy placement driven by the program's weighted interaction graph.

    Toffoli gates are weighted as the equivalent 6 CNOTs (weight 2 per qubit
    pair), so programs kept at the Toffoli level (the Trios flow) and fully
    decomposed programs (the baseline flow) see the same placement pressure.
    """

    #: Weight contributed by each pair of a three-qubit gate: a Toffoli is 6
    #: CNOTs spread over 3 pairs, i.e. 2 per pair.
    TOFFOLI_PAIR_WEIGHT = 2

    establishes = ("laid_out",)

    def __init__(
        self,
        coupling_map: CouplingMap,
        distance: Optional[Mapping[Tuple[int, int], float]] = None,
    ) -> None:
        self.coupling_map = coupling_map
        self._edge_weights = dict(distance) if distance else None

    # ------------------------------------------------------------------
    def _physical_distance(self, a: int, b: int) -> float:
        if self._edge_weights is None:
            return float(self.coupling_map.distance(a, b))
        return self.coupling_map.path_length(a, b, self._edge_weights)

    def analyze(self, dag: DagCircuit, properties: PropertySet) -> None:
        if dag.num_qubits > self.coupling_map.num_qubits:
            raise LayoutError(
                f"circuit needs {dag.num_qubits} qubits but the device has "
                f"{self.coupling_map.num_qubits}"
            )
        interactions = interaction_graph(
            dag.instructions, toffoli_weight=self.TOFFOLI_PAIR_WEIGHT
        )
        placement = self._place(dag.num_qubits, interactions)
        properties["layout"] = Layout(placement)
        properties["coupling_map"] = self.coupling_map

    # ------------------------------------------------------------------
    def _place(
        self, num_logical: int, interactions: Mapping[Tuple[int, int], int]
    ) -> Dict[int, int]:
        # Total interaction weight per logical qubit, used as placement order.
        weight_of: Dict[int, float] = {q: 0.0 for q in range(num_logical)}
        neighbours: Dict[int, List[Tuple[int, float]]] = {q: [] for q in range(num_logical)}
        for (a, b), weight in interactions.items():
            weight_of[a] += weight
            weight_of[b] += weight
            neighbours[a].append((b, float(weight)))
            neighbours[b].append((a, float(weight)))
        order = sorted(range(num_logical), key=lambda q: -weight_of[q])

        # Candidate physical qubits ordered by connectivity (well-connected first).
        physical_order = sorted(
            range(self.coupling_map.num_qubits),
            key=lambda p: (-self.coupling_map.degree(p), p),
        )
        placement: Dict[int, int] = {}
        used: set = set()
        for logical in order:
            placed_neighbours = [
                (placement[other], weight)
                for other, weight in neighbours[logical]
                if other in placement
            ]
            best_physical = None
            best_cost = None
            for physical in physical_order:
                if physical in used:
                    continue
                if placed_neighbours:
                    cost = sum(
                        weight * self._physical_distance(physical, other_physical)
                        for other_physical, weight in placed_neighbours
                    )
                else:
                    # No placed neighbours yet: prefer central, well-connected qubits.
                    cost = -float(self.coupling_map.degree(physical))
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_physical = physical
            assert best_physical is not None  # there is always a free qubit
            placement[logical] = best_physical
            used.add(best_physical)
        return placement


class NoiseAwareLayoutPass(GreedyInteractionLayoutPass):
    """Greedy layout using ``-log`` CNOT-success distances (noise-aware variant)."""

    def __init__(self, coupling_map: CouplingMap, calibration: DeviceCalibration) -> None:
        weights = calibration.edge_weight_neg_log_success(coupling_map)
        super().__init__(coupling_map, distance=weights)
        self.calibration = calibration


def apply_layout(circuit: QuantumCircuit, layout: Layout, num_physical: int) -> QuantumCircuit:
    """Re-express a logical circuit on physical wires according to ``layout``."""
    mapping = layout.to_dict()
    return circuit.remap_qubits(mapping, num_qubits=num_physical)
