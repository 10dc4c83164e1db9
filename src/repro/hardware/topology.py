"""Hardware coupling maps.

A :class:`CouplingMap` is an undirected graph whose nodes are the physical
qubits of a device and whose edges are the pairs that can execute a two-qubit
gate directly.  Both the routers and the mapping-aware Toffoli decomposition
query it for adjacency, shortest paths and triangles.

Shortest-path queries are the routers' hot loop, so the map precomputes and
caches everything they re-derive:

* a dense numpy all-pairs distance matrix (:meth:`distance_matrix`),
* per-source shortest-path predecessor DAGs — keyed by the optional
  noise-aware edge weights and by the avoid-node set — with the number of
  tied shortest paths counted through the DAG, and
* deterministic shortest paths, memoized per (source, target, weights, avoid).

:meth:`sample_shortest_path` draws a uniformly random *tied* shortest path by
walking the predecessor DAG backwards, weighting each predecessor by its tied
path count.  That is the same uniform-over-tied-paths distribution as
enumerating every shortest path and picking one at random (the stochastic
baseline router's policy), but its cost is O(path length) instead of growing
with the — combinatorially explosive on grids — number of alternatives.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from ..exceptions import HardwareError

Edge = Tuple[int, int]


class _PredecessorDAG:
    """Shortest-path predecessor DAG from one source qubit.

    ``dist`` maps each reachable node to its shortest distance from the
    source, ``preds`` to the list of predecessors that lie on some shortest
    path, and ``counts`` to the number of distinct tied shortest paths from
    the source — the weights used for uniform tied-path sampling.
    """

    __slots__ = ("source", "dist", "preds", "counts")

    def __init__(
        self,
        source: int,
        dist: Dict[int, float],
        preds: Dict[int, List[int]],
        order: List[int],
    ) -> None:
        self.source = source
        self.dist = dist
        self.preds = preds
        counts: Dict[int, int] = {source: 1}
        # ``order`` lists nodes by non-decreasing distance, so every
        # predecessor's count is final before it is summed into a successor.
        for node in order:
            if node == source:
                continue
            counts[node] = sum(counts[p] for p in preds[node])
        self.counts = counts

    def sample_path(self, target: int, rng: random.Random) -> List[int]:
        """A uniformly random tied shortest path from the source to ``target``.

        Walking backwards and picking each predecessor with probability
        proportional to its tied-path count makes every complete path equally
        likely (the per-step probabilities telescope to ``1 / counts[target]``).
        """
        path = [target]
        node = target
        while node != self.source:
            preds = self.preds[node]
            if len(preds) == 1:
                node = preds[0]
            else:
                pick = rng.randrange(self.counts[node])
                for pred in preds:
                    pick -= self.counts[pred]
                    if pick < 0:
                        node = pred
                        break
            path.append(node)
        path.reverse()
        return path


def _bfs_dag(graph: nx.Graph, source: int, blocked: frozenset) -> _PredecessorDAG:
    """Unweighted shortest-path DAG via breadth-first search."""
    dist: Dict[int, float] = {source: 0}
    preds: Dict[int, List[int]] = {source: []}
    order: List[int] = [source]
    frontier = [source]
    depth = 0
    adj = graph.adj
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in adj[node]:
                if neighbor in blocked:
                    continue
                seen = dist.get(neighbor)
                if seen is None:
                    dist[neighbor] = depth
                    preds[neighbor] = [node]
                    next_frontier.append(neighbor)
                    order.append(neighbor)
                elif seen == depth:
                    preds[neighbor].append(node)
        frontier = next_frontier
    return _PredecessorDAG(source, dist, preds, order)


def _dijkstra_dag(
    graph: nx.Graph,
    source: int,
    blocked: frozenset,
    weight: Mapping[Edge, float],
) -> _PredecessorDAG:
    """Weighted shortest-path DAG via Dijkstra.

    Ties are detected with exact float equality, matching
    :func:`networkx.all_shortest_paths`' notion of "tied" so the sampled
    distribution is over the same path set the enumeration would produce.
    """
    dist: Dict[int, float] = {}
    preds: Dict[int, List[int]] = {source: []}
    order: List[int] = []
    seen: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int, int]] = [(0.0, source, source)]
    adj = graph.adj
    while heap:
        node_dist, _, node = heappop(heap)
        if node in dist:
            continue
        dist[node] = node_dist
        order.append(node)
        for neighbor in adj[node]:
            if neighbor in blocked or neighbor in dist:
                continue
            edge = (node, neighbor) if node < neighbor else (neighbor, node)
            candidate = node_dist + weight.get(edge, 1.0)
            best = seen.get(neighbor)
            if best is None or candidate < best:
                seen[neighbor] = candidate
                preds[neighbor] = [node]
                heappush(heap, (candidate, neighbor, neighbor))
            elif candidate == best:
                preds[neighbor].append(node)
    return _PredecessorDAG(source, dist, preds, order)


class CouplingMap:
    """Connectivity graph of a quantum device."""

    def __init__(self, num_qubits: int, edges: Iterable[Edge], name: str = "device") -> None:
        if num_qubits < 1:
            raise HardwareError("a device needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.num_qubits))
        # The edges in construction order, which fixes the graph's neighbour
        # order and so the routers' tie-breaks; pickling rebuilds from them.
        self._edge_list = edges = tuple(edges)
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise HardwareError(f"self-loop edge ({a}, {b}) is not allowed")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise HardwareError(f"edge ({a}, {b}) out of range for {num_qubits} qubits")
            self.graph.add_edge(a, b)
        # Lazily-built caches; the graph is immutable after construction, so
        # they stay valid for the lifetime of the map.
        self._distance_matrix: Optional[np.ndarray] = None
        self._dag_cache: Dict[Tuple[int, int, Tuple[int, ...]], _PredecessorDAG] = {}
        self._path_cache: Dict[
            Tuple[int, int, int, Tuple[int, ...]], Tuple[int, ...]
        ] = {}
        self._weight_tokens: Dict[frozenset, int] = {}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def edges(self) -> List[Edge]:
        """Sorted list of undirected edges (a < b)."""
        return sorted((min(a, b), max(a, b)) for a, b in self.graph.edges())

    def degree(self, qubit: int) -> int:
        """Number of neighbours of a physical qubit."""
        return int(self.graph.degree(qubit))

    def neighbors(self, qubit: int) -> List[int]:
        """Physical qubits directly connected to ``qubit``."""
        return sorted(self.graph.neighbors(qubit))

    def is_connected(self) -> bool:
        """Whether the device graph is a single connected component."""
        return nx.is_connected(self.graph)

    def are_adjacent(self, a: int, b: int) -> bool:
        """Whether a two-qubit gate can run directly between ``a`` and ``b``."""
        return self.graph.has_edge(a, b)

    def has_triangle(self, a: int, b: int, c: int) -> bool:
        """Whether the three qubits are pairwise connected.

        The Trios second decomposition pass uses this to pick the 6-CNOT
        Toffoli (triangle present) versus the 8-CNOT linear one.
        """
        return (
            self.are_adjacent(a, b)
            and self.are_adjacent(b, c)
            and self.are_adjacent(a, c)
        )

    def linear_middle(self, a: int, b: int, c: int) -> Optional[int]:
        """If {a, b, c} are in a connected line, return the middle qubit.

        Returns ``None`` when the three qubits do not form a connected
        sub-line (i.e. no qubit is adjacent to both of the others).
        """
        for middle, (left, right) in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            if self.are_adjacent(middle, left) and self.are_adjacent(middle, right):
                return middle
        return None

    # ------------------------------------------------------------------
    # Distances and paths
    # ------------------------------------------------------------------
    def distance_matrix(self) -> np.ndarray:
        """Dense all-pairs unweighted distance matrix (``-1`` = disconnected).

        Computed once and cached; :meth:`distance` and the routers' distance
        queries are plain array reads afterwards.
        """
        if self._distance_matrix is None:
            matrix = np.full((self.num_qubits, self.num_qubits), -1, dtype=np.int32)
            for source, lengths in nx.all_pairs_shortest_path_length(self.graph):
                for target, length in lengths.items():
                    matrix[source, target] = length
            matrix.setflags(write=False)
            self._distance_matrix = matrix
        return self._distance_matrix

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance (number of edges) between two physical qubits."""
        matrix = self.distance_matrix()
        if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
            raise HardwareError(f"qubits {a} and {b} out of range")
        value = int(matrix[a, b])
        if value < 0:
            raise HardwareError(f"qubits {a} and {b} are not connected")
        return value

    def _weight_token(self, weight: Optional[Mapping[Edge, float]]) -> int:
        """A small cache key identifying an edge-weight variant (0 = unweighted)."""
        if not weight:
            return 0
        key = frozenset(weight.items())
        token = self._weight_tokens.get(key)
        if token is None:
            token = len(self._weight_tokens) + 1
            self._weight_tokens[key] = token
        return token

    def _predecessor_dag(
        self,
        source: int,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> _PredecessorDAG:
        """The cached shortest-path DAG from ``source`` for a weight/avoid variant."""
        key = (source, self._weight_token(weight), avoid)
        dag = self._dag_cache.get(key)
        if dag is None:
            blocked = frozenset(avoid)
            if source in blocked:
                raise HardwareError(f"source qubit {source} is in the avoid set")
            if weight:
                dag = _dijkstra_dag(self.graph, source, blocked, weight)
            else:
                dag = _bfs_dag(self.graph, source, blocked)
            self._dag_cache[key] = dag
        return dag

    def shortest_path(
        self,
        a: int,
        b: int,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> List[int]:
        """A shortest path from ``a`` to ``b`` inclusive of both endpoints.

        Deterministic: repeated queries return the same path, which is
        memoized per (source, target, weights, avoid) so the routers never
        recompute it.

        Args:
            a: Source physical qubit.
            b: Destination physical qubit.
            weight: Optional per-edge weights (e.g. ``-log`` CNOT success rate
                for noise-aware routing).  Unweighted BFS is used when omitted.
            avoid: Physical qubits the path must not pass through.
        """
        weight = weight or None  # an empty mapping is the unweighted variant
        key = (a, b, self._weight_token(weight), avoid)
        cached = self._path_cache.get(key)
        if cached is None:
            graph = self.graph
            if avoid:
                blocked = set(avoid)
                graph = graph.subgraph(
                    [n for n in graph.nodes if n not in blocked]
                )
            try:
                if weight is None:
                    path = list(nx.shortest_path(graph, a, b))
                else:
                    def edge_weight(u: int, v: int, _attrs: dict) -> float:
                        return weight.get((min(u, v), max(u, v)), 1.0)
                    path = list(nx.shortest_path(graph, a, b, weight=edge_weight))
            except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
                raise HardwareError(f"no path between qubits {a} and {b}") from exc
            cached = tuple(path)
            self._path_cache[key] = cached
        return list(cached)

    def sample_shortest_path(
        self,
        a: int,
        b: int,
        rng: random.Random,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> List[int]:
        """A uniformly random tied shortest path from ``a`` to ``b``.

        Equivalent in distribution to enumerating every shortest path and
        picking one uniformly (the stochastic baseline's policy), but runs in
        O(path length) by sampling through the cached predecessor DAG.
        """
        dag = self._predecessor_dag(a, weight or None, avoid)
        if b not in dag.dist:
            raise HardwareError(f"no path between qubits {a} and {b}")
        return dag.sample_path(b, rng)

    def tied_path_count(
        self,
        a: int,
        b: int,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> int:
        """Number of distinct tied shortest paths from ``a`` to ``b``."""
        dag = self._predecessor_dag(a, weight, avoid)
        if b not in dag.dist:
            raise HardwareError(f"no path between qubits {a} and {b}")
        return dag.counts[b]

    def path_length(self, a: int, b: int, weight: Optional[Mapping[Edge, float]] = None) -> float:
        """Length of the shortest path under the optional edge weights."""
        if weight is None:
            return float(self.distance(a, b))
        path = self.shortest_path(a, b, weight)
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += weight.get((min(u, v), max(u, v)), 1.0)
        return total

    def total_distance(self, qubits: Sequence[int]) -> int:
        """Sum of pairwise distances over a group of qubits.

        This is the "total swap distance" label used on the x axis of the
        paper's Figures 6-8 for qubit triplets.
        """
        total = 0
        qubits = list(qubits)
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                total += self.distance(qubits[i], qubits[j])
        return total

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def subgraph_is_connected(self, qubits: Sequence[int]) -> bool:
        """Whether the induced subgraph on ``qubits`` is connected."""
        sub = self.graph.subgraph(qubits)
        return len(sub) > 0 and nx.is_connected(sub)

    def triangles(self) -> List[Tuple[int, int, int]]:
        """All triangles (3-cliques) in the device graph."""
        found: Set[Tuple[int, int, int]] = set()
        for a, b in self.graph.edges():
            for c in set(self.graph.neighbors(a)) & set(self.graph.neighbors(b)):
                found.add(tuple(sorted((a, b, c))))  # type: ignore[arg-type]
        return sorted(found)

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the device only, not the memo caches (or networkx's cached
        views), which grow with every routing query: a pickled map's size
        does not depend on what was routed on it.  They are rebuilt lazily."""
        return {"num_qubits": self.num_qubits, "edges": self._edge_list, "name": self.name}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        CouplingMap.__init__(self, state["num_qubits"], state["edges"], state["name"])

    def __deepcopy__(self, memo: Dict[int, object]) -> "CouplingMap":
        """The map is immutable after construction, so it is its own deep copy."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CouplingMap(name={self.name!r}, qubits={self.num_qubits}, "
            f"edges={len(self.edges)})"
        )
