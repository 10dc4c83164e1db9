"""Tests for coupling maps, the paper's topologies and device calibrations."""

import copy
import math
import pickle
import random

import pytest

from repro.exceptions import HardwareError
from repro.hardware import (
    CouplingMap,
    DeviceCalibration,
    by_name,
    clusters,
    fully_connected,
    grid,
    johannesburg,
    johannesburg_aug19_2020,
    line,
    near_term_calibration,
    PAPER_TOPOLOGIES,
)


class TestCouplingMap:
    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(HardwareError):
            CouplingMap(3, [(0, 0)])
        with pytest.raises(HardwareError):
            CouplingMap(3, [(0, 5)])

    def test_adjacency_and_distance(self):
        cmap = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        assert cmap.are_adjacent(1, 2)
        assert not cmap.are_adjacent(0, 3)
        assert cmap.distance(0, 3) == 3
        assert cmap.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_weighted_shortest_path_prefers_reliable_edges(self):
        cmap = CouplingMap(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        weights = {(0, 1): 10.0, (1, 3): 10.0, (0, 2): 1.0, (2, 3): 1.0}
        assert cmap.shortest_path(0, 3, weights) == [0, 2, 3]

    def test_triangle_and_linear_middle(self):
        cmap = CouplingMap(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert cmap.has_triangle(0, 1, 2)
        assert not cmap.has_triangle(1, 2, 3)
        assert cmap.linear_middle(1, 2, 3) == 2
        assert cmap.linear_middle(0, 1, 3) is None

    def test_total_distance(self):
        cmap = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        assert cmap.total_distance([0, 1, 3]) == 1 + 2 + 3

    def test_subgraph_connectivity(self):
        cmap = CouplingMap(5, [(0, 1), (1, 2), (3, 4)])
        assert cmap.subgraph_is_connected([0, 1, 2])
        assert not cmap.subgraph_is_connected([0, 1, 3])

    def test_pickles_without_its_routing_caches(self):
        fresh_size = len(pickle.dumps(johannesburg()))
        routed = johannesburg()
        rng = random.Random(0)
        for a, b in [(0, 19), (4, 15), (9, 10), (5, 14)]:
            routed.shortest_path(a, b, weight={(0, 1): 2.0})
            routed.sample_shortest_path(a, b, rng)
        routed.distance_matrix()
        assert len(pickle.dumps(routed)) == fresh_size

        clone = pickle.loads(pickle.dumps(routed))
        assert clone.edges == routed.edges and clone.name == routed.name
        assert (clone.distance_matrix() == routed.distance_matrix()).all()
        for a, b in [(0, 19), (4, 15), (3, 12)]:
            assert clone.shortest_path(a, b) == routed.shortest_path(a, b)
            assert clone.tied_path_count(a, b) == routed.tied_path_count(a, b)
        assert list(clone.graph.adj.items()) == list(routed.graph.adj.items())

    def test_deepcopy_is_the_map_itself(self):
        cmap = johannesburg()
        assert copy.deepcopy(cmap) is cmap
        assert copy.deepcopy({"map": cmap})["map"] is cmap


class TestPaperTopologies:
    @pytest.mark.parametrize("name", sorted(PAPER_TOPOLOGIES))
    def test_all_have_20_connected_qubits(self, name):
        cmap = by_name(name)
        assert cmap.num_qubits == 20
        assert cmap.is_connected()

    def test_johannesburg_is_sparse_rings(self):
        cmap = johannesburg()
        assert len(cmap.edges) == 23
        # Four rings, no triangles: the mapping-aware pass must always pick the
        # 8-CNOT decomposition on this device.
        assert cmap.triangles() == []

    def test_grid_edge_count(self):
        assert len(grid(4, 5).edges) == 31

    def test_line_is_a_path(self):
        cmap = line(20)
        assert len(cmap.edges) == 19
        assert cmap.distance(0, 19) == 19

    def test_clusters_are_dense_locally(self):
        cmap = clusters(4, 5)
        # Within a cluster every pair is adjacent.
        for a in range(5):
            for b in range(a + 1, 5):
                assert cmap.are_adjacent(a, b)
        # Crossing clusters requires the ring links.
        assert not cmap.are_adjacent(0, 7)
        assert len(cmap.triangles()) > 0

    def test_fully_connected_has_no_routing_needs(self):
        cmap = fully_connected(6)
        assert all(cmap.are_adjacent(a, b) for a in range(6) for b in range(a + 1, 6))

    def test_unknown_topology_name(self):
        with pytest.raises(HardwareError):
            by_name("torus-1000")


class TestCalibration:
    def test_paper_snapshot_values(self):
        calibration = johannesburg_aug19_2020()
        assert calibration.t1 == pytest.approx(70.87)
        assert calibration.t2 == pytest.approx(72.72)
        assert calibration.two_qubit_gate_time == pytest.approx(0.559)
        assert calibration.one_qubit_gate_time == pytest.approx(0.07)
        assert calibration.two_qubit_gate_error == pytest.approx(0.0147)
        assert calibration.one_qubit_gate_error == pytest.approx(0.0004)

    def test_improved_scales_errors_and_coherence(self):
        calibration = johannesburg_aug19_2020().improved(20)
        assert calibration.two_qubit_gate_error == pytest.approx(0.0147 / 20)
        assert calibration.t1 == pytest.approx(70.87 * 20)
        assert near_term_calibration().two_qubit_gate_error == pytest.approx(0.0147 / 20)

    def test_improved_rejects_nonpositive_factor(self):
        with pytest.raises(HardwareError):
            johannesburg_aug19_2020().improved(0)

    def test_gate_error_lookup(self):
        calibration = johannesburg_aug19_2020()
        assert calibration.gate_error("cx", (0, 1)) == pytest.approx(0.0147)
        assert calibration.gate_error("u3", (4,)) == pytest.approx(0.0004)
        assert calibration.gate_error("measure", (0,)) == pytest.approx(0.02)
        with pytest.raises(HardwareError):
            calibration.gate_error("ccx", (0, 1, 2))

    def test_per_edge_errors_override_average(self):
        calibration = johannesburg_aug19_2020().with_edge_errors({(1, 0): 0.05})
        assert calibration.gate_error("cx", (0, 1)) == pytest.approx(0.05)
        assert calibration.gate_error("cx", (2, 3)) == pytest.approx(0.0147)

    def test_noise_aware_edge_weights(self):
        cmap = line(4)
        calibration = johannesburg_aug19_2020().with_edge_errors({(0, 1): 0.1})
        weights = calibration.edge_weight_neg_log_success(cmap)
        assert weights[(0, 1)] == pytest.approx(-math.log(0.9))
        assert weights[(1, 2)] == pytest.approx(-math.log(1 - 0.0147))
        assert weights[(0, 1)] > weights[(1, 2)]

    def test_swap_duration_is_three_cnots(self):
        calibration = johannesburg_aug19_2020()
        assert calibration.gate_duration("swap", (0, 1)) == pytest.approx(3 * 0.559)

    def test_invalid_calibration_rejected(self):
        with pytest.raises(HardwareError):
            DeviceCalibration(
                name="bad", t1=-1, t2=1, one_qubit_gate_time=1, two_qubit_gate_time=1,
                one_qubit_gate_error=0, two_qubit_gate_error=0, readout_error=0,
                readout_time=1,
            )
        with pytest.raises(HardwareError):
            DeviceCalibration(
                name="bad", t1=1, t2=1, one_qubit_gate_time=1, two_qubit_gate_time=1,
                one_qubit_gate_error=0, two_qubit_gate_error=1.5, readout_error=0,
                readout_time=1,
            )
