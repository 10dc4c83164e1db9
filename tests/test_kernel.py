"""Tests for the statevector gate kernel, :func:`repro.sim.statevector.apply_matrix`.

The oracle is the ``np.tensordot`` contraction the kernel replaced, frozen in
``benchmarks/_legacy_samplers.py``, so the kernel is checked against an
independent formulation.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gate import gate_matrix
from repro.exceptions import SimulationError
from repro.sim import statevector
from repro.sim.statevector import apply_matrix

_LEGACY_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "_legacy_samplers.py"
_spec = importlib.util.spec_from_file_location("_legacy_samplers", _LEGACY_PATH)
_legacy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_legacy)
tensordot_oracle = _legacy.tensordot_apply_matrix


def random_array(rng, shape, complex_valued):
    values = rng.normal(size=shape)
    if complex_valued:
        values = values + 1j * rng.normal(size=shape)
    return values


@st.composite
def kernel_cases(draw):
    """A state, a matrix on k = 1..4 shuffled qubits, and the qubits."""
    k = draw(st.integers(min_value=1, max_value=4))
    num_qubits = draw(st.integers(min_value=k, max_value=7))
    qubits = tuple(draw(st.permutations(range(num_qubits)))[:k])
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    state = random_array(rng, 2**num_qubits, draw(st.booleans()))
    matrix = random_array(rng, (2**k, 2**k), draw(st.booleans()))
    sparsity = draw(st.sampled_from(["dense", "two_per_row", "monomial", "ones"]))
    if sparsity != "dense":
        per_row = 1 if sparsity == "monomial" else 2
        keep = np.zeros(matrix.shape, dtype=bool)
        for row in range(2**k):
            keep[row, rng.choice(2**k, size=min(per_row, 2**k), replace=False)] = True
        matrix = np.where(keep, matrix, 0)
        if sparsity == "ones":
            matrix[keep] = 1
    if draw(st.booleans()):
        matrix.setflags(write=False)
    return state, matrix, qubits, num_qubits


class TestAgainstTensordot:
    @given(case=kernel_cases())
    @settings(max_examples=300)
    def test_matches_oracle_in_value_and_dtype(self, case):
        state, matrix, qubits, num_qubits = case
        before = state.copy()
        result = apply_matrix(state, matrix, qubits, num_qubits)
        expected = tensordot_oracle(state, matrix, qubits, num_qubits)
        assert result.dtype == expected.dtype == np.result_type(state, matrix)
        assert result.shape == (2**num_qubits,)
        np.testing.assert_allclose(result, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(state, before)

    @given(case=kernel_cases())
    @settings(max_examples=200)
    def test_dense_path_is_bit_identical(self, case):
        state, matrix, qubits, num_qubits = case
        if (np.count_nonzero(matrix, axis=1) <= 2).all():
            return
        result = apply_matrix(state, matrix, qubits, num_qubits)
        expected = tensordot_oracle(state, matrix, qubits, num_qubits)
        assert result.tobytes() == expected.tobytes()

    def test_real_state_complex_matrix_gives_complex(self):
        state = np.array([1.0, 0.0, 0.0, 0.0])
        result = apply_matrix(state, gate_matrix("s"), (1,), 2)
        assert result.dtype == np.complex128
        result = apply_matrix(state, gate_matrix("h"), (0,), 2)
        assert np.allclose(result, [2**-0.5, 0, 2**-0.5, 0])

    def test_real_state_real_matrix_stays_real(self):
        state = np.arange(8, dtype=float)
        ptm_like = np.array([[1.0, 0.0], [0.5, -1.0]])
        result = apply_matrix(state, ptm_like, (2,), 3)
        assert result.dtype == np.float64
        assert np.array_equal(result, tensordot_oracle(state, ptm_like, (2,), 3))


class TestMonomialGatesAreExact:
    @pytest.mark.parametrize(
        "name, qubits",
        [("x", (2,)), ("cx", (3, 0)), ("cx", (1, 2)), ("swap", (0, 4)),
         ("ccx", (4, 1, 2)), ("ccx", (0, 1, 2)), ("cswap", (3, 0, 1))],
    )
    def test_permutations_move_amplitudes_exactly(self, name, qubits):
        num_qubits = 5
        state = random_array(np.random.default_rng(7), 2**num_qubits, True)
        result = apply_matrix(state, gate_matrix(name), qubits, num_qubits)
        expected = np.empty_like(state)
        for index in range(2**num_qubits):
            basis = np.zeros(2**num_qubits)
            basis[index] = 1.0
            image = tensordot_oracle(basis, gate_matrix(name), qubits, num_qubits)
            expected[np.flatnonzero(image)[0]] = state[index]
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("name", ["y", "z", "s", "sdg", "cz"])
    def test_signed_monomials_keep_magnitudes_exactly(self, name):
        matrix = gate_matrix(name)
        qubits = (1, 3)[: int(np.log2(matrix.shape[0]))]
        state = random_array(np.random.default_rng(3), 16, True)
        result = apply_matrix(state, matrix, qubits, 4)
        expected = tensordot_oracle(state, matrix, qubits, 4)
        assert np.array_equal(result, expected)


class TestSlicePathAvoidsBlas:
    @pytest.fixture
    def no_blas(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the slice path called a BLAS product")

        monkeypatch.setattr(np, "dot", forbidden)
        monkeypatch.setattr(np, "tensordot", forbidden)

    @pytest.mark.parametrize(
        "name, params, qubits",
        [("u3", (0.3, 0.2, 0.1), (4,)), ("h", (), (0,)), ("rz", (0.7,), (2,)),
         ("t", (), (1,)), ("x", (), (3,)), ("y", (), (3,)), ("cx", (), (2, 0)),
         ("cz", (), (1, 4)), ("swap", (), (0, 3)), ("ccx", (), (3, 1, 4)),
         ("crz", (0.4,), (0, 2)), ("rzz", (0.9,), (4, 1))],
    )
    def test_at_most_two_nonzeros_per_row_never_reach_dot(self, no_blas, name, params, qubits):
        state = random_array(np.random.default_rng(1), 2**5, True)
        apply_matrix(state, gate_matrix(name, params), qubits, 5)

    def test_dense_matrix_does_use_dot(self, no_blas):
        dense = np.full((4, 4), 0.5)
        with pytest.raises(AssertionError, match="BLAS"):
            apply_matrix(np.ones(8), dense, (0, 2), 3)


class TestEdgeCases:
    def test_zero_rows_zero_their_block(self):
        projector = np.array([[1.0, 0.0], [0.0, 0.0]])
        result = apply_matrix(np.ones(4, dtype=complex), projector, (0,), 2)
        assert np.array_equal(result, [1, 1, 0, 0])

    def test_full_width_gate(self):
        result = apply_matrix(np.array([0.0, 1.0]), gate_matrix("x"), (0,), 1)
        assert np.array_equal(result, [1.0, 0.0])

    def test_recipes_follow_content_and_qubits(self):
        state = np.arange(4.0)
        flip, same_flip = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(apply_matrix(state, flip, (1,), 2), [1, 0, 3, 2])
        assert np.array_equal(apply_matrix(state, same_flip, (0,), 2), [2, 3, 0, 1])
        flip[:] = [[1.0, 0.0], [0.0, -1.0]]  # same array, new content
        assert np.array_equal(apply_matrix(state, flip, (1,), 2), [0, -1, 2, -3])

    def test_dense_matrices_are_not_cached(self):
        statevector._RECIPES.clear()
        apply_matrix(np.ones(8), np.full((4, 4), 0.5), (0, 2), 3)
        assert not statevector._RECIPES
        apply_matrix(np.ones(8), gate_matrix("cx"), (0, 2), 3)
        assert len(statevector._RECIPES) == 1

    def test_sparse_matrix_with_a_dense_row_uses_dot(self):
        matrix = np.eye(4)
        matrix[0, :3] = 1.0  # six nonzeros, but three in row 0
        state = np.arange(8.0)
        for _ in range(2):  # built, then from the cache
            result = apply_matrix(state, matrix, (2, 0), 3)
            assert result.tobytes() == tensordot_oracle(state, matrix, (2, 0), 3).tobytes()

    def test_wrong_matrix_shape_rejected(self):
        with pytest.raises(SimulationError):
            apply_matrix(np.ones(4), np.eye(2), (0, 1), 2)

    @pytest.mark.parametrize("qubits", [(0, 0), (2,), (-1,)])
    def test_invalid_qubits_rejected(self, qubits):
        matrix = np.eye(2 ** len(qubits))
        with pytest.raises(SimulationError):
            apply_matrix(np.ones(4), matrix, qubits, 2)
