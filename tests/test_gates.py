"""Unit tests for the gate library and gate matrices."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import Gate, gate_matrix
from repro.circuits import library
from repro.circuits.gate import IDENTITY_TOL
from repro.exceptions import GateError
from repro.passes.synthesis import IDENTITY_ATOL, matrix_is_identity


ALL_FIXED_GATES = [
    ("id", 1), ("x", 1), ("y", 1), ("z", 1), ("h", 1), ("s", 1), ("sdg", 1),
    ("t", 1), ("tdg", 1), ("sx", 1), ("sxdg", 1), ("cx", 2), ("cz", 2),
    ("cy", 2), ("ch", 2), ("swap", 2), ("ccx", 3), ("ccz", 3), ("cswap", 3),
]

PARAMETRIC_GATES = [
    ("rx", 1, (0.3,)), ("ry", 1, (1.1,)), ("rz", 1, (-0.7,)), ("u1", 1, (0.5,)),
    ("p", 1, (2.2,)), ("u2", 1, (0.4, 1.3)), ("u3", 1, (0.9, 0.2, -1.1)),
    ("cp", 2, (0.6,)), ("crz", 2, (1.4,)), ("rzz", 2, (0.8,)),
]


class TestGateMatrices:
    @pytest.mark.parametrize("name,arity", ALL_FIXED_GATES)
    def test_fixed_gate_matrices_are_unitary(self, name, arity):
        matrix = Gate(name, arity).matrix()
        dim = 2**arity
        assert matrix.shape == (dim, dim)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-12)

    @pytest.mark.parametrize("name,arity,params", PARAMETRIC_GATES)
    def test_parametric_gate_matrices_are_unitary(self, name, arity, params):
        matrix = Gate(name, arity, params).matrix()
        dim = 2**arity
        assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-12)

    def test_x_matrix(self):
        assert np.allclose(gate_matrix("x"), [[0, 1], [1, 0]])

    def test_h_matrix(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(gate_matrix("h"), expected)

    def test_cx_flips_target_when_control_set(self):
        cx = gate_matrix("cx")
        # |10> -> |11> with qubit 0 (control) the most significant bit.
        state = np.zeros(4)
        state[2] = 1.0
        assert np.allclose(cx @ state, [0, 0, 0, 1])

    def test_ccx_is_controlled_controlled_x(self):
        ccx = gate_matrix("ccx")
        assert np.allclose(ccx[:6, :6], np.eye(6))
        assert ccx[6, 7] == 1 and ccx[7, 6] == 1

    def test_swap_matrix(self):
        swap = gate_matrix("swap")
        state = np.zeros(4)
        state[1] = 1.0  # |01>
        assert np.allclose(swap @ state, [0, 0, 1, 0])  # |10>

    def test_t_is_fourth_root_of_z(self):
        t = gate_matrix("t")
        assert np.allclose(np.linalg.matrix_power(t, 4), gate_matrix("z"))

    def test_sx_is_square_root_of_x(self):
        sx = gate_matrix("sx")
        assert np.allclose(sx @ sx, gate_matrix("x"))

    def test_u2_equals_u3_with_pi_over_2(self):
        assert np.allclose(
            Gate("u2", 1, (0.3, 0.7)).matrix(),
            Gate("u3", 1, (math.pi / 2, 0.3, 0.7)).matrix(),
        )

    def test_unknown_gate_raises(self):
        with pytest.raises(GateError):
            Gate("bogus", 1).matrix()

    def test_measure_has_no_matrix(self):
        with pytest.raises(GateError):
            library.measure_op().matrix()


class TestGateInverses:
    @pytest.mark.parametrize("name,arity", ALL_FIXED_GATES)
    def test_fixed_inverse_is_correct(self, name, arity):
        gate = Gate(name, arity)
        product = gate.inverse().matrix() @ gate.matrix()
        phase = product[0, 0]
        assert np.allclose(product, phase * np.eye(2**arity), atol=1e-12)

    @pytest.mark.parametrize("name,arity,params", PARAMETRIC_GATES)
    def test_parametric_inverse_is_correct(self, name, arity, params):
        gate = Gate(name, arity, params)
        product = gate.inverse().matrix() @ gate.matrix()
        phase = product[0, 0]
        assert np.allclose(product, phase * np.eye(2**arity), atol=1e-12)

    def test_t_inverse_is_tdg(self):
        assert Gate("t", 1).inverse() == Gate("tdg", 1)

    def test_self_inverse_gates(self):
        for name, arity in (("x", 1), ("h", 1), ("cx", 2), ("ccx", 3), ("swap", 2)):
            assert Gate(name, arity).inverse() == Gate(name, arity)


class TestGateProperties:
    def test_equality_and_hash(self):
        assert Gate("rz", 1, (0.5,)) == Gate("rz", 1, (0.5,))
        assert hash(Gate("cx", 2)) == hash(Gate("cx", 2))
        assert Gate("rz", 1, (0.5,)) != Gate("rz", 1, (0.6,))

    def test_is_two_qubit(self):
        assert library.cx_gate().is_two_qubit
        assert not library.ccx_gate().is_two_qubit
        assert library.ccx_gate().is_multi_qubit

    def test_identity_detection(self):
        assert Gate("id", 1).is_identity()
        assert Gate("rz", 1, (0.0,)).is_identity()
        assert Gate("u1", 1, (0.0,)).is_identity()
        assert not Gate("x", 1).is_identity()

    def test_zero_qubit_gate_rejected(self):
        with pytest.raises(GateError):
            Gate("x", 0)

    def test_gate_arity_table_matches_library(self):
        num_params = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "p": 1, "cp": 1,
                      "crz": 1, "rzz": 1, "u2": 2, "u3": 3}
        for name, arity in library.GATE_ARITY.items():
            if name in ("measure", "reset"):
                continue
            params = tuple(0.5 for _ in range(num_params.get(name, 0)))
            assert Gate(name, arity, params).matrix().shape == (2**arity, 2**arity)


# ----------------------------------------------------------------------
# Identity predicates against their numpy statement
# ----------------------------------------------------------------------
def _allclose_reference(matrix: np.ndarray, tol: float) -> bool:
    """The oracle: the identity test as numpy states it."""
    phase = matrix[0, 0]
    if abs(phase) < tol:
        return False
    with np.errstate(all="ignore"):
        return bool(np.allclose(matrix / phase, np.eye(len(matrix)), rtol=0.0, atol=tol))


def _deviation(matrix: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return matrix / matrix[0, 0] - np.eye(len(matrix))


def _hypot_reference(matrix: np.ndarray, tol: float) -> bool:
    """The oracle with the modulus taken by ``np.hypot`` (libm) instead of ``abs``."""
    if abs(matrix[0, 0]) < tol:
        return False
    deviation = _deviation(matrix)
    return bool(np.all(np.hypot(deviation.real, deviation.imag) <= tol))


def _moduli_straddle(matrix: np.ndarray, tol: float) -> bool:
    """Whether numpy's complex ``abs`` and ``hypot`` put a deviation on both sides of ``tol``.

    numpy's vectorised complex ``abs`` may round the last bit differently
    from libm's ``hypot``; only then may the scalar predicates and
    ``np.allclose`` disagree.
    """
    deviation = _deviation(matrix)
    by_abs = np.abs(deviation) <= tol
    by_hypot = np.hypot(deviation.real, deviation.imag) <= tol
    return bool(np.any(by_abs != by_hypot))


def _assert_matches_reference(matrix: np.ndarray, tol: float, verdict: bool) -> None:
    assert verdict == _hypot_reference(matrix, tol)
    assert verdict == _allclose_reference(matrix, tol) or _moduli_straddle(matrix, tol)


def _ulps_from(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def _angles(draw, tol: float) -> float:
    """A rotation angle: anywhere, zero of either sign, or a few ulps from ``tol``."""
    near = st.builds(
        _ulps_from,
        st.sampled_from([tol, -tol, 2 * tol, -2 * tol]),
        st.integers(-4, 4),
    )
    return draw(st.one_of(
        st.floats(-2 * math.pi, 2 * math.pi),
        near,
        st.sampled_from([0.0, -0.0]),
    ))


@st.composite
def _gates(draw, tol: float) -> Gate:
    """``u3``/``rz`` and 4x4 rotations at angles around the tolerance."""
    angle = _angles(tol)
    kind = draw(st.sampled_from(["rz", "u3", "u3_balanced", "crz", "cp", "rzz"]))
    if kind == "u3":
        return library.u3_gate(draw(angle), draw(angle), draw(angle))
    if kind == "u3_balanced":
        # phi = -lam keeps the diagonal at the identity, so the verdict rests
        # on the off-diagonal entries, whose two parts are of equal size.
        phi = draw(st.floats(-math.pi, math.pi))
        return library.u3_gate(draw(angle), phi, -phi)
    return Gate(kind, 1 if kind == "rz" else 2, (draw(angle),))


@st.composite
def _matrices(draw, tol: float) -> np.ndarray:
    """Gate matrices (up to 8x8) under a global phase, with edge-case entries."""
    gate = draw(_gates(tol))
    matrix = gate.matrix()
    if draw(st.booleans()):
        matrix = np.kron(library.rz_gate(draw(_angles(tol))).matrix(), matrix)
    matrix = matrix * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    edit = draw(st.sampled_from(["none", "nan", "negative_zero", "tiny_phase"]))
    row = draw(st.integers(0, len(matrix) - 1))
    col = draw(st.integers(0, len(matrix) - 1))
    if edit == "nan":
        matrix[row, col] = draw(st.sampled_from(
            [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.nan)]
        ))
    elif edit == "negative_zero":
        if row != col:
            matrix[row, col] = complex(-0.0, -0.0)
        matrix[0, 0] = complex(matrix[0, 0].real, -0.0)
    elif edit == "tiny_phase":
        # |m[0, 0]| a few ulps from the tolerance: the phase check decides.
        magnitude = _ulps_from(tol, draw(st.integers(-4, 4)))
        matrix = matrix * (magnitude / abs(matrix[0, 0]))
    return matrix


class TestIdentityPredicates:
    """``Gate.is_identity`` and ``matrix_is_identity`` are scalar loops; numpy is the oracle."""

    @given(data=st.data())
    def test_gate_is_identity_matches_numpy(self, data):
        tol = data.draw(st.sampled_from([IDENTITY_TOL, IDENTITY_ATOL]))
        gate = data.draw(_gates(tol))
        verdict = gate.is_identity() if tol == IDENTITY_TOL else gate.is_identity(tol)
        _assert_matches_reference(gate.matrix(), tol, verdict)

    @given(data=st.data())
    def test_matrix_is_identity_matches_numpy(self, data):
        tol = data.draw(st.sampled_from([IDENTITY_ATOL, IDENTITY_TOL]))
        matrix = data.draw(_matrices(tol))
        _assert_matches_reference(matrix, tol, matrix_is_identity(matrix, tol))

    def test_examples(self):
        assert matrix_is_identity(cmath.exp(0.3j) * np.eye(8))
        assert not matrix_is_identity(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert not matrix_is_identity(np.array([[math.nan, 0], [0, 1]], dtype=complex))
        assert not matrix_is_identity(np.zeros((2, 2)), atol=0.0)
        assert Gate("rzz", 2, (0.0,)).is_identity()
        assert not Gate("rz", 1, (2 * IDENTITY_TOL,)).is_identity()
        assert Gate("rz", 1, (IDENTITY_TOL / 2,)).is_identity()
        for name in ("ccx", "ccz", "cswap"):
            gate = Gate(name, 3)
            _assert_matches_reference(gate.matrix(), IDENTITY_TOL, gate.is_identity())
