"""Gate objects: the atomic operations of a quantum circuit.

A :class:`Gate` is a named operation acting on a fixed number of qubits with an
optional tuple of real parameters.  Gates are value objects: two gates with the
same name, arity and parameters compare equal and hash equally, which the
optimisation passes rely on (e.g. cancelling a gate against its inverse).

The unitary matrix of every supported gate is available through
:meth:`Gate.matrix`, which is what the simulators and the equivalence tests use
to verify decompositions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from ..exceptions import GateError

# Names of operations that are not unitary gates.
NON_UNITARY_NAMES = frozenset({"measure", "reset", "barrier"})

#: Absolute tolerance of :meth:`Gate.is_identity`.  The comparison is purely
#: absolute (``rtol=0``): numpy's default relative term would let rotations
#: as large as ~1e-5 rad pass as the identity.
IDENTITY_TOL = 1e-12

# Self-inverse gates (used by the cancellation pass).
SELF_INVERSE_NAMES = frozenset(
    {"id", "x", "y", "z", "h", "cx", "cz", "cy", "ch", "swap", "ccx", "ccz", "cswap"}
)

# Map from a gate name to the name of its inverse for the simple named cases.
_NAMED_INVERSES = {
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
}


@dataclass(frozen=True)
class Gate:
    """An immutable quantum gate (or non-unitary operation such as measure).

    Attributes:
        name: Lower-case gate name, e.g. ``"cx"`` or ``"u3"``.
        num_qubits: Number of qubits the gate acts on.
        params: Tuple of real parameters (rotation angles, in radians).
    """

    name: str
    num_qubits: int
    params: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise GateError(f"gate {self.name!r} must act on at least one qubit")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def is_unitary(self) -> bool:
        """Whether this operation has a unitary matrix representation."""
        return self.name not in NON_UNITARY_NAMES

    @property
    def is_two_qubit(self) -> bool:
        """Whether this is a two-qubit gate (the paper's primary error metric)."""
        return self.is_unitary and self.num_qubits == 2

    @property
    def is_multi_qubit(self) -> bool:
        """Whether this gate acts on three or more qubits (e.g. a Toffoli)."""
        return self.is_unitary and self.num_qubits >= 3

    # ------------------------------------------------------------------
    # Unitary matrix
    # ------------------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """Return the ``2**n x 2**n`` unitary matrix of this gate.

        Parameter-free gates (``cx``, ``swap``, ``ccx``, ...) return a shared
        read-only array, built once and interned — decomposition passes and
        the simulators query these matrices per instruction, so rebuilding
        them every call dominated tight loops.  Parameterised gates are built
        on demand (their angle space is unbounded, so caching them would grow
        without limit).

        Raises:
            GateError: If the gate is non-unitary (measure/reset/barrier) or
                its name is unknown.
        """
        if not self.params:
            cached = _MATRIX_CACHE.get(self.name)
            if cached is not None:
                return cached
        if not self.is_unitary:
            raise GateError(f"operation {self.name!r} has no unitary matrix")
        try:
            builder = _MATRIX_BUILDERS[self.name]
        except KeyError as exc:
            raise GateError(f"unknown gate name {self.name!r}") from exc
        built = builder(*self.params)
        if not self.params:
            built.setflags(write=False)
            _MATRIX_CACHE[self.name] = built
        return built

    def inverse(self) -> "Gate":
        """Return the inverse gate.

        For parameterised rotations the angles are negated; for named
        Clifford+T gates the matching inverse name is used.
        """
        if not self.is_unitary:
            raise GateError(f"operation {self.name!r} has no inverse")
        if self.name in SELF_INVERSE_NAMES:
            return self
        if self.name in _NAMED_INVERSES:
            return Gate(_NAMED_INVERSES[self.name], self.num_qubits)
        if self.name in {"rx", "ry", "rz", "u1", "p", "rzz", "cp", "crz"}:
            return Gate(self.name, self.num_qubits, tuple(-p for p in self.params))
        if self.name == "u2":
            phi, lam = self.params
            return Gate("u3", 1, (-math.pi / 2, -lam, -phi))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", 1, (-theta, -lam, -phi))
        raise GateError(f"no inverse rule for gate {self.name!r}")

    def is_identity(self, tol: float = IDENTITY_TOL) -> bool:
        """Whether the gate is (numerically) the identity operation."""
        if not self.is_unitary:
            return False
        return identity_up_to_phase(self.matrix(), tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"Gate({self.name}({args}), qubits={self.num_qubits})"
        return f"Gate({self.name}, qubits={self.num_qubits})"


#: Interned read-only matrices of parameter-free gates, keyed by name.
_MATRIX_CACHE: Dict[str, np.ndarray] = {}


def identity_up_to_phase(matrix: np.ndarray, tol: float) -> bool:
    """Whether ``|m_ij / m_00 - δ_ij| <= tol`` for every entry (NaN fails).

    This is ``np.allclose(m / m[0, 0], np.eye(n), rtol=0, atol=tol)`` as one
    scalar loop, a fraction of the numpy call's cost on the 2x2 matrices the
    peephole passes test.  The quotients are the bits numpy's division
    produces (Python's complex ``/`` can differ in the last place) and the
    modulus is libm's ``hypot``, as in ``np.hypot``.  numpy's vectorised
    complex ``abs`` may round a modulus differently in the last bit, so a
    verdict can differ from ``np.allclose`` only for a deviation within an
    ulp of ``tol``.
    """
    rows = matrix.tolist()
    phase = rows[0][0]
    magnitude = abs(phase)
    if magnitude < tol or not magnitude > 0.0:
        return False  # too small to divide out, zero or NaN: never the identity
    real, imag = phase.real, phase.imag
    # numpy's division (Smith's method with a scaled reciprocal) divides by
    # the larger part of the divisor.  After the swap a quotient's imaginary
    # part comes out negated, which the modulus ignores.
    swapped = abs(real) < abs(imag)
    if swapped:
        real, imag = imag, real
    ratio = imag / real
    scale = 1.0 / (real + imag * ratio)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if swapped:
                u, v = entry.imag, entry.real
            else:
                u, v = entry.real, entry.imag
            deviation = complex((u + v * ratio) * scale - (i == j), (v - u * ratio) * scale)
            if not abs(deviation) <= tol:
                return False
    return True


# ----------------------------------------------------------------------
# Matrix definitions
# ----------------------------------------------------------------------
def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """The generic single-qubit gate used by IBM hardware (OpenQASM u3)."""
    cos = math.cos(theta / 2)
    sin = math.sin(theta / 2)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def _u2_matrix(phi: float, lam: float) -> np.ndarray:
    return _u3_matrix(math.pi / 2, phi, lam)


def _u1_matrix(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _rx_matrix(theta: float) -> np.ndarray:
    cos = math.cos(theta / 2)
    sin = math.sin(theta / 2)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)


def _ry_matrix(theta: float) -> np.ndarray:
    cos = math.cos(theta / 2)
    sin = math.sin(theta / 2)
    return np.array([[cos, -sin], [sin, cos]], dtype=complex)


def _rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=complex
    )


def _controlled(mat: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Build a controlled version of ``mat`` with control on the *first* qubits.

    Qubit ordering convention: qubit 0 is the most significant bit of the basis
    index (big-endian), matching :mod:`repro.sim.unitary`.
    """
    target_dim = mat.shape[0]
    dim = (2**num_controls) * target_dim
    out = np.eye(dim, dtype=complex)
    out[dim - target_dim :, dim - target_dim :] = mat
    return out


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _cswap_matrix() -> np.ndarray:
    return _controlled(_SWAP, 1)


def _rzz_matrix(theta: float) -> np.ndarray:
    phase = cmath.exp(1j * theta / 2)
    return np.diag([1 / phase, phase, phase, 1 / phase]).astype(complex)


def _cp_matrix(theta: float) -> np.ndarray:
    return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)


def _crz_matrix(theta: float) -> np.ndarray:
    return _controlled(_rz_matrix(theta), 1)


_MATRIX_BUILDERS: Dict[str, Callable[..., np.ndarray]] = {
    "id": lambda: np.eye(2, dtype=complex),
    "x": lambda: _X.copy(),
    "y": lambda: _Y.copy(),
    "z": lambda: _Z.copy(),
    "h": lambda: _H.copy(),
    "s": lambda: _S.copy(),
    "sdg": lambda: _S.conj().T.copy(),
    "t": lambda: _T.copy(),
    "tdg": lambda: _T.conj().T.copy(),
    "sx": lambda: _SX.copy(),
    "sxdg": lambda: _SX.conj().T.copy(),
    "rx": _rx_matrix,
    "ry": _ry_matrix,
    "rz": _rz_matrix,
    "u1": _u1_matrix,
    "p": _u1_matrix,
    "u2": _u2_matrix,
    "u3": _u3_matrix,
    "cx": lambda: _controlled(_X, 1),
    "cz": lambda: _controlled(_Z, 1),
    "cy": lambda: _controlled(_Y, 1),
    "ch": lambda: _controlled(_H, 1),
    "cp": _cp_matrix,
    "crz": _crz_matrix,
    "rzz": _rzz_matrix,
    "swap": lambda: _SWAP.copy(),
    "ccx": lambda: _controlled(_X, 2),
    "ccz": lambda: _controlled(_Z, 2),
    "cswap": _cswap_matrix,
}

#: Names of every gate with a known unitary matrix.
KNOWN_GATE_NAMES = frozenset(_MATRIX_BUILDERS) | NON_UNITARY_NAMES


def gate_matrix(name: str, params: Tuple[float, ...] = ()) -> np.ndarray:
    """Convenience wrapper returning the matrix for a gate name and params."""
    num_qubits = {"cx": 2, "cz": 2, "cy": 2, "ch": 2, "cp": 2, "crz": 2, "rzz": 2,
                  "swap": 2, "ccx": 3, "ccz": 3, "cswap": 3}.get(name, 1)
    return Gate(name, num_qubits, params).matrix()
