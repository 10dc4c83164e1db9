"""Single-qubit unitary synthesis (ZYZ / u3 decomposition).

Used by the one-qubit consolidation pass and by the basis decomposition pass to
rewrite arbitrary single-qubit gates as the hardware's ``u3`` gate.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

import numpy as np

from ..circuits.gate import Gate
from ..exceptions import TranspilerError


def zyz_angles(matrix: np.ndarray, atol: float = 1e-12) -> Tuple[float, float, float, float]:
    """Decompose a 2x2 unitary as ``e^{i phase} Rz(phi) Ry(theta) Rz(lam)``.

    Returns ``(theta, phi, lam, phase)`` such that the IBM ``u3(theta, phi,
    lam)`` gate equals the input up to the returned global phase.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise TranspilerError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    det = np.linalg.det(matrix)
    if abs(abs(det) - 1.0) > 1e-6:
        raise TranspilerError("matrix is not unitary (|det| != 1)")
    # Remove the global phase so the matrix is special unitary.
    phase = cmath.phase(det) / 2.0
    su2 = matrix * cmath.exp(-1j * phase)
    # su2 = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    cos_half = abs(su2[0, 0])
    sin_half = abs(su2[1, 0])
    # atan2 is well conditioned at both theta ~ 0 and theta ~ pi, unlike acos.
    theta = 2.0 * math.atan2(sin_half, cos_half)
    if sin_half > atol and cos_half > atol:
        phi_plus_lam = 2.0 * cmath.phase(su2[1, 1])
        phi_minus_lam = 2.0 * cmath.phase(su2[1, 0])
        phi = (phi_plus_lam + phi_minus_lam) / 2.0
        lam = (phi_plus_lam - phi_minus_lam) / 2.0
    elif sin_half <= atol:
        # Diagonal matrix: only phi + lam is determined.
        theta = 0.0
        phi = 2.0 * cmath.phase(su2[1, 1])
        lam = 0.0
    else:
        # Anti-diagonal matrix: only phi - lam is determined.
        theta = math.pi
        phi = 2.0 * cmath.phase(su2[1, 0])
        lam = 0.0
    # The u3 matrix convention carries an extra phase of (phi + lam)/2 relative
    # to the Rz Ry Rz product; fold it into the reported global phase.
    global_phase = phase - (phi + lam) / 2.0
    return theta, phi, lam, global_phase


def u3_from_matrix(matrix: np.ndarray) -> Gate:
    """Return the ``u3`` gate implementing ``matrix`` up to global phase."""
    theta, phi, lam, _ = zyz_angles(matrix)
    return Gate("u3", 1, (theta, phi, lam))


#: Absolute tolerance of :func:`matrix_is_identity`; the comparison is purely
#: absolute (``rtol=0``), so no real rotation is mistaken for the identity.
IDENTITY_ATOL = 1e-10


def matrix_is_identity(matrix: np.ndarray, atol: float = IDENTITY_ATOL) -> bool:
    """Whether a 2x2 unitary is the identity up to global phase."""
    matrix = np.asarray(matrix, dtype=complex)
    phase = matrix[0, 0]
    if abs(phase) < atol:
        return False
    return bool(np.allclose(matrix / phase, np.eye(2), rtol=0.0, atol=atol))
