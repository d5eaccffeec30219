"""Choi matrices of linear maps on 2x2 complex matrices.

A map phi is stored as the 4x4 matrix whose (i, j) block (rows 2i..2i+1,
columns 2j..2j+1) equals phi applied to the matrix unit E_ij.  The flat
matrix is the single source of truth; block views are computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotInFaceError, NotUnitaryError


def matrix_unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def block(h, i: int, j: int) -> np.ndarray:
    """Copy of the (i, j) block of a 4x4 matrix."""
    arr = linalg.as_matrix(h, 4)
    return np.array(arr[2 * i:2 * i + 2, 2 * j:2 * j + 2])


def choi_from_blocks(blocks) -> np.ndarray:
    """Assemble a 4x4 Choi matrix from a 2x2 nest of 2x2 blocks."""
    h = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            h[2 * i:2 * i + 2, 2 * j:2 * j + 2] = linalg.as_matrix(blocks[i][j], 2)
    return h


def choi_from_action(phi) -> np.ndarray:
    """Choi matrix of a map given by its action on the four matrix units."""
    return choi_from_blocks([[phi(matrix_unit(i, j)) for j in range(2)] for i in range(2)])


def apply_map(h, a) -> np.ndarray:
    """Apply the map with Choi matrix h to a 2x2 matrix, by linearity."""
    harr = linalg.as_matrix(h, 4)
    aarr = linalg.as_matrix(a, 2)
    out = np.zeros((2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            out += aarr[i, j] * harr[2 * i:2 * i + 2, 2 * j:2 * j + 2]
    return out


def _swap_blocks(arr: np.ndarray) -> np.ndarray:
    """The partial transpose of a 4x4 array, unchecked."""
    return arr.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def partial_transpose(h) -> np.ndarray:
    """Swap the off-diagonal blocks: block (i, j) -> block (j, i)."""
    return _swap_blocks(linalg.as_matrix(h, 4))


def conjugate(h, v, w) -> np.ndarray:
    """Choi matrix of A -> V* phi(W A W*) V for unitaries V and W.

    This is a unitary conjugation of the flat matrix, so it preserves the
    PSD verdicts of both the matrix and its partial transpose.  Raises
    NotUnitaryError if V or W has a unitarity residual above linalg.TOL.
    """
    harr = linalg.as_matrix(h, 4)
    varr = linalg.as_matrix(v, 2)
    warr = linalg.as_matrix(w, 2)
    for name, m in (("V", varr), ("W", warr)):
        linalg.require_below(linalg.unitarity_residual(m), linalg.TOL, f"{name} unitarity",
                             NotUnitaryError)
    left = np.kron(warr.T, varr.conj().T)
    return left @ harr @ left.conj().T


def projector(v) -> np.ndarray:
    """Orthogonal projection onto the line spanned by v."""
    vec = linalg.as_vector(v, 2)
    n2 = float(np.vdot(vec, vec).real)
    if n2 <= 0.0:
        raise ValueError("cannot project onto the zero vector")
    return np.outer(vec, vec.conj()) / n2


def face_image(h, xi, eta) -> np.ndarray:
    """The vector phi(P_xi) eta; zero iff the map annihilates eta on P_xi."""
    return apply_map(h, projector(xi)) @ linalg.as_vector(eta, 2)


@dataclass(frozen=True)
class FaceFrame:
    """Unitaries aligning a direction pair with the canonical one.

    w maps e2 to xi and v maps e1 to eta; both are built with the
    deterministic column completion of linalg.complete_to_unitary.
    """

    xi: np.ndarray
    eta: np.ndarray
    w: np.ndarray
    v: np.ndarray


def build_face_frame(xi, eta) -> FaceFrame:
    xi = linalg.as_vector(xi, 2)
    eta = linalg.as_vector(eta, 2)
    w = linalg.complete_to_unitary(xi, position="second")
    v = linalg.complete_to_unitary(eta, position="first")
    return FaceFrame(xi=xi, eta=eta, w=w, v=v)


def canonicalize(h, xi, eta, tol: float = linalg.TOL) -> tuple[np.ndarray, FaceFrame]:
    """Rotate a map annihilating (xi, eta) into canonical coordinates.

    Returns the conjugated Choi matrix together with the frame used.  For a
    positive map the result has block (2,2) proportional to E22 and a zero
    in the top-left entry of block (1,2).  The residual phase freedom of the
    frame is not normalized away, so the off-diagonal coefficients are
    frame-dependent up to phases; their moduli are not.  Raises
    NotInFaceError if the face residual exceeds tol * max|h|.
    """
    harr = linalg.as_matrix(h, 4)
    linalg.require_below(float(np.linalg.norm(face_image(harr, xi, eta))),
                         linalg.tol_bound(tol, linalg.maxabs(harr)), "face", NotInFaceError)
    frame = build_face_frame(xi, eta)
    return conjugate(harr, frame.v, frame.w), frame
