"""Dense complex linear algebra for the 2x2 and 4x4 matrices used everywhere.

All functions are pure; matrices are numpy complex arrays validated (shape,
finiteness) on entry, so NaN/Inf never propagates into a verdict.
"""

from __future__ import annotations

import numpy as np

from .certificate import FAIL, PASS, Certificate
from .errors import NonFiniteEntryError, NotHermitianError, NotUnitVectorError

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
PSD_TOL = 1e-10
RANK_REL_TOL = 1e-9
UNIT_VECTOR_TOL = 1e-12


def as_matrix(m, size: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting NaN/Inf entries."""
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if size is not None and arr.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFiniteEntryError("matrix contains NaN or Inf entries")
    return arr


def as_vector(v, size: int = 2) -> np.ndarray:
    """Coerce to a complex vector of the given length, rejecting NaN/Inf."""
    arr = np.array(v, dtype=np.complex128).reshape(-1)
    if arr.shape != (size,):
        raise ValueError(f"expected a vector of length {size}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFiniteEntryError("vector contains NaN or Inf entries")
    return arr


def maxabs(m) -> float:
    """Entrywise max-modulus norm."""
    arr = np.asarray(m)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def hermitian_residual(m) -> float:
    arr = np.asarray(m)
    return maxabs(arr - arr.conj().T)


def require_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    """Return the symmetrized matrix, or raise if the residual exceeds tol."""
    resid = hermitian_residual(m)
    if resid > tol:
        raise NotHermitianError(f"hermiticity residual {resid:.3e} exceeds tol {tol:.3e}")
    return 0.5 * (m + m.conj().T)


def unitarity_residual(m) -> float:
    arr = np.asarray(m)
    eye = np.eye(arr.shape[0])
    return max(maxabs(arr.conj().T @ arr - eye), maxabs(arr @ arr.conj().T - eye))


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    return unitarity_residual(as_matrix(m)) <= tol


def principal_sqrt(w) -> complex:
    """Principal complex square root; negative reals map to +i * sqrt(|w|)."""
    w = complex(w)
    if w.imag == 0.0:
        w = complex(w.real, 0.0)  # collapse -0.0 so the branch cut is approached from above
    return complex(np.sqrt(np.complex128(w)))


def psd_check(m, tol: float = PSD_TOL) -> Certificate:
    """Certify positive semidefiniteness of a Hermitian matrix.

    PASS iff the smallest eigenvalue is >= -tol.  The margin is that
    eigenvalue; on FAIL the witness is a unit eigenvector w with
    <w, m w> equal to it.  Raises NotHermitianError if the hermiticity
    residual exceeds HERMITIAN_TOL, whatever tol is.
    """
    arr = require_hermitian(as_matrix(m), HERMITIAN_TOL)
    w, vecs = np.linalg.eigh(arr)
    lam = float(w[0])
    if lam >= -tol:
        return Certificate(PASS, lam, detail="lambda_min")
    return Certificate(FAIL, lam, witness=vecs[:, 0].copy(), detail="lambda_min")


def rank_estimate(m, tol: float = RANK_REL_TOL) -> int:
    """Number of singular values above tol * sigma_max."""
    arr = as_matrix(m)
    sv = np.linalg.svd(arr, compute_uv=False)
    top = float(sv[0]) if sv.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(sv > tol * top))


def complete_to_unitary(v, position: str = "second", tol: float = UNIT_VECTOR_TOL) -> np.ndarray:
    """Extend a unit vector in C^2 to a unitary holding v in the given column.

    For v = (v1, v2) the complement column is (-conj(v2), conj(v1)), rephased
    so its first entry of modulus above tol becomes real positive.  This
    makes the completion deterministic and reproducible.
    """
    if position not in ("first", "second"):
        raise ValueError(f"position must be 'first' or 'second', got {position!r}")
    vec = as_vector(v, 2)
    resid = abs(float(np.linalg.norm(vec)) - 1.0)
    if resid > tol:
        raise NotUnitVectorError(f"norm residual {resid:.3e} exceeds tol {tol:.3e}")
    comp = np.array([-np.conj(vec[1]), np.conj(vec[0])])
    k = 0 if abs(comp[0]) > tol else 1
    comp = comp * (np.conj(comp[k]) / abs(comp[k]))
    cols = (vec, comp) if position == "first" else (comp, vec)
    return np.column_stack(cols)
