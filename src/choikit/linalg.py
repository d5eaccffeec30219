"""Dense complex linear algebra for the 2x2 and 4x4 matrices used everywhere.

All functions are pure; matrices are numpy complex arrays validated (shape,
finiteness) on entry, so NaN/Inf never propagates into a verdict.  TOL is
the one default tolerance; scaled_tol makes it relative to a matrix's scale.
"""

from __future__ import annotations

import sys

import numpy as np

from .certificate import FAIL, PASS, Certificate
from .errors import ChoiKitError, NonFiniteEntryError, NotHermitianError, NotUnitVectorError

TOL = 1e-10


def _square(m, size: int | None) -> np.ndarray:
    """m as a new complex array; ValueError unless it is a square (size x size) matrix."""
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if size is not None and arr.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got shape {arr.shape}")
    return arr


def _finite(arr: np.ndarray, kind: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError(f"{kind} contains NaN or Inf entries")
    return arr


def as_matrix(m, size: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting NaN/Inf entries."""
    return _finite(_square(m, size), "matrix")


def as_vector(v, size: int = 2) -> np.ndarray:
    """Coerce to a complex vector of the given length, rejecting NaN/Inf."""
    arr = np.array(v, dtype=np.complex128).reshape(-1)
    if arr.shape != (size,):
        raise ValueError(f"expected a vector of length {size}, got shape {arr.shape}")
    return _finite(arr, "vector")


def maxabs(m) -> float:
    """Entrywise max-modulus norm."""
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0


def tol_bound(tol: float, scale: float, degree=1):
    """tol * scale**degree, the bound for a quantity of that degree in entries
    of size scale; raises ValueError unless tol is finite and >= 0."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    return tol * scale ** degree


def scaled_tol(m, tol: float, degree=1):
    """tol_bound at scale max|m|, so a verdict does not depend on m's scale
    (degree may be an array, giving one bound per quantity)."""
    return tol_bound(tol, maxabs(m), degree)


def require_below(resid: float, bound: float, label: str, error: type[Exception]) -> None:
    """Raise error, naming label and both numbers, if resid exceeds bound."""
    if resid > bound:
        raise error(f"{label} residual {resid:.3e} exceeds tol {bound:.3e}")


def require_hermitian(m, size: int | None = None) -> tuple[np.ndarray, float]:
    """(Symmetrized m, max|m|) of m coerced as by as_matrix.  Raises, in this order, unless m
    is a nonempty square (size x size) matrix, if an entry is NaN or Inf, if 8 max|m|**3
    overflows, if a nonzero max|m|**3 is below the normal floats, or if m - m* exceeds TOL * max|m|."""
    arr = _square(m, size)
    if not arr.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {arr.shape}")
    scale = float(np.abs(arr).max())
    if not 8.0 * scale * scale * scale < np.inf:  # bounds a 3x3 minor's terms; NaN and Inf fail too
        _finite(arr, "matrix")
        raise ChoiKitError(f"entries up to {scale:.3e} in modulus are too large: their cubes overflow")
    if 0.0 < scale and scale * scale * scale < sys.float_info.min:  # where the minors round to 0
        raise ChoiKitError(f"entries up to {scale:.3e} in modulus are too small: their cubes underflow")
    mh = arr.conj().T
    require_below(float(np.abs(arr - mh).max()), TOL * scale, "hermiticity", NotHermitianError)
    return 0.5 * (arr + mh), scale


def unitarity_residual(m) -> float:
    arr = np.asarray(m)
    eye = np.eye(arr.shape[0])
    return max(maxabs(arr.conj().T @ arr - eye), maxabs(arr @ arr.conj().T - eye))


def principal_sqrt(w) -> complex:
    """Principal complex square root; negative reals map to +i * sqrt(|w|)."""
    w = complex(w)
    if w.imag == 0.0:
        w = complex(w.real, 0.0)  # collapse -0.0 so the branch cut is approached from above
    return complex(np.sqrt(np.complex128(w)))


def psd_check(m, tol: float = TOL) -> Certificate:
    """Certify positive semidefiniteness of a Hermitian matrix.

    PASS iff the smallest eigenvalue is >= -tol * max|m|, so alpha * m gets
    the verdict of m wherever require_hermitian accepts both.  The margin is
    that eigenvalue; on FAIL the witness is a unit eigenvector w with
    <w, m w> equal to it.  Raises as require_hermitian does, whatever tol is.
    """
    arr, scale = require_hermitian(m)
    w, vecs = np.linalg.eigh(arr)
    lam = float(w[0])
    if lam >= -tol_bound(tol, scale):
        return Certificate(PASS, lam, detail="lambda_min")
    return Certificate(FAIL, lam, witness=vecs[:, 0].copy(), detail="lambda_min")


def rank_estimate(m) -> int:
    """Number of singular values above TOL * sigma_max."""
    sv = np.linalg.svd(as_matrix(m), compute_uv=False)
    return int(np.sum(sv > TOL * sv[0])) if sv.size else 0


def complete_to_unitary(v, position: str = "second") -> np.ndarray:
    """Extend a unit vector in C^2 (norm 1 within TOL) to a unitary holding v
    in the given column.  For v = (v1, v2) the complement column is
    (-conj(v2), conj(v1)), rephased so its first entry of modulus above TOL
    becomes real positive, so the completion is deterministic.
    """
    if position not in ("first", "second"):
        raise ValueError(f"position must be 'first' or 'second', got {position!r}")
    vec = as_vector(v, 2)
    require_below(abs(float(np.linalg.norm(vec)) - 1.0), TOL, "norm", NotUnitVectorError)
    comp = np.array([-np.conj(vec[1]), np.conj(vec[0])])
    k = 0 if abs(comp[0]) > TOL else 1
    comp = comp * (np.conj(comp[k]) / abs(comp[k]))
    cols = (vec, comp) if position == "first" else (comp, vec)
    return np.column_stack(cols)
