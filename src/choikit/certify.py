"""Decision procedures for the positivity classes of maps on 2x2 matrices.

block_positive is one-sided: PASS is a numeric estimate (a Bloch-sphere grid
plus local descent over input directions), while FAIL carries an explicit
violating direction.  Every other check reduces to eigenvalues or to exact
minor conditions on the canonical face form

    [ a  c | 0  y ]
    [ c* b | z* t ]
    [ 0  z | 0  0 ]
    [ y* t*| 0  u ]

whose fixed zero pattern is enforced before coefficients are read off.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import choi, linalg
from .certificate import FAIL, PASS, Certificate, from_margins
from .errors import NotCanonicalFormError

BLOCK_GRID = (96, 192)
REFINE_SEEDS = 8
REFINE_STEPS = 200
CANONICAL_PATTERN_TOL = 1e-9
CONDITION_TOL = 1e-9


def _direction(theta, phi):
    """Unit vector (cos(theta/2), e^{i phi} sin(theta/2)); broadcasts."""
    th = np.asarray(theta)
    ph = np.asarray(phi)
    return np.cos(0.5 * th), np.sin(0.5 * th) * np.exp(1j * ph)


def _pair_form(m, c0, c1):
    """<v, m v> for v = (c0, c1), vectorized over the components."""
    return (np.conj(c0) * c0 * m[0, 0] + np.conj(c0) * c1 * m[0, 1]
            + c0 * np.conj(c1) * m[1, 0] + np.conj(c1) * c1 * m[1, 1])


def _compressed(h, theta, phi):
    """Entries of the 2x2 matrix [<v, block_ij v>] at v = v(theta, phi)."""
    c0, c1 = _direction(theta, phi)
    qa = _pair_form(h[0:2, 0:2], c0, c1).real
    qb = _pair_form(h[0:2, 2:4], c0, c1)
    qd = _pair_form(h[2:4, 2:4], c0, c1).real
    return qa, qb, qd


def _lambda_min(h, theta, phi):
    qa, qb, qd = _compressed(h, theta, phi)
    half = 0.5 * (qa - qd)
    return 0.5 * (qa + qd) - np.sqrt(half * half + np.abs(qb) ** 2)


def block_positive(h, tol: float = linalg.PSD_TOL) -> Certificate:
    """Certify block-positivity, i.e. positivity of the represented map.

    Estimates the minimum over unit directions v of the smallest eigenvalue
    of [<v, block_ij v>] by a deterministic grid search refined by
    fixed-step coordinate descent from the best grid points.  PASS iff the
    estimate is >= -tol; on FAIL the witness is the violating direction and
    its compressed 2x2 matrix.
    """
    harr = linalg.require_hermitian(linalg.as_matrix(h, 4), linalg.HERMITIAN_TOL)
    n_t, n_p = BLOCK_GRID
    thetas = np.linspace(0.0, np.pi, n_t)
    phis = np.linspace(0.0, 2.0 * np.pi, n_p, endpoint=False)
    vals = _lambda_min(harr, thetas[:, None], phis[None, :])
    flat = vals.ravel()
    order = np.argsort(flat, kind="stable")[:REFINE_SEEDS]

    cur = np.stack([thetas[order // n_p], phis[order % n_p]], axis=1)
    cur_val = flat[order].astype(float)
    best_val = float(cur_val[0])
    best_pos = cur[0].copy()

    step = np.full(len(order), max(np.pi / (n_t - 1), 2.0 * np.pi / n_p))
    offsets = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    rows = np.arange(len(order))
    for _ in range(REFINE_STEPS):
        cand = cur[:, None, :] + step[:, None, None] * offsets[None, :, :]
        cand_t = np.clip(cand[..., 0], 0.0, np.pi)
        cand_p = np.mod(cand[..., 1], 2.0 * np.pi)
        cand_val = _lambda_min(harr, cand_t, cand_p)
        k = np.argmin(cand_val, axis=1)
        kv = cand_val[rows, k]
        improved = kv < cur_val
        cur[improved, 0] = cand_t[rows, k][improved]
        cur[improved, 1] = cand_p[rows, k][improved]
        cur_val = np.where(improved, kv, cur_val)
        step = np.where(improved, step, 0.5 * step)
        if np.all(step < 1e-15):
            break

    j = int(np.argmin(cur_val))
    if float(cur_val[j]) < best_val:
        best_val = float(cur_val[j])
        best_pos = cur[j].copy()

    detail = "min lambda_min over directions"
    if best_val >= -tol:
        return Certificate(PASS, best_val, detail=detail)
    c0, c1 = _direction(best_pos[0], best_pos[1])
    vec = np.array([complex(c0), complex(c1)])
    qa, qb, qd = _compressed(harr, best_pos[0], best_pos[1])
    mat = np.array([[complex(qa), complex(qb)], [np.conj(complex(qb)), complex(qd)]])
    return Certificate(FAIL, best_val, witness=(vec, mat), detail=detail)


def cp_check(h, tol: float = linalg.PSD_TOL) -> Certificate:
    """Complete positivity: PSD test of the Choi matrix itself."""
    cert = linalg.psd_check(linalg.as_matrix(h, 4), tol=tol)
    return Certificate(cert.verdict, cert.margin, cert.witness, "lambda_min(choi)")


def ccp_check(h, tol: float = linalg.PSD_TOL) -> Certificate:
    """Complete copositivity: PSD test of the partially transposed matrix."""
    cert = linalg.psd_check(choi.partial_transpose(h), tol=tol)
    return Certificate(cert.verdict, cert.margin, cert.witness, "lambda_min(partial transpose)")


def face_membership(h, xi, eta, tol: float = choi.FACE_TOL) -> Certificate:
    """Residual test of phi(P_xi) eta = 0.

    Unlike the other certificates, the margin here is the residual norm
    itself (0 is ideal); PASS iff it is <= tol.
    """
    harr = linalg.as_matrix(h, 4)
    out = choi.apply_map(harr, choi.projector(xi)) @ linalg.as_vector(eta, 2)
    resid = float(np.linalg.norm(out))
    if resid <= tol:
        return Certificate(PASS, resid, detail="norm(phi(P_xi) eta)")
    return Certificate(FAIL, resid, witness=out, detail="norm(phi(P_xi) eta)")


class CanonicalCoefficients(NamedTuple):
    a: float
    b: float
    u: float
    c: complex
    y: complex
    z: complex
    t: complex


def canonical_coefficients(h, tol: float = CANONICAL_PATTERN_TOL) -> CanonicalCoefficients:
    """Read (a, b, u, c, y, z, t) off a canonical face-form matrix.

    Raises NotCanonicalFormError if hermiticity or any fixed zero position
    is violated beyond tol.
    """
    harr = linalg.as_matrix(h, 4)
    resid = linalg.hermitian_residual(harr)
    if resid > tol:
        raise NotCanonicalFormError(f"hermiticity residual {resid:.3e} exceeds tol {tol:.3e}")
    hs = 0.5 * (harr + harr.conj().T)
    off = max(abs(hs[0, 2]), abs(hs[2, 2]), abs(hs[2, 3]))
    if off > tol:
        raise NotCanonicalFormError(f"off-pattern residual {off:.3e} exceeds tol {tol:.3e}")
    return CanonicalCoefficients(
        a=float(hs[0, 0].real), b=float(hs[1, 1].real), u=float(hs[3, 3].real),
        c=complex(hs[0, 1]), y=complex(hs[0, 3]), z=complex(hs[2, 1]), t=complex(hs[1, 3]),
    )


def _minor_conditions(h, tol: float, tag: str) -> Certificate:
    a, b, u, c, y, z, t = canonical_coefficients(h)
    margins = [
        ("a>=0", a),
        ("b>=0", b),
        ("u>=0", u),
        (tag + "1", -abs(z)),
        (tag + "2", a * u - abs(y) ** 2),
        (tag + "3", b * u - abs(t) ** 2),
        (tag + "4", a * b - abs(c) ** 2),
        (tag + "5", b * (a * u - abs(y) ** 2) + 2.0 * (c * t * np.conj(y)).real
                    - a * abs(t) ** 2 - u * abs(c) ** 2),
    ]
    return from_margins(margins, tol, "all conditions")


def canonical_cp_conditions(h, tol: float = CONDITION_TOL) -> Certificate:
    """Exact coefficient conditions for complete positivity in canonical form.

    Equivalent to PSD of the matrix: nonnegative diagonal, z = 0 (A1), the
    three 2x2 minors (A2)-(A4), and the 3x3 determinant (A5) evaluated in
    expanded form.  The detail names the first violated condition.
    """
    return _minor_conditions(h, tol, "A")


def canonical_ccp_conditions(h, tol: float = CONDITION_TOL) -> Certificate:
    """Mirror conditions for complete copositivity: y = 0 (B1) and the
    minors of the partially transposed matrix (B2)-(B5), which is canonical
    with y and z swapped and t conjugated."""
    return _minor_conditions(choi.partial_transpose(h), tol, "B")


def face_form_inequalities(h, tol: float = CONDITION_TOL) -> Certificate:
    """The three inequalities every positive face member satisfies:
    |c|^2 <= ab, |t|^2 <= bu, and (|y| + |z|)^2 <= au."""
    a, b, u, c, y, z, t = canonical_coefficients(h)
    margins = [
        ("|c|^2<=ab", a * b - abs(c) ** 2),
        ("|t|^2<=bu", b * u - abs(t) ** 2),
        ("(|y|+|z|)^2<=au", a * u - (abs(y) + abs(z)) ** 2),
    ]
    return from_margins(margins, tol, "all conditions")
