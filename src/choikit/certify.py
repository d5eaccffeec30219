"""Decision procedures for the positivity classes of maps on 2x2 matrices.

block_positive computes the minimum over input directions exactly, so both
its PASS and its FAIL are decided, and FAIL carries the minimising
direction.  Every other check reduces to eigenvalues or to exact minor
conditions on the canonical face form

    [ a  c | 0  y ]
    [ c* b | z* t ]
    [ 0  z | 0  0 ]
    [ y* t*| 0  u ]

whose fixed zero pattern is enforced before coefficients are read off.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import choi, linalg
from .certificate import FAIL, PASS, Certificate, from_margins
from .errors import NotCanonicalFormError

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_MAX_STEPS = 100  # a safety stop; converged inputs stop after a handful of steps


def _sphere_argmin(delta, gamma):
    """Unit x minimising sum_i delta_i x_i^2 + 2 gamma_i x_i, delta ascending from 0.

    x = -gamma / (delta + s) with s >= 0 the root of the secular equation
    |x(s)| = 1 (Gander, Golub & von Matt 1989).  Newton's method on
    1 - 1/|x(s)|, which is convex and decreasing (More & Sorensen 1983),
    climbs to that root from a start where |x| >= 1 and stops when it no
    longer moves.  If |x(0)| <= 1 (the hard case) s = 0 and x is completed
    along the bottom eigenvector.  Dots call ndarray.dot: the BLAS ddot of @,
    with less dispatch.
    """
    ds, gs = delta.tolist(), gamma.tolist()
    # where gamma_i = 0 the denominator is 1 + s, so x_i = -gamma_i even where delta_i + s = 0
    shifted, neg = np.array([d if g != 0.0 else 1.0 for d, g in zip(ds, gs)]), -gamma
    s = max(0.0, *[abs(g) - d for d, g in zip(ds, gs)])
    for _ in range(_MAX_STEPS):
        den = shifted + s
        x = neg / den
        norm2 = float(x.dot(x))
        if not norm2 > 1.0:
            break
        s_next = s + norm2 * (math.sqrt(norm2) - 1.0) / float(x.dot(x / den))
        if not s_next > s:
            break
        s = s_next
    if s == 0.0:
        x[0] = math.sqrt(max(0.0, 1.0 - norm2))
    return x / math.sqrt(x.dot(x))  # np.linalg.norm's own sqrt(x.dot(x)), one BLAS call


def block_positive(h, tol: float = linalg.TOL) -> Certificate:
    """Certify block-positivity, i.e. positivity of the represented map.

    The margin is the minimum over unit directions v of the smallest
    eigenvalue of C(v) = [<v, block_ij v>], computed exactly.  With
    R[a, b] = tr(h sigma_a (x) sigma_b) and b = (1, r) for the Bloch vector r
    of v, C(v) = 1/4 sum_a (R b)_a sigma_a, so its eigenvalues are
    1/4 ((R b)_0 -+ |(R b)_1:|).  The minimum lies at or below the trace bound
    1/4 (R_00 - |R_0,1:|), and C(v) - m I is PSD for every v iff its trace and
    determinant are nonnegative on the sphere.  16 det(C(v) - m I) is a
    quadratic in r whose quadratic part does not depend on m, so one 3x3
    eigendecomposition serves every shift m.  Starting from the trace bound,
    each step moves m down to lambda_min(C(v)) at the v minimising that
    determinant (to first order a Newton step on the determinant's minimum
    over the sphere), until m stops decreasing where that minimum is zero.
    Every m is the trace bound or a value attained at some direction, so
    the margin never lies below the true minimum.  PASS iff the margin is
    >= -tol * max|h|; on FAIL the witness is the direction minimising the
    determinant at the final m, and its compressed 2x2 matrix.
    """
    harr, scale = linalg.require_hermitian(h, 4)
    r = np.einsum("aji,blk,ikjl->ab", _PAULI, _PAULI, harr.reshape(2, 2, 2, 2)).real
    p, q, pm = r[0, 1:], r[1:, 0], r[1:, 1:]
    alpha, basis = np.linalg.eigh(np.outer(p, p) - pm.T @ pm)
    delta, along_p, fixed = alpha - alpha[0], basis.T @ p, basis.T @ (pm.T @ q)
    r00, pc = float(r[0, 0]), p.ravel()  # np.linalg.norm(p)'s steps and bits: copy, dot, sqrt
    margin = 0.25 * (r00 - math.sqrt(pc.dot(pc)))
    b = np.ones(4)
    for _ in range(_MAX_STEPS):
        b[1:] = bloch = basis.dot(_sphere_argmin(delta, (r00 - 4.0 * margin) * along_p - fixed))
        rb = r @ b  # not r.dot(b): r is a strided view, where the two round differently
        v = rb[1:]
        lowest = 0.25 * float(rb[0] - math.sqrt(v.dot(v)))
        if not lowest < margin:
            break
        margin = lowest

    detail = "min lambda_min over directions"
    if margin >= -linalg.tol_bound(tol, scale):
        return Certificate(PASS, margin, detail=detail)
    theta, phi = np.arctan2(np.hypot(bloch[0], bloch[1]), bloch[2]), np.arctan2(bloch[1], bloch[0])
    vec = np.array([np.cos(0.5 * theta), np.sin(0.5 * theta) * np.exp(1j * phi)])
    frame = np.kron(np.eye(2), vec[:, None])
    return Certificate(FAIL, margin, witness=(vec, frame.conj().T @ harr @ frame), detail=detail)


def cp_check(h, tol: float = linalg.TOL) -> Certificate:
    """Complete positivity: PSD test of the Choi matrix itself."""
    cert = linalg.psd_check(linalg._square(h, 4), tol=tol)  # psd_check checks the entries
    return Certificate(cert.verdict, cert.margin, cert.witness, "lambda_min(choi)")


def ccp_check(h, tol: float = linalg.TOL) -> Certificate:
    """Complete copositivity: PSD test of the partially transposed matrix."""
    pt = linalg._square(h, 4).reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)  # the block swap
    cert = linalg.psd_check(pt, tol=tol)  # checks pt's entries, which fail where h's do
    return Certificate(cert.verdict, cert.margin, cert.witness, "lambda_min(partial transpose)")


def face_membership(h, xi, eta, tol: float = linalg.TOL) -> Certificate:
    """Residual test of phi(P_xi) eta = 0.

    Unlike the other certificates, the margin here is the residual norm
    itself (0 is ideal); PASS iff it is <= tol * max|h|.
    """
    out = choi.face_image(h, xi, eta)
    resid = float(np.linalg.norm(out))
    if resid <= linalg.scaled_tol(h, tol):
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


def canonical_coefficients(h) -> CanonicalCoefficients:
    """Read (a, b, u, c, y, z, t) off a canonical face-form matrix.

    Raises NotHermitianError if linalg.require_hermitian does, and
    NotCanonicalFormError if any fixed zero position is violated beyond
    linalg.TOL * max|h|.
    """
    hs, scale = linalg.require_hermitian(h, 4)
    linalg.require_below(max(abs(hs[0, 2]), abs(hs[2, 2]), abs(hs[2, 3])), linalg.TOL * scale,
                         "off-pattern", NotCanonicalFormError)
    return CanonicalCoefficients(
        a=float(hs[0, 0].real), b=float(hs[1, 1].real), u=float(hs[3, 3].real),
        c=complex(hs[0, 1]), y=complex(hs[0, 3]), z=complex(hs[2, 1]), t=complex(hs[1, 3]),
    )


def canonical_matrix(a, b, u, c, y, z, t) -> np.ndarray:
    """The face-form matrix of these coefficients: the inverse of
    canonical_coefficients and the one writer of its layout.  Pass a zero
    as the float 0.0, whose mirror np.conj(0.0) is +0.0 (0j's is -0.0j)."""
    return np.array([
        [a, c, 0.0, y],
        [np.conj(c), b, np.conj(z), t],
        [0.0, z, 0.0, 0.0],
        [np.conj(y), np.conj(t), 0.0, u],
    ], dtype=np.complex128)


def _minors(a, b, u, c, y, t) -> list:
    """Principal minors of a canonical matrix with z = 0, on numbers or on
    equal-length arrays: on (a, u), (b, u), (a, b), then the 3x3 determinant."""
    au = a * u - abs(y) ** 2
    t2 = abs(t) ** 2
    c2 = abs(c) ** 2
    return [au, b * u - t2, a * b - c2,
            b * au + 2.0 * (c * t * np.conj(y)).real - a * t2 - u * c2]


def _minor_conditions(h, tol: float, tag: str) -> Certificate:
    a, b, u, c, y, z, t = canonical_coefficients(h)
    margins = [("a>=0", a), ("b>=0", b), ("u>=0", u), (tag + "1", -abs(z))]
    margins += [(f"{tag}{k}", m) for k, m in enumerate(_minors(a, b, u, c, y, t), start=2)]
    degrees = np.array([1, 1, 1, 1, 2, 2, 2, 3])
    return from_margins(margins, linalg.scaled_tol(h, tol, degrees), "all conditions")


def canonical_cp_conditions(h, tol: float = linalg.TOL) -> Certificate:
    """Exact coefficient conditions for complete positivity in canonical form.

    Equivalent to PSD of the matrix: nonnegative diagonal, z = 0 (A1), the
    three 2x2 minors (A2)-(A4), and the 3x3 determinant (A5) evaluated in
    expanded form, each judged at tol * max|h|**degree.  The detail names
    the first violated condition.
    """
    return _minor_conditions(h, tol, "A")


def canonical_ccp_conditions(h, tol: float = linalg.TOL) -> Certificate:
    """Mirror conditions for complete copositivity: y = 0 (B1) and the
    minors of the partially transposed matrix (B2)-(B5), which is canonical
    with y and z swapped and t conjugated."""
    return _minor_conditions(choi.partial_transpose(h), tol, "B")


def face_form_inequalities(h, tol: float = linalg.TOL) -> Certificate:
    """The three inequalities every positive face member satisfies:
    |c|^2 <= ab, |t|^2 <= bu, and (|y| + |z|)^2 <= au, each of degree 2 and
    judged at tol * max|h|**2."""
    a, b, u, c, y, z, t = canonical_coefficients(h)
    margins = [
        ("|c|^2<=ab", a * b - abs(c) ** 2),
        ("|t|^2<=bu", b * u - abs(t) ** 2),
        ("(|y|+|z|)^2<=au", a * u - (abs(y) + abs(z)) ** 2),
    ]
    return from_margins(margins, linalg.scaled_tol(h, tol, 2), "all conditions")
