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
# R[a, b] = Re tr(h sigma_a (x) sigma_b) as a signed sum of four of the 32 floats of h
# (h[m, n].real at 8m + 2n, .imag one further): one (index, sign) pair per nonzero entry
_PAULI_TERMS = [[(8 * m + 2 * n + int(k[n, m].real == 0), float(k[n, m].real or -k[n, m].imag))
                 for m in range(4) for n in range(4) if k[n, m] != 0]
                for k in (np.kron(sa, sb) for sa in _PAULI for sb in _PAULI)]
_MAX_STEPS = 100  # a safety stop; converged inputs stop after a handful of steps
_MAX_SWEEPS = 30  # the same for the Jacobi sweeps, of which a 3x3 matrix needs a few


def _rotation(apq, app, aqq):
    """(t, c, s) of the Jacobi rotation that zeroes apq against app and aqq: t = tan of its
    angle, the smaller root of t^2 + 2 theta t = 1, is 1 / (2 theta) to within rounding past
    2^26, and theta * theta overflows past 2^511."""
    theta = (aqq - app) / (2.0 * apq)
    at = abs(theta)
    t = math.copysign(0.5 / at if at > 2.0 ** 26 else 1.0 / (at + math.sqrt(at * at + 1.0)), theta)
    c = 1.0 / math.sqrt(t * t + 1.0)
    return t, c, t * c


def _jacobi(a00, a11, a22, a01, a02, a12):
    """(Eigenvalue, eigenvector) pairs, ascending, of the symmetric 3x3 with these entries, by
    cyclic Jacobi (Golub & Van Loan, Matrix Computations, 8.5) on the pairs (0, 1), (0, 2), (1, 2).
    A pair is rotated while its off-diagonal entry exceeds 2^-52 times its two diagonal entries:
    no squares, so a power-of-two scaling of the matrix scales every step exactly."""
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    for _ in range(_MAX_SWEEPS):
        rotated = False
        if abs(a01) > 2.0 ** -52 * (abs(a00) + abs(a11)):
            rotated = True
            t, c, s = _rotation(a01, a00, a11)
            a00, a11, a01 = a00 - t * a01, a11 + t * a01, 0.0
            a02, a12 = c * a02 - s * a12, s * a02 + c * a12
            v00, v01, v02, v10, v11, v12 = (c * v00 - s * v10, c * v01 - s * v11, c * v02 - s * v12,
                                            s * v00 + c * v10, s * v01 + c * v11, s * v02 + c * v12)
        if abs(a02) > 2.0 ** -52 * (abs(a00) + abs(a22)):
            rotated = True
            t, c, s = _rotation(a02, a00, a22)
            a00, a22, a02 = a00 - t * a02, a22 + t * a02, 0.0
            a01, a12 = c * a01 - s * a12, s * a01 + c * a12
            v00, v01, v02, v20, v21, v22 = (c * v00 - s * v20, c * v01 - s * v21, c * v02 - s * v22,
                                            s * v00 + c * v20, s * v01 + c * v21, s * v02 + c * v22)
        if abs(a12) > 2.0 ** -52 * (abs(a11) + abs(a22)):
            rotated = True
            t, c, s = _rotation(a12, a11, a22)
            a11, a22, a12 = a11 - t * a12, a22 + t * a12, 0.0
            a01, a02 = c * a01 - s * a02, s * a01 + c * a02
            v10, v11, v12, v20, v21, v22 = (c * v10 - s * v20, c * v11 - s * v21, c * v12 - s * v22,
                                            s * v10 + c * v20, s * v11 + c * v21, s * v12 + c * v22)
        if not rotated:
            break
    return sorted(((a00, (v00, v01, v02)), (a11, (v10, v11, v12)), (a22, (v20, v21, v22))),
                  key=lambda pair: pair[0])


def _sphere_argmin(d1, d2, g0, g1, g2):
    """Unit x minimising d1 x_1^2 + d2 x_2^2 + 2 sum_i g_i x_i, with 0 <= d1 <= d2.

    x = -g / (d + s) with s >= 0 the root of the secular equation
    |x(s)| = 1 (Gander, Golub & von Matt 1989).  Newton's method on
    1 - 1/|x(s)|, which is convex and decreasing (More & Sorensen 1983),
    climbs to that root from a start where |x| >= 1 and stops when it no
    longer moves.  If |x(0)| <= 1 (the hard case) s = 0 and x is completed
    along the bottom eigenvector.
    """
    # where g_i = 0 the denominator is 1 + s, so x_i = -g_i even where d_i + s = 0
    e0, e1, e2 = 0.0 if g0 != 0.0 else 1.0, d1 if g1 != 0.0 else 1.0, d2 if g2 != 0.0 else 1.0
    s = max(0.0, abs(g0), abs(g1) - d1, abs(g2) - d2)
    for _ in range(_MAX_STEPS):
        n0, n1, n2 = e0 + s, e1 + s, e2 + s
        x0, x1, x2 = -g0 / n0, -g1 / n1, -g2 / n2
        norm2 = x0 * x0 + x1 * x1 + x2 * x2
        if not norm2 > 1.0:
            break
        slope = x0 * (x0 / n0) + x1 * (x1 / n1) + x2 * (x2 / n2)
        s_next = s + norm2 * (math.sqrt(norm2) - 1.0) / slope
        if not s_next > s:
            break
        s = s_next
    if s == 0.0:
        x0 = math.sqrt(max(0.0, 1.0 - norm2))
    norm = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    return x0 / norm, x1 / norm, x2 / norm


def block_positive(h, tol: float = linalg.TOL) -> Certificate:
    """Certify block-positivity, i.e. positivity of the represented map.

    The margin is the minimum over unit directions v of the smallest
    eigenvalue of C(v) = [<v, block_ij v>], computed exactly.  With
    R[a, b] = tr(h sigma_a (x) sigma_b) and b = (1, r) for the Bloch vector r
    of v, C(v) = 1/4 sum_a (R b)_a sigma_a, so its eigenvalues are
    1/4 ((R b)_0 -+ |(R b)_1:|).  The minimum lies at or below the trace bound
    1/4 (R_00 - |R_0,1:|), and C(v) - m I is PSD for every v iff its trace and
    determinant are nonnegative on the sphere.  16 det(C(v) - m I) is a
    quadratic in r whose quadratic part p p^T - P^T P does not depend on m, so
    one 3x3 eigendecomposition serves every shift m.  Starting from the trace
    bound, each step moves m down to lambda_min(C(v)) at the v minimising that
    determinant (to first order a Newton step on the determinant's minimum
    over the sphere), until m stops decreasing where that minimum is zero.
    Every m is the trace bound or a value attained at some direction, so
    the margin never lies below the true minimum.  PASS iff the margin is
    >= -tol * max|h|; on FAIL the witness is the direction minimising the
    determinant at the final m, and its compressed 2x2 matrix.

    Past validation everything runs on Python floats with + - * /, abs,
    copysign, max and sqrt, each correctly rounded, so the margin and the
    witness have the same bits under any BLAS kernel.
    """
    harr, scale = linalg.require_hermitian(h, 4)
    hf = harr.view(float).ravel().tolist()
    r00, p0, p1, p2, q0, r5, r6, r7, q1, r9, r10, r11, q2, r13, r14, r15 = [
        s0 * hf[i0] + s1 * hf[i1] + s2 * hf[i2] + s3 * hf[i3]
        for (i0, s0), (i1, s1), (i2, s2), (i3, s3) in _PAULI_TERMS]
    # the form p p^T - P^T P, P = R[1:, 1:], and g = P^T q, each sum in the order of P's rows
    (alpha0, (e00, e01, e02)), (alpha1, (e10, e11, e12)), (alpha2, (e20, e21, e22)) = _jacobi(
        p0 * p0 - (r5 * r5 + r9 * r9 + r13 * r13), p1 * p1 - (r6 * r6 + r10 * r10 + r14 * r14),
        p2 * p2 - (r7 * r7 + r11 * r11 + r15 * r15), p0 * p1 - (r5 * r6 + r9 * r10 + r13 * r14),
        p0 * p2 - (r5 * r7 + r9 * r11 + r13 * r15), p1 * p2 - (r6 * r7 + r10 * r11 + r14 * r15))
    g0, g1, g2 = (r5 * q0 + r9 * q1 + r13 * q2, r6 * q0 + r10 * q1 + r14 * q2,
                  r7 * q0 + r11 * q1 + r15 * q2)
    d1, d2 = alpha1 - alpha0, alpha2 - alpha0
    u0, u1, u2 = (e00 * p0 + e01 * p1 + e02 * p2, e10 * p0 + e11 * p1 + e12 * p2,
                  e20 * p0 + e21 * p1 + e22 * p2)
    w0, w1, w2 = (e00 * g0 + e01 * g1 + e02 * g2, e10 * g0 + e11 * g1 + e12 * g2,
                  e20 * g0 + e21 * g1 + e22 * g2)
    margin = 0.25 * (r00 - math.sqrt(p0 * p0 + p1 * p1 + p2 * p2))
    for _ in range(_MAX_STEPS):
        k = r00 - 4.0 * margin
        x0, x1, x2 = _sphere_argmin(d1, d2, k * u0 - w0, k * u1 - w1, k * u2 - w2)
        b0, b1, b2 = (x0 * e00 + x1 * e10 + x2 * e20, x0 * e01 + x1 * e11 + x2 * e21,
                      x0 * e02 + x1 * e12 + x2 * e22)
        rb0, rb1 = r00 + p0 * b0 + p1 * b1 + p2 * b2, q0 + r5 * b0 + r6 * b1 + r7 * b2
        rb2, rb3 = q1 + r9 * b0 + r10 * b1 + r11 * b2, q2 + r13 * b0 + r14 * b1 + r15 * b2
        lowest = 0.25 * (rb0 - math.sqrt(rb1 * rb1 + rb2 * rb2 + rb3 * rb3))
        if not lowest < margin:
            break
        margin = lowest

    detail = "min lambda_min over directions"
    if margin >= -linalg.tol_bound(tol, scale):
        return Certificate(PASS, margin, detail=detail)
    # v has Bloch vector b, so C(v) = [<v, block_ij v>] = 1/4 sum_a rb_a sigma_a.  The larger of
    # |v_0|, |v_1| is sqrt((1 + |b2|) / 2), the other rho / (2 * larger): neither cancels
    rho, big = math.sqrt(b0 * b0 + b1 * b1), math.sqrt(0.5 + 0.5 * abs(b2))
    v0, v1 = (big, 0.5 * rho / big) if b2 >= 0.0 else (0.5 * rho / big, big)
    v = (complex(v0), v1 * (complex(b0 / rho, b1 / rho) if rho else 1.0))
    c0, c1, c2, c3 = 0.25 * rb0, 0.25 * rb1, 0.25 * rb2, 0.25 * rb3
    compressed = [[complex(c0 + c3), complex(c1, -c2)], [complex(c1, c2), complex(c0 - c3)]]
    return Certificate(FAIL, margin, witness=(np.array(v), np.array(compressed)), detail=detail)


def cp_check(h, tol: float = linalg.TOL) -> Certificate:
    """Complete positivity: PSD test of the Choi matrix itself."""
    cert = linalg.psd_check(linalg._square(h, 4), tol=tol)  # psd_check checks the entries
    return Certificate(cert.verdict, cert.margin, cert.witness, "lambda_min(choi)")


def ccp_check(h, tol: float = linalg.TOL) -> Certificate:
    """Complete copositivity: PSD test of the partially transposed matrix."""
    pt = choi._swap_blocks(linalg._square(h, 4))
    cert = linalg.psd_check(pt, tol=tol)  # checks pt's entries, which fail where h's do
    return Certificate(cert.verdict, cert.margin, cert.witness, "lambda_min(partial transpose)")


def face_membership(h, xi, eta, tol: float = linalg.TOL) -> Certificate:
    """Residual test of phi(P_xi) eta = 0: the margin is -norm(phi(P_xi) eta),
    and PASS iff it is >= -tol * max|h|.  choi.face_image and choi.norm use no
    BLAS, so the margin and the witness have the same bits under any kernel."""
    out = choi.face_image(h, xi, eta)
    margin = -choi.norm(out)
    if margin >= -linalg.tol_bound(tol, linalg.maxabs(h)):
        return Certificate(PASS, margin, detail="norm(phi(P_xi) eta)")
    return Certificate(FAIL, margin, witness=np.array(out), detail="norm(phi(P_xi) eta)")


class CanonicalCoefficients(NamedTuple):
    a: float
    b: float
    u: float
    c: complex
    y: complex
    z: complex
    t: complex


def _read_canonical(h) -> tuple[CanonicalCoefficients, float]:
    """(canonical_coefficients(h), max|h|) from one validation pass."""
    hs, scale = linalg.require_hermitian(h, 4)
    linalg.require_below(max(abs(hs[0, 2]), abs(hs[2, 2]), abs(hs[2, 3])), linalg.TOL * scale,
                         "off-pattern", NotCanonicalFormError)
    return CanonicalCoefficients(
        a=float(hs[0, 0].real), b=float(hs[1, 1].real), u=float(hs[3, 3].real),
        c=complex(hs[0, 1]), y=complex(hs[0, 3]), z=complex(hs[2, 1]), t=complex(hs[1, 3]),
    ), scale


def canonical_coefficients(h) -> CanonicalCoefficients:
    """Read (a, b, u, c, y, z, t) off a canonical face-form matrix.

    Raises NotHermitianError if linalg.require_hermitian does, and
    NotCanonicalFormError if any fixed zero position is violated beyond
    linalg.TOL * max|h|.
    """
    return _read_canonical(h)[0]


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


def _minor_conditions(coeffs, scale: float, tol: float, tag: str) -> Certificate:
    """The CP conditions on canonical coefficients (a, b, u, c, y, z, t) of max-modulus scale."""
    a, b, u, c, y, z, t = coeffs
    margins = [("a>=0", a), ("b>=0", b), ("u>=0", u), (tag + "1", -abs(z))]
    margins += [(f"{tag}{k}", m) for k, m in enumerate(_minors(a, b, u, c, y, t), start=2)]
    degrees = np.array([1, 1, 1, 1, 2, 2, 2, 3])
    return from_margins(margins, linalg.tol_bound(tol, scale, degrees), "all conditions")


def canonical_cp_conditions(h, tol: float = linalg.TOL) -> Certificate:
    """Exact coefficient conditions for complete positivity in canonical form.

    Equivalent to PSD of the matrix: nonnegative diagonal, z = 0 (A1), the
    three 2x2 minors (A2)-(A4), and the 3x3 determinant (A5) evaluated in
    expanded form, each judged at tol * max|h|**degree.  The detail names
    the first violated condition.
    """
    return _minor_conditions(*_read_canonical(h), tol, "A")


def canonical_ccp_conditions(h, tol: float = linalg.TOL) -> Certificate:
    """Mirror conditions for complete copositivity: (B1)-(B5) are (A1)-(A5)
    on (a, b, u, c, z, y, conj(t)), the coefficients of the partial transpose."""
    (a, b, u, c, y, z, t), scale = _read_canonical(h)
    return _minor_conditions((a, b, u, c, z, y, t.conjugate()), scale, tol, "B")


def face_form_inequalities(h, tol: float = linalg.TOL) -> Certificate:
    """The three inequalities every positive face member satisfies:
    |c|^2 <= ab, |t|^2 <= bu (the minors A4 and A3), and (|y| + |z|)^2 <= au,
    each of degree 2 and judged at tol * max|h|**2."""
    (a, b, u, c, y, z, t), scale = _read_canonical(h)
    _, bu, ab, _ = _minors(a, b, u, c, y, t)
    margins = [("|c|^2<=ab", ab), ("|t|^2<=bu", bu), ("(|y|+|z|)^2<=au", a * u - (abs(y) + abs(z)) ** 2)]
    return from_margins(margins, linalg.tol_bound(tol, scale, 2), "all conditions")
