"""Closed-form split of a canonical extremal map into a completely positive
part plus a completely copositive part, with the rank-one factor operators
realizing each part."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify, choi, extremal, linalg, uniqueness
from .certificate import FAIL, Certificate, from_margins
from .errors import HypothesisViolatedError


@dataclass(frozen=True)
class DecompositionPair:
    """CP part h1, co-CP part h2, factor operators and split coefficients.

    The represented map acts as A -> k1 A k1* + k2 A^T k2*; y1 and z1 are
    the square roots of y and z fixed by the deterministic branch choice.
    """

    h1: np.ndarray
    h2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    c: complex
    y1: complex
    z1: complex


def _require_hypotheses(u: float, y: complex, z: complex, tol: float) -> None:
    for name, value in (("u", u), ("|y|", abs(y)), ("|z|", abs(z))):
        if value <= tol:
            raise HypothesisViolatedError(f"{name} = {value:.3e} is below the floor {tol:.3e}")


def _split_roots(u: float, y: complex, t: complex) -> tuple[complex, complex]:
    """Square roots (y1, z1) with y1^2 = y, z1^2 = z pinned by t.

    y1 is the principal root of y; z1 then follows from
    t = 2i sqrt(1-u) y1 conj(z1).  Only the simultaneous sign flip
    (y1, z1) -> (-y1, -z1) remains free and it leaves both parts invariant.
    """
    y1 = linalg.principal_sqrt(y)
    z1 = complex(np.conj(t / (2j * np.sqrt(1.0 - u) * y1)))
    return complex(y1), z1


def _factors(u: float, y1: complex, z1: complex) -> tuple[np.ndarray, np.ndarray]:
    uq = float(u) ** 0.25
    s = float(np.sqrt(max(1.0 - u, 0.0)))
    k1 = np.array([
        [y1 / uq, 0.0],
        [1j * np.conj(z1) * s / uq, np.conj(y1) * uq],
    ], dtype=np.complex128)
    k2 = np.array([
        [z1 / uq, 0.0],
        [-1j * np.conj(y1) * s / uq, np.conj(z1) * uq],
    ], dtype=np.complex128)
    return k1, k2


def decompose_extremal(h, tol: float = linalg.TOL) -> DecompositionPair:
    """Split a canonical extremal Choi matrix into CP + co-CP rank-one parts.

    Requires h to pass extremal.validate_extremal at its default tolerance
    and u, |y| and |z| all above tol; the split is then unique.  Both parts
    keep the face structure of the input, sum to it up to rounding, and are
    rank one after the appropriate partial transpose.
    """
    u, y, z, t = extremal.extremal_coefficients(h)
    _require_hypotheses(u, y, z, tol)
    cand = uniqueness._canonical(u, y, z, t, tol)
    h1, h2 = uniqueness._parts(u, y, z, t, cand)
    y1, z1 = _split_roots(u, y, t)
    k1, k2 = _factors(u, y1, z1)
    return DecompositionPair(h1=h1, h2=h2, k1=k1, k2=k2, c=cand.c, y1=y1, z1=z1)


def kraus_operators(params: extremal.ExtremalParams,
                    tol: float = linalg.TOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor operators (k1, k2) of the split for a parameterized map.

    The represented map is A -> k1 A k1* + k2 A^T k2* with
    k1 k1* + k2 k2* equal to the identity.
    """
    params.validate()
    u = float(params.u)
    _require_hypotheses(u, complex(params.y), complex(params.z), tol)
    y1, z1 = _split_roots(u, complex(params.y), params.t)
    return _factors(u, y1, z1)


def verify_decomposition(h, pair: DecompositionPair, tol: float = linalg.TOL) -> Certificate:
    """Check a claimed split: the parts sum to h, h1 is CP, h2 is co-CP,
    and both lie in the canonical face (annihilate e1 on P_e2), each judged
    at tol * max|h|.  A part that linalg.require_hermitian rejects, as
    cp_check and ccp_check do, fails hermitian(hX) whatever tol is."""
    harr = linalg.as_matrix(h, 4)
    e1 = np.array([1.0, 0.0], dtype=np.complex128)
    e2 = np.array([0.0, 1.0], dtype=np.complex128)
    parts = (("h1", pair.h1), ("h2", pair.h2))
    margins = [("sum", -linalg.maxabs(pair.h1 + pair.h2 - harr))]
    margins += [(f"hermitian({name})", -linalg.hermitian_residual(part)) for name, part in parts]
    skew = from_margins(margins[1:], [linalg.scaled_tol(p, linalg.TOL) for _, p in parts], "")
    if skew.passed:
        margins.append(("cp(h1)", certify.cp_check(pair.h1, tol).margin))
        margins.append(("ccp(h2)", certify.ccp_check(pair.h2, tol).margin))
        for name, part in parts:
            margins.append((f"face({name})", -float(np.linalg.norm(choi.face_image(part, e2, e1)))))
    cert = from_margins(margins, linalg.scaled_tol(harr, tol), "sum, classes, and faces")
    if cert.passed and not skew.passed:
        return Certificate(FAIL, cert.margin, witness=skew.detail, detail=skew.detail)
    return cert
