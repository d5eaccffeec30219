"""The paper's construction: the closed-form CP + co-CP split of a canonical
extremal map, its rank-one factor operators, and the one floor (_boundary) on
u, |y|, |z| that marks a boundary instance.  uniqueness scans around it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify, extremal, linalg
from .certificate import Certificate, from_margins
from .errors import HypothesisViolatedError


@dataclass(frozen=True)
class SplitCandidate:
    """Free coefficients of a structured two-part split."""

    a1: float
    b1: float
    u1: float
    t1: complex
    c: complex

    def vector(self) -> np.ndarray:
        return np.array([self.a1, self.b1, self.u1,
                         self.t1.real, self.t1.imag, self.c.real, self.c.imag])

    @staticmethod
    def from_vector(vec) -> "SplitCandidate":
        a1, b1, u1, tr, ti, cr, ci = (float(x) for x in np.asarray(vec).reshape(7))
        return SplitCandidate(a1, b1, u1, complex(tr, ti), complex(cr, ci))

    def complement(self, u: float, t: complex) -> tuple[float, float, float, complex]:
        """Derived coefficients (a2, b2, u2, t2) of the second part."""
        return 1.0 - self.a1, (1.0 - u) - self.b1, u - self.u1, t - self.t1


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


def _boundary(u: float, y: complex, z: complex) -> tuple[str, float] | None:
    """(name, value) of the first of u, |y|, |z| at or below linalg.TOL, else None."""
    for name, value in (("u", u), ("|y|", abs(y)), ("|z|", abs(z))):
        if value <= linalg.TOL:
            return name, value
    return None


def _canonical(u: float, y: complex, z: complex, t: complex) -> SplitCandidate:
    """The closed-form split, or at a boundary instance the natural boundary one."""
    edge = _boundary(u, y, z)
    if edge is None:
        ru = float(np.sqrt(u))
        return SplitCandidate(
            a1=abs(y) / ru,
            b1=abs(z) * (1.0 - u) / ru,
            u1=abs(y) * ru,
            t1=0.5 * t,
            c=complex(-z * t / (2.0 * abs(z) * ru)),
        )
    if edge[0] == "u":
        return SplitCandidate(a1=1.0, b1=1.0 - u, u1=0.0, t1=0.0, c=0.0)
    if edge[0] == "|y|":
        return SplitCandidate(a1=0.0, b1=0.0, u1=0.0, t1=0.0, c=0.0)
    return SplitCandidate(a1=1.0, b1=1.0 - u, u1=u, t1=complex(t), c=0.0)


def _parts(u: float, y: complex, z: complex, t: complex,
           cand: SplitCandidate) -> tuple[np.ndarray, np.ndarray]:
    """The two structured parts of a candidate, the second from the totals."""
    a2, b2, u2, t2 = cand.complement(u, t)
    return (certify.canonical_matrix(cand.a1, cand.b1, cand.u1, cand.c, y, 0.0, cand.t1),
            certify.canonical_matrix(a2, b2, u2, -cand.c, 0.0, z, t2))


def canonical_split(h) -> SplitCandidate:
    """Closed-form split where it exists, or the natural boundary split.

    Away from the boundary this is the unique feasible candidate.  At the
    boundary instances: a CP input keeps all weight in the first part, a
    co-CP input keeps all weight in the second.
    """
    return _canonical(*extremal.extremal_coefficients(h))


def split_matrices(h, cand: SplitCandidate) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the two structured parts described by a candidate."""
    return _parts(*extremal.extremal_coefficients(h), cand)


def _factors(u: float, y: complex, t: complex) -> tuple[np.ndarray, np.ndarray, complex, complex]:
    """Factor operators (k1, k2) and the roots (y1, z1), y1^2 = y, z1^2 = z.

    y1 is the principal root of y; z1 then follows from
    t = 2i sqrt(1-u) y1 conj(z1).  Only the simultaneous sign flip
    (y1, z1) -> (-y1, -z1) remains free and it leaves both parts invariant.
    """
    y1 = linalg.principal_sqrt(y)
    z1 = complex(np.conj(t / (2j * np.sqrt(1.0 - u) * y1)))
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
    return k1, k2, y1, z1


def decompose_extremal(h) -> DecompositionPair:
    """Split a canonical extremal Choi matrix into CP + co-CP rank-one parts.

    Requires h to pass extremal.validate_extremal at its default tolerance
    and u, |y|, |z| above linalg.TOL; the split is then unique.  Both parts
    keep the face structure of the input, sum to it up to rounding, and are
    rank one after the appropriate partial transpose.
    """
    u, y, z, t = extremal.extremal_coefficients(h)
    edge = _boundary(u, y, z)
    if edge is not None:
        raise HypothesisViolatedError(
            f"{edge[0]} = {edge[1]:.3e} is below the floor {linalg.TOL:.3e}")
    cand = _canonical(u, y, z, t)
    h1, h2 = _parts(u, y, z, t, cand)
    k1, k2, y1, z1 = _factors(u, y, t)
    return DecompositionPair(h1=h1, h2=h2, k1=k1, k2=k2, c=cand.c, y1=y1, z1=z1)


def kraus_operators(params: extremal.ExtremalParams) -> tuple[np.ndarray, np.ndarray]:
    """Factor operators (k1, k2) of decompose_extremal(build_extremal(params)).

    The represented map is A -> k1 A k1* + k2 A^T k2* with
    k1 k1* + k2 k2* equal to the identity.
    """
    pair = decompose_extremal(extremal.build_extremal(params))
    return pair.k1, pair.k2


def verify_decomposition(h, pair: DecompositionPair, tol: float = linalg.TOL) -> Certificate:
    """Check a claimed split: the parts sum to h, h1 is CP, h2 is co-CP,
    and both lie in the canonical face (annihilate e1 on P_e2), each judged
    at tol * max|h|, except that hermitian(hX) is judged at the smaller of
    that and linalg.TOL * max|hX|, beyond which cp_check and ccp_check
    reject the part; the later margins join once both parts are within it.
    The detail names the first failing condition."""
    harr = linalg.as_matrix(h, 4)
    parts = (("h1", pair.h1), ("h2", pair.h2))
    margins = [("sum", -linalg.maxabs(pair.h1 + pair.h2 - harr))]
    skews = [(linalg.maxabs(p - p.conj().T), linalg.tol_bound(linalg.TOL, linalg.maxabs(p)))
             for _, p in parts]
    margins += [(f"hermitian({name})", -skew) for (name, _), (skew, _) in zip(parts, skews)]
    bound = linalg.tol_bound(tol, linalg.maxabs(harr))
    bounds = [bound] + [min(bound, limit) for _, limit in skews]
    if all(skew <= limit for skew, limit in skews):
        margins += [("cp(h1)", certify.cp_check(pair.h1, tol).margin),
                    ("ccp(h2)", certify.ccp_check(pair.h2, tol).margin)]
        margins += [(f"face({name})", certify.face_membership(part, (0.0, 1.0), (1.0, 0.0)).margin)
                    for name, part in parts]
    bounds += [bound] * (len(margins) - len(bounds))
    return from_margins(margins, bounds, "sum, classes, and faces")
