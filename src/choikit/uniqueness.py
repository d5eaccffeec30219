"""Numerical exploration of how unique the CP + co-CP split is: a scan of
candidate splits around the one decompose builds, which owns SplitCandidate,
the closed form and the boundary floor.  A candidate has seven real degrees
of freedom (a1, b1, u1, t1, c); the complementary coefficients are derived
from the input matrix totals and never stored.  Feasibility is the
conjunction of 14 constraints: the six diagonal entries, and the canonical
minor conditions (certify._minors) of the first part and of the second's
partial transpose, so the first part is CP and the second co-CP.  For inputs
with u, |y|, |z| all nonzero the feasible set is a single point (the
closed-form split); at the boundary instances whole families become
feasible, which the search exhibits.  The search tests CP1 and CcP1, which
read only a1 and u1, on every candidate first, then CP3 and CcP3, which read
a1, b1 and c, on the survivors, and all 14 on what is left."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify, extremal, linalg
from .certificate import Certificate, from_margins
from .decompose import SplitCandidate, _boundary, _canonical
from .errors import EpsilonTooLargeError, InvalidParamsError

FEASIBILITY_TOL = 1e-9
_GRID_CAP = 7
_CHUNK = 1 << 13
_ALTERNATES_CAP = 32

CONSTRAINT_NAMES = (
    "a1>=0", "b1>=0", "u1>=0", "a2>=0", "b2>=0", "u2>=0",
    "CP1", "CP2", "CP3", "CP4", "CcP1", "CcP2", "CcP3", "CcP4",
)


@dataclass(frozen=True)
class FeasibilityReport:
    """Result of a uniqueness scan around the canonical split."""

    canonical: SplitCandidate
    alternates: tuple[tuple[SplitCandidate, float], ...]
    feasible_count: int
    diameter: float
    radius: float
    resolution: float
    samples: int
    seed: int
    tol: float
    grid_points: int


def _constraint_margins(u: float, y: complex, z: complex, t: complex, vecs: np.ndarray) -> list:
    """Margins of CONSTRAINT_NAMES for candidate vectors of shape (n, 7): the
    diagonal entries, then the minors of h1 and of h2's partial transpose,
    which is canonical with y -> z, t -> conj(t2) and c -> -c."""
    a1, b1, u1, tr, ti, cr, ci = vecs.T
    t1, c = tr + 1j * ti, cr + 1j * ci
    a2, b2, u2, t2 = SplitCandidate(a1, b1, u1, t1, c).complement(u, t)
    return [a1, b1, u1, a2, b2, u2,
            *certify._minors(a1, b1, u1, c, y, t1),
            *certify._minors(a2, b2, u2, -c, z, np.conj(t2))]


def feasibility(h, cand: SplitCandidate, tol: float = FEASIBILITY_TOL) -> Certificate:
    """Test every structural and minor constraint of a candidate split."""
    u, y, z, t = extremal.extremal_coefficients(h)
    margins = [m[0] for m in _constraint_margins(u, y, z, t, cand.vector()[None, :])]
    return from_margins(list(zip(CONSTRAINT_NAMES, margins)), linalg.tol_bound(tol, 1.0), "all constraints")


def _structural_box(u: float, t: complex) -> tuple[np.ndarray, np.ndarray]:
    span_t = 2.0 * abs(t)
    lo = np.array([0.0, 0.0, 0.0, -span_t, -span_t, -1.0, -1.0])
    hi = np.array([1.0, 1.0 - u, u, span_t, span_t, 1.0, 1.0])
    return lo, np.maximum(lo, hi)


def _axis_points(lo: float, hi: float, resolution: float) -> np.ndarray:
    span = hi - lo
    if span <= 0.0:
        return np.array([lo])
    n = min(int(min(span / resolution, _GRID_CAP)) + 1, _GRID_CAP)  # the ratio may overflow
    n = max(n, 3)
    if n % 2 == 0:
        n += 1
    return np.linspace(lo, hi, n)


def _first_distinct(found: np.ndarray) -> np.ndarray:
    """Indices of the first of each set of float-equal columns of a (7, n) array:
    one sort on row 0, then a stable lexsort of only the columns that tie there."""
    order = np.argsort(found[0])
    tie = found[0, order[1:]] == found[0, order[:-1]]
    tied = np.r_[tie, False] | np.r_[False, tie]
    group = np.sort(order[tied])
    group = group[np.lexsort(found[::-1, group])]
    differ = np.any(found[:, group[1:]] != found[:, group[:-1]], axis=0)
    return np.r_[order[~tied], group[:1], group[1:][differ]]


def uniqueness_search(h, radius: float = 0.2, resolution: float = 1e-2,
                      samples: int = 1_000_000, seed: int = 0,
                      tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Scan candidate space for feasible splits.

    Deterministic coarse grids (a capped Cartesian grid over the structural
    box whose axes include the endpoints and center, plus one over the box
    of the given radius around the canonical candidate) are combined with
    seeded uniform samples.  Each grid axis of positive span has
    min(floor(span / resolution) + 1, 7) points, raised to at least 3 and to
    an odd count; every resolution at or below span / 6 gives the same 7
    points, so the resolution mostly sets the alternates threshold.
    CP1 and CcP1 (on a1, u1) go first on the (a1, u1) grid pairs and the
    samples, then CP3 and CcP3 (on a1, b1, c) on the survivors, and all 14
    on each grid block of at most 7**5 rows and on sample survivors in
    batches of 8192 or more.  Samples are raw uniforms on [0, 1) in one
    reused 8192 x 7 buffer; each stage scales (Generator.uniform's
    arithmetic) only the columns it reads of the rows that reach it, so the
    samples are those of default_rng(seed).uniform over each box at any
    chunk size.  Each feasible point is stored with its distance to the
    canonical one, 8 floats (about 8 MB at u = 0 with 1e6 samples).
    Feasible candidates farther than 10 * resolution from the canonical one
    are listed as alternates, farthest first, capped at 32 entries;
    feasible_count and diameter (the exact max-coordinate spread of every
    feasible point found, canonical included) always cover the full set.
    A feasible point within tol of the canonical candidate (max-coordinate
    distance) counts as that candidate; float-equal points count once.
    """
    for name, value in (("resolution", resolution), ("radius", radius)):
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples!r}")
    linalg.tol_bound(tol, 1.0)  # raises unless tol is finite and >= 0
    u, y, z, t = extremal.extremal_coefficients(h)
    canon = _canonical(u, y, z, t)
    cvec = canon.vector()
    lo, hi = _structural_box(u, t)
    boxes = ((lo, hi), (np.maximum(lo, cvec - radius), np.minimum(hi, cvec + radius)))

    # certify._minors' own CP1, CcP1, CP3 and CcP3 expressions, so no feasible row is lost
    def cp1_ccp1(a1: np.ndarray, u1: np.ndarray) -> np.ndarray:
        return (a1 * u1 - abs(y) ** 2 >= -tol) & ((1.0 - a1) * (u - u1) - abs(z) ** 2 >= -tol)

    def cp3_ccp3(a1: np.ndarray, b1: np.ndarray, cr: np.ndarray, ci: np.ndarray) -> np.ndarray:
        c2 = abs(cr + 1j * ci) ** 2
        return (a1 * b1 - c2 >= -tol) & ((1.0 - a1) * ((1.0 - u) - b1) - c2 >= -tol)

    # feasible columns and their distances to cvec; the local grid's centre can land ulps off it
    kept: list[np.ndarray] = [cvec[:, None]]
    dists: list[np.ndarray] = [np.zeros(1)]

    def keep(cols: np.ndarray) -> None:
        ok = np.logical_and.reduce([m >= -tol for m in _constraint_margins(u, y, z, t, cols.T)])
        cols = cols if ok.all() else cols[:, ok]
        dist = np.abs(cols[0] - cvec[0])
        for row, centre in zip(cols[1:], cvec[1:]):
            np.maximum(dist, np.abs(row - centre), out=dist)
        snap = dist <= tol
        if snap.any():  # their distances are never read: column 0 is cvec and comes first
            cols[:, snap] = cvec[:, None]
        kept.append(cols)
        dists.append(dist)

    grid_points = 0
    for blo, bhi in boxes:
        axes = [_axis_points(float(a), float(b), resolution) for a, b in zip(blo, bhi)]
        grid_points += int(np.prod([len(ax) for ax in axes]))
        a1, u1 = (m.ravel() for m in np.meshgrid(axes[0], axes[2], indexing="ij"))
        pairs = cp1_ccp1(a1, u1)
        for pa, pu in zip(a1[pairs], u1[pairs]):
            block = np.stack([m.ravel() for m in np.meshgrid(pa, axes[1], pu, *axes[3:], indexing="ij")])
            keep(block[:, cp3_ccp3(*block[[0, 1, 5, 6]])])

    # blo + span * U is Generator.uniform(blo, bhi)'s own arithmetic, so the
    # samples are its samples, scaled only where a stage needs them
    rng = np.random.default_rng(seed)
    buf = np.empty((_CHUNK, 7))
    pending: list[np.ndarray] = []
    for count, (blo, bhi) in zip((samples // 2, samples - samples // 2), boxes):
        span = bhi - blo
        for start in range(0, count, _CHUNK):
            draw = rng.random(out=buf[:min(count - start, _CHUNK)])
            a1 = blo[0] + span[0] * draw[:, 0]
            idx = np.flatnonzero(cp1_ccp1(a1, blo[2] + span[2] * draw[:, 2]))
            if idx.size:  # away from u = 0 most chunks end here
                rows = slice(None) if idx.size == len(draw) else idx  # on u = 0 every row passes
                idx = idx[cp3_ccp3(a1[rows], *(blo[j] + span[j] * draw[:, j][rows] for j in (1, 5, 6)))]
                pending.append(blo[:, None] + np.multiply(span[:, None], draw[idx].T, order="C"))
            if sum(cols.shape[1] for cols in pending) >= _CHUNK:
                keep(np.hstack(pending))
                pending = []
    if pending:
        keep(np.hstack(pending))

    found = np.hstack(kept)
    kept.clear()
    distances = np.concatenate(dists)
    first = _first_distinct(found)
    diameter = float(np.max(np.max(found, axis=1) - np.min(found, axis=1)))  # dedup keeps each min, max
    far = first[distances[first] > 10.0 * resolution]
    if len(far) > _ALTERNATES_CAP:  # keep the cap-th largest distance and its ties
        far = far[distances[far] >= np.partition(distances[far], -_ALTERNATES_CAP)[-_ALTERNATES_CAP]]
    far = far[np.lexsort(np.vstack([found[::-1, far], -distances[far]]))]
    alternates = tuple(
        (SplitCandidate.from_vector(found[:, i]), float(distances[i]))
        for i in far[:_ALTERNATES_CAP]
    )
    return FeasibilityReport(
        canonical=canon,
        alternates=alternates,
        feasible_count=int(first.size),
        diameter=diameter,
        radius=float(radius),
        resolution=float(resolution),
        samples=int(samples),
        seed=int(seed),
        tol=float(tol),
        grid_points=int(grid_points),
    )


def epsilon_family(h, eps: float, tol: float = linalg.TOL) -> tuple[np.ndarray, np.ndarray]:
    """Shift weight eps off the second diagonal entry into a separate part.

    Only the boundary instances (u = 0, y = 0, or z = 0) admit this family;
    the shifted-off part is both CP and co-CP, and the remainder keeps the
    class of the input.  Returns (remainder, shift).
    """
    harr = linalg.as_matrix(h, 4)
    u, y, z, _ = extremal.extremal_coefficients(harr)
    if not np.isfinite(eps) or eps <= 0.0:
        raise InvalidParamsError(f"eps must be positive, got {eps!r}")
    edge = _boundary(u, y, z)
    if edge is None:
        raise InvalidParamsError("the split of this matrix is unique; no shift family exists")
    required = {"u": ("cp", "ccp"), "|y|": ("ccp",), "|z|": ("cp",)}[edge[0]]
    shift = certify.canonical_matrix(0.0, eps, 0.0, 0.0, 0.0, 0.0, 0.0)
    remainder = harr - shift
    for kind in required:
        check = certify.cp_check if kind == "cp" else certify.ccp_check
        cert = check(remainder, tol)
        if not cert.passed:
            raise EpsilonTooLargeError(
                f"remainder fails the {kind} check (lambda_min {cert.margin:.3e})")
    return remainder, shift
