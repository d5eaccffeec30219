"""Constructors and validators for canonical extremal unital positive maps.

The canonical Choi matrix of such a map is

    [ 1  0 | 0  y ]
    [ 0  b | z* t ]
    [ 0  z | 0  0 ]
    [ y* t*| 0  u ]

with b = 1 - u and, when b > 0, the coefficient relations

    |t|^2 = 2 b (u - |y|^2 - |z|^2),
    |y| + |z| = sqrt(u),
    t^2 = -4 (1 - u) y conj(z),

while b = 0 forces t = 0 and (|y|, |z|) in {(1, 0), (0, 1)}.  The square
root defining t has two branches; both give extremal maps and the choice is
part of the parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import certify, linalg
from .certificate import Certificate, from_margins
from .errors import InvalidParamsError, NotExtremalError


def derived_t(u: float, y: complex, z: complex, branch: str = "+") -> complex:
    """Branch-selected square root of -4 (1 - u) y conj(z)."""
    if branch not in ("+", "-"):
        raise InvalidParamsError(f"t branch must be '+' or '-', got {branch!r}")
    root = linalg.principal_sqrt(-4.0 * (1.0 - float(u)) * complex(y) * complex(z).conjugate())
    return root if branch == "+" else -root


@dataclass(frozen=True)
class ExtremalParams:
    """Free parameters (u, y, z, branch) of the canonical extremal form."""

    u: float
    y: complex
    z: complex
    t_branch: str = "+"

    @property
    def b(self) -> float:
        return 1.0 - float(self.u)

    @property
    def t(self) -> complex:
        return derived_t(self.u, self.y, self.z, self.t_branch)

    def validate(self) -> certify.CanonicalCoefficients:
        """The coefficients of the matrix these parameters describe; raises
        InvalidParamsError naming the first relation of validate_extremal
        that they violate at linalg.TOL."""
        u = float(self.u)
        y = complex(self.y)
        z = complex(self.z)
        if not all(map(math.isfinite, (u, y.real, y.imag, z.real, z.imag))):
            raise InvalidParamsError("parameters contain NaN or Inf")
        coeffs = certify.CanonicalCoefficients(1.0, self.b, u, 0.0, y, z, self.t)
        _require_relations(coeffs, InvalidParamsError, "parameters violate")
        return coeffs


def build_extremal(params: ExtremalParams) -> np.ndarray:
    """Canonical extremal Choi matrix for a parameter set that passes
    params.validate(); validate_extremal then passes it too."""
    return certify.canonical_matrix(*params.validate())


def example_family(s: float) -> np.ndarray:
    """Canonical one-parameter family with u = s^2, y = z = s/2, 0 < s < 1.

    Assembled entry by entry, not through certify.canonical_matrix like every
    other constructor, so that it is an independent path to check them by.
    """
    s = float(s)
    if not np.isfinite(s) or not 0.0 < s < 1.0:
        raise InvalidParamsError(f"family parameter must lie in (0, 1), got {s!r}")
    root = float(np.sqrt(1.0 - s * s))
    h = np.zeros((4, 4), dtype=np.complex128)
    h[0, 0] = 1.0
    h[1, 1] = 1.0 - s * s
    h[3, 3] = s * s
    h[0, 3] = h[3, 0] = 0.5 * s
    h[1, 2] = h[2, 1] = 0.5 * s
    h[1, 3] = 1j * s * root
    h[3, 1] = -1j * s * root
    return h


def degenerate_case(kind: str, y: complex = 0.0, z: complex = 0.0) -> np.ndarray:
    """The three boundary instances whose two-part split is not unique:
    u = 0, y = 0 (co-CP), or z = 0 (CP).  Raises InvalidParamsError for a
    nonzero y or z that the kind sets to zero (u_zero sets both)."""
    zeroed = {"u_zero": ("y", "z"), "y_zero": ("y",), "z_zero": ("z",)}.get(kind)
    if zeroed is None:
        raise InvalidParamsError(f"unknown degenerate kind {kind!r}")
    for name, value in (("y", y), ("z", z)):
        if name in zeroed and complex(value) != 0:
            raise InvalidParamsError(f"{kind} sets {name} to zero, got {value!r}")
    if kind == "u_zero":
        return certify.canonical_matrix(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    name, value = ("z", z) if kind == "y_zero" else ("y", y)
    w = complex(value)
    if not np.isfinite(w.real) or not np.isfinite(w.imag) or abs(w) >= 1.0:
        raise InvalidParamsError(f"{name} must lie in the open unit disc, got {value!r}")
    yw, zw = (0.0, w) if kind == "y_zero" else (w, 0.0)
    return certify.canonical_matrix(1.0, 1.0 - abs(w) ** 2, abs(w) ** 2, 0.0, yw, zw, 0.0)


def _relation_margins(coeffs: certify.CanonicalCoefficients, tol: float) -> list[tuple[str, float]]:
    """(name, margin) of each relation, in order; the b = 0 ones where b <= tol."""
    a, b, u, c, y, z, t = coeffs
    ymod, zmod, tmod = abs(y), abs(z), abs(t)  # squared by products, which overflow to inf
    margins: list[tuple[str, float]] = [
        ("pattern:c=0", -abs(c)),
        ("condition1", -abs(a - 1.0)),
        ("condition1", b),
        ("condition1", u),
        ("condition1", -abs(b + u - 1.0)),
    ]
    if b > tol:
        margins.extend([
            ("condition2", -abs(tmod * tmod - 2.0 * b * (u - ymod * ymod - zmod * zmod))),
            ("split", -abs((ymod + zmod) * (ymod + zmod) - u)),
            ("phase", -abs(t * t + 4.0 * (1.0 - u) * y * z.conjugate())),
        ])
    else:
        margins.extend([
            ("condition2", -min(abs(ymod - 1.0) + zmod, abs(zmod - 1.0) + ymod)),
            ("condition2", -tmod),
        ])
    return margins


def validate_extremal(h, tol: float = linalg.TOL) -> Certificate:
    """Certify that h is a canonical extremal-form Choi matrix.

    Checks the zero pattern (including the (0,1) entry), unitality of the
    diagonal, and the coefficient relations; the detail names the first
    violated relation.  Raises NotCanonicalFormError only when the hard
    zero pattern of the face form is broken.
    """
    margins = _relation_margins(certify.canonical_coefficients(h), tol)
    return from_margins(margins, linalg.tol_bound(tol, 1.0), "all relations")


def _require_relations(coeffs: certify.CanonicalCoefficients, error: type, prefix: str) -> None:
    """Raise error, after prefix, naming the first relation that coeffs violate
    at linalg.TOL and giving that relation's own margin."""
    for name, margin in _relation_margins(coeffs, linalg.TOL):
        if not margin >= -linalg.TOL:
            raise error(f"{prefix} {name} (margin {margin:.3e})")


def extremal_coefficients(h) -> tuple[float, complex, complex, complex]:
    """(u, y, z, t) of h; raises NotExtremalError naming the first relation
    that validate_extremal finds violated at linalg.TOL."""
    coeffs = certify.canonical_coefficients(h)
    _require_relations(coeffs, NotExtremalError, "not a canonical extremal matrix:")
    return coeffs.u, coeffs.y, coeffs.z, coeffs.t


def params_from_choi(h) -> ExtremalParams:
    """Recover the parameter set of a matrix that validate_extremal passes."""
    u, y, z, t = extremal_coefficients(h)
    principal = derived_t(u, y, z, "+")
    branch = "+" if abs(t - principal) <= abs(t + principal) else "-"
    return ExtremalParams(u=u, y=y, z=z, t_branch=branch)


def random_params(rng: np.random.Generator) -> ExtremalParams:
    """Draw a valid parameter set from an explicit random generator.

    u is uniform on [0.05, 0.95] and |y| on [1e-3, sqrt(u) - 1e-3], so |y|
    and |z| = sqrt(u) - |y| stay off zero and the draws satisfy the split
    hypotheses; phases and the t branch are uniform.
    """
    u = float(rng.uniform(0.05, 0.95))
    root = float(np.sqrt(u))
    ymod = float(rng.uniform(1e-3, root - 1e-3))
    zmod = root - ymod
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2))
    branch = "+" if int(rng.integers(0, 2)) == 0 else "-"
    return ExtremalParams(u=u, y=ymod * phases[0], z=zmod * phases[1], t_branch=branch)
