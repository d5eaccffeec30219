"""Certificate record returned by every decision procedure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a numeric decision procedure.

    margin is a signed distance to the decision boundary in the test's own
    scale, -r for a residual r that should be zero; PASS requires margin >=
    -tol * max|H|**k for a margin of degree k in the entries of the input H
    (linalg.tol_bound).  On FAIL the witness is a unit vector, a (direction,
    compressed matrix) pair, or the name of the violated condition.
    """

    verdict: str
    margin: float
    witness: Any = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def __bool__(self) -> bool:
        return self.passed


def from_margins(margins, tol, passed_detail: str) -> Certificate:
    """Certificate for a list of (name, margin) conditions, each satisfied
    when margin >= -tol, with tol one bound or one per condition (so a NaN
    margin is violated): the smallest margin, and on FAIL the name of the
    first violated condition as witness and detail."""
    worst = float(np.min([v for _, v in margins]))
    bounds = tol if np.ndim(tol) else [tol] * len(margins)
    for (name, value), bound in zip(margins, bounds):
        if not value >= -bound:
            return Certificate(FAIL, worst, witness=name, detail=name)
    return Certificate(PASS, worst, detail=passed_detail)
