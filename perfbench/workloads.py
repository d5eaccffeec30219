"""Inputs, operations and output checks of the four workloads.

Each workload is a fixed list of items built from the run seed; one pass runs
every item once, in order. Outputs are checked against the benchmark's own
numpy code (reference.py) or against properties the method must have. A
checker returns a list of problems; an empty list means the output is right.

Item seeds are drawn from the run seed, so every pass repeats the same
operations on the same inputs.
"""

from __future__ import annotations

import io as _stdio
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from choikit import certify, cli, uniqueness

import reference as ref

# A verdict is unambiguous when the eigenvalue deciding it is this far from 0.
CLEAR = 1e-3
SCAN_SAMPLES = 1_000_000
EPSILON = 0.01
# Equality tolerance for identities the closed form satisfies exactly up to rounding.
EXACT = 1e-12


@dataclass
class Item:
    kind: str
    h: np.ndarray
    expect: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    # A known-faulty input: a wrong verdict on it counts as a failed op.
    known_fault: bool = False


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _gram(rng, k):
    g = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
    h = g @ g.conj().T
    return h / np.trace(h).real


def _conjugated_extremal(rng):
    """A random canonical extremal map under random local unitary conjugation."""
    return ref.local_conjugate(ref.extremal_choi(*_random_extremal(rng)),
                               ref.random_unitary(rng), ref.random_unitary(rng))


def _random_extremal(rng, u_range=(0.1, 0.9), share=(0.15, 0.85), branch=None):
    u = float(rng.uniform(*u_range))
    r = float(rng.uniform(*share))
    ph = np.exp(2j * np.pi * rng.uniform(size=2))
    if branch is None:
        branch = "+" if rng.integers(2) == 0 else "-"
    y = r * np.sqrt(u) * ph[0]
    z = (1.0 - r) * np.sqrt(u) * ph[1]
    return u, complex(y), complex(z), branch


# ---- certify_batch ------------------------------------------------------

CERTIFY_SHARES = (("cp", 25), ("ccp", 25), ("sum", 15), ("extremal", 15),
                  ("nonpositive", 15), ("near_boundary", 5))


def _clear(h):
    return all(abs(ref.lam_min(m)) >= CLEAR for m in (h, ref.partial_transpose(h)))


def _certify_item(rng, kind):
    """Draw until the eigenvalues deciding the verdicts are unambiguous."""
    while True:
        if kind in ("cp", "ccp"):
            h = _gram(rng, int(rng.integers(1, 5)))
            pt = ref.partial_transpose(h)
            if abs(ref.lam_min(pt)) < CLEAR:
                continue
            h = h if kind == "cp" else pt
            expect = {"positive": True, "cp": kind == "cp" or ref.lam_min(h) >= 0.0,
                      "ccp": kind == "ccp" or ref.lam_min(ref.partial_transpose(h)) >= 0.0}
            return Item(kind, h, expect)
        if kind == "sum":
            a = _gram(rng, int(rng.integers(1, 3)))
            b = _gram(rng, int(rng.integers(1, 3)))
            h = 0.5 * (a + ref.partial_transpose(b))
        elif kind == "extremal":
            h = _conjugated_extremal(rng)
        elif kind == "near_boundary":
            # An extremal map's compressed matrices have minimum eigenvalue
            # exactly 0 over all directions; subtracting gap*I shifts every
            # one by -gap, so the exact minimum is -gap.
            gap = float(rng.uniform(1e-5, 1e-4))
            h = _conjugated_extremal(rng) - gap * np.eye(4)
            return Item(kind, h, {"positive": False, "cp": False, "ccp": False}, {"min": -gap})
        else:
            # Strictly positive base minus a product-vector term: for x = w (x) v,
            # <w, C(v) w> = -gap for the compressed matrix C(v).
            h0 = 0.7 * _gram(rng, 4) + 0.3 * np.eye(4) / 4.0
            x = np.kron(_unit(rng, 2), _unit(rng, 2))
            gap = float(rng.uniform(0.02, 0.2))
            h = h0 - (float(np.vdot(x, h0 @ x).real) + gap) * np.outer(x, x.conj())
            return Item(kind, h, {"positive": False, "cp": False, "ccp": False})
        if _clear(h) and ref.lam_min(h) < 0 and ref.lam_min(ref.partial_transpose(h)) < 0:
            return Item(kind, h, {"positive": True, "cp": False, "ccp": False},
                        {"min": 0.0} if kind == "extremal" else {})


def fixed_scaled_items():
    """Scaled copies of known inputs. Positivity, CP and co-CP are cones, so
    the right verdict is the unscaled one; the library's absolute tolerances
    get these wrong, and they fail on every run whatever the seed."""
    minus_eye = -np.eye(4, dtype=np.complex128)
    bell = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0)
    rank_one = np.outer(bell, bell.conj())
    family = ref.extremal_choi(0.25, 0.25, 0.25, "+")  # the family instance s = 0.5
    cases = (("minus_eye*1e-12", 1e-12 * minus_eye, (False, False, False)),
             ("bell_rank_one*1e6", 1e6 * rank_one, (True, True, False)),
             ("family_0.5*1e8", 1e8 * family, (True, False, False)))
    return [Item("scaled:" + label, h, dict(zip(("positive", "cp", "ccp"), verdicts)),
                 known_fault=True) for label, h, verdicts in cases]


def certify_items(seed):
    rng = np.random.default_rng([seed, 1])
    items = [_certify_item(rng, kind) for kind, count in CERTIFY_SHARES for _ in range(count)]
    return items + fixed_scaled_items()


# choikit functions are looked up on their modules at every call, so the
# tracer's wrappers are seen.
def run_certify(item):
    return {"positive": certify.block_positive(item.h), "cp": certify.cp_check(item.h),
            "ccp": certify.ccp_check(item.h)}


def check_certify(item, out):
    problems = []
    h = item.h
    for name in ("positive", "cp", "ccp"):
        cert = out[name]
        if (cert.verdict == "PASS") != item.expect[name]:
            problems.append(f"{item.kind}: {name} verdict {cert.verdict}, expected "
                            f"{'PASS' if item.expect[name] else 'FAIL'}")
    if problems or item.known_fault:
        return problems
    for name, m in (("cp", h), ("ccp", ref.partial_transpose(h))):
        cert = out[name]
        if abs(cert.margin - ref.lam_min(m)) > 1e-9:
            problems.append(f"{item.kind}: {name} margin {cert.margin} != eigvalsh {ref.lam_min(m)}")
        if cert.verdict == "FAIL":
            wv = np.asarray(cert.witness).reshape(4)
            if abs(np.linalg.norm(wv) - 1.0) > 1e-9 or \
                    abs(np.vdot(wv, m @ wv).real - cert.margin) > 1e-9:
                problems.append(f"{item.kind}: {name} witness is not a unit eigenvector")
    bp = out["positive"]
    if "min" in item.extra and abs(bp.margin - item.extra["min"]) > 1e-9:
        problems.append(f"{item.kind}: positive margin {bp.margin} != exact minimum "
                        f"{item.extra['min']}")
    if bp.verdict == "FAIL":
        vec, mat = bp.witness
        cm = ref.compressed(h, vec)
        if abs(np.linalg.norm(vec) - 1.0) > 1e-9 or np.max(np.abs(cm - np.asarray(mat))) > 1e-9:
            problems.append(f"{item.kind}: positive witness matrix does not match its direction")
        elif ref.lam_min(cm) >= 0.0:
            problems.append(f"{item.kind}: positive witness matrix has no negative eigenvalue")
    return problems


# ---- decompose_cli ------------------------------------------------------

DECOMPOSE_ITEMS = 100


def _literal(v: complex) -> str:
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i"


def decompose_items(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    os.makedirs(workdir, exist_ok=True)
    items = []
    for k in range(DECOMPOSE_ITEMS):
        u, y, z, br = _random_extremal(rng, branch="+-"[k % 2])
        h = ref.extremal_choi(u, y, z, br)
        path = os.path.join(workdir, f"m{k:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref.matrix_json(h), fh)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        items.append(Item("extremal", h, extra={
            # `--y=` form: argparse takes a bare "-0.1+0.2i" for an option.
            "argv": ["generate", f"--u={u!r}", f"--y={_literal(y)}", f"--z={_literal(z)}",
                     f"--t-branch={br}"],
            "path": path, "a": a}))
    return items


def cli_call(argv):
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def run_decompose(item):
    return {"generate": cli_call(item.extra["argv"]),
            "decompose": cli_call(["decompose", item.extra["path"]])}


def check_decompose(item, out):
    problems = []
    for step in ("generate", "decompose"):
        if out[step][0] != 0:
            problems.append(f"{step} exited {out[step][0]}")
    if problems:
        return problems
    gen = json.loads(out["generate"][1])["results"]
    g = ref.matrix_from(gen["matrix"])
    if ref.extremal_residual(g) > EXACT or np.max(np.abs(g - item.h)) > EXACT:
        problems.append("generated matrix breaks the paper's relations")
    res = json.loads(out["decompose"][1])["results"]
    h1, h2, u1, u2 = (ref.matrix_from(res[k]) for k in ("H1", "H2", "U1", "U2"))
    h = item.h
    if np.max(np.abs(h1 + h2 - h)) > EXACT:
        problems.append("H1 + H2 differs from the input")
    h2pt = ref.partial_transpose(h2)
    if not (ref.is_psd(h1) and ref.rank(h1) == 1):
        problems.append("H1 is not PSD of rank one")
    if not (ref.is_psd(h2pt) and ref.rank(h2pt) == 1):
        problems.append("H2 partial transpose is not PSD of rank one")
    if np.max(np.abs(u1 @ u1.conj().T + u2 @ u2.conj().T - np.eye(2))) > EXACT:
        problems.append("U1U1* + U2U2* != I")
    a = item.extra["a"]
    action = u1 @ a @ u1.conj().T + u2 @ a.T @ u2.conj().T
    if np.max(np.abs(action - ref.apply_map(h, a))) > 1e-11:
        problems.append("A -> U1 A U1* + U2 A^T U2* does not reproduce the input map")
    if res["verify"]["verdict"] != "PASS":
        problems.append("decompose verify is not PASS")
    return problems


# ---- explore_unique / explore_boundary ----------------------------------

def unique_items(seed):
    """The family instance s = 0.5 and two seeded random parameter sets.

    The random sets draw |y|/sqrt(u) from [0.05, 0.15] and [0.85, 0.95]. For
    shares in [0.2, 0.8], and for other family instances, the scan's local
    grid is centred on the canonical split, and on some inputs the report
    then counts that one point twice (feasible_count 2, diameter ~1e-17).
    That fails only on some seeds, so those inputs are left out; CHANGES.md
    has the FOUND line."""
    rng = np.random.default_rng([seed, 3])
    family = ref.extremal_choi(0.25, 0.25, 0.25, "+")
    hs = [family] + [ref.extremal_choi(*_random_extremal(rng, u_range=(0.15, 0.85),
                                                         share=share, branch=br))
                     for share, br in (((0.05, 0.15), "+"), ((0.85, 0.95), "-"))]
    return [Item("unique", h, extra={"seed": int(rng.integers(2**31))}) for h in hs]


def boundary_items(seed):
    rng = np.random.default_rng([seed, 4])
    z = complex(rng.uniform(0.3, 0.8) * np.exp(2j * np.pi * rng.uniform()))
    y = complex(rng.uniform(0.3, 0.8) * np.exp(2j * np.pi * rng.uniform()))
    hs = (("u_zero", ref.extremal_choi(0.0, 0.0, 0.0, "+")),
          ("y_zero", ref.extremal_choi(abs(z) ** 2, 0.0, z, "+")),
          ("z_zero", ref.extremal_choi(abs(y) ** 2, y, 0.0, "+")))
    return [Item(kind, h, extra={"seed": int(rng.integers(2**31))}) for kind, h in hs]


def run_unique(item):
    return uniqueness.uniqueness_search(item.h, samples=SCAN_SAMPLES, seed=item.extra["seed"])


def run_boundary(item):
    return (uniqueness.uniqueness_search(item.h, samples=SCAN_SAMPLES, seed=item.extra["seed"]),
            uniqueness.epsilon_family(item.h, EPSILON))


def check_unique(item, report):
    problems = []
    if report.feasible_count != 1:
        problems.append(f"feasible_count {report.feasible_count} != 1")
    if report.alternates:
        problems.append(f"{len(report.alternates)} alternates on a unique input")
    if report.diameter != 0.0:
        problems.append(f"diameter {report.diameter} != 0")
    canon = report.canonical.vector()
    if np.max(np.abs(canon - ref.closed_form_split(item.h))) > EXACT:
        problems.append("canonical candidate differs from the closed-form split")
    if not ref.split_is_valid(item.h, canon):
        problems.append("canonical candidate's parts are not CP + co-CP")
    return problems


def check_boundary(item, out):
    report, (remainder, shift) = out
    problems = []
    if not report.alternates:
        problems.append(f"{item.kind}: no alternates on a boundary input")
    for cand in [report.canonical] + [c for c, _ in report.alternates]:
        if not ref.split_is_valid(item.h, cand.vector()):
            problems.append(f"{item.kind}: candidate {cand} is not CP + co-CP")
            break
    if np.max(np.abs(remainder + shift - item.h)) > EXACT:
        problems.append(f"{item.kind}: remainder + shift differs from the input")
    if not (ref.is_psd(shift) and ref.is_psd(ref.partial_transpose(shift))):
        problems.append(f"{item.kind}: shift is not both PSD and PT-PSD")
    return problems


def work_counts(out) -> dict:
    """Work counts read off an op's public output, for the traced run."""
    if isinstance(out, tuple):
        out = out[0]
    if hasattr(out, "grid_points"):
        return {"candidates": out.grid_points + out.samples, "feasible": out.feasible_count}
    if isinstance(out, dict) and "decompose" in out:
        return {"report_bytes": len(out["generate"][1]) + len(out["decompose"][1])}
    return {}


@dataclass(frozen=True)
class Workload:
    items: Callable[[int, str], list]  # (seed, workdir) -> the items of one pass
    run: Callable[[Item], Any]
    check: Callable[[Item, Any], list]
    # Seconds one pass took on the reference machine, at the slow end of its
    # passes; it sizes the fixed number of passes a run makes (see worker.py).
    pass_s: float
    # Short, interpreter-bound ops: their times are scaled to the reference
    # CPU speed by calibration slices run between them (calibration.py).
    # The scans' large-array ops barely feel the host's speed swings that
    # move the slices 2x, so scaling them would add noise, not remove it.
    calibrated: bool


WORKLOADS = {
    "certify_batch": Workload(lambda seed, _: certify_items(seed), run_certify,
                              check_certify, 1.6, True),
    # The only workload that uses workdir: its matrix files are written there.
    "decompose_cli": Workload(decompose_items, run_decompose, check_decompose, 0.8, True),
    "explore_unique": Workload(lambda seed, _: unique_items(seed), run_unique,
                               check_unique, 5.4, False),
    "explore_boundary": Workload(lambda seed, _: boundary_items(seed), run_boundary,
                                 check_boundary, 2.4, False),
}
