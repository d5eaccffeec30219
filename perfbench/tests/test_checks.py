"""The benchmark's output checks are live: each flags one corrupted output.

Run from the repository root with `python3 -m pytest -q perfbench/tests`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    a = workloads.certify_items(5)
    b = workloads.certify_items(5)
    c = workloads.certify_items(6)
    assert all(np.array_equal(x.h, y.h) for x, y in zip(a, b))
    assert not np.array_equal(a[0].h, c[0].h)
    d1 = workloads.decompose_items(5, str(tmp_path / "one"))
    d2 = workloads.decompose_items(5, str(tmp_path / "two"))
    assert [x.extra["argv"] for x in d1] == [x.extra["argv"] for x in d2]
    assert {x.extra["argv"][-1] for x in d1} == {"--t-branch=+", "--t-branch=-"}


def test_certify_classes_match_eigvalsh():
    for item in workloads.certify_items(3):
        if item.known_fault:
            continue
        assert item.expect["cp"] == (ref.lam_min(item.h) >= -ref.PSD_SLACK)
        assert item.expect["ccp"] == (ref.lam_min(ref.partial_transpose(item.h)) >= -ref.PSD_SLACK)


def test_certify_flags_a_flipped_verdict():
    item = next(i for i in workloads.certify_items(3) if i.kind == "near_boundary")
    out = workloads.run_certify(item)
    assert workloads.check_certify(item, out) == []
    for name in ("positive", "cp", "ccp"):
        cert = out[name]
        flipped = dataclasses.replace(cert, verdict="PASS" if cert.verdict == "FAIL" else "FAIL")
        problems = workloads.check_certify(item, dict(out, **{name: flipped}))
        assert any(f"{name} verdict" in p for p in problems)


def test_certify_flags_a_witness_that_does_not_match_its_direction():
    item = next(i for i in workloads.certify_items(3) if i.kind == "nonpositive")
    out = workloads.run_certify(item)
    vec, mat = out["positive"].witness
    bad = dataclasses.replace(out["positive"], witness=(vec, np.eye(2)))
    problems = workloads.check_certify(item, dict(out, positive=bad))
    assert problems == ["nonpositive: positive witness matrix does not match its direction"]


def test_certify_flags_a_witness_without_a_violation():
    # A consistent witness (v, C(v)) whose compressed matrix C(v) is PSD.
    item = next(i for i in workloads.certify_items(3) if i.kind == "nonpositive")
    out = workloads.run_certify(item)
    rng = np.random.default_rng(0)
    while True:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        if ref.lam_min(ref.compressed(item.h, v)) > 0.0:
            break
    bad = dataclasses.replace(out["positive"], witness=(v, ref.compressed(item.h, v)))
    problems = workloads.check_certify(item, dict(out, positive=bad))
    assert problems == ["nonpositive: positive witness matrix has no negative eigenvalue"]


def test_scaled_copies_are_judged_by_their_unscaled_verdicts():
    # Whatever choikit returns on a scaled copy, the checker accepts the
    # unscaled verdicts and flags any other.
    for item in workloads.fixed_scaled_items():
        out = workloads.run_certify(item)
        right = {name: dataclasses.replace(
            out[name], verdict="PASS" if item.expect[name] else "FAIL") for name in out}
        assert workloads.check_certify(item, right) == []
        for name in out:
            wrong = dict(right, **{name: dataclasses.replace(
                right[name], verdict="FAIL" if item.expect[name] else "PASS")})
            assert any(f"{name} verdict" in p for p in workloads.check_certify(item, wrong))


def test_decompose_flags_a_perturbed_h1(tmp_path):
    item = workloads.decompose_items(4, str(tmp_path))[0]
    out = workloads.run_decompose(item)
    assert workloads.check_decompose(item, out) == []
    report = json.loads(out["decompose"][1])
    report["results"]["H1"]["rows"][0][0][0] += 1e-6
    bad = dict(out, decompose=(0, json.dumps(report)))
    assert "H1 + H2 differs from the input" in workloads.check_decompose(item, bad)


def test_decompose_flags_a_nonzero_exit(tmp_path):
    item = workloads.decompose_items(4, str(tmp_path))[1]
    out = workloads.run_decompose(item)
    assert workloads.check_decompose(item, dict(out, generate=(2, ""))) == ["generate exited 2"]


def test_unique_flags_a_second_feasible_point():
    item = workloads.unique_items(2)[0]
    report = workloads.run_unique(item)
    assert workloads.check_unique(item, report) == []
    bad = dataclasses.replace(report, feasible_count=2)
    assert workloads.check_unique(item, bad) == ["feasible_count 2 != 1"]


def test_boundary_flags_an_infeasible_alternate():
    item = next(i for i in workloads.boundary_items(2) if i.kind == "y_zero")
    report, eps = workloads.run_boundary(item)
    assert workloads.check_boundary(item, (report, eps)) == []
    cand, dist = report.alternates[0]
    wrong = dataclasses.replace(cand, b1=cand.b1 + 0.5)
    bad = dataclasses.replace(report, alternates=((wrong, dist),) + report.alternates[1:])
    assert any("is not CP + co-CP" in p for p in workloads.check_boundary(item, (bad, eps)))


def test_tracer_catches_calls_within_and_between_modules():
    from choikit import linalg

    original = linalg.psd_check
    item = workloads.certify_items(3)[0]
    tr = tracer.Tracer()
    tr.install()
    try:
        workloads.run_certify(item)
    finally:
        tr.uninstall()
    assert linalg.psd_check is original
    totals = tr.totals()
    assert totals["certify.cp_check"][0] == 1
    assert totals["linalg.psd_check"][0] == 2  # certify -> linalg
    assert totals["linalg.require_hermitian"][0] == 3  # linalg -> linalg, certify -> linalg
    metrics = tr.metrics(ops=1)
    assert metrics["certify.calls_per_op"] == 3
    assert metrics["certify.self_ms_per_op"] > 0
