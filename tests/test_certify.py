import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import choikit as ck
from choikit import certify, choi, linalg
from choikit.certificate import FAIL, PASS, Certificate
from choikit.errors import ChoiKitError, NotCanonicalFormError, NotHermitianError

from conftest import (haar_unitary, random_canonical_matrix, random_hermitian, random_mixture,
                      random_unitary_conjugation_choi)

E1 = np.array([1.0, 0.0], dtype=np.complex128)
E2 = np.array([0.0, 1.0], dtype=np.complex128)


def identity_map_choi() -> np.ndarray:
    return ck.choi_from_action(lambda a: a)


GRID_SHAPE = (300, 600)


def grid_minimum(h: np.ndarray) -> float:
    """Smallest eigenvalue of [<v, block_ij v>] over a (theta, phi) grid of
    directions v = (cos(theta/2), e^{i phi} sin(theta/2)).

    Every Bloch vector lies within pi/299 of a grid point, and the smallest
    eigenvalue is Frobenius-norm(h)-Lipschitz in the Bloch vector, so the
    grid minimum exceeds the true one by at most norm(h) * pi / 299.
    """
    theta = np.linspace(0.0, np.pi, GRID_SHAPE[0])[:, None]
    phi = np.linspace(0.0, 2.0 * np.pi, GRID_SHAPE[1], endpoint=False)[None, :]
    v0 = np.cos(theta / 2)
    v1 = np.sin(theta / 2) * np.exp(1j * phi)

    def form(i, j):
        b = choi.block(h, i, j)
        return (v0 * v0 * b[0, 0] + v0 * v1 * b[0, 1] + v0 * np.conj(v1) * b[1, 0]
                + np.abs(v1) ** 2 * b[1, 1])

    qa, qb, qd = form(0, 0).real, form(0, 1), form(1, 1).real
    return float(np.min(0.5 * (qa + qd) - np.hypot(0.5 * (qa - qd), np.abs(qb))))


def assert_valid_witness(h, cert) -> None:
    """A FAIL witness of block_positive is a unit direction and its compressed
    matrix, whose smallest eigenvalue is the margin (all within 1e-12 max|h|)."""
    vec, mat = cert.witness
    bound = 1e-12 * np.abs(h).max()
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    compressed = [[np.vdot(vec, choi.block(h, i, j) @ vec) for j in range(2)] for i in range(2)]
    assert np.abs(mat - np.array(compressed)).max() <= bound
    assert abs(np.linalg.eigvalsh(mat)[0] - cert.margin) <= bound


def gapped_extremal(rng) -> tuple[np.ndarray, float]:
    """An extremal map, whose compressed matrices have minimum eigenvalue
    exactly 0, shifted by -gap * I, so the exact minimum is -gap."""
    gap = float(rng.uniform(-0.5, 0.5))
    return ck.build_extremal(ck.random_params(rng)) - gap * np.eye(4), gap


def transpose_conjugation_choi(rng) -> np.ndarray:
    v = haar_unitary(rng)
    return ck.choi_from_action(lambda a: v @ a.T @ v.conj().T)


CANONICAL_KINDS = ("psd", "psd_z", "generic", "boundary")
SCALED = given(st.integers(0, 2**32 - 1), st.floats(-12.0, 12.0))


def clear_verdict(check, h) -> str:
    """The verdict of check on h, for an h outside the tolerance band: one
    whose verdict is the same at tol 1e-14 and at tol 1e-6."""
    verdict = check(h).verdict
    assume(check(h, tol=1e-14).verdict == verdict == check(h, tol=1e-6).verdict)
    return verdict


BLOCK_INPUTS = {
    "hermitian": random_hermitian,
    "mixture": random_mixture,
    "transpose_conjugation": transpose_conjugation_choi,
    "extremal_minus_gap": lambda rng: gapped_extremal(rng)[0],
}


def test_a_certificate_is_true_iff_it_passed():
    assert bool(Certificate(PASS, 0.0)) is True
    assert bool(Certificate(FAIL, -1.0, witness="A1")) is False


class TestBlockPositive:
    def test_identity_map_passes(self):
        assert ck.block_positive(identity_map_choi()).passed

    def test_example_instances_pass(self):
        cert = ck.block_positive(ck.example_family(0.5))
        assert cert.passed
        assert cert.margin >= -1e-10

    def test_negation_map_fails_with_witness(self):
        h = ck.choi_from_action(lambda a: -a)
        cert = ck.block_positive(h)
        assert not cert.passed
        assert_valid_witness(h, cert)
        assert cert.margin <= -1.0 + 1e-9

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 2] = 0.5
        with pytest.raises(NotHermitianError):
            ck.block_positive(m)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(21)
        h = random_mixture(rng)
        first = ck.block_positive(h)
        second = ck.block_positive(h)
        assert first.margin == second.margin
        assert first.verdict == second.verdict

    def test_soundness_on_random_positive_maps(self):
        # unitary-conjugation maps plus CP + co-CP sums are positive, so the
        # certifier must PASS them; CP PASS also forces block-positive PASS
        rng = np.random.default_rng(22)
        for k in range(1000):
            h = random_unitary_conjugation_choi(rng) + random_mixture(rng)
            cert = ck.block_positive(h, tol=1e-8)
            assert cert.passed, (k, cert.margin)
            if ck.cp_check(h, tol=1e-10).passed:
                assert cert.passed

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("kind", sorted(BLOCK_INPUTS))
    def test_margin_is_the_grid_minimum_up_to_grid_error(self, kind, scale):
        rng = np.random.default_rng([26, sorted(BLOCK_INPUTS).index(kind)])
        for _ in range(4):
            h = scale * BLOCK_INPUTS[kind](rng)
            h = 0.5 * (h + h.conj().T)
            margin = ck.block_positive(h).margin
            grid = grid_minimum(h)
            norm = float(np.linalg.norm(h))
            assert margin <= grid + 1e-12 * norm
            assert margin >= grid - norm * np.pi / (GRID_SHAPE[0] - 1)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_margin_is_minus_the_gap_below_an_extremal_map(self, scale):
        rng = np.random.default_rng(27)
        for _ in range(100):
            h, gap = gapped_extremal(rng)
            cert = ck.block_positive(scale * h)
            assert abs(cert.margin / scale + gap) <= 1e-12
            assert cert.passed == (gap <= 0.0)

    @pytest.mark.parametrize("check", [ck.block_positive, ck.cp_check, ck.ccp_check])
    def test_a_tiny_negative_direction_is_refused_not_passed(self, check):
        # unguarded, block_positive PASSes diag(1, -1, 1, 1) * 1e-170 with margin 5e-171
        h = np.diag([1.0, -1.0, 1.0, 1.0])
        cert = check(1e-100 * h)
        assert (cert.verdict, cert.margin) == ("FAIL", pytest.approx(-1e-100, rel=1e-12))
        with pytest.raises(ChoiKitError, match=r"are too small: their cubes underflow"):
            check(1e-170 * h)
        assert check(np.zeros((4, 4))).passed

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_margin_is_invariant_under_unitary_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng) if seed % 2 else random_mixture(rng)
        moved = ck.conjugate(h, haar_unitary(rng), haar_unitary(rng))
        moved = 0.5 * (moved + moved.conj().T)
        assert ck.block_positive(moved).margin == \
            pytest.approx(ck.block_positive(h).margin, abs=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @SCALED
    def test_verdict_does_not_depend_on_the_scale(self, seed, exponent):
        h, _ = gapped_extremal(np.random.default_rng(seed))
        verdict = clear_verdict(ck.block_positive, h)
        assert ck.block_positive(10.0 ** exponent * h).verdict == verdict

    @settings(derandomize=True, max_examples=60, deadline=None)
    @SCALED
    def test_verdict_and_margin_are_unchanged_under_partial_transpose(self, seed, exponent):
        # local unitaries keep the exact minimum -gap; the conjugated matrix
        # is Hermitian only up to rounding
        rng = np.random.default_rng(seed)
        h, gap = gapped_extremal(rng)
        assume(abs(gap) > 1e-6)
        h = 10.0 ** exponent * ck.conjugate(h, haar_unitary(rng), haar_unitary(rng))
        cert = ck.block_positive(h)
        moved = ck.block_positive(ck.partial_transpose(h))
        assert cert.verdict == moved.verdict == ("PASS" if gap < 0.0 else "FAIL")
        assert moved.margin == pytest.approx(cert.margin, abs=1e-12 * np.max(np.abs(h)))


# block_positive as it was on LAPACK's eigh and BLAS dot products, kept as an
# independent reference: the Python-float path must give its verdicts, its
# margins within rounding, and valid witnesses.
_REF_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_REF_MAX_STEPS = 100


def _reference_sphere_argmin(alpha, gamma):
    delta = alpha - alpha[0]
    live = gamma != 0.0  # a zero gamma_i gives x_i = 0, even where delta_i + s = 0
    s = max(0.0, float(np.max(np.abs(gamma) - delta)))
    for _ in range(_REF_MAX_STEPS):
        den = np.where(live, delta + s, 1.0)
        x = -gamma / den
        norm2 = float(x @ x)
        if not norm2 > 1.0:
            break
        s_next = s + norm2 * (np.sqrt(norm2) - 1.0) / float(x @ (x / den))
        if not s_next > s:
            break
        s = s_next
    if s == 0.0:
        x[0] = np.sqrt(max(0.0, 1.0 - norm2))
    return x / np.linalg.norm(x)


def _reference_block_positive(h, tol=linalg.TOL):
    harr, scale = linalg.require_hermitian(linalg.as_matrix(h, 4))
    r = np.einsum("aji,blk,ikjl->ab", _REF_PAULI, _REF_PAULI, harr.reshape(2, 2, 2, 2)).real
    p, q, pm = r[0, 1:], r[1:, 0], r[1:, 1:]
    alpha, basis = np.linalg.eigh(np.outer(p, p) - pm.T @ pm)
    along_p, fixed = basis.T @ p, basis.T @ (pm.T @ q)
    margin = 0.25 * float(r[0, 0] - np.linalg.norm(p))
    for _ in range(_REF_MAX_STEPS):
        bloch = basis @ _reference_sphere_argmin(alpha, (r[0, 0] - 4.0 * margin) * along_p - fixed)
        rb = r @ np.concatenate(([1.0], bloch))
        lowest = 0.25 * float(rb[0] - np.linalg.norm(rb[1:]))
        if not lowest < margin:
            break
        margin = lowest

    detail = "min lambda_min over directions"
    if margin >= -tol * scale:
        return Certificate(PASS, margin, detail=detail)
    theta, phi = np.arctan2(np.hypot(bloch[0], bloch[1]), bloch[2]), np.arctan2(bloch[1], bloch[0])
    vec = np.array([np.cos(0.5 * theta), np.sin(0.5 * theta) * np.exp(1j * phi)])
    frame = np.kron(np.eye(2), vec[:, None])
    return Certificate(FAIL, margin, witness=(vec, frame.conj().T @ harr @ frame), detail=detail)


def oracle_corpus() -> list:
    """Random Hermitian matrices at scales 1e-9..1e9 and their partial
    transposes, Gram (CP) matrices of rank 1 and 2 and theirs, the example family shifted by
    +-1e-6 I and scaled by 1e6, the boundary cases, twenty inputs Hermitian only to within
    rounding, four dyadic Pauli tables, six with a minimiser near a pole, +-I, 0 and a
    diagonal."""
    rng = np.random.default_rng(2024)
    corpus = []
    for k in range(120):
        h = random_hermitian(rng) * 10.0 ** rng.uniform(-9.0, 9.0)
        g = rng.normal(size=(4, 1 + k % 2)) + 1j * rng.normal(size=(4, 1 + k % 2))
        corpus += [h, choi.partial_transpose(h), g @ g.conj().T, choi.partial_transpose(g @ g.conj().T)]
    for s in np.linspace(0.05, 0.95, 19):
        h = ck.example_family(float(s))
        corpus += [h, h + 1e-6 * np.eye(4), h - 1e-6 * np.eye(4), 1e6 * h]
    corpus += [ck.degenerate_case("u_zero"), ck.degenerate_case("y_zero", z=0.5),
               ck.degenerate_case("z_zero", y=0.5)]
    # Hermitian only to within rounding, as after a local unitary conjugation
    noise = np.random.default_rng(2025)
    for h in corpus[:80:4]:
        skew = noise.normal(size=(4, 4)) + 1j * noise.normal(size=(4, 4))
        corpus.append(h + 1e-13 * np.abs(h).max() * skew)
    # Dyadic Pauli tables, exact in h and back.  The quadratic form -pm.T @ pm is diagonal
    # with bottom axis 3, where p_3 = q_3 = 0 gives gamma_0 = 0 exactly under any BLAS
    # kernel, and |x(0)| > 1: the 0 / 0 of a dead entry outside the hard case.
    for r00, p1 in ((4.0, 0.0), (4.0, 0.25), (1.0, 0.0), (1.0, 0.25)):
        r = np.diag([r00, 0.5, 0.5, 1.0])
        r[0, 1], r[1:3, 0] = p1, 1.25
        corpus.append(0.25 * np.einsum("ab,aij,bkl->ikjl", r, _REF_PAULI, _REF_PAULI).reshape(4, 4))
    # R = I but for its first row (1/2, c), c = pole * (-eps cos 0.3, -eps sin 0.3, 1): the
    # minimising Bloch vector -c / |c| lies within eps of a pole, where a modulus of the witness
    # direction read off b_2 alone, as sqrt((1 - |b_2|) / 2), is off by up to 2^-26
    for eps in (1e-9, 1e-8, 1e-7):
        for pole in (1.0, -1.0):
            r = np.eye(4)
            r[0] = 0.5, -pole * eps * np.cos(0.3), -pole * eps * np.sin(0.3), pole
            corpus.append(0.25 * np.einsum("ab,aij,bkl->ikjl", r, _REF_PAULI, _REF_PAULI).reshape(4, 4))
    return corpus + [np.eye(4), -np.eye(4), np.zeros((4, 4)), np.diag([1.0, -2.0, 3.0, 0.5])]


# A child process that prints the block_positive margins of the matrices saved in argv[1].
MARGINS_CHILD = ("import sys, numpy as np, choikit as ck; "
                 "print(*(float(ck.block_positive(h).margin).hex() for h in np.load(sys.argv[1])))")


class TestBlockPositiveOracle:
    def test_agrees_with_the_reference_implementation(self, monkeypatch):
        calls = []
        argmin = certify._sphere_argmin
        monkeypatch.setattr(certify, "_sphere_argmin",
                            lambda *args: calls.append(args) or argmin(*args))
        for h in oracle_corpus():
            got, want = ck.block_positive(h), _reference_block_positive(h)
            assert (got.verdict, got.detail) == (want.verdict, want.detail)
            assert abs(got.margin - want.margin) <= 8.0 * 2.0 ** -52 * np.abs(h).max()
            if got.passed:
                assert got.witness is None
            else:  # not the reference's witness: a minimiser can be tied (example_family - 1e-6 I)
                assert_valid_witness(h, got)
        # The start shift is max(0, max(|gamma_i| - delta_i)), and delta >= 0, so a
        # zero start means gamma_0 = 0 over delta_0 = 0: the dead entry's 0 / 0.
        # The shift stays 0 (the hard case) iff |x(0)| <= 1, with x_i(0) = 0 there.
        zero_den = hard = 0
        for args in calls:
            delta, gamma = np.array((0.0, *args[:2])), np.array(args[2:])
            if np.max(np.abs(gamma) - delta) <= 0.0:
                zero_den += 1
                live = gamma != 0.0
                hard += float(np.sum((gamma[live] / delta[live]) ** 2)) <= 1.0
        assert 0 < hard < zero_den


class TestBlockPositiveExactness:
    def test_margins_have_the_same_bytes_under_another_blas_kernel(self, tmp_path):
        # inputs built without BLAS; the child runs on OpenBLAS's Nehalem kernel (no FMA),
        # or on the default one where this process already runs on Nehalem's
        rng = np.random.default_rng(33)
        hs = [random_hermitian(rng) for _ in range(100)]
        hs += [choi.partial_transpose(h) for h in hs]
        np.save(tmp_path / "inputs.npy", np.array(hs))
        env = dict(os.environ, PYTHONPATH=str(Path(ck.__file__).resolve().parents[1]))
        if env.pop("OPENBLAS_CORETYPE", None) != "Nehalem":
            env["OPENBLAS_CORETYPE"] = "Nehalem"
        child = subprocess.run([sys.executable, "-c", MARGINS_CHILD, str(tmp_path / "inputs.npy")],
                               env=env, capture_output=True, text=True, check=True)
        assert child.stdout.split() == [float(ck.block_positive(h).margin).hex() for h in hs]

    @pytest.mark.parametrize("k", [-300, -208, -100, 100, 240, 300])
    def test_verdict_and_margin_scale_exactly_by_powers_of_two(self, k):
        rng = np.random.default_rng(34)
        hs = [make(rng) for make in (random_hermitian, random_mixture) for _ in range(30)]
        hs += [gapped_extremal(rng)[0] for _ in range(30)]
        verdicts = set()
        for h in hs:
            cert, scaled = ck.block_positive(h), ck.block_positive(math.ldexp(1.0, k) * h)
            assert (scaled.verdict, scaled.margin) == (cert.verdict, math.ldexp(cert.margin, k))
            verdicts.add(cert.verdict)
        assert verdicts == {PASS, FAIL}

class TestCpCcp:
    def test_bits_equal_column_0_of_the_symmetrized_eigendecomposition(self):
        # pins the bytes through any trim of the input validation in front of eigh
        for h in oracle_corpus():
            m = np.array(h, dtype=np.complex128)
            swapped = m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
            for check, mat in ((ck.cp_check, m), (ck.ccp_check, swapped)):
                w, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
                cert = check(h)
                assert np.float64(cert.margin).tobytes() == w[0].tobytes()
                want = None if cert.passed else vecs[:, 0].tobytes()
                assert (None if cert.witness is None else cert.witness.tobytes()) == want

    def test_cp_degenerate_matrix_passes(self):
        assert ck.cp_check(ck.degenerate_case("z_zero", y=0.5)).passed

    def test_ccp_degenerate_matrix_fails_cp_via_determinant(self):
        h = ck.degenerate_case("y_zero", z=0.5)
        assert not ck.cp_check(h).passed
        a, _, u, _, y, z, _ = ck.canonical_coefficients(h)
        det = np.linalg.det(h)
        assert det.real == pytest.approx(-abs(z) ** 2 * (a * u - abs(y) ** 2), abs=1e-12)
        assert det.real < 0

    def test_degenerate_classes(self):
        assert ck.ccp_check(ck.degenerate_case("y_zero", z=0.5)).passed
        h0 = ck.degenerate_case("u_zero")
        assert ck.cp_check(h0).passed and ck.ccp_check(h0).passed

    def test_example_instance_fails_both(self):
        h = ck.example_family(0.5)
        assert not ck.cp_check(h).passed
        assert not ck.ccp_check(h).passed

    def test_ccp_is_cp_of_partial_transpose(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = 0.5 * (g + g.conj().T)
            lhs = ck.ccp_check(m)
            rhs = ck.cp_check(ck.partial_transpose(m))
            assert lhs.verdict == rhs.verdict
            assert lhs.margin == rhs.margin

    @settings(derandomize=True, max_examples=60, deadline=None)
    @SCALED
    def test_verdicts_do_not_depend_on_the_scale(self, seed, exponent):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng) if seed % 2 else random_mixture(rng)
        for check in (ck.cp_check, ck.ccp_check):
            assert check(10.0 ** exponent * h).verdict == clear_verdict(check, h), check

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_margins_and_verdicts_are_unchanged_under_local_unitaries(self, seed):
        # conjugate is a unitary conjugation of the matrix, and one of its
        # partial transpose too; the moved matrix is Hermitian up to rounding
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng) if seed % 2 else random_mixture(rng)
        moved = ck.conjugate(h, haar_unitary(rng), haar_unitary(rng))
        for check in (ck.cp_check, ck.ccp_check):
            cert = check(moved)
            assert cert.margin == pytest.approx(check(h).margin, abs=1e-12 * np.max(np.abs(h)))
            assert cert.verdict == clear_verdict(check, h), check


class TestFaceMembership:
    def test_extremal_form_lies_in_canonical_face(self):
        h = ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.25, z=0.25))
        cert = ck.face_membership(h, E2, E1)
        assert cert.passed
        assert cert.margin >= -1e-12

    def test_identity_map_in_canonical_face(self):
        assert ck.face_membership(identity_map_choi(), E2, E1).passed

    def test_identity_map_not_in_swapped_face(self):
        cert = ck.face_membership(identity_map_choi(), E2, E2)
        assert not cert.passed
        assert cert.margin == pytest.approx(-1.0, abs=1e-12)


class TestCanonicalMatrix:
    def test_it_inverts_canonical_coefficients(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            a, b, u = rng.normal(size=3)
            c, y, z, t = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs = certify.CanonicalCoefficients(a, b, u, c, y, z, t)
            assert ck.canonical_coefficients(certify.canonical_matrix(*coeffs)) == coeffs

    @pytest.mark.parametrize("coeffs", [
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        (1.0, 0.5, 0.5, 0.0, 0.3 - 0.4j, 0.0, 0.0),
        (1.0, 0.75, 0.25, 0.0, 0.0, -0.5j, 0.0),
        (0.5, 0.25, 0.0, 0.1j, 0.0, 0.0, 0.0),
    ])
    def test_zero_coefficients_round_trip_and_mirror_to_positive_zero(self, coeffs):
        h = certify.canonical_matrix(*coeffs)
        assert ck.canonical_coefficients(h) == certify.CanonicalCoefficients(*coeffs)
        for (i, j), value in zip([(0, 1), (0, 3), (2, 1), (1, 3)], coeffs[3:]):
            if isinstance(value, float) and value == 0.0:
                mirror = h[j, i]
                assert mirror == 0.0 and not np.signbit(mirror.real) and not np.signbit(mirror.imag)
        # everything off the seven coefficients and their mirrors is +0.0
        fixed = h[[0, 2, 2, 2, 3], [2, 0, 2, 3, 2]]
        assert not np.any(fixed) and not np.any(np.signbit(fixed.view(float)))


class TestCanonicalConditions:
    def test_cp_degenerate_passes_all_five(self):
        cert = ck.canonical_cp_conditions(ck.degenerate_case("z_zero", y=0.5))
        assert cert.passed

    def test_example_instance_fails_at_first_condition(self):
        cert = ck.canonical_cp_conditions(ck.example_family(0.5))
        assert not cert.passed
        assert cert.detail == "A1"
        assert cert.margin == pytest.approx(-0.25, abs=1e-12)

    def test_split_part_passes_at_rank_one_boundary(self):
        pair = ck.decompose_extremal(ck.example_family(0.5))
        cert = ck.canonical_cp_conditions(pair.h1)
        assert cert.passed
        a, b, u, c, y, z, t = ck.canonical_coefficients(pair.h1)
        assert a * u - abs(y) ** 2 == pytest.approx(0.0, abs=1e-12)
        assert b * u - abs(t) ** 2 == pytest.approx(0.0, abs=1e-12)
        assert a * b - abs(c) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_ccp_conditions_mirror(self):
        assert ck.canonical_ccp_conditions(ck.degenerate_case("y_zero", z=0.5)).passed
        pair = ck.decompose_extremal(ck.example_family(0.5))
        assert ck.canonical_ccp_conditions(pair.h2).passed
        cert = ck.canonical_ccp_conditions(ck.degenerate_case("z_zero", y=0.5))
        assert not cert.passed
        assert cert.detail == "B1"

    def test_off_pattern_matrix_rejected(self):
        m = np.eye(4, dtype=complex)
        m[2, 2] = 1.0  # the (2,2) slot must be zero in the canonical pattern
        with pytest.raises(NotCanonicalFormError):
            ck.canonical_cp_conditions(m)

    @pytest.mark.parametrize("check", [
        ck.canonical_cp_conditions, ck.canonical_ccp_conditions, ck.face_form_inequalities,
        ck.validate_extremal, ck.block_positive, ck.cp_check, ck.ccp_check])
    def test_entries_whose_cubes_overflow_raise_a_choikit_error(self, check):
        # unguarded, abs(y) ** 2 of 1e300 raises OverflowError; below ~2.8e102 the cubes fit
        h = ck.degenerate_case("z_zero", y=0.5)
        check(1e100 * h)
        with pytest.raises(ChoiKitError, match=r"entries up to 1\.000e\+300 in modulus"):
            check(1e300 * h)

    @pytest.mark.parametrize("check", [
        ck.canonical_cp_conditions, ck.canonical_ccp_conditions, ck.face_form_inequalities,
        ck.validate_extremal, ck.block_positive, ck.cp_check, ck.ccp_check])
    def test_entries_whose_cubes_underflow_raise_a_choikit_error(self, check):
        # unguarded, the 3x3 minors of 1e-110 round to 0; above ~2.8e-103 the cubes are normal
        h = ck.degenerate_case("z_zero", y=0.5)
        cert = check(1e-100 * h)
        if check is not ck.validate_extremal:  # its relations hold at a = 1 only
            assert cert.verdict == check(h).verdict
        with pytest.raises(ChoiKitError, match=r"entries up to 1\.000e-110 in modulus "
                                               r"are too small: their cubes underflow"):
            check(1e-110 * h)

    def test_equivalence_with_psd_checks(self):
        rng = np.random.default_rng(24)
        kinds = ("psd", "psd_z", "generic", "boundary")
        for k in range(1000):
            h = random_canonical_matrix(rng, kinds[k % 4])
            assert ck.canonical_cp_conditions(h, tol=1e-9).passed == \
                ck.cp_check(h, tol=1e-9).passed
            assert ck.canonical_ccp_conditions(h, tol=1e-9).passed == \
                ck.ccp_check(h, tol=1e-9).passed

    @settings(derandomize=True, max_examples=60, deadline=None)
    @SCALED
    def test_verdicts_do_not_depend_on_the_scale(self, seed, exponent):
        h = random_canonical_matrix(np.random.default_rng(seed), CANONICAL_KINDS[seed % 4])
        for check in (ck.canonical_cp_conditions, ck.canonical_ccp_conditions):
            assert check(10.0 ** exponent * h).verdict == clear_verdict(check, h), check


class TestFaceFormInequalities:
    def test_example_instance_saturates_the_split_inequality(self):
        cert = ck.face_form_inequalities(ck.example_family(0.5))
        assert cert.passed
        a, _, u, _, y, z, _ = ck.canonical_coefficients(ck.example_family(0.5))
        assert (abs(y) + abs(z)) ** 2 == pytest.approx(a * u, abs=1e-12)

    def test_identity_map_choi_passes(self):
        assert ck.face_form_inequalities(identity_map_choi()).passed

    def test_oversized_offdiagonals_fail_third_inequality(self):
        h = np.zeros((4, 4), dtype=np.complex128)
        h[0, 0] = h[1, 1] = h[3, 3] = 1.0
        h[0, 3] = h[3, 0] = 1.0
        h[2, 1] = h[1, 2] = 1.0
        cert = ck.face_form_inequalities(h)
        assert not cert.passed
        assert cert.detail == "(|y|+|z|)^2<=au"
        assert cert.margin == pytest.approx(-3.0, abs=1e-12)

    def test_extremal_sweep_saturates_split_inequality(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            h = ck.build_extremal(ck.random_params(rng))
            a, _, u, _, y, z, _ = ck.canonical_coefficients(h)
            assert a * u - (abs(y) + abs(z)) ** 2 == pytest.approx(0.0, abs=1e-10)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @SCALED
    def test_verdict_does_not_depend_on_the_scale(self, seed, exponent):
        h = random_canonical_matrix(np.random.default_rng(seed), CANONICAL_KINDS[seed % 4])
        verdict = clear_verdict(ck.face_form_inequalities, h)
        assert ck.face_form_inequalities(10.0 ** exponent * h).verdict == verdict
