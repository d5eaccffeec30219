import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choikit as ck
from choikit import linalg
from choikit.certificate import PASS, Certificate
from choikit.errors import (ChoiKitError, NonFiniteEntryError, NotHermitianError,
                            NotUnitVectorError)

from conftest import assert_rank_one_by_minors, rand_unit_vector


class TestPsdCheck:
    def test_identity_passes_with_unit_margin(self):
        cert = ck.psd_check(np.eye(4), tol=1e-10)
        assert cert.passed
        assert cert.margin == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_failure_returns_bottom_witness(self):
        cert = ck.psd_check(np.diag([1.0, 1.0, 0.0, -0.5]))
        assert not cert.passed
        assert cert.margin == pytest.approx(-0.5, abs=1e-12)
        w = cert.witness
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        assert abs(w[3]) == pytest.approx(1.0, abs=1e-12)

    def test_witness_realizes_the_margin(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = 0.5 * (g + g.conj().T)
            cert = ck.psd_check(m)
            if not cert.passed:
                w = cert.witness
                quad = float(np.vdot(w, m @ w).real)
                assert quad == pytest.approx(cert.margin, abs=1e-10)
                assert quad <= -1e-10

    def test_example_instance_is_not_psd(self):
        cert = ck.psd_check(ck.example_family(0.5))
        assert not cert.passed

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NotHermitianError):
            ck.psd_check(m)

    def test_nan_rejected(self):
        m = np.eye(4, dtype=complex)
        m[2, 2] = np.nan
        with pytest.raises(NonFiniteEntryError):
            ck.psd_check(m)

    def test_verdict_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = 0.5 * (g + g.conj().T)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            rotated = q.conj().T @ m @ q
            assert ck.psd_check(m).passed == ck.psd_check(rotated, tol=1e-9).passed


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestFiniteness:
    # one isfinite over the complex array covers both parts
    @pytest.mark.parametrize("bad", [complex(v, 0.0) for v in NON_FINITE]
                             + [complex(0.0, v) for v in NON_FINITE],
                             ids=[f"{part}-{v}" for part in ("real", "imag") for v in NON_FINITE])
    def test_a_non_finite_real_or_imaginary_part_is_rejected(self, bad):
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(NonFiniteEntryError, match="^matrix contains NaN or Inf entries$"):
            linalg.as_matrix(m)
        with pytest.raises(NonFiniteEntryError, match="^vector contains NaN or Inf entries$"):
            linalg.as_vector([1.0, bad])


def _with_entry(value) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[1, 2], m[2, 1] = value, np.conj(value)
    return m


_NON_HERMITIAN = np.eye(4, dtype=complex)
_NON_HERMITIAN[0, 1] = 1.0
_TOO_LARGE = "in modulus are too large: their cubes overflow"
# (input, exception type, message), in the guard order shape -> finite -> scale -> hermiticity
VALIDATION_CASES = {
    "nan": (_with_entry(complex(float("nan"), 0.0)), NonFiniteEntryError,
            "matrix contains NaN or Inf entries"),
    "inf": (_with_entry(complex(float("inf"), 0.0)), NonFiniteEntryError,
            "matrix contains NaN or Inf entries"),
    "modulus-overflows": (_with_entry(1.5e308 * (1 + 1j)), ChoiKitError,
                          f"entries up to inf {_TOO_LARGE}"),
    "cubes-overflow": (1e103 * np.eye(4), ChoiKitError, f"entries up to 1.000e+103 {_TOO_LARGE}"),
    "cubes-underflow": (1e-110 * np.eye(4), ChoiKitError,
                        "entries up to 1.000e-110 in modulus are too small: their cubes underflow"),
    "non-hermitian": (_NON_HERMITIAN, NotHermitianError,
                      "hermiticity residual 1.000e+00 exceeds tol 1.000e-10"),
    "3x3": (np.eye(3), ValueError, "expected a 4x4 matrix, got shape (3, 3)"),
}
VALIDATED_CHECKS = ("block_positive", "cp_check", "ccp_check", "psd_check",
                    "canonical_cp_conditions", "canonical_ccp_conditions",
                    "face_form_inequalities", "validate_extremal")


class TestValidationContract:
    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    @pytest.mark.parametrize("name", VALIDATED_CHECKS)
    def test_each_check_raises_the_same_error_in_the_same_words(self, name, case):
        matrix, error, message = VALIDATION_CASES[case]
        if (name, case) == ("psd_check", "3x3"):  # psd_check takes any square matrix
            assert getattr(ck, name)(matrix) == Certificate(PASS, 1.0, detail="lambda_min")
            return
        with pytest.raises(error) as exc:
            getattr(ck, name)(matrix)
        assert (type(exc.value), str(exc.value)) == (error, message)

    @pytest.mark.parametrize("shape, message", [
        ((0, 0), "expected a nonempty square matrix, got shape (0, 0)"),
        ((4, 0), "expected a square matrix, got shape (4, 0)"),
        ((0,), "expected a square matrix, got shape (0,)"),
    ])
    def test_psd_check_refuses_an_empty_matrix_with_a_value_error(self, shape, message):
        # (0, 0) once reached eigh and failed reading w[0] with an IndexError
        with pytest.raises(ValueError) as exc:
            ck.psd_check(np.zeros(shape))
        assert (type(exc.value), str(exc.value)) == (ValueError, message)


FAMILY = ck.example_family(0.5)
# every public check that takes a tol, on an input where a tol that is not
# finite and >= 0 once gave a verdict (block_positive(-I, inf) PASS,
# cp_check(I, nan) FAIL, ...)
TOL_CHECKS = {
    "psd_check": lambda tol: ck.psd_check(-np.eye(4), tol=tol),
    "block_positive": lambda tol: ck.block_positive(-np.eye(4), tol=tol),
    "cp_check": lambda tol: ck.cp_check(np.eye(4), tol=tol),
    "ccp_check": lambda tol: ck.ccp_check(np.eye(4), tol=tol),
    "face_membership": lambda tol: ck.face_membership(FAMILY, [1, 0], [0, 1], tol=tol),
    "canonical_cp_conditions": lambda tol: ck.canonical_cp_conditions(FAMILY, tol=tol),
    "canonical_ccp_conditions": lambda tol: ck.canonical_ccp_conditions(FAMILY, tol=tol),
    "face_form_inequalities": lambda tol: ck.face_form_inequalities(FAMILY, tol=tol),
    "validate_extremal": lambda tol: ck.validate_extremal(FAMILY, tol=tol),
    "verify_decomposition": lambda tol: ck.verify_decomposition(
        FAMILY, ck.decompose_extremal(FAMILY), tol=tol),
    "feasibility": lambda tol: ck.feasibility(FAMILY, ck.canonical_split(FAMILY), tol=tol),
    "epsilon_family": lambda tol: ck.epsilon_family(ck.degenerate_case("u_zero"), 0.1, tol=tol),
    "uniqueness_search": lambda tol: ck.uniqueness_search(FAMILY, samples=0, tol=tol),
    "canonicalize": lambda tol: ck.canonicalize(FAMILY, [0, 1], [1, 0], tol=tol),
}


class TestTolContract:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0])
    @pytest.mark.parametrize("name", sorted(TOL_CHECKS))
    def test_a_tol_that_is_not_finite_and_nonnegative_raises(self, name, tol):
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
            TOL_CHECKS[name](tol)

    @pytest.mark.parametrize("name", sorted(TOL_CHECKS))
    def test_zero_tol_is_accepted(self, name):
        TOL_CHECKS[name](0.0)

    def test_tol_bound_is_tol_times_scale_to_the_degree(self):
        assert linalg.tol_bound(1e-10, 4.0) == 4e-10
        np.testing.assert_array_equal(linalg.tol_bound(0.5, 2.0, np.array([1, 2, 3])), [1.0, 2.0, 4.0])
        assert linalg.scaled_tol(-3.0 * np.eye(4), 0.5, 2) == 4.5


class TestRankEstimate:
    def test_zero_matrix(self):
        assert ck.rank_estimate(np.zeros((4, 4))) == 0

    def test_identity(self):
        assert ck.rank_estimate(np.eye(4)) == 4

    def test_split_part_is_rank_one(self):
        pair = ck.decompose_extremal(ck.example_family(0.5))
        assert ck.rank_estimate(pair.h1) == 1
        assert_rank_one_by_minors(pair.h1)

    def test_subadditive_on_random_psd_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ga = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            gb = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            a = ga @ ga.conj().T
            b = gb @ gb.conj().T
            assert ck.rank_estimate(a + b) <= ck.rank_estimate(a) + ck.rank_estimate(b)

    def test_rank_plus_orthocomplement_projection_rank_bounded(self):
        rng = np.random.default_rng(6)
        for cols in (1, 2, 3):
            g = rng.normal(size=(4, cols)) + 1j * rng.normal(size=(4, cols))
            m = g @ g.conj().T
            basis, _, _ = np.linalg.svd(m)
            r = ck.rank_estimate(m)
            proj_perp = np.eye(4) - basis[:, :r] @ basis[:, :r].conj().T
            assert r + ck.rank_estimate(proj_perp) <= 4


class TestCompleteToUnitary:
    def test_e2_second_column_gives_identity(self):
        u = ck.complete_to_unitary([0.0, 1.0], position="second")
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    def test_e1_first_column_gives_identity(self):
        u = ck.complete_to_unitary([1.0, 0.0], position="first")
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    def test_designated_column_and_unitarity(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        u = ck.complete_to_unitary(v, position="second")
        np.testing.assert_allclose(u @ np.array([0.0, 1.0]), v, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_completed_column_leading_entry_real_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rand_unit_vector(rng)
            u = ck.complete_to_unitary(v, position="second")
            lead = u[0, 0] if abs(u[0, 0]) > 1e-12 else u[1, 0]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0

    def test_non_unit_vector_rejected(self):
        with pytest.raises(NotUnitVectorError):
            ck.complete_to_unitary([1.0, 1.0], position="second")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_unitary_for_arbitrary_unit_vectors(self, parts):
        vec = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
        norm = np.linalg.norm(vec)
        if norm < 1e-2:
            return
        vec = vec / norm
        for position in ("first", "second"):
            u = ck.complete_to_unitary(vec, position=position)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


class TestHelpers:
    def test_principal_sqrt_negative_real_has_positive_imag(self):
        root = linalg.principal_sqrt(-4.0)
        assert root == pytest.approx(2j)
        root = linalg.principal_sqrt(complex(-4.0, -0.0))
        assert root == pytest.approx(2j)
