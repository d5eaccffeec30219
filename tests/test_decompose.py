import numpy as np
import pytest

import choikit as ck
from choikit import choi, linalg
from choikit.errors import HypothesisViolatedError, NotExtremalError

from conftest import assert_rank_one_by_minors


def expected_half_parts() -> tuple[np.ndarray, np.ndarray]:
    r4 = np.sqrt(3.0) / 4.0
    r8 = np.sqrt(3.0) / 8.0
    h1 = np.array([
        [0.5, -1j * r4, 0.0, 0.25],
        [1j * r4, 0.375, 0.0, 1j * r8],
        [0.0, 0.0, 0.0, 0.0],
        [0.25, -1j * r8, 0.0, 0.125],
    ], dtype=np.complex128)
    h2 = np.array([
        [0.5, 1j * r4, 0.0, 0.0],
        [-1j * r4, 0.375, 0.25, 1j * r8],
        [0.0, 0.25, 0.0, 0.0],
        [0.0, -1j * r8, 0.0, 0.125],
    ], dtype=np.complex128)
    return h1, h2


def assert_candidate_path(h, pair):
    """decompose_extremal gives exactly the parts of the canonical candidate."""
    cand = ck.canonical_split(h)
    h1, h2 = ck.split_matrices(h, cand)
    assert np.array_equal(pair.h1, h1)
    assert np.array_equal(pair.h2, h2)
    assert pair.c == cand.c


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(40)
    out = []
    for _ in range(200):
        params = ck.random_params(rng)
        h = ck.build_extremal(params)
        out.append((params, h, ck.decompose_extremal(h)))
    return out


class TestExampleInstance:
    def test_half_instance_part_entries(self):
        pair = ck.decompose_extremal(ck.example_family(0.5))
        h1, h2 = expected_half_parts()
        np.testing.assert_allclose(pair.h1, h1, atol=1e-12)
        np.testing.assert_allclose(pair.h2, h2, atol=1e-12)
        assert pair.c == pytest.approx(-1j * np.sqrt(3.0) / 4.0, abs=1e-15)
        assert pair.y1 == pytest.approx(0.5, abs=1e-15)
        assert pair.z1 == pytest.approx(0.5, abs=1e-15)

    def test_half_instance_parts_verified_by_brute_force(self):
        h = ck.example_family(0.5)
        pair = ck.decompose_extremal(h)
        assert np.max(np.abs(pair.h1 + pair.h2 - h)) <= 1e-12
        assert np.linalg.eigvalsh(pair.h1)[0] >= -1e-12
        assert np.linalg.eigvalsh(ck.partial_transpose(pair.h2))[0] >= -1e-12
        assert_rank_one_by_minors(pair.h1)
        assert_rank_one_by_minors(ck.partial_transpose(pair.h2))

    @pytest.mark.parametrize("s", np.linspace(0.05, 0.95, 19))
    def test_family_parts_sum_exactly_along_the_candidate_path(self, s):
        h = ck.example_family(s)
        pair = ck.decompose_extremal(h)
        assert np.array_equal(pair.h1 + pair.h2, h)
        assert_candidate_path(h, pair)

    def test_symmetric_parameters_mirror_the_parts(self):
        # y = z makes the CP part and the transposed co-CP part equal in modulus
        pair = ck.decompose_extremal(ck.example_family(0.7))
        np.testing.assert_allclose(np.abs(pair.h1),
                                   np.abs(ck.partial_transpose(pair.h2)), atol=1e-12)
        assert pair.h2[0, 1] == pytest.approx(-pair.h1[0, 1], abs=1e-15)

    def test_near_degenerate_smoke(self):
        # continuity probe close to the u = 1 edge; no tight numeric claim
        params = ck.ExtremalParams(u=0.999999, y=0.5e-3, z=np.sqrt(0.999999) - 0.5e-3)
        h = ck.build_extremal(params)
        pair = ck.decompose_extremal(h)
        assert np.max(np.abs(pair.h1 + pair.h2 - h)) < 1e-8


class TestSweepIdentities:
    def test_sum_classes_and_rank(self, sweep):
        for _, h, pair in sweep:
            assert np.max(np.abs(pair.h1 + pair.h2 - h)) <= 1e-10
            assert np.linalg.eigvalsh(pair.h1)[0] >= -1e-10
            assert np.linalg.eigvalsh(ck.partial_transpose(pair.h2))[0] >= -1e-10
            assert ck.rank_estimate(pair.h1) == 1
            assert ck.rank_estimate(ck.partial_transpose(pair.h2)) == 1

    def test_parts_follow_the_candidate_path(self, sweep):
        for _, h, pair in sweep:
            assert_candidate_path(h, pair)

    def test_entry_formulas(self, sweep):
        for _, h, pair in sweep:
            _, _, u, _, y, z, t = ck.canonical_coefficients(h)
            ru = np.sqrt(u)
            assert pair.h1[0, 0].real == pytest.approx(abs(y) / ru, abs=1e-10)
            assert pair.h1[3, 3].real == pytest.approx(abs(y) * ru, abs=1e-10)
            assert pair.h1[1, 1].real == pytest.approx(abs(z) * (1 - u) / ru, abs=1e-10)
            assert pair.h2[0, 0].real == pytest.approx(abs(z) / ru, abs=1e-10)
            assert pair.h2[3, 3].real == pytest.approx(abs(z) * ru, abs=1e-10)
            assert pair.h2[1, 1].real == pytest.approx(abs(y) * (1 - u) / ru, abs=1e-10)
            assert pair.h1[1, 3] == pytest.approx(0.5 * t, abs=1e-10)
            assert pair.h2[1, 3] == pytest.approx(0.5 * t, abs=1e-10)
            assert pair.c ** 2 == pytest.approx(-(1 - u) / u * y * z, abs=1e-10)

    def test_cross_relations_between_c_and_t(self, sweep):
        for _, h, pair in sweep:
            _, _, u, _, y, z, t = ck.canonical_coefficients(h)
            t1 = pair.h1[1, 3]
            t2 = pair.h2[1, 3]
            c = pair.c
            assert abs(y) * t1 == pytest.approx(y * np.conj(c) * np.sqrt(u), abs=1e-10)
            assert abs(z) * t2 == pytest.approx(-np.conj(z) * c * np.sqrt(u), abs=1e-10)

    def test_boundary_saturation(self, sweep):
        for _, _, pair in sweep:
            a1, b1, u1 = pair.h1[0, 0].real, pair.h1[1, 1].real, pair.h1[3, 3].real
            y = pair.h1[0, 3]
            t1 = pair.h1[1, 3]
            c = pair.h1[0, 1]
            assert a1 * u1 == pytest.approx(abs(y) ** 2, abs=1e-12)
            assert b1 * u1 == pytest.approx(abs(t1) ** 2, abs=1e-12)
            assert a1 * b1 == pytest.approx(abs(c) ** 2, abs=1e-12)

    def test_root_coefficients_match_their_defining_relations(self, sweep):
        for _, h, pair in sweep:
            _, _, u, _, y, z, t = ck.canonical_coefficients(h)
            assert pair.y1 ** 2 == pytest.approx(y, abs=1e-10)
            assert pair.z1 ** 2 == pytest.approx(z, abs=1e-10)
            assert 2j * np.sqrt(1 - u) * pair.y1 * np.conj(pair.z1) == \
                pytest.approx(t, abs=1e-10)
            assert pair.c == pytest.approx(
                -1j * np.sqrt((1 - u) / u) * pair.y1 * pair.z1, abs=1e-10)

    def test_unitality_split(self, sweep):
        distinct = False
        for _, _, pair in sweep:
            total = ck.apply_map(pair.h1, np.eye(2)) + ck.apply_map(pair.h2, np.eye(2))
            np.testing.assert_allclose(total, np.eye(2), atol=1e-10)
            eigs = np.linalg.eigvalsh(ck.apply_map(pair.h1, np.eye(2)))
            if abs(eigs[0] - eigs[1]) > 1e-6:
                distinct = True
        assert distinct, "every first part acted as a scalar multiple of a unital map"


class TestKrausOperators:
    def test_half_instance_operator_entries(self):
        k1, k2 = ck.kraus_operators(ck.ExtremalParams(u=0.25, y=0.25, z=0.25))
        inv_root2 = 1.0 / np.sqrt(2.0)
        root6_4 = np.sqrt(6.0) / 4.0
        expected1 = np.array([[inv_root2, 0.0], [1j * root6_4, 0.5 * inv_root2]])
        expected2 = np.array([[inv_root2, 0.0], [-1j * root6_4, 0.5 * inv_root2]])
        np.testing.assert_allclose(k1, expected1, atol=1e-14)
        np.testing.assert_allclose(k2, expected2, atol=1e-14)

    def test_factors_are_those_of_the_split_byte_for_byte(self):
        # one params -> factors path: the "-" branch's zero imaginary parts
        # keep the sign that decompose_extremal gives them
        rng = np.random.default_rng(3)
        params = [ck.random_params(rng) for _ in range(200)]
        params += [ck.ExtremalParams(u=0.25, y=0.25, z=0.25, t_branch=b) for b in "+-"]
        for p in params:
            pair = ck.decompose_extremal(ck.build_extremal(p))
            k1, k2 = ck.kraus_operators(p)
            assert (k1.tobytes(), k2.tobytes()) == (pair.k1.tobytes(), pair.k2.tobytes()), p

    def test_operator_sum_is_identity(self, sweep):
        for _, _, pair in sweep:
            total = pair.k1 @ pair.k1.conj().T + pair.k2 @ pair.k2.conj().T
            np.testing.assert_allclose(total, np.eye(2), atol=1e-10)

    def test_action_matches_the_map_on_matrix_units_and_random_inputs(self, sweep):
        rng = np.random.default_rng(41)
        for _, h, pair in sweep[:50]:
            for i in range(2):
                for j in range(2):
                    a = choi.matrix_unit(i, j)
                    direct = ck.apply_map(h, a)
                    via = pair.k1 @ a @ pair.k1.conj().T + pair.k2 @ a.T @ pair.k2.conj().T
                    np.testing.assert_allclose(direct, via, atol=1e-10)
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            direct = ck.apply_map(h, a)
            via = pair.k1 @ a @ pair.k1.conj().T + pair.k2 @ a.T @ pair.k2.conj().T
            np.testing.assert_allclose(direct, via, atol=1e-9)

    def test_parts_are_the_choi_matrices_of_the_factor_actions(self, sweep):
        for _, _, pair in sweep[:50]:
            from_k1 = ck.choi_from_action(
                lambda a, k=pair.k1: k @ a @ k.conj().T)
            from_k2 = ck.choi_from_action(
                lambda a, k=pair.k2: k @ a.T @ k.conj().T)
            np.testing.assert_allclose(from_k1, pair.h1, atol=1e-10)
            np.testing.assert_allclose(from_k2, pair.h2, atol=1e-10)


class TestVerifyDecomposition:
    def test_valid_pairs_verify(self, sweep):
        for _, h, pair in sweep[:50]:
            assert ck.verify_decomposition(h, pair).passed

    def test_swapped_parts_fail(self):
        h = ck.example_family(0.5)
        pair = ck.decompose_extremal(h)
        swapped = ck.DecompositionPair(h1=pair.h2, h2=pair.h1, k1=pair.k1, k2=pair.k2,
                                       c=pair.c, y1=pair.y1, z1=pair.z1)
        cert = ck.verify_decomposition(h, swapped)
        assert not cert.passed
        assert cert.detail == "cp(h1)"

    def test_lopsided_skew_split_fails(self):
        h = ck.example_family(0.5)
        pair = ck.decompose_extremal(h)
        h1 = pair.h1.copy()
        h2 = pair.h2.copy()
        t = h[1, 3]
        h1[1, 3] = t
        h1[3, 1] = np.conj(t)
        h2[1, 3] = 0.0
        h2[3, 1] = 0.0
        broken = ck.DecompositionPair(h1=h1, h2=h2, k1=pair.k1, k2=pair.k2,
                                      c=pair.c, y1=pair.y1, z1=pair.z1)
        cert = ck.verify_decomposition(h, broken)
        assert not cert.passed
        assert cert.detail in ("cp(h1)", "ccp(h2)")

    def test_skewed_part_fails_its_hermiticity_whatever_the_tol(self):
        h = ck.example_family(0.5)
        pair = ck.decompose_extremal(h)
        h1 = pair.h1.copy()
        h2 = pair.h2.copy()
        h1[0, 1] += 1e-6  # the sum still holds: the difference moves into h2
        h2[0, 1] -= 1e-6
        broken = ck.DecompositionPair(h1=h1, h2=h2, k1=pair.k1, k2=pair.k2,
                                      c=pair.c, y1=pair.y1, z1=pair.z1)
        for tol in (1e-10, 1e-6, 1e-3):
            cert = ck.verify_decomposition(h, broken, tol=tol)
            assert not cert.passed, tol
            assert cert.detail == "hermitian(h1)", tol

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-10, 1e-3])
    def test_a_doubly_skewed_pair_names_its_first_failing_condition(self, tol):
        h = ck.example_family(0.5)
        pair = ck.decompose_extremal(h)
        h1 = pair.h1.copy()
        h2 = pair.h2.copy()
        # both parts skew by 1.5 * TOL * max|h1|: beyond h1's own bound, within
        # tol * max|h| from tol = 1e-10 on; the sum still holds
        skew = 1.5 * linalg.TOL * np.max(np.abs(h1))
        h1[0, 1] += skew
        h2[0, 1] -= skew
        # h2 skews by 1.6 * tol * max|h| more, beyond tol * max|h|, and the sum
        # moves by 0.8 * tol * max|h|, within it
        h2[0, 0] += 0.8j * tol * np.max(np.abs(h))
        broken = ck.DecompositionPair(h1=h1, h2=h2, k1=pair.k1, k2=pair.k2,
                                      c=pair.c, y1=pair.y1, z1=pair.z1)
        cert = ck.verify_decomposition(h, broken, tol=tol)
        assert not cert.passed
        assert cert.detail == cert.witness == "hermitian(h1)"

    def test_nan_part_fails_the_sum(self):
        h = ck.example_family(0.5)
        pair = ck.decompose_extremal(h)
        h1 = pair.h1.copy()
        h1[0, 0] = np.nan
        broken = ck.DecompositionPair(h1=h1, h2=pair.h2, k1=pair.k1, k2=pair.k2,
                                      c=pair.c, y1=pair.y1, z1=pair.z1)
        cert = ck.verify_decomposition(h, broken)
        assert not cert.passed
        assert cert.detail == "sum"


class TestErrors:
    def test_degenerate_inputs_violate_the_hypotheses(self):
        with pytest.raises(HypothesisViolatedError, match=r"\|z\|"):
            ck.decompose_extremal(ck.degenerate_case("z_zero", y=0.5))
        with pytest.raises(HypothesisViolatedError, match=r"\|y\|"):
            ck.decompose_extremal(ck.degenerate_case("y_zero", z=0.5))
        with pytest.raises(HypothesisViolatedError, match="u"):
            ck.decompose_extremal(ck.degenerate_case("u_zero"))

    def test_non_extremal_input_rejected(self):
        rng = np.random.default_rng(42)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises((NotExtremalError, ck.NotCanonicalFormError)):
            ck.decompose_extremal(0.5 * (g + g.conj().T))
