import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choikit as ck
from choikit import choi, linalg
from choikit.errors import NotInFaceError, NotUnitaryError

from conftest import haar_unitary, rand_unit_vector, random_cp_choi, random_mixture

E1 = np.array([1.0, 0.0], dtype=np.complex128)
E2 = np.array([0.0, 1.0], dtype=np.complex128)


def identity_map_choi() -> np.ndarray:
    h = np.zeros((4, 4), dtype=np.complex128)
    h[0, 0] = h[0, 3] = h[3, 0] = h[3, 3] = 1.0
    return h


def transpose_map_choi() -> np.ndarray:
    h = np.zeros((4, 4), dtype=np.complex128)
    h[0, 0] = h[1, 2] = h[2, 1] = h[3, 3] = 1.0
    return h


class TestChoiFromAction:
    def test_identity_map(self):
        h = ck.choi_from_action(lambda a: a)
        np.testing.assert_allclose(h, identity_map_choi(), atol=0)

    def test_transpose_map_is_partial_transpose_of_identity(self):
        h = ck.choi_from_action(lambda a: a.T)
        np.testing.assert_allclose(h, ck.partial_transpose(identity_map_choi()), atol=0)
        np.testing.assert_allclose(h, transpose_map_choi(), atol=0)

    def test_trace_times_corner_unit(self):
        h = ck.choi_from_action(lambda a: np.trace(a) * choi.matrix_unit(0, 0))
        expected = np.zeros((4, 4), dtype=np.complex128)
        expected[0, 0] = expected[2, 2] = 1.0
        np.testing.assert_allclose(h, expected, atol=0)

    def test_round_trip_with_apply_map(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = ck.choi_from_action(lambda a, hh=g: ck.apply_map(hh, a))
            np.testing.assert_allclose(h, g, atol=1e-14)

    def test_choi_of_a_callable_reproduces_its_action(self):
        rng = np.random.default_rng(19)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        phi = lambda a: g @ a.T @ g.conj().T + np.trace(a) * np.eye(2)
        h = ck.choi_from_action(phi)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(ck.apply_map(h, a), phi(a), atol=1e-13)


class TestApplyMap:
    def test_identity_choi_acts_as_identity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(ck.apply_map(identity_map_choi(), a), a, atol=0)

    def test_extremal_maps_are_unital(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            h = ck.build_extremal(ck.random_params(rng))
            np.testing.assert_allclose(ck.apply_map(h, np.eye(2)), np.eye(2), atol=1e-12)

    def test_example_instance_on_corner_unit(self):
        out = ck.apply_map(ck.example_family(0.5), choi.matrix_unit(1, 1))
        np.testing.assert_allclose(out, np.diag([0.0, 0.25]), atol=0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = ck.apply_map(h, alpha * a + beta * b)
        rhs = alpha * ck.apply_map(h, a) + beta * ck.apply_map(h, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPartialTranspose:
    def test_identity_matrix_fixed(self):
        np.testing.assert_allclose(ck.partial_transpose(np.eye(4)), np.eye(4), atol=0)

    def test_example_instance_entries_move_blocks(self):
        h = ck.example_family(0.5)
        pt = ck.partial_transpose(h)
        assert pt[0, 3] == h[2, 1]          # z moves into the y slot
        assert pt[2, 1] == h[0, 3]          # y moves into the z slot
        assert pt[1, 3] == h[3, 1]          # t conjugates across the swap
        np.testing.assert_allclose(ck.partial_transpose(pt), h, atol=0)

    def test_involution_and_hermiticity_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = 0.5 * (g + g.conj().T)
            pt = ck.partial_transpose(m)
            assert linalg.maxabs(pt - pt.conj().T) < 1e-14
            np.testing.assert_allclose(ck.partial_transpose(pt), m, atol=0)


class TestConjugate:
    def test_identity_frames_do_nothing(self):
        h = ck.example_family(0.5)
        np.testing.assert_allclose(ck.conjugate(h, np.eye(2), np.eye(2)), h, atol=0)

    def test_inverse_frames_round_trip(self):
        rng = np.random.default_rng(14)
        h = random_mixture(rng)
        v, w = haar_unitary(rng), haar_unitary(rng)
        rotated = ck.conjugate(h, v, w)
        np.testing.assert_allclose(
            ck.conjugate(rotated, v.conj().T, w.conj().T), h, atol=1e-13)

    def test_positivity_classes_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            h_cp = random_cp_choi(rng)
            h_ccp = ck.partial_transpose(random_cp_choi(rng))
            v, w = haar_unitary(rng), haar_unitary(rng)
            assert ck.cp_check(ck.conjugate(h_cp, v, w), tol=1e-9).passed
            assert ck.ccp_check(ck.conjugate(h_ccp, v, w), tol=1e-9).passed
            # a non-CP input stays non-CP
            h_bad = ck.example_family(0.5)
            assert not ck.cp_check(ck.conjugate(h_bad, v, w), tol=1e-9).passed

    def test_non_unitary_frame_rejected(self):
        with pytest.raises(NotUnitaryError):
            ck.conjugate(np.eye(4), np.eye(2) * 2.0, np.eye(2))


class TestCanonicalize:
    def test_canonical_input_unchanged_with_identity_frame(self):
        h = ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.25, z=0.25))
        out, frame = ck.canonicalize(h, E2, E1)
        np.testing.assert_allclose(out, h, atol=0)
        np.testing.assert_allclose(frame.w, np.eye(2), atol=0)
        np.testing.assert_allclose(frame.v, np.eye(2), atol=0)

    def test_rotated_example_restored_exactly(self):
        rng = np.random.default_rng(16)
        h = ck.example_family(0.5)
        for _ in range(10):
            xi, eta = rand_unit_vector(rng), rand_unit_vector(rng)
            w = ck.complete_to_unitary(xi, position="second")
            v = ck.complete_to_unitary(eta, position="first")
            rotated = ck.conjugate(h, v.conj().T, w.conj().T)
            restored, frame = ck.canonicalize(rotated, xi, eta)
            np.testing.assert_allclose(restored, h, atol=1e-10)
            np.testing.assert_allclose(frame.w @ E2, xi, atol=1e-12)
            np.testing.assert_allclose(frame.v @ E1, eta, atol=1e-12)

    def test_haar_rotation_recovers_moduli(self):
        rng = np.random.default_rng(17)
        h = ck.example_family(0.5)
        coeffs = ck.canonical_coefficients(h)
        for _ in range(10):
            v, w = haar_unitary(rng), haar_unitary(rng)
            rotated = ck.conjugate(h, v, w)
            xi = w.conj().T @ E2
            eta = v.conj().T @ E1
            restored, _ = ck.canonicalize(rotated, xi, eta)
            got = ck.canonical_coefficients(restored)
            assert abs(got.y) == pytest.approx(abs(coeffs.y), abs=1e-10)
            assert abs(got.z) == pytest.approx(abs(coeffs.z), abs=1e-10)
            assert abs(got.t) == pytest.approx(abs(coeffs.t), abs=1e-10)
            assert got.u == pytest.approx(coeffs.u, abs=1e-10)
            assert abs(got.c) < 1e-10
            assert abs(restored[0, 2]) < 1e-10

    def test_cp_degenerate_matrix_is_already_canonical(self):
        h = ck.degenerate_case("z_zero", y=0.5)
        out, _ = ck.canonicalize(h, E2, E1)
        np.testing.assert_allclose(out, h, atol=0)
        assert out[0, 2] == 0.0

    def test_not_in_face_rejected(self):
        with pytest.raises(NotInFaceError):
            ck.canonicalize(identity_map_choi(), E2, E2)

    def test_face_members_satisfy_face_inequalities_after_canonicalize(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            lam, mu = rng.uniform(0.2, 1.0, size=2)
            h = (lam * ck.build_extremal(ck.random_params(rng))
                 + mu * ck.build_extremal(ck.random_params(rng)))
            v, w = haar_unitary(rng), haar_unitary(rng)
            rotated = ck.conjugate(h, v, w)
            restored, _ = ck.canonicalize(rotated, w.conj().T @ E2, v.conj().T @ E1)
            cert = ck.face_form_inequalities(restored, tol=1e-9)
            assert cert.passed, cert
            assert cert.margin >= -1e-9
