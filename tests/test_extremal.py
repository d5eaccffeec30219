import numpy as np
import pytest

import choikit as ck
from choikit.errors import InvalidParamsError, NotExtremalError


def example_matrix_half() -> np.ndarray:
    root3_4 = np.sqrt(3.0) / 4.0
    return np.array([
        [1.0, 0.0, 0.0, 0.25],
        [0.0, 0.75, 0.25, 1j * root3_4],
        [0.0, 0.25, 0.0, 0.0],
        [0.25, -1j * root3_4, 0.0, 0.25],
    ], dtype=np.complex128)


class TestBuildExtremal:
    def test_identity_map_instance(self):
        h = ck.build_extremal(ck.ExtremalParams(u=1.0, y=1.0, z=0.0))
        np.testing.assert_allclose(h, ck.choi_from_action(lambda a: a), atol=0)

    def test_transpose_map_instance(self):
        h = ck.build_extremal(ck.ExtremalParams(u=1.0, y=0.0, z=1.0))
        np.testing.assert_allclose(h, ck.choi_from_action(lambda a: a.T), atol=0)

    def test_example_parameters_reproduce_the_family_matrix(self):
        h = ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.25, z=0.25, t_branch="+"))
        np.testing.assert_allclose(h, example_matrix_half(), atol=1e-15)
        assert h[1, 3] == pytest.approx(1j * np.sqrt(3.0) / 4.0)

    def test_invalid_parameters_name_the_invariant(self):
        with pytest.raises(InvalidParamsError, match="sqrt"):
            ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.5, z=0.5))
        with pytest.raises(InvalidParamsError, match=r"\[0, 1\]"):
            ck.build_extremal(ck.ExtremalParams(u=1.5, y=1.0, z=0.0))
        with pytest.raises(InvalidParamsError, match="branch"):
            ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.25, z=0.25, t_branch="x"))
        with pytest.raises(InvalidParamsError, match="b = 0"):
            ck.build_extremal(ck.ExtremalParams(u=1.0, y=0.5, z=0.5))
        with pytest.raises(InvalidParamsError, match="condition2"):  # sqrt(0.3)/2 to 10 digits
            ck.build_extremal(ck.ExtremalParams(u=0.3, y=0.2738612788, z=0.2738612788))
        with pytest.raises(InvalidParamsError, match=r"^parameters contain NaN or Inf$"):
            ck.build_extremal(ck.ExtremalParams(u=float("nan"), y=0.25, z=0.25))

    def test_a_built_matrix_passes_validate_extremal(self):
        # a split residual r <= TOL passes the |y| + |z| check, but the
        # derived t leaves condition2 a residual of about 4 b sqrt(u) r
        outcomes = set()
        for u in np.linspace(0.05, 0.95, 19):
            for resid in (2e-11, 6e-11, 9.5e-11, 15e-11, -2e-11, -6e-11, -9.5e-11, -15e-11):
                for branch in ("+", "-"):
                    root = np.sqrt(u)
                    params = ck.ExtremalParams(u=u, y=0.4 * root + resid, z=0.6j * root,
                                               t_branch=branch)
                    try:
                        h = ck.build_extremal(params)
                    except InvalidParamsError:
                        outcomes.add("rejected")
                        continue
                    outcomes.add("built")
                    cert = ck.validate_extremal(h)
                    assert cert.passed, (u, resid, branch, cert.detail, cert.margin)
        assert outcomes == {"built", "rejected"}

    def test_branch_selects_sign_of_t(self):
        plus = ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.25, z=0.25, t_branch="+"))
        minus = ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.25, z=0.25, t_branch="-"))
        assert plus[1, 3] == pytest.approx(-minus[1, 3])

    def test_t_vanishes_when_b_is_zero(self):
        params = ck.ExtremalParams(u=1.0, y=1.0, z=0.0)
        assert params.t == 0.0


class TestExampleFamily:
    def test_half_matrix(self):
        np.testing.assert_allclose(ck.example_family(0.5), example_matrix_half(), atol=1e-15)

    def test_entries_at_s_09(self):
        h = ck.example_family(0.9)
        assert h[1, 1].real == pytest.approx(0.19, abs=1e-15)
        assert h[3, 3].real == pytest.approx(0.81, abs=1e-15)
        assert h[0, 3] == pytest.approx(0.45)
        assert h[2, 1] == pytest.approx(0.45)
        assert h[1, 3] == pytest.approx(1j * 0.9 * np.sqrt(0.19))

    def test_matches_build_extremal_image(self):
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            params = ck.ExtremalParams(u=s * s, y=0.5 * s, z=0.5 * s, t_branch="+")
            np.testing.assert_allclose(ck.example_family(s), ck.build_extremal(params),
                                       atol=1e-14)

    def test_split_inequality_saturated_for_all_s(self):
        for s in np.linspace(0.05, 0.95, 19):
            cert = ck.face_form_inequalities(ck.example_family(s))
            assert cert.passed
            _, _, u, _, y, z, _ = ck.canonical_coefficients(ck.example_family(s))
            assert abs(y) + abs(z) == pytest.approx(np.sqrt(u), abs=1e-12)

    def test_range_errors(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidParamsError):
                ck.example_family(bad)


class TestDegenerateCase:
    def test_u_zero_matrix(self):
        expected = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(ck.degenerate_case("u_zero"), expected, atol=0)

    def test_y_zero_matrix(self):
        expected = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.75, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.25],
        ], dtype=np.complex128)
        np.testing.assert_allclose(ck.degenerate_case("y_zero", z=0.5), expected, atol=0)

    def test_z_zero_matrix(self):
        expected = np.array([
            [1.0, 0.0, 0.0, 0.5],
            [0.0, 0.75, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.25],
        ], dtype=np.complex128)
        np.testing.assert_allclose(ck.degenerate_case("z_zero", y=0.5), expected, atol=0)

    def test_parameters_must_stay_in_the_open_disc(self):
        with pytest.raises(InvalidParamsError):
            ck.degenerate_case("y_zero", z=1.0)
        with pytest.raises(InvalidParamsError):
            ck.degenerate_case("z_zero", y=1.2)
        with pytest.raises(InvalidParamsError):
            ck.degenerate_case("nonsense")

    @pytest.mark.parametrize("kind, kwargs", [
        ("y_zero", {"y": 0.3, "z": 0.5}),
        ("z_zero", {"y": 0.5, "z": 0.3j}),
        ("u_zero", {"y": 0.3}),
        ("u_zero", {"z": 0.5}),
        ("y_zero", {"y": float("nan"), "z": 0.5}),
    ])
    def test_a_coefficient_the_kind_sets_to_zero_must_be_zero(self, kind, kwargs):
        with pytest.raises(InvalidParamsError, match=f"^{kind} sets [yz] to zero"):
            ck.degenerate_case(kind, **kwargs)

    def test_an_explicit_zero_is_accepted(self):
        for kind, kwargs in (("y_zero", {"z": 0.5}), ("z_zero", {"y": 0.5j}), ("u_zero", {})):
            h = ck.degenerate_case(kind, **kwargs)
            explicit = ck.degenerate_case(kind, **{"y": 0.0, "z": 0.0, **kwargs})
            assert h.tobytes() == explicit.tobytes()


class TestValidateExtremal:
    def test_example_family_passes(self):
        assert ck.validate_extremal(ck.example_family(0.5)).passed

    def test_degenerate_matrices_pass(self):
        assert ck.validate_extremal(ck.degenerate_case("y_zero", z=0.5)).passed
        assert ck.validate_extremal(ck.degenerate_case("z_zero", y=0.5)).passed
        assert ck.validate_extremal(ck.degenerate_case("u_zero")).passed

    def test_perturbed_skew_entry_fails_condition_two(self):
        h = ck.example_family(0.5)
        t = h[1, 3]
        scaled = t * np.sqrt(1.0 + 0.05 / abs(t) ** 2)  # shifts |t|^2 by +0.05
        h[1, 3] = scaled
        h[3, 1] = np.conj(scaled)
        cert = ck.validate_extremal(h)
        assert not cert.passed
        assert cert.detail == "condition2"

    def test_wrong_phase_of_t_fails(self):
        h = ck.example_family(0.5)
        h[1, 3] = abs(h[1, 3])  # same modulus, wrong phase
        h[3, 1] = h[1, 3]
        cert = ck.validate_extremal(h)
        assert not cert.passed
        assert cert.detail == "phase"

    def test_broken_split_fails(self):
        h = ck.build_extremal(ck.ExtremalParams(u=0.25, y=0.25, z=0.25))
        h[0, 3] = 0.3
        h[3, 0] = 0.3
        cert = ck.validate_extremal(h)
        assert not cert.passed
        assert cert.detail in ("condition2", "split", "phase")

    def test_nonunital_corner_fails(self):
        h = ck.example_family(0.5)
        h[0, 0] = 0.9
        assert ck.validate_extremal(h).detail == "condition1"


class TestSweepInvariants:
    def test_unitality_positivity_and_validation(self):
        rng = np.random.default_rng(31)
        branches = set()
        for _ in range(500):
            params = ck.random_params(rng)
            branches.add(params.t_branch)
            h = ck.build_extremal(params)
            np.testing.assert_allclose(ck.apply_map(h, np.eye(2)), np.eye(2), atol=1e-12)
            assert ck.validate_extremal(h).passed
        assert branches == {"+", "-"}

    def test_block_positive_on_parameter_sweep(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            h = ck.build_extremal(ck.random_params(rng))
            cert = ck.block_positive(h, tol=1e-8)
            assert cert.passed, cert.margin

    def test_skew_modulus_cross_check(self):
        # the two closed forms for |t|^2 agree when the split relation holds
        rng = np.random.default_rng(33)
        for _ in range(500):
            params = ck.random_params(rng)
            t = params.t
            lhs = abs(t) ** 2
            rhs = 2.0 * params.b * (params.u - abs(params.y) ** 2 - abs(params.z) ** 2)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_params_round_trip_through_the_matrix(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            params = ck.random_params(rng)
            h = ck.build_extremal(params)
            back = ck.params_from_choi(h)
            assert back.u == pytest.approx(params.u, abs=1e-12)
            assert back.y == pytest.approx(params.y, abs=1e-12)
            assert back.z == pytest.approx(params.z, abs=1e-12)
            assert back.t == pytest.approx(params.t, abs=1e-12)

    def test_params_from_choi_rejects_non_extremal(self):
        h = ck.example_family(0.5)
        h[0, 3] = 0.3
        h[3, 0] = 0.3
        with pytest.raises(NotExtremalError):
            ck.params_from_choi(h)
