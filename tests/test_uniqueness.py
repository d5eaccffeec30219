import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choikit as ck
from choikit import extremal, io, uniqueness
from choikit.errors import (EpsilonTooLargeError, HypothesisViolatedError, InvalidParamsError,
                            NotExtremalError)


def candidate_from_cp_part(h1: np.ndarray) -> ck.SplitCandidate:
    return ck.SplitCandidate(
        a1=float(h1[0, 0].real), b1=float(h1[1, 1].real), u1=float(h1[3, 3].real),
        t1=complex(h1[1, 3]), c=complex(h1[0, 1]),
    )


def brute_force_feasible(h, radius=0.2, resolution=1e-2, samples=0, seed=0,
                         tol=uniqueness.FEASIBILITY_TOL):
    """The canonical vector and every feasible point a scan should find: both
    full grids and all seeded samples, masked on all 14 constraint columns."""
    u, y, z, t = extremal.extremal_coefficients(h)
    cvec = ck.canonical_split(h).vector()
    lo, hi = uniqueness._structural_box(u, t)
    boxes = [(lo, hi), (np.maximum(lo, cvec - radius), np.minimum(hi, cvec + radius))]
    cands = []
    for blo, bhi in boxes:
        axes = [uniqueness._axis_points(float(a), float(b), resolution) for a, b in zip(blo, bhi)]
        cands.append(np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1))
    rng = np.random.default_rng(seed)
    for count, (blo, bhi) in zip((samples // 2, samples - samples // 2), boxes):
        cands.append(rng.uniform(blo, bhi, size=(count, 7)))
    cands = np.vstack(cands)
    margins = np.array(uniqueness._constraint_margins(u, y, z, t, cands))
    found = np.vstack([cvec[None, :], cands[np.all(margins >= -tol, axis=0)]])
    found[np.max(np.abs(found - cvec), axis=1) <= tol] = cvec
    return cvec, np.unique(found, axis=0)


def full_lexsort_alternates(cvec, feasible, resolution):
    """Far points by a lexsort of all of them, farthest first, capped at 32."""
    distances = np.max(np.abs(feasible - cvec), axis=1)
    far = np.flatnonzero(distances > 10.0 * resolution)
    far = far[np.lexsort(np.vstack([feasible[far].T[::-1], -distances[far]]))]
    return [(feasible[i].tobytes(), float(distances[i])) for i in far[:32]]


def report_alternates(report):
    return [(cand.vector().tobytes(), dist) for cand, dist in report.alternates]


class TestFeasibility:
    def test_closed_form_candidate_is_feasible_with_tiny_margins(self):
        h = ck.example_family(0.5)
        cand = candidate_from_cp_part(ck.decompose_extremal(h).h1)
        cert = ck.feasibility(h, cand, tol=1e-9)
        assert cert.passed
        assert cert.margin >= -1e-12

    def test_matches_canonical_split(self):
        h = ck.example_family(0.5)
        cand = ck.canonical_split(h)
        from_pair = candidate_from_cp_part(ck.decompose_extremal(h).h1)
        np.testing.assert_allclose(cand.vector(), from_pair.vector(), atol=1e-14)

    def test_shifted_weight_violates_a_named_constraint(self):
        h = ck.example_family(0.5)
        cand = ck.canonical_split(h)
        shifted = ck.SplitCandidate(cand.a1, cand.b1, cand.u1 + 0.05, cand.t1, cand.c)
        cert = ck.feasibility(h, shifted)
        assert not cert.passed
        assert cert.detail in ("CP1", "CcP1")

    def test_lopsided_skew_entry_fails(self):
        h = ck.example_family(0.5)
        cand = ck.canonical_split(h)
        t = complex(h[1, 3])
        lopsided = ck.SplitCandidate(cand.a1, cand.b1, cand.u1, t, cand.c)
        cert = ck.feasibility(h, lopsided)
        assert not cert.passed
        assert cert.detail in ("CP2", "CcP2")

    def test_closed_form_feasible_across_a_sweep(self):
        rng = np.random.default_rng(50)
        for _ in range(500):
            h = ck.build_extremal(ck.random_params(rng))
            cand = candidate_from_cp_part(ck.decompose_extremal(h).h1)
            assert ck.feasibility(h, cand).passed

    def test_split_matrices_sum_to_the_input(self):
        h = ck.example_family(0.5)
        cand = ck.canonical_split(h)
        h1, h2 = ck.split_matrices(h, cand)
        np.testing.assert_allclose(h1 + h2, h, atol=1e-14)

    def test_nan_coefficient_fails_its_constraint(self):
        cand = ck.SplitCandidate(float("nan"), 0.0, 0.0, 0j, 0j)
        cert = ck.feasibility(ck.example_family(0.5), cand)
        assert not cert.passed
        assert cert.detail == "a1>=0"

    def test_feasible_iff_first_part_cp_and_second_co_cp(self):
        # the oracle judges the materialized parts by their eigenvalues, so
        # this pins the mirror y -> z, t -> conj(t2), c -> -c of the second
        # part; values in the band where the two tolerances could disagree
        # are skipped
        rng = np.random.default_rng(5)
        inputs = [ck.example_family(s) for s in (0.2, 0.5, 0.8)]
        inputs += [ck.build_extremal(ck.random_params(rng)) for _ in range(3)]
        inputs += [ck.degenerate_case("u_zero"), ck.degenerate_case("y_zero", z=0.5),
                   ck.degenerate_case("z_zero", y=0.5)]
        verdicts = []
        for h in inputs:
            base = ck.canonical_split(h).vector()
            for k in range(61):
                step = np.zeros(7)
                if k:
                    axes = rng.choice(7, size=rng.choice((1, 1, 2, 3)), replace=False)
                    step[axes] = rng.normal(scale=10.0 ** rng.integers(-3, 0), size=len(axes))
                cand = ck.SplitCandidate.from_vector(base + step)
                h1, h2 = ck.split_matrices(h, cand)
                cert = ck.feasibility(h, cand)
                lam1 = np.linalg.eigvalsh(h1)[0]
                lam2 = np.linalg.eigvalsh(ck.partial_transpose(h2))[0]
                if any(-1e-6 < v < -1e-12 for v in (cert.margin, lam1, lam2)):
                    continue
                assert cert.passed == (ck.cp_check(h1).passed and ck.ccp_check(h2).passed)
                verdicts.append(cert.passed)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 100

    def test_non_extremal_input_rejected(self):
        h = ck.example_family(0.5)
        h[0, 3] = 0.3
        h[3, 0] = 0.3
        with pytest.raises(NotExtremalError):
            ck.feasibility(h, ck.SplitCandidate(0.5, 0.1, 0.1, 0.0, 0.0))


class TestScalarizedPincer:
    def test_only_the_balanced_point_survives(self):
        # p^2 <= q r and (1-p)^2 <= (1-q)(1-r) pin q = r = p on the unit square
        rng = np.random.default_rng(51)
        grid = np.linspace(0.0, 1.0, 1000)
        q, r = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(20):
            p = float(rng.uniform(0.05, 0.95))
            feasible = (p * p <= q * r + 1e-9) & ((1 - p) ** 2 <= (1 - q) * (1 - r) + 1e-9)
            if not np.any(feasible):
                continue
            spread = np.abs(q[feasible] - p) + np.abs(r[feasible] - p)
            assert float(np.max(spread)) <= 2e-3


class TestUniquenessSearch:
    def test_example_instance_has_no_alternates(self):
        h = ck.example_family(0.5)
        report = ck.uniqueness_search(h, radius=0.2, resolution=1e-2,
                                      samples=100_000, seed=7)
        assert report.alternates == ()
        assert report.diameter <= 1e-3
        assert report.feasible_count == 1

    def test_grid_point_a_rounding_off_the_split_is_not_a_second_one(self):
        # the local grid's centre lands within ulps of the canonical split
        report = ck.uniqueness_search(ck.example_family(0.62), samples=0)
        assert report.feasible_count == 1
        assert report.diameter == 0.0

    def test_degenerate_cases_expose_families(self):
        for kind, kwargs, offset_axis in (
            ("z_zero", {"y": 0.5}, 1),   # weight moves off b1
            ("y_zero", {"z": 0.5}, 1),
            ("u_zero", {}, 0),
        ):
            h = ck.degenerate_case(kind, **kwargs)
            report = ck.uniqueness_search(h, radius=0.2, resolution=1e-2,
                                          samples=50_000, seed=8)
            assert report.alternates, kind
            distances = [d for _, d in report.alternates]
            assert max(distances) >= 5e-3
            for cand, _ in report.alternates:
                assert ck.feasibility(h, cand).passed
            spread_axes = {
                int(np.argmax(np.abs(cand.vector() - report.canonical.vector())))
                for cand, _ in report.alternates
            }
            assert offset_axis in spread_axes, (kind, spread_axes)

    def test_z_zero_family_contains_the_diagonal_shift(self):
        h = ck.degenerate_case("z_zero", y=0.5)
        canon = ck.canonical_split(h)
        shifted = ck.SplitCandidate(canon.a1, canon.b1 - 0.01, canon.u1, canon.t1, canon.c)
        assert ck.feasibility(h, shifted).passed
        h1, h2 = ck.split_matrices(h, shifted)
        assert ck.cp_check(h1).passed
        assert ck.ccp_check(h2).passed

    def test_seed_determinism(self):
        h = ck.degenerate_case("u_zero")
        a = ck.uniqueness_search(h, samples=20_000, seed=3)
        b = ck.uniqueness_search(h, samples=20_000, seed=3)
        assert a == b

    def test_invalid_search_parameters(self):
        h = ck.example_family(0.5)
        with pytest.raises(ValueError):
            ck.uniqueness_search(h, resolution=0.0)
        with pytest.raises(ValueError):
            ck.uniqueness_search(h, radius=-1.0)
        with pytest.raises(ValueError):
            ck.uniqueness_search(h, samples=-5)
        for tol in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="tol must be finite"):
                ck.uniqueness_search(h, tol=tol)


class TestEpsilonFamily:
    def test_u_zero_both_classes(self):
        h = ck.degenerate_case("u_zero")
        remainder, shift = ck.epsilon_family(h, 0.1)
        np.testing.assert_allclose(remainder + shift, h, atol=0)
        assert ck.cp_check(remainder).passed and ck.ccp_check(remainder).passed
        assert ck.cp_check(shift).passed and ck.ccp_check(shift).passed

    def test_y_zero_keeps_the_copositive_class(self):
        h = ck.degenerate_case("y_zero", z=0.5)
        remainder, shift = ck.epsilon_family(h, 0.01)
        np.testing.assert_allclose(remainder + shift, h, atol=0)
        assert ck.ccp_check(remainder).passed
        assert ck.cp_check(shift).passed

    def test_z_zero_keeps_the_positive_class(self):
        h = ck.degenerate_case("z_zero", y=0.5)
        remainder, shift = ck.epsilon_family(h, 0.01)
        assert ck.cp_check(remainder).passed
        assert ck.cp_check(shift).passed and ck.ccp_check(shift).passed

    def test_oversized_shift_rejected(self):
        with pytest.raises(EpsilonTooLargeError):
            ck.epsilon_family(ck.degenerate_case("y_zero", z=0.5), 1.0)

    def test_non_degenerate_input_rejected(self):
        with pytest.raises(InvalidParamsError):
            ck.epsilon_family(ck.example_family(0.5), 0.01)

    def test_non_positive_eps_rejected(self):
        with pytest.raises(InvalidParamsError):
            ck.epsilon_family(ck.degenerate_case("u_zero"), 0.0)

    @pytest.mark.parametrize("side, small, unique", [
        ("y", 5e-9, True), ("y", 5e-11, False), ("z", 5e-9, True), ("z", 5e-11, False),
    ], ids=["5e-09-True", "5e-11-False", "z-5e-09-True", "z-5e-11-False"])
    def test_split_decomposition_and_family_share_one_floor(self, side, small, unique):
        # |y| or |z| = 5e-9 is above the floor: the closed-form split is
        # feasible, decompose_extremal builds it and no shift family exists.
        # 5e-11 is below it: all three treat the input as y = 0 (or z = 0),
        # whose split (all weight in the co-CP part, or in the CP part) is
        # feasible to within 4e-11.
        y, z = (small, 0.5 - small) if side == "y" else (0.5 - small, small)
        h = ck.build_extremal(ck.ExtremalParams(u=0.25, y=y, z=z))
        cand = ck.canonical_split(h)
        assert ck.feasibility(h, cand).passed
        assert (0.0 < cand.a1 < 1.0) == unique
        if unique:
            assert ck.verify_decomposition(h, ck.decompose_extremal(h)).passed
            with pytest.raises(InvalidParamsError, match="unique"):
                ck.epsilon_family(h, 1e-3)
        else:
            with pytest.raises(HypothesisViolatedError, match=rf"\|{side}\|"):
                ck.decompose_extremal(h)
            remainder, _ = ck.epsilon_family(h, 1e-3)
            check = ck.ccp_check if side == "y" else ck.cp_check
            assert check(remainder).passed


class TestReportShape:
    def test_alternates_are_sorted_farthest_first_and_capped(self):
        h = ck.degenerate_case("u_zero")
        report = ck.uniqueness_search(h, samples=50_000, seed=8)
        assert len(report.alternates) == uniqueness._ALTERNATES_CAP == 32
        distances = [d for _, d in report.alternates]
        assert distances == sorted(distances, reverse=True)
        assert report.feasible_count > 32

    def test_constraint_names_align_with_margin_table(self):
        h = ck.example_family(0.5)
        cand = ck.canonical_split(h)
        margins = uniqueness._constraint_margins(
            *extremal.extremal_coefficients(h), cand.vector()[None, :])
        assert len(margins) == len(uniqueness.CONSTRAINT_NAMES)
        assert all(m.shape == (1,) for m in margins)


@st.composite
def planted_columns(draw):
    """A (7, n) array with planted duplicates, ties on row 0 and -0.0/0.0
    pairs in every row, drawn from a pool of five values."""
    rows = draw(st.lists(st.lists(st.sampled_from([0.0, 0.25, -0.25, 1.0, -1.0]),
                                  min_size=7, max_size=7), min_size=1, max_size=12))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=24))]
    arr = np.array(rows)[draw(st.permutations(range(len(rows))))]
    flips = np.array(draw(st.lists(st.booleans(), min_size=arr.size, max_size=arr.size)))
    arr[(arr == 0.0) & flips.reshape(arr.shape)] = -0.0
    return np.ascontiguousarray(arr.T)


class TestFirstDistinct:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(planted_columns())
    def test_keeps_the_first_of_each_set_of_float_equal_columns(self, found):
        rows = found.T
        expected = [i for i in range(len(rows))
                    if not any(np.array_equal(rows[i], rows[j]) for j in range(i))]
        first = uniqueness._first_distinct(found)
        assert sorted(first.tolist()) == expected
        assert sorted(rows[i].tobytes() for i in first) == sorted(rows[i].tobytes() for i in expected)
        assert len(first) == len(np.unique(rows, axis=0))


class TestScanAgainstBruteForce:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(17)
        yield "family", ck.example_family(0.5)
        yield "u_zero", ck.degenerate_case("u_zero")
        yield "y_zero", ck.degenerate_case("y_zero", z=0.3 + 0.4j)
        yield "z_zero", ck.degenerate_case("z_zero", y=-0.6j)
        for k in range(3):
            yield f"random{k}", ck.build_extremal(ck.random_params(rng))
        # u - |z|^2 and u - |y|^2 round to -1.1e-16: the boundary families
        # pass CcP1 or CP1 only through the tolerance
        yield "y_zero_rounded", ck.build_extremal(ck.ExtremalParams(0.7, 0.0, math.sqrt(0.7)))
        yield "z_zero_rounded", ck.build_extremal(ck.ExtremalParams(0.7, math.sqrt(0.7), 0.0))

    @pytest.mark.parametrize("resolution", [0.5, 1e-1, 1e-2])
    def test_feasible_set_matches_a_full_grid_scan(self, resolution):
        for name, h in self._inputs():
            report = ck.uniqueness_search(h, resolution=resolution, samples=20_000, seed=4)
            cvec, feasible = brute_force_feasible(h, resolution=resolution,
                                                  samples=20_000, seed=4)
            assert report.feasible_count == len(feasible), name
            assert report.diameter == float(np.max(np.ptp(feasible, axis=0))), name
            assert report_alternates(report) == full_lexsort_alternates(
                cvec, feasible, resolution), name

    def test_odd_sample_count_ends_each_box_on_a_partial_chunk(self):
        # 20_001 splits 10_000 / 10_001 over the two boxes: one full chunk of
        # 8192 each, then 1808 and 1809 rows
        for name, h in self._inputs():
            report = ck.uniqueness_search(h, samples=20_001, seed=5)
            cvec, feasible = brute_force_feasible(h, samples=20_001, seed=5)
            assert report.feasible_count == len(feasible), name
            assert report.diameter == float(np.max(np.ptp(feasible, axis=0))), name
            assert report_alternates(report) == full_lexsort_alternates(cvec, feasible, 1e-2), name

    def test_rounded_inputs_need_the_tolerance(self):
        # their families pass CcP1 (y = 0) or CP1 (z = 0) only at a margin
        # below 0, so a prefilter judging those at 0 would lose them
        rounded = list(self._inputs())[-2:]
        for (name, h), constraint in zip(rounded, ("CcP1", "CP1")):
            _, feasible = brute_force_feasible(h, samples=20_000, seed=4)
            margins = uniqueness._constraint_margins(*extremal.extremal_coefficients(h), feasible)
            column = margins[uniqueness.CONSTRAINT_NAMES.index(constraint)]
            assert len(feasible) > 1 and np.min(column) < 0.0, name

    @pytest.mark.parametrize("tol", [uniqueness.FEASIBILITY_TOL, 1e-3])
    def test_second_stage_needs_the_tolerance(self, tol):
        # on u_zero every candidate passes CP1 and CcP1.  At the default tol,
        # 8 grid points pass CP3 and 36 pass CcP3 only at a rounding margin
        # below 0; at 1e-3 so do 1 and 184 samples.  A CP3/CcP3 prefilter
        # judging those at 0 would lose them
        h = ck.degenerate_case("u_zero")
        _, feasible = brute_force_feasible(h, samples=20_000, seed=4, tol=tol)
        margins = uniqueness._constraint_margins(*extremal.extremal_coefficients(h), feasible)
        for constraint in ("CP3", "CcP3"):
            assert np.min(margins[uniqueness.CONSTRAINT_NAMES.index(constraint)]) < 0.0
        report = ck.uniqueness_search(h, samples=20_000, seed=4, tol=tol)
        assert report.feasible_count == len(feasible)

    @pytest.mark.parametrize("kind, kwargs, tol", [
        ("u_zero", {}, uniqueness.FEASIBILITY_TOL),   # 27 ties at 5/6, 13 beyond
        ("y_zero", {"z": 0.5}, 0.03),                 # 132 ties at 0.2, 5 beyond
    ])
    def test_alternates_match_a_full_lexsort_through_ties_at_the_cap(self, kind, kwargs, tol):
        h = ck.degenerate_case(kind, **kwargs)
        report = ck.uniqueness_search(h, samples=0, tol=tol)
        cvec, feasible = brute_force_feasible(h, samples=0, tol=tol)
        expected = full_lexsort_alternates(cvec, feasible, 1e-2)
        distances = np.max(np.abs(feasible - cvec), axis=1)
        beyond = np.count_nonzero(distances > expected[-1][1])
        ties = np.count_nonzero(distances == expected[-1][1])
        assert beyond < 32 < beyond + ties and ties > 20
        assert report_alternates(report) == expected


class TestReportBytes:
    # SHA-256 of the JSON reports of the README example and the three boundary
    # families: a change to a feasible set, to the order of the alternates,
    # to which of two float-equal points is kept, or to a float's bits shows
    # here.  At 1e6 samples every u_zero sample passes CP1 and CcP1, ~13 %
    # pass CP3 and CcP3, and ~131 k feasible rows are deduplicated
    GOLDEN = (
        ("family", lambda: ck.example_family(0.5), 100_000, 0,
         "230ce776e13c8e02234bc8c7e645dd6508d72758e278d8cde7a3cd3b5cb0a0d1"),
        ("y_zero", lambda: ck.degenerate_case("y_zero", z=0.5), 100_000, 0,
         "379a379af375b737a1f94dd542f05cb53c4a65baf9298d25543cabb8e1106ac2"),
        ("z_zero", lambda: ck.degenerate_case("z_zero", y=0.5), 100_000, 0,
         "7ff0c4ee9ba42da872a1cf317034bcb5f0c8d83eaf23be40cf34c158d7d6ff05"),
        ("u_zero", lambda: ck.degenerate_case("u_zero"), 50_000, 8,
         "dd0a313f0aa62f7d31dee79aa883d68a456801328d5c4739e39af0e49007468a"),
        ("u_zero_1e6", lambda: ck.degenerate_case("u_zero"), 1_000_000, 0,
         "b3edd81aa87ec0db4e0bbdf1938e8b8f6d1a1732d95b2095a382f6f58a53d68f"),
    )

    @pytest.mark.parametrize("name, make, samples, seed, digest", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_report_json_is_pinned(self, name, make, samples, seed, digest):
        report = ck.uniqueness_search(make(), samples=samples, seed=seed)
        text = io.dumps_report(io.report_to_json(report))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # the chunk size also sets the batches in which sample survivors reach
    # the 14-margin test, and those wait across the switch between the two
    # boxes (50_001 samples leave the second box one more); y_zero's grid
    # blocks go through the same step
    @pytest.mark.parametrize("chunk", [1000, 1 << 16])
    @pytest.mark.parametrize("make, samples", [
        (lambda: ck.example_family(0.5), 50_000),
        (lambda: ck.degenerate_case("u_zero"), 50_000),
        (lambda: ck.degenerate_case("y_zero", z=0.5), 50_000),
        (lambda: ck.degenerate_case("u_zero"), 50_001),
        (lambda: ck.degenerate_case("y_zero", z=0.5), 50_001),
    ], ids=["family", "u_zero", "y_zero", "u_zero-odd", "y_zero-odd"])
    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch, make, samples, chunk):
        def report_text():
            report = ck.uniqueness_search(make(), samples=samples, seed=8)
            return io.dumps_report(io.report_to_json(report))

        default = report_text()
        monkeypatch.setattr(uniqueness, "_CHUNK", chunk)
        assert report_text() == default


class TestScanMemory:
    def test_peak_is_at_most_three_times_the_survivor_store(self):
        # tracemalloc sees numpy's buffers; the store holds 7 floats per
        # feasible point (~131 k on u = 0 at 1e6 samples), and full-size
        # temporaries beside it would show here
        tracemalloc.start()
        try:
            report = ck.uniqueness_search(ck.degenerate_case("u_zero"), samples=1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 7 * 8 * report.feasible_count
