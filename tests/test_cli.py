import json
import subprocess
import sys

import numpy as np
import pytest

import choikit as ck
from choikit import cli, io

from conftest import random_canonical_matrix


BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "choikit.cli", *args],
        capture_output=True, text=True, input=stdin_text,
    )


def write_matrix(path, matrix):
    path.write_text(json.dumps(io.matrix_to_json(matrix)), encoding="utf-8")


def strip_timing(report_text: str) -> dict:
    report = json.loads(report_text)
    report.pop("timing_s", None)
    return report


class TestMatrixJson:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            again = io.matrix_from_json(json.loads(json.dumps(io.matrix_to_json(m))))
            assert np.array_equal(m, again)

    def test_malformed_inputs_rejected(self):
        with pytest.raises(ValueError):
            io.matrix_from_json({"rows": [[1, 2], [3, 4]]})
        with pytest.raises(ValueError):
            io.matrix_from_json({"rows": [[[0.0, 0.0]] * 3] * 3})
        with pytest.raises(ValueError):
            io.matrix_from_json([1, 2, 3])
        with pytest.raises(ValueError, match=r"^row 3 must have exactly 4 entries$"):
            io.matrix_from_json({"rows": [[[0.0, 0.0]] * 4] * 3 + [[[0.0, 0.0]] * 3]})

    def test_entries_are_ints_or_floats_but_not_booleans(self):
        rows = [[[np.float64(0.5), 0], [1, -2]], [[1, 2], [3, np.float64(-0.25)]]]
        assert np.array_equal(io.matrix_from_json({"rows": rows}),
                              np.array([[0.5, 1 - 2j], [1 + 2j, 3 - 0.25j]]))
        for i, pair in ((0, [True, 0.0]), (1, [0.0, False])):
            bad = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
            bad[1][i] = pair
            message = rf"^entry \(1,{i}\) must be a \[re, im\] pair of numbers$"
            with pytest.raises(ValueError, match=message):
                io.matrix_from_json({"rows": bad})

    def test_complex_literals(self):
        assert io.parse_complex("1+0i") == 1.0
        assert io.parse_complex("0.25") == 0.25
        assert io.parse_complex("-0.3i") == -0.3j
        assert io.parse_complex("i") == 1j
        with pytest.raises(ValueError):
            io.parse_complex("one")

    def test_repr_built_literals_parse_to_their_own_bits(self):
        rng = np.random.default_rng(61)
        values = [complex(v) for v in rng.normal(size=100) + 1j * rng.normal(size=100)]
        values += [complex(v) * 10.0 ** k for v in values[:10] for k in (-300, -5, 20, 300)]
        for v in values + [complex(0.5, 0.0), complex(-0.0, 1e-05)]:
            got = io.parse_complex(f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i")
            assert (got.real.hex(), got.imag.hex()) == (v.real.hex(), v.imag.hex())


class TestGenerate:
    def test_example_family_instance(self):
        result = run_cli("generate", "--example-s", "0.5")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        matrix = io.matrix_from_json(report["results"]["matrix"])
        np.testing.assert_allclose(matrix, ck.example_family(0.5), atol=0)
        assert report["results"]["validate"]["verdict"] == "PASS"

    def test_identity_map_parameters(self):
        result = run_cli("generate", "--u", "1", "--y", "1+0i", "--z", "0")
        assert result.returncode == 0, result.stderr
        matrix = io.matrix_from_json(json.loads(result.stdout)["results"]["matrix"])
        np.testing.assert_allclose(matrix, ck.choi_from_action(lambda a: a), atol=0)

    def test_degenerate_instance(self):
        result = run_cli("generate", "--degenerate", "y_zero", "--z", "0.5")
        assert result.returncode == 0, result.stderr
        matrix = io.matrix_from_json(json.loads(result.stdout)["results"]["matrix"])
        np.testing.assert_allclose(matrix, ck.degenerate_case("y_zero", z=0.5), atol=0)

    def test_invalid_parameters_exit_2(self):
        result = run_cli("generate", "--u", "0.25", "--y", "0.5", "--z", "0.5")
        assert result.returncode == 2
        assert "error" in result.stderr

    @pytest.mark.parametrize("argv, message", [
        (["--u", "0.3", "--y", "0.2738612788", "--z", "0.2738612788"], "violate condition2"),
        (["--degenerate", "y_zero", "--y", "0.3", "--z", "0.5"], "y_zero sets y to zero"),
        (["--degenerate", "u_zero", "--z", "0.5"], "u_zero sets z to zero"),
    ])
    def test_parameters_the_matrix_would_not_honour_exit_2(self, capsys, argv, message):
        assert cli.main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--example-s", "0.5", "--y", "3", "--t-branch", "-"], "--y is not used with --example-s"),
        (["--example-s", "0.5", "--t-branch", "+"], "--t-branch is not used with --example-s"),
        (["--degenerate", "y_zero", "--z", "0.5", "--t-branch", "-"],
         "--t-branch is not used with --degenerate"),
    ])
    def test_a_flag_the_mode_does_not_read_exits_2(self, capsys, argv, message):
        assert cli.main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        ([], "choose exactly one of --example-s, --degenerate, or --u/--y/--z"),
        (["--example-s", "0.5", "--degenerate", "u_zero"],
         "choose exactly one of --example-s, --degenerate, or --u/--y/--z"),
        (["--u", "0.25", "--y", "0.25"], "--u requires --y and --z"),
        (["--u", "0.25", "--y", "", "--z", "0.25"], "empty complex literal"),
        (["--u", "0.25", "--y", "1e999", "--z", "0.25"], "complex literal '1e999' is not finite"),
        (["--u", "0.25", "--y", "inf", "--z", "0.25"], "complex literal 'inf' is not finite"),
        (["--u", "0.25", "--y=-inf", "--z", "0.25"], "complex literal '-inf' is not finite"),
        (["--u", "0.25", "--y", "infinity", "--z", "0.25"],
         "complex literal 'infinity' is not finite"),
        (["--u", "0.25", "--y", "0.25", "--z", "2+infi"], "complex literal '2+infi' is not finite"),
    ], ids=["no-mode", "two-modes", "u-without-z", "empty-y", "infinite-y", "inf-y", "minus-inf-y",
            "infinity-y", "infinite-imaginary-z"])
    def test_a_missing_mode_or_an_unusable_value_exits_2(self, capsys, argv, message):
        assert cli.main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_u_mode_defaults_to_the_plus_branch(self, capsys):
        assert cli.main(["generate", "--u", "0.25", "--y", "0.25", "--z", "0.25"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["params"]["t_branch"] == "+"

    def test_pretty_output_renders_verdicts(self):
        result = run_cli("generate", "--example-s", "0.5", "--pretty")
        assert result.returncode == 0
        assert "PASS" in result.stdout


class TestCertify:
    def test_example_instance_mixed_verdicts(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.example_family(0.5))
        result = run_cli("certify", str(path), "--positive", "--cp", "--ccp")
        assert result.returncode == 1
        checks = json.loads(result.stdout)["results"]["checks"]
        assert checks["positive"]["verdict"] == "PASS"
        assert checks["cp"]["verdict"] == "FAIL"
        assert checks["ccp"]["verdict"] == "FAIL"

    def test_identity_choi_cp_exit_zero(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.choi_from_action(lambda a: a))
        result = run_cli("certify", str(path), "--cp")
        assert result.returncode == 0
        assert json.loads(result.stdout)["results"]["checks"]["cp"]["verdict"] == "PASS"

    def test_default_checks_are_the_class_trio(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.degenerate_case("u_zero"))
        result = run_cli("certify", str(path))
        checks = json.loads(result.stdout)["results"]["checks"]
        assert set(checks) == {"positive", "cp", "ccp"}
        assert result.returncode == 0

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        result = run_cli("certify", str(path), "--cp")
        assert result.returncode == 2

    def test_boolean_entries_exit_2(self, tmp_path):
        # JSON true/false are not numbers, although Python's bool is an int
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"rows": [[[True, False]] * 4] * 4}), encoding="utf-8")
        result = run_cli("certify", str(path), "--cp")
        assert result.returncode == 2
        assert "entry (0,0)" in result.stderr

    def test_non_hermitian_input_exit_2_whatever_the_tol(self, tmp_path):
        # a loose verdict tolerance does not loosen the hermiticity guard
        m = np.eye(4, dtype=np.complex128)
        m[0, 1] = 1e-4
        path = tmp_path / "m.json"
        write_matrix(path, m)
        for flag in ("--positive", "--cp", "--ccp"):
            result = run_cli("certify", str(path), flag, "--tol", "1e-3")
            assert result.returncode == 2, flag
            assert "hermiticity" in result.stderr

    def test_canonical_checks_share_the_hermiticity_threshold(self, tmp_path):
        # a residual of 5e-10 is within the pattern tolerance but not
        # within the hermiticity threshold every other check uses
        m = ck.degenerate_case("z_zero", y=0.5)
        m[0, 1] += 5e-10
        path = tmp_path / "m.json"
        write_matrix(path, m)
        for flag in ("--canonical-cp", "--canonical-ccp", "--face-form", "--extremal"):
            result = run_cli("certify", str(path), flag)
            assert result.returncode == 2, flag
            assert "hermiticity" in result.stderr, flag

    def test_stdin_input(self):
        payload = json.dumps(io.matrix_to_json(ck.choi_from_action(lambda a: a)))
        result = run_cli("certify", "-", "--cp", stdin_text=payload)
        assert result.returncode == 0


class TestDecompose:
    def test_example_instance_emits_parts_and_operators(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.example_family(0.5))
        result = run_cli("decompose", str(path))
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        pair = ck.decompose_extremal(ck.example_family(0.5))
        np.testing.assert_allclose(io.matrix_from_json(results["H1"]), pair.h1, atol=0)
        np.testing.assert_allclose(io.matrix_from_json(results["H2"]), pair.h2, atol=0)
        np.testing.assert_allclose(io.matrix_from_json(results["U1"]), pair.k1, atol=0)
        np.testing.assert_allclose(io.matrix_from_json(results["U2"]), pair.k2, atol=0)
        assert results["verify"]["verdict"] == "PASS"
        assert complex(*results["c"]) == pytest.approx(pair.c)

    def test_degenerate_input_exit_2_with_reason(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.degenerate_case("z_zero", y=0.5))
        result = run_cli("decompose", str(path))
        assert result.returncode == 2
        assert "|z|" in result.stderr

    def test_random_instance_via_generate_pipe(self, tmp_path):
        gen = run_cli("generate", "--u", "0.49", "--y", "0.35", "--z", "0.35i")
        assert gen.returncode == 0
        matrix_json = json.dumps(json.loads(gen.stdout)["results"]["matrix"])
        result = run_cli("decompose", "-", stdin_text=matrix_json)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["results"]["verify"]["verdict"] == "PASS"


class TestExplore:
    def test_example_instance_reports_no_alternates(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.example_family(0.5))
        result = run_cli("explore", str(path), "--samples", "20000", "--seed", "5")
        assert result.returncode == 0, result.stderr
        search = json.loads(result.stdout)["results"]["search"]
        assert search["alternates"] == []
        assert search["diameter"] <= 1e-3

    def test_degenerate_instance_reports_alternates_and_shift_family(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.degenerate_case("y_zero", z=0.5))
        result = run_cli("explore", str(path), "--samples", "20000",
                         "--seed", "5", "--epsilon", "0.01")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["search"]["alternates"]
        assert max(a["distance"] for a in results["search"]["alternates"]) >= 5e-3
        shift = io.matrix_from_json(results["epsilon_family"]["shift"])
        assert shift[1, 1] == 0.01

    def test_readme_example(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.degenerate_case("y_zero", z=0.5))
        result = run_cli("explore", str(path), "--samples", "100000",
                         "--seed", "0", "--epsilon", "0.01")
        assert result.returncode == 0, result.stderr
        search = json.loads(result.stdout)["results"]["search"]
        assert search["feasible_count"] == 13
        assert search["diameter"] == 0.75
        assert search["grid_points"] == 33614
        assert [a["distance"] for a in search["alternates"]] == [
            0.75, 0.625, 0.5, 0.375, 0.25, 0.2, 1 / 6, 0.13333333333333333, 0.125]

    def test_zero_resolution_exit_2(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.example_family(0.5))
        result = run_cli("explore", str(path), "--resolution", "0")
        assert result.returncode == 2

    def test_seed_determinism_modulo_timing(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, ck.degenerate_case("u_zero"))
        first = run_cli("explore", str(path), "--samples", "20000", "--seed", "9")
        second = run_cli("explore", str(path), "--samples", "20000", "--seed", "9")
        assert strip_timing(first.stdout) == strip_timing(second.stdout)


class TestOutputFile:
    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("generate", "--example-s", "0.5", "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["command"] == "generate"
        assert report["tool"] == "choikit"


    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_an_unwritable_path_exits_2(self, tmp_path, capsys, target):
        # a missing directory, then a directory where the file should be
        out = tmp_path / target
        assert cli.main(["generate", "--example-s", "0.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ") and str(out) in captured.err


class TestMalformedInput:
    def test_an_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        rows = [[[0, 0]] * 4 for _ in range(4)]
        rows[1][2] = [0, 10 ** 400]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
        assert cli.main(["certify", str(path)]) == 2
        assert capsys.readouterr().err == "error: entry (1,2) does not fit in a float\n"

    def test_json_nested_deeper_than_the_recursion_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert cli.main(["certify", str(path)]) == 2
        assert "error: maximum recursion depth exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, argv", [
        (1e300 * ck.degenerate_case("z_zero", y=0.5), ["certify", "{path}", "--canonical-cp"]),
        (1e300 * ck.degenerate_case("z_zero", y=0.5), ["decompose", "{path}"]),
        (1e300 * ck.degenerate_case("z_zero", y=0.5), ["explore", "{path}", "--samples", "10"]),
        (1.7e308 * np.eye(4), ["certify", "{path}"]),
    ], ids=["certify-canonical-cp", "decompose", "explore", "certify"])
    def test_entries_whose_cubes_overflow_exit_2_naming_the_scale(
            self, tmp_path, capsys, matrix, argv):
        # unguarded, a cube of 1e300 raises OverflowError (a traceback, exit 1), and
        # 1.7e308 * I overflows block_positive's Pauli table into a LinAlgError
        path = tmp_path / "m.json"
        write_matrix(path, matrix)
        assert cli.main([a.format(path=path) for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: entries up to {np.abs(matrix).max():.3e} in modulus "
                           "are too large: their cubes overflow\n")

    @pytest.mark.parametrize("matrix, argv", [
        (1e-170 * np.diag([1.0, -1.0, 1.0, 1.0]), ["certify", "{path}"]),
        (1e-110 * ck.degenerate_case("z_zero", y=0.5), ["certify", "{path}", "--canonical-cp"]),
        (1e-110 * ck.degenerate_case("z_zero", y=0.5), ["decompose", "{path}"]),
        (1e-110 * ck.degenerate_case("z_zero", y=0.5), ["explore", "{path}", "--samples", "10"]),
    ], ids=["certify", "certify-canonical-cp", "decompose", "explore"])
    def test_entries_whose_cubes_underflow_exit_2_naming_the_scale(
            self, tmp_path, capsys, matrix, argv):
        # unguarded, certify reports positive PASS with margin 5e-171 on the first
        # input, whose true minimum is -1e-170
        path = tmp_path / "m.json"
        write_matrix(path, matrix)
        assert cli.main([a.format(path=path) for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: entries up to {np.abs(matrix).max():.3e} in modulus "
                           "are too small: their cubes underflow\n")

    def test_entries_whose_cubes_fit_keep_the_unscaled_report(self, tmp_path, capsys):
        reports = []
        for scale in (1.0, 1e-100):
            path = tmp_path / "m.json"
            write_matrix(path, scale * np.diag([1.0, -1.0, 1.0, 1.0]))
            assert cli.main(["certify", str(path)]) == 1
            reports.append(json.loads(capsys.readouterr().out)["results"]["checks"])
        assert {k: c["verdict"] for k, c in reports[1].items()} == \
            {k: c["verdict"] for k, c in reports[0].items()}

    def test_a_resolution_too_small_for_the_grid_count_gives_the_capped_grid(
            self, tmp_path, capsys):
        # span / 1e-320 overflows a float; every such resolution gives 7 points an axis
        path = tmp_path / "m.json"
        write_matrix(path, ck.example_family(0.5))
        reports = []
        for resolution in ("1e-320", "1e-9"):
            assert cli.main(["explore", str(path), "--resolution", resolution,
                             "--samples", "0"]) == 0
            reports.append(json.loads(capsys.readouterr().out)["results"]["search"])
        assert reports[0]["grid_points"] == reports[1]["grid_points"]
        assert reports[0]["resolution"] == 1e-320


class TestInProcess:
    def test_a_rejected_command_line_leaves_the_next_call_unchanged(self, capsys):
        # main reuses one parser; argparse's exit 2 must leave it as new
        argv = ["generate", "--u", "0.25", "--y", "0.25+0i", "--z", "0.25", "--seed", "3"]
        fresh = run_cli(*argv)
        assert fresh.returncode == 0, fresh.stderr
        for bad in (["generate", "--no-such-flag"], ["generate", "--example-s", "0.5",
                                                      "--json", "--pretty"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert strip_timing(capsys.readouterr().out) == strip_timing(fresh.stdout)
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("matrix, code", [
        (1e6 * np.outer(BELL, BELL), 0),  # |Phi+><Phi+| is CP; its margin is rounding
        (-1e-12 * np.eye(4), 1),
    ])
    def test_cp_verdict_does_not_depend_on_the_scale(self, tmp_path, capsys, matrix, code):
        path = tmp_path / "m.json"
        write_matrix(path, matrix)
        assert cli.main(["certify", str(path), "--cp"]) == code
        cert = json.loads(capsys.readouterr().out)["results"]["checks"]["cp"]
        assert cert["verdict"] == ("PASS" if code == 0 else "FAIL")

    def test_canonical_cp_accepts_a_scaled_psd_input(self, tmp_path, capsys):
        # G G* is Hermitian only up to rounding, and that rounding grows with
        # the scale; the hermiticity threshold grows with it
        path = tmp_path / "m.json"
        write_matrix(path, 1e6 * random_canonical_matrix(np.random.default_rng(1), "psd"))
        assert cli.main(["certify", str(path), "--canonical-cp"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("argv", [
        ["certify", "{path}"],
        ["decompose", "{path}"],
        ["explore", "{path}", "--samples", "0"],
        ["generate", "--example-s", "0.5"],
    ], ids=["certify", "decompose", "explore", "generate"])
    def test_a_tolerance_that_is_not_finite_and_nonnegative_is_a_usage_error(
            self, tmp_path, capsys, argv, tol):
        # inf would pass every check on -I, and nan or -1 fail every check on
        # a valid map: neither says anything about the input
        path = tmp_path / "m.json"
        write_matrix(path, ck.example_family(0.5))
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(path=path) for arg in argv] + ["--tol", tol])
        assert exc.value.code == 2
        assert "argument --tol: must be finite and >= 0" in capsys.readouterr().err

    def test_a_tolerance_that_is_not_a_number_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--example-s", "0.5", "--tol", "abc"])
        assert exc.value.code == 2
        assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err

    def test_explore_applies_the_tolerance_to_the_epsilon_family(self, tmp_path, capsys):
        # eps = 0.75 + 5e-11 leaves the remainder a ccp lambda_min of -5e-11:
        # within the default tolerance, outside a zero one
        path = tmp_path / "m.json"
        write_matrix(path, ck.degenerate_case("y_zero", z=0.5))
        argv = ["explore", str(path), "--samples", "0", "--epsilon", "0.75000000005"]
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--tol", "0"]) == 2
        assert "remainder fails the ccp check" in capsys.readouterr().err

    def test_a_zero_tolerance_still_runs(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix(path, np.eye(4))
        assert cli.main(["certify", str(path), "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 0.0
