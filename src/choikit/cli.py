"""Command-line surface: generate, certify, decompose, explore.

Every command emits a machine-readable JSON report (default) or a
human-readable rendering of the same dict (--pretty).  Exit codes:
0 all requested checks passed, 1 a certified check failed, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__, certify, decompose, extremal, io, uniqueness


def _tolerance(text: str) -> float:
    """--tol's type: a finite float >= 0 (inf, nan or < 0 would fix every verdict)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="override the default tolerance (finite, >= 0, relative to max|H|)")
    parser.add_argument("--seed", type=int, default=0, help="random seed where applicable")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable output (default)")
    fmt.add_argument("--pretty", action="store_true", help="human-readable output")
    parser.add_argument("--out", default=None, help="write the report to this file")


_CERTIFY_CHECKS = {  # certify's flags, in --help order: --positive, ..., --canonical-ccp
    "positive": certify.block_positive,
    "cp": certify.cp_check,
    "ccp": certify.ccp_check,
    "extremal": extremal.validate_extremal,
    "face_form": certify.face_form_inequalities,
    "canonical_cp": certify.canonical_cp_conditions,
    "canonical_ccp": certify.canonical_ccp_conditions,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="choikit",
        description="Construct, certify, and split positive maps on 2x2 matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a canonical extremal Choi matrix")
    gen.add_argument("--example-s", type=float, default=None,
                     help="one-parameter family instance, 0 < s < 1")
    gen.add_argument("--degenerate", choices=["u_zero", "y_zero", "z_zero"], default=None)
    gen.add_argument("--u", type=float, default=None)
    gen.add_argument("--y", type=str, default=None, help="complex literal, e.g. 0.25+0i")
    gen.add_argument("--z", type=str, default=None, help="complex literal, e.g. 0.25")
    gen.add_argument("--t-branch", choices=["+", "-"], default=None, help="branch of t (default +)")
    _common_flags(gen)

    cer = sub.add_parser("certify", help="run positivity-class checks on a matrix file")
    cer.add_argument("matrix", help="path to a matrix JSON file ('-' for stdin)")
    for name in _CERTIFY_CHECKS:
        cer.add_argument("--" + name.replace("_", "-"), action="store_true")
    _common_flags(cer)

    dec = sub.add_parser("decompose", help="split an extremal matrix into CP + co-CP parts")
    dec.add_argument("matrix", help="path to a matrix JSON file ('-' for stdin)")
    _common_flags(dec)

    exp = sub.add_parser("explore", help="scan for alternative feasible splits")
    exp.add_argument("matrix", help="path to a matrix JSON file ('-' for stdin)")
    exp.add_argument("--radius", type=float, default=0.2)
    exp.add_argument("--resolution", type=float, default=1e-2)
    exp.add_argument("--samples", type=int, default=100_000)
    exp.add_argument("--epsilon", type=float, default=None,
                     help="also emit the diagonal shift family with this eps")
    _common_flags(exp)
    return parser


def _load_matrix(path: str):
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except RecursionError as exc:  # JSON nested deeper than the interpreter's limit
        raise ValueError(str(exc)) from None
    return io.matrix_from_json(obj), hashlib.sha256(raw).hexdigest()


def _tol(args) -> dict:
    """--tol as keyword arguments; without it the library's default applies."""
    return {} if args.tol is None else {"tol": args.tol}


def _run_generate(args) -> tuple[dict, int]:
    # each mode and the optional flags that it reads; passing any other is an error
    modes = {"--example-s": (), "--degenerate": ("--y", "--z"), "--u": ("--y", "--z", "--t-branch")}
    chosen = [m for m, v in zip(modes, (args.example_s, args.degenerate, args.u)) if v is not None]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --example-s, --degenerate, or --u/--y/--z")
    for flag, value in (("--y", args.y), ("--z", args.z), ("--t-branch", args.t_branch)):
        if value is not None and flag not in modes[chosen[0]]:
            raise ValueError(f"{flag} is not used with {chosen[0]}")
    if args.example_s is not None:
        matrix = extremal.example_family(args.example_s)
        params: dict = {"example_s": args.example_s}
    elif args.degenerate is not None:
        y = io.parse_complex(args.y) if args.y is not None else 0.0
        z = io.parse_complex(args.z) if args.z is not None else 0.0
        matrix = extremal.degenerate_case(args.degenerate, y=y, z=z)
        params = {"degenerate": args.degenerate,
                  "y": io.complex_pair(y), "z": io.complex_pair(z)}
    else:
        if args.y is None or args.z is None:
            raise ValueError("--u requires --y and --z")
        pset = extremal.ExtremalParams(
            u=args.u,
            y=io.parse_complex(args.y),
            z=io.parse_complex(args.z),
            t_branch=args.t_branch or "+",
        )
        matrix = extremal.build_extremal(pset)
        params = {"u": pset.u, "y": io.complex_pair(pset.y),
                  "z": io.complex_pair(pset.z), "t_branch": pset.t_branch}
    cert = extremal.validate_extremal(matrix, **_tol(args))
    results = {
        "matrix": io.matrix_to_json(matrix),
        "params": params,
        "validate": io.certificate_to_json(cert),
    }
    digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()
    return _report(args, results, digest), 0 if cert.passed else 1


def _run_certify(args) -> tuple[dict, int]:
    matrix, digest = _load_matrix(args.matrix)
    requested = [name for name in _CERTIFY_CHECKS if getattr(args, name)]
    certs = {name: _CERTIFY_CHECKS[name](matrix, **_tol(args))
             for name in requested or ("positive", "cp", "ccp")}
    results = {"checks": {name: io.certificate_to_json(cert) for name, cert in certs.items()}}
    return _report(args, results, digest), 0 if all(cert.passed for cert in certs.values()) else 1


def _run_decompose(args) -> tuple[dict, int]:
    matrix, digest = _load_matrix(args.matrix)
    pair = decompose.decompose_extremal(matrix)
    cert = decompose.verify_decomposition(matrix, pair, **_tol(args))
    results = dict(io.pair_to_json(pair))
    results["verify"] = io.certificate_to_json(cert)
    return _report(args, results, digest), 0 if cert.passed else 1


def _run_explore(args) -> tuple[dict, int]:
    matrix, digest = _load_matrix(args.matrix)
    report = uniqueness.uniqueness_search(
        matrix, radius=args.radius, resolution=args.resolution,
        samples=args.samples, seed=args.seed, **_tol(args),
    )
    results: dict = {"search": io.report_to_json(report)}
    if args.epsilon is not None:
        remainder, shift = uniqueness.epsilon_family(matrix, args.epsilon, **_tol(args))
        results["epsilon_family"] = {
            "eps": args.epsilon,
            "remainder": io.matrix_to_json(remainder),
            "shift": io.matrix_to_json(shift),
        }
    return _report(args, results, digest), 0


def _report(args, results: dict, input_hash: str) -> dict:
    return {
        "tool": "choikit",
        "version": __version__,
        "command": args.command,
        "input_sha256": input_hash,
        "seed": args.seed,
        "tol": args.tol,
        "results": results,
    }


_RUNNERS = {
    "generate": _run_generate,
    "certify": _run_certify,
    "decompose": _run_decompose,
    "explore": _run_explore,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:  # ChoiKitError and json.JSONDecodeError are ValueErrors
        report, code = _RUNNERS[args.command](args)
        report["timing_s"] = time.perf_counter() - started
        text = io.dumps_report(report, pretty=args.pretty)
        text = text if text.endswith("\n") else text + "\n"
        if args.out:  # an unwritable path is an input error too
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
