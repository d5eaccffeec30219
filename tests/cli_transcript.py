"""A transcript of CLI runs, and the helpers that record and compare it.

Each entry is one `choikit` command line run in-process through cli.main:
its argv, its stdout and any --out file with the timing key taken out, its
stderr and its exit code.  test_cli_transcript.py replays the entries
against cli_transcript.json.  To regenerate the file after a deliberate
change of the reports, run from the repository root

    PYTHONPATH=src python tests/cli_transcript.py

Floats that pass through BLAS or LAPACK (eigh, norms, matrix products)
move in their last bits with the CPU kernel.  So the file stores a
fingerprint of the kernel: where it matches, the replay compares bytes;
elsewhere it compares each number x within REL_TOL * max(|x|, max|H|) and
all other text exactly, and the whole positive check of a JSON certify
report (verdict, margin, detail and witness) exactly, since block_positive
runs without BLAS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as textio
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import choikit as ck
from choikit import cli, io

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")
REL_TOL = 1e-13
# a number, or a part of a complex one ("1.5-2e-18i"), but not the digits of a
# hash or of a name such as "B1"
NUMBER = re.compile(r"(?:(?<=\d)(?=[-+])|(?<![\w.]))(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)"
                    r"(?=i?(?![\w.]))")


def _matrix_text(m) -> str:
    return json.dumps(io.matrix_to_json(m))


def inputs() -> dict[str, str]:
    """File name -> the exact text of each input file."""
    rng = np.random.default_rng(12)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = 0.5 * (g + g.conj().T)
    family = ck.example_family(0.5)
    params = ck.build_extremal(ck.random_params(np.random.default_rng(7)))
    overflow = np.eye(4, dtype=np.complex128)
    overflow[0, 3] = overflow[3, 0] = 1.5e308 * (1 + 1j)
    return {
        "family.json": _matrix_text(family),
        "params.json": _matrix_text(params),
        "y_zero.json": _matrix_text(ck.degenerate_case("y_zero", z=0.5)),
        "z_zero.json": _matrix_text(ck.degenerate_case("z_zero", y=0.6)),
        "u_zero.json": _matrix_text(ck.degenerate_case("u_zero")),
        "identity.json": _matrix_text(ck.choi_from_action(lambda a: a)),
        "hermitian.json": _matrix_text(herm),
        "gapped.json": _matrix_text(herm + 4.0 * np.eye(4)),
        "near.json": _matrix_text(family + 1e-6 * np.eye(4)),
        "scaled_up.json": _matrix_text(1e100 * family),
        "scaled_down.json": _matrix_text(1e-100 * params),
        "huge.json": _matrix_text(1e200 * family),
        "tiny.json": _matrix_text(1e-170 * np.diag([1.0, -1.0, 1.0, 1.0])),
        "overflow.json": _matrix_text(overflow),
        "nonhermitian.json": _matrix_text(g),
        "two.json": _matrix_text(np.eye(2)),
        "three.json": _matrix_text(np.eye(3)),
        "nan.json": _matrix_text(np.diag([1.0, float("nan"), 1.0, 1.0])),
        "bad.json": "{\"rows\": ",
    }


ALL_CHECKS = ["--positive", "--cp", "--ccp", "--extremal", "--face-form",
              "--canonical-cp", "--canonical-ccp"]

COMMANDS = [
    *[["certify", name] for name in (
        "family.json", "params.json", "y_zero.json", "z_zero.json", "u_zero.json",
        "identity.json", "hermitian.json", "gapped.json", "near.json", "scaled_up.json",
        "scaled_down.json", "huge.json", "tiny.json", "overflow.json", "nonhermitian.json",
        "two.json", "three.json", "nan.json", "bad.json", "missing.json")],
    ["certify", "family.json", *ALL_CHECKS],
    ["certify", "params.json", *ALL_CHECKS],
    ["certify", "z_zero.json", "--canonical-cp", "--canonical-ccp", "--face-form"],
    ["certify", "y_zero.json", "--extremal", "--positive"],
    ["certify", "hermitian.json", "--canonical-cp"],
    ["certify", "scaled_up.json", "--canonical-ccp", "--extremal"],
    ["certify", "gapped.json", "--tol", "0"],
    ["certify", "family.json", "--tol", "1e-6", "--pretty"],
    ["certify", "hermitian.json", "--pretty"],
    ["certify", "family.json", "--out", "certify_out.json"],
    ["certify", "params.json", "--cp", "--out", "no_such_dir/out.json"],
    ["certify", "-"],
    ["decompose", "family.json"],
    ["decompose", "params.json", "--pretty"],
    ["decompose", "scaled_up.json"],
    ["decompose", "y_zero.json"],
    ["decompose", "hermitian.json"],
    ["decompose", "huge.json"],
    ["explore", "family.json", "--samples", "2000"],
    ["explore", "y_zero.json", "--samples", "2000", "--epsilon", "0.01"],
    ["explore", "u_zero.json", "--samples", "500", "--pretty"],
    ["explore", "z_zero.json", "--samples", "0", "--tol", "1e-8"],
    ["explore", "params.json", "--samples", "1000", "--seed", "3"],
    ["explore", "tiny.json", "--samples", "10"],
    ["generate", "--example-s", "0.5"],
    ["generate", "--degenerate", "z_zero", "--y", "0.5"],
    ["generate", "--u", "0.36", "--y", "0.3", "--z", "0.3i", "--t-branch", "-"],
    ["generate", "--example-s", "0.25", "--pretty"],
    ["generate", "--example-s", "2"],
    ["generate", "--example-s", "0.5", "--out", "generate_out.json"],
]
STDIN_FILE = "family.json"  # what `certify -` reads


def strip_timing(text: str) -> str:
    """The report without its timing key, in the JSON or the --pretty form."""
    text = re.sub(r'"timing_s": [^,}]+, ', "", text)
    return re.sub(r"^timing_s: .*\n", "", text, flags=re.MULTILINE)


def fingerprint() -> str:
    """A hash of numpy's version and of the BLAS and LAPACK calls the reports
    go through (eigh of complex 4x4 matrices, complex products, the norm of
    a complex 2-vector) on fixed probes.  It reads no choikit code, so a
    change of choikit's own bits cannot change it."""
    rng = np.random.default_rng(5)
    digest = hashlib.sha256(np.__version__.encode())
    for _ in range(4):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        for arr in (*np.linalg.eigh(h), g @ h, np.linalg.norm(h[0, :2])):
            digest.update(np.asarray(arr).tobytes())
    return digest.hexdigest()[:16]


def positive_check(text: str | None) -> dict | None:
    """The positive check of a JSON certify report (verdict, margin, detail and
    witness), else None."""
    try:
        return json.loads(text)["results"]["checks"]["positive"]
    except (TypeError, ValueError, KeyError):
        return None


def run(argv: list[str], texts: dict[str, str]) -> dict:
    """Run one command in the current directory, where the inputs are written."""
    out, err = textio.StringIO(), textio.StringIO()
    stdin = sys.stdin
    sys.stdin = textio.TextIOWrapper(textio.BytesIO(texts[STDIN_FILE].encode()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    entry = {"argv": argv, "code": code, "stdout": strip_timing(out.getvalue()),
             "stderr": err.getvalue()}
    if "--out" in argv:
        target = Path(argv[argv.index("--out") + 1])
        entry["out"] = strip_timing(target.read_text(encoding="utf-8")) if target.exists() else None
    return entry


def write_inputs(directory: Path, texts: dict[str, str]) -> None:
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")


def scale_of(argv: list[str], texts: dict[str, str]) -> float:
    """max|H| of the command's input file, 1 where there is none or it does not parse."""
    name = STDIN_FILE if argv[1] == "-" else argv[1]
    try:
        return float(np.abs(io.matrix_from_json(json.loads(texts[name]))).max())
    except (KeyError, ValueError):
        return 1.0


def mismatch(want: str | None, got: str | None, scale: float | None) -> str | None:
    """None if got matches want: bytes when scale is None, else each number x
    within REL_TOL * max(|x|, scale) and all other text exactly; otherwise a
    description."""
    if want == got:
        return None
    if scale is None or want is None or got is None:
        return f"expected {want!r}, got {got!r}"
    if NUMBER.split(want) != NUMBER.split(got):
        return f"text differs: expected {want!r}, got {got!r}"
    for a, b in zip(NUMBER.findall(want), NUMBER.findall(got)):
        x, y = float(a), float(b)
        tol = REL_TOL * max(abs(x), scale)
        if not (x == y or (math.isfinite(x) and math.isfinite(y) and abs(x - y) <= tol)):
            return f"number {b} differs from {a} by more than {tol:.1e}"
    return None


def record() -> dict:
    texts = inputs()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp), texts)
            entries = [run(argv, texts) for argv in COMMANDS]
        finally:
            os.chdir(cwd)
    return {"fingerprint": fingerprint(), "inputs": texts, "entries": entries}


if __name__ == "__main__":
    TRANSCRIPT.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(COMMANDS)} entries to {TRANSCRIPT}")
