"""Replay of the committed CLI transcript: every report byte that the
README promises to keep, bit for bit on the kernel that recorded it.  On any
other kernel the numbers are compared within a tolerance, except those of the
positive check of a JSON certify report (verdict, margin, detail and witness),
and each test says so with a warning."""

import json
import warnings

import pytest

from cli_transcript import (TRANSCRIPT, fingerprint, mismatch, positive_check, run, scale_of,
                            write_inputs)

RECORDED = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
SAME_KERNEL = RECORDED["fingerprint"] == fingerprint()


@pytest.mark.parametrize("want", RECORDED["entries"], ids=lambda e: " ".join(e["argv"]))
def test_a_recorded_command_gives_the_recorded_output(tmp_path, monkeypatch, want):
    texts = RECORDED["inputs"]
    write_inputs(tmp_path, texts)
    monkeypatch.chdir(tmp_path)
    got = run(want["argv"], texts)
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    scale = None
    if not SAME_KERNEL:
        warnings.warn("BLAS/LAPACK fingerprint differs from the recorded one: "
                      "numbers compared within tolerance, not byte for byte")
        scale = scale_of(want["argv"], texts)
    for key in ("stdout", "out"):
        assert mismatch(want.get(key), got.get(key), scale) is None, key
        assert positive_check(got.get(key)) == positive_check(want.get(key)), key
