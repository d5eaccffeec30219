"""A fixed calibration slice that measures how fast the CPU runs right now.

The shared host runs interpreter-bound code at speeds that swing by up to
2x within seconds, while the work stays the same (CPU time equals wall
time, so the process is not waiting). The slice is fixed work of the same
kind as the short ops and the set-up: Python-level calls into small numpy
arrays, one vectorized pass over a few thousand points and a JSON round
trip. Nothing here imports choikit, so no change to the library moves it.

A time t measured next to slices that took c seconds each is reported as
t * REF_SLICE_S / c: the time it would take at the CPU speed where one slice
takes REF_SLICE_S.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Seconds one slice takes at the reference speed; roughly its time on a
# quiet 2-core x86-64 host (Python 3.11, numpy 2).
REF_SLICE_S = 1e-3
# Slices on each side of an op whose median scales it: about 0.1 s of ops,
# shorter than the host's speed swings.
WINDOW = 5

_RNG = np.random.default_rng(20240601)
_G = _RNG.normal(size=(4, 4, 4)) + 1j * _RNG.normal(size=(4, 4, 4))
_H = [g @ g.conj().T for g in _G]
_THETA = _RNG.uniform(0.0, np.pi, 1024)
_PHI = _RNG.uniform(0.0, 2.0 * np.pi, 1024)
_DOC = {"re": [[1.5, -2.25], [0.125, 3.0]] * 4, "im": [[0.5, 0.0], [-1.0, 2.5]] * 4}


def _slice() -> float:
    acc = 0.0
    c0 = np.cos(0.5 * _THETA)
    c1 = np.sin(0.5 * _THETA) * np.exp(1j * _PHI)
    for h in _H:
        q = (np.conj(c0) * c0 * h[0, 0] + np.conj(c0) * c1 * h[0, 1]
             + c0 * np.conj(c1) * h[1, 0] + np.conj(c1) * c1 * h[1, 1]).real
        acc += float(q.min())
        for k in range(6):
            v = np.array([c0[k], c1[k]])
            acc += float(np.vdot(v, h[:2, :2] @ v).real)
        acc += float(np.linalg.eigvalsh(h)[0])
        acc += len(json.dumps(json.loads(json.dumps(_DOC))))
    return acc


def time_slice() -> float:
    """Seconds one calibration slice takes now."""
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def speed_factors(slice_s: list[float]) -> list[float]:
    """REF_SLICE_S over the median slice time of the 2*WINDOW+1 slices around
    each one: the factor that scales a time taken next to slice i to the
    reference speed. The median keeps one interrupted slice from moving it."""
    s = np.asarray(slice_s, dtype=float)
    return [REF_SLICE_S / float(np.median(s[max(0, i - WINDOW):i + WINDOW + 1]))
            for i in range(len(s))]
