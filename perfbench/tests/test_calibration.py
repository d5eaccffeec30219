"""Scaling op times by the calibration slices.

Run from the repository root with `python3 -m pytest -q perfbench/tests`.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import worker  # noqa: E402

REF = calibration.REF_SLICE_S


def test_one_interrupted_slice_does_not_move_the_factors():
    factors = calibration.speed_factors([REF] * 10 + [50 * REF] + [REF] * 10)
    assert factors == [1.0] * 21


def test_factors_follow_a_change_of_speed():
    factors = calibration.speed_factors([REF] * 20 + [2 * REF] * 20)
    assert factors[:15] == [1.0] * 15
    assert factors[-15:] == [0.5] * 15


def test_a_uniformly_slower_cpu_reads_the_same():
    lat = [0.010 + 0.001 * (k % 7) for k in range(100)]
    fast = {"latencies": [lat], "slices": [[REF] * 100]}
    slow = {"latencies": [[2.0 * x for x in lat]], "slices": [[2.0 * REF] * 100]}
    a, b = worker.pass_figures(fast, 90.0), worker.pass_figures(slow, 90.0)
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
        assert abs(a[name] - b[name]) <= 1e-9 * a[name]


def test_uncalibrated_passes_read_wall_time():
    stats = {"latencies": [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]],
             "slices": [[], [], []]}
    figures = worker.pass_figures(stats, 50.0)
    assert figures == {"ops_per_s": 2.0, "op_p50_ms": 500.0, "op_tail_ms": 500.0}
