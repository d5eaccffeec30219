"""One workload in one fresh process: set up, then run a fixed number of passes.

Started by run.py, never by hand. It prints `READY <monotonic time>` once
its inputs are prepared (run.py times set-up from that line), and in a
measuring run a JSON result as its last line.

The number of passes depends only on the workload and --seconds: the
seconds divided by the workload's reference pass time (workloads.py), so a
run lasts about --seconds on the reference machine, and every run with the
same --seconds does the same work, with the same attempted and failed counts.

On the workloads of short, interpreter-bound ops, a calibration slice
(calibration.py) runs untimed by the op's clock before each op, and every op
time is scaled to the reference CPU speed by the slices around it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import choikit  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WARMUP_ITEMS = 1
MIN_PASSES = 3


def pass_count(wl, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def tail_percentile(n: int) -> float:
    """The highest of p99, p95, p90, p75 with at least ten of n samples beyond
    it; the median where n < 40, since no percentile would be a tail."""
    for pct in (99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def new_stats() -> dict:
    return {"latencies": [], "slices": [], "attempted": 0, "failed": 0,
            "problems": [], "failed_kinds": [], "counts": {}, "passes": 0}


def pass_figures(stats, tail: float) -> dict:
    """Per-pass rate, median and tail latency, each the median over passes.

    Op times are scaled to the reference CPU speed where the workload is
    calibrated; a rate is the pass's op count over the sum of its op times."""
    rates, p50, p_tail = [], [], []
    for lat, slices in zip(stats["latencies"], stats["slices"]):
        ms = 1e3 * np.asarray(lat)
        if slices:
            ms = ms * np.asarray(calibration.speed_factors(slices))
        rates.append(1e3 * len(ms) / float(ms.sum()))
        p50.append(float(np.median(ms)))
        p_tail.append(float(np.percentile(ms, tail)))
    return {"ops_per_s": float(np.median(rates)), "op_p50_ms": float(np.median(p50)),
            "op_tail_ms": float(np.median(p_tail))}


def run_pass(wl, items, stats, trace=None) -> None:
    """Run every item once and add the pass to stats.

    The ops run back to back and are checked after the pass, so checking
    stays out of the timings."""
    outs, lat, slices = [], [], []
    for item in items:
        if wl.calibrated:
            slices.append(calibration.time_slice())
        if trace is not None:
            trace.op += 1
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:  # an op that raises is a wrong output
            out = exc
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    stats["passes"] += 1
    first = stats["passes"] == 1
    stats["latencies"].append(lat)
    stats["slices"].append(slices)
    for item, out in zip(items, outs):
        stats["attempted"] += 1
        problems = ([f"{item.kind}: raised {out!r}"] if isinstance(out, Exception)
                    else wl.check(item, out))
        if problems and item.known_fault:
            stats["failed"] += 1
            if first:
                stats["failed_kinds"].append(item.kind)
        elif problems:
            stats["problems"] += problems
        elif first:
            for key, value in workloads.work_counts(out).items():
                stats["counts"][key] = stats["counts"].get(key, 0) + value


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    if not os.path.abspath(choikit.__file__).startswith(SRC + os.sep):
        print(f"error: choikit imported from {choikit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    try:
        items = wl.items(args.seed, args.workdir)
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        problems = []
        for item in items[:WARMUP_ITEMS]:
            out = wl.run(item)
            if not item.known_fault:
                problems += wl.check(item, out)
        result = {"python": sys.version.split()[0], "numpy": np.__version__,
                  "items_per_pass": len(items)}
        passes = pass_count(wl, args.seconds)
        if args.trace:
            # Untraced and traced passes alternate, half of the passes each,
            # so both see the same machine and their rates give the tracing
            # overhead.
            plain, traced, tr = new_stats(), new_stats(), tracing.Tracer()
            for _ in range(max(1, passes // 2)):
                run_pass(wl, items, plain)
                tr.install()
                try:
                    run_pass(wl, items, traced, trace=tr)
                finally:
                    tr.uninstall()
            ops = traced["attempted"]
            metrics = tr.metrics(ops)
            tail = tail_percentile(len(items))
            plain_rate = pass_figures(plain, tail)["ops_per_s"]
            traced_rate = pass_figures(traced, tail)["ops_per_s"]
            counts = traced["counts"]
            per_pass = len(items)
            candidates = counts.get("candidates", 0)
            search_s = tr.search_seconds() / traced["passes"]
            metrics.update({
                "io.report_bytes_per_op": counts.get("report_bytes", 0) / per_pass,
                "uniqueness.candidates_per_op": candidates / per_pass,
                "uniqueness.feasible_per_candidate":
                    counts.get("feasible", 0) / candidates if candidates else 0.0,
                "uniqueness.candidates_per_s": candidates / search_s if search_s else 0.0,
                "trace.ops_per_s": traced_rate,
                "trace.untraced_ops_per_s": plain_rate,
                "trace.overhead_pct": 100.0 * (plain_rate - traced_rate) / plain_rate,
            })
            if args.spans:
                tr.write(args.spans)
            runs = (plain, traced)
        else:
            stats = new_stats()
            for _ in range(passes):
                run_pass(wl, items, stats)
            tail = tail_percentile(len(items))
            metrics = pass_figures(stats, tail)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                      / 1024.0)
            result.update({"tail_pct": tail, "latencies_s": stats["latencies"],
                           "slices_s": stats["slices"],
                           "wall_rates": [len(lat) / sum(lat) for lat in stats["latencies"]]})
            runs = (stats,)
        for r in runs:
            problems += r["problems"]
        result.update({
            "correct": not problems,
            "problems": problems[:20],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_kinds": runs[0]["failed_kinds"],
            "passes": [r["passes"] for r in runs],
            "metrics": metrics,
        })
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
