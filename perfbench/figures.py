"""Run every workload on several seeds and print the reference-figure table.

    python3 perfbench/figures.py --seeds 1-10 [--trace]

Every workload of BENCHMARK.json runs for its run_seconds, so the figures
compare with the benchmark's own runs. For each end-to-end metric the table
gives the median of the runs and the quartile spread, (Q3 - Q1) / median
with Python's statistics.quantiles(n=4), which is the run-to-run noise a
later change is judged against. It also gives the failed share of ops,
which must be the same in every run. With --trace, it prints the median
per-layer figures instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in wanted}
        shares = set()
        correct = True
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "1" if args.trace else "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            correct = correct and result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace), file=sys.stderr)
        print(f"\n{workload}: {len(args.seeds)} runs, correct={correct}, "
              f"failed share {sorted(shares)}")
        print("| metric | unit | median | spread |\n|---|---|---|---|")
        for m in wanted:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"| {m['name']} | {m['unit']} | {med:.6g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
