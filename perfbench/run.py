"""choikit benchmark: one workload per call, each in fresh single-threaded processes.

    python3 perfbench/run.py --workload certify_batch --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 alternates
untraced and traced passes and prints the per-layer metrics. The last
line of stdout is the JSON result. A fuller record (machine, steal time,
set-up samples, pass rates) goes to .perfbench_out/, spans of a traced run
too. Uses only the standard library; numpy and choikit load in the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
# Fresh launches, half before and half after the measuring worker, so they
# sample the machine at both ends of the run. setup_s is the slowest of their
# times to READY: the CPU speeds up in bursts, and its slow state is what
# repeats from run to run (README.md, "Noise").
SETUP_LAUNCHES = 24
TOTAL_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def proc_stat_cpu():
    """(steal ticks, total ticks) from the first line of /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def launch(args, env, timeout, setup_only):
    """Start a worker; return (seconds from spawn to READY, stdout lines)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(OUT, f"work-{os.getpid()}")]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if not ready:
        raise RuntimeError("worker never reported READY")
    return float(ready[0].split()[1]) - t0, lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "choikit", "__init__.py")):
        print(f"error: no choikit sources under {ROOT}/src", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    deadline = time.monotonic() + TOTAL_TIMEOUT_S

    try:
        launches = 0 if args.trace else SETUP_LAUNCHES // 2
        setup = [launch(args, env, deadline - time.monotonic(), True)[0]
                 for _ in range(launches)]
        before = proc_stat_cpu()
        _, lines = launch(args, env, deadline - time.monotonic(), False)
        after = proc_stat_cpu()
        setup += [launch(args, env, deadline - time.monotonic(), True)[0]
                  for _ in range(launches)]
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if setup:
        metrics["setup_s"] = max(setup)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=setup, nproc=len(os.sched_getaffinity(0)),
                  threads={var: env[var] for var in THREAD_VARS}, missing=missing)
    if before and after:
        ticks = os.sysconf("SC_CLK_TCK")
        record["steal_s"] = (after[0] - before[0]) / ticks
        record["steal_share"] = (after[0] - before[0]) / max(after[1] - before[1], 1)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in result["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: python {result['python']}, numpy "
          f"{result['numpy']}, nproc {record['nproc']}, steal "
          f"{record.get('steal_s', float('nan')):.2f} s, failed {result['failed_kinds']}",
          file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]) and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
