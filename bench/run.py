"""Benchmark of the Monte Carlo bank loop: run one workload, print its metrics.

    python3 bench/run.py --workload ring_bernoulli --seed 1 --seconds 30 --trace 0

Starts one workload process (``bench/workload.py``) after another, each
a fresh interpreter that sets up, runs one experiment with
``parallelism: 1``, writes its report and checks it, until the time
budget is spent.  BLAS and OpenMP threads are pinned to one in those
processes' environment only.  The last line of standard output is one
JSON object: with ``--trace 0`` the end-to-end metrics (medians over the
processes), with ``--trace 1`` the per-layer metrics, taken from traced
processes that alternate with untraced ones.  Progress and machine facts
go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, scenario  # noqa: E402

#: Every run measures at least this many workload processes.
MIN_PROCESSES = 3

#: A workload process that takes longer than this has hung.
PROCESS_TIMEOUT_S = 150

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_process(workload: str, scenario_path: Path, outdir: Path, traced: bool,
                reference: bool) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--scenario", str(scenario_path), "--out", str(outdir), "--trace", str(int(traced))]
    if reference:
        cmd.append("--reference")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload process exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(records: list[dict]) -> dict:
    def median(key):
        return statistics.median(r[key] for r in records)

    return {
        "setup_s": {"value": median("setup_s"), "unit": "s"},
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "trial_steps_per_s": {
            "value": statistics.median(r["trial_steps"] / r["run_s"] for r in records),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    trial_steps = traced[0]["trial_steps"]
    metrics = {"adle.import_s": {"value": statistics.median(r["import_s"] for r in traced),
                                 "unit": "s"}}
    for name in LAYERS:
        self_s = statistics.median(r["layers"].get(name, (0.0, 0))[0] for r in traced)
        calls = traced[0]["layers"].get(name, (0.0, 0))[1]
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.us_per_trial_step"] = {"value": 1e6 * self_s / trial_steps, "unit": "us"}
    run_self = statistics.median(r["layers"].get("harness.run_experiment", (0.0, 0))[0]
                                 for r in traced)
    traced_run = statistics.median(r["run_s"] for r in traced)
    metrics["estimator.advance.alloc_bytes_per_step"] = {
        "value": traced[0]["alloc_bytes"] or 0.0, "unit": "bytes"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_run / statistics.median(r["run_s"] for r in untraced), "unit": "ratio"}
    metrics["trace.attributed_share"] = {
        "value": 1.0 - run_self / traced_run, "unit": "ratio"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "adle" / "__init__.py").is_file():
        print(f"error: no adle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rundir = BENCH / "out" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    print(f"load average (1 min) at start: {os.getloadavg()[0]:.2f}", file=sys.stderr)

    start = time.monotonic()
    records: list[dict] = []
    durations: list[float] = []
    while True:
        child = len(records)
        traced = bool(args.trace) and child % 2 == 1
        outdir = rundir / f"process-{child}"
        outdir.mkdir()
        scenario_path = outdir / "scenario.yaml"
        # JSON is a subset of YAML, so the scenario needs no YAML writer.
        scenario_path.write_text(json.dumps(scenario(workload, args.seed, child), indent=1))
        began = time.monotonic()
        # The reference recursion runs in Python per agent, so only the
        # first process of a run compares against it.
        record = run_process(args.workload, scenario_path, outdir, traced, reference=child == 0)
        durations.append(time.monotonic() - began)
        record["traced"] = traced
        records.append(record)
        failed_checks = sorted(k for k, ok in record["checks"].items() if not ok)
        print(f"process {child}{' (traced)' if traced else ''}: setup {record['setup_s']:.3f} s, "
              f"run {record['run_s']:.3f} s, failed trials {record['failed']}, "
              f"failed checks {failed_checks or 'none'}", file=sys.stderr)
        elapsed = time.monotonic() - start
        if len(records) >= MIN_PROCESSES and (
            elapsed + statistics.median(durations) > args.seconds
        ) and (not args.trace or len(records) % 2 == 0):
            break
    print(f"machine: {json.dumps(records[0]['facts'])}", file=sys.stderr)
    missing = sorted({name for r in records for name in r.get("missing", ())})
    if missing:
        print(f"layers not found, reported as 0: {missing}", file=sys.stderr)

    if args.trace:
        metrics = per_layer([r for r in records if r["traced"]],
                            [r for r in records if not r["traced"]])
    else:
        metrics = end_to_end(records)
    print(json.dumps({
        "correct": all(all(r["checks"].values()) for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
