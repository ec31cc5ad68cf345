"""One workload process: set up, run one experiment, write its report, check it.

Started by ``bench/run.py``, once per experiment, so that every process
imports adle afresh.  The set-up clock starts at the first statement,
before ``import adle``.  Prints one JSON line with its measurements.
"""

import time

START = time.perf_counter()

import argparse
import dataclasses
import json
import math
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def reference_checks(harness, checks, np, config, report, ref) -> dict[str, bool]:
    """Compare the program with the reference recursion over one block boundary."""
    block = harness.BLOCK_STEPS
    steps = block + 10
    seed = np.random.SeedSequence((config.master_seed, 0))
    times = report.checkpoint_times
    grid = np.append(times[times < steps], steps)
    trial = harness.run_trial(config.model, config.topology, config.schedule, steps, grid, seed)
    ref_x, ref_err = checks.reference_run(ref, seed, steps, block, record=grid)
    prog_x = ref.theta + trial.terminal_scaled_errors / math.sqrt(steps + 1.0)
    tol = checks.REFERENCE_TOL
    in_report = [(c, t) for c, t in enumerate(times) if t <= block]
    return {
        "reference_vs_run_trial": bool(
            np.abs(prog_x - ref_x).max() <= tol
            and all(np.abs(trial.error_norms[c] - ref_err[t]).max() <= tol
                    for c, t in enumerate(grid))
        ),
        "reference_vs_report": bool(
            in_report and all(np.abs(report.trial_error_norms[0, c] - ref_err[t]).max() <= tol
                              for c, t in in_report)
        ),
    }


def report_file_checks(outdir: Path, config) -> bool:
    rows = {}
    with open(outdir / "summary.csv") as handle:
        for line in handle.read().splitlines()[1:]:
            name, value, *_ = line.split(",")
            rows[name] = value
    return rows.get("master_seed") == str(config.master_seed) and rows.get(
        "num_trials") == str(config.num_trials) and rows.get("horizon") == str(config.horizon)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scenario", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="also compare with the reference recursion (slow for 50 agents)")
    args = parser.parse_args()

    adle_dir = ROOT / "src" / "adle"
    if not (adle_dir / "__init__.py").is_file():
        print(f"no adle sources at {adle_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import adle
    import_s = time.perf_counter() - import_start
    if Path(adle.__file__).resolve().parent != adle_dir.resolve():
        print(f"adle was imported from {adle.__file__}, not {adle_dir}", file=sys.stderr)
        return 2
    from adle import cli, harness

    sys.path.insert(0, str(BENCH))
    import numpy as np

    import checks
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else (lambda name: nullcontext())

    config = cli.parse_config(args.scenario)
    with span("model._stacked"):
        config.model._stacked
    with span("model._optimal_gain_stack"):
        config.model._optimal_gain_stack
    setup_s = time.perf_counter() - START

    run_start = time.perf_counter()
    report = harness.run_experiment(config)
    run_s = time.perf_counter() - run_start
    harness.write_report(report, args.out, config.acceptance)
    wall_s = time.perf_counter() - START
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "run_s": run_s,
        "trial_steps": config.num_trials * config.horizon,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_totals()
        record["missing"] = tracer.missing
        tracer.write(args.out / "spans.csv")
        short = dataclasses.replace(config, horizon=16, num_trials=64, run_ks_test=False)
        record["alloc_bytes"] = tracing.advance_alloc_bytes(
            harness, lambda: harness.run_experiment(short))

    ref = checks.ref_model(workload)
    target = checks.target_covariance(ref.sensing, ref.noise_cov)
    results = checks.property_checks(report, target)
    results["scenario_matrices"] = bool(
        len(config.model.sensing) == len(ref.sensing)
        and all(np.array_equal(a, b) for a, b in zip(config.model.sensing, ref.sensing))
        and all(np.array_equal(a, b) for a, b in zip(config.model.noise_cov, ref.noise_cov))
        and np.array_equal(config.model.true_param, ref.theta)
    )
    if args.reference:
        results.update(reference_checks(harness, checks, np, config, report, ref))
    results["report_files"] = report_file_checks(args.out, config)
    record.update(
        attempted=report.num_trials,
        failed=int(checks.failed_trials(report).sum()),
        checks=results,
        facts=machine_facts(np),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
