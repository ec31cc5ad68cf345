"""Tests of the benchmark itself: every check rejects a wrong result, the
tracer accounts for time exactly, and each workload runs end to end.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, scenario

BENCH = Path(run.__file__).resolve().parent
TARGET = np.linalg.inv(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]))


def synthetic_report(error_rate=-0.5, disagreement_rate=-0.8, gain_rate=-0.5,
                     baseline_scale=1.0, trials=128, seed=0):
    """A report whose decay rates and baseline covariance are set by hand."""
    rng = np.random.default_rng(seed)
    times = np.unique(np.round(10.0 * 10.0 ** (np.arange(0, 27) / 8.0)).astype(int))
    agents = 4

    def decaying(rate, *agent_axis):
        shape = (trials, len(times), *agent_axis)
        scale = np.abs(rng.standard_normal((trials, 1, *agent_axis))) + 0.5
        t = (times + 1.0).reshape(1, -1, *(1 for _ in agent_axis))
        return scale * t**rate * np.exp(0.05 * rng.standard_normal(shape))

    factor = np.linalg.cholesky(baseline_scale * TARGET)
    draws = rng.standard_normal((trials, 3)) @ factor.T
    gains = decaying(gain_rate)
    return types.SimpleNamespace(
        num_trials=trials,
        checkpoint_times=times,
        target_cov=TARGET.copy(),
        centralized_scaled_cov=np.cov(draws, rowvar=False, ddof=1),
        empirical_scaled_cov=np.stack([TARGET] * agents),
        ks_pvalues=None,
        trial_error_norms=decaying(error_rate, agents),
        trial_disagreement=decaying(disagreement_rate),
        trial_gain_gap=gains,
        trial_grammian_gap=gains.copy(),
        terminal_gain_gap=gains[:, -1].copy(),
    )


def test_properties_hold_on_a_report_with_the_predicted_rates():
    assert all(checks.property_checks(synthetic_report(), TARGET).values())


@pytest.mark.parametrize("report_kwargs, target_scale, failing", [
    ({}, 1.0 + 1e-6, {"target_covariance"}),
    ({"baseline_scale": 1.6}, 1.0, {"baseline_covariance"}),
    ({"baseline_scale": 0.5}, 1.0, {"baseline_covariance"}),
    ({"error_rate": -0.2}, 1.0, {"error_slope"}),
    ({"error_rate": -0.8, "disagreement_rate": -1.1}, 1.0, {"error_slope"}),
    ({"disagreement_rate": -0.5}, 1.0, {"disagreement_faster"}),
    ({"gain_rate": 0.0}, 1.0, {"gains_approach_optimal"}),
])
def test_each_property_check_rejects_a_wrong_result(report_kwargs, target_scale, failing):
    report = synthetic_report(**report_kwargs)
    results = checks.property_checks(report, TARGET * target_scale)
    assert {name for name, ok in results.items() if not ok} == failing


def test_finite_check_rejects_a_nan_covariance():
    report = synthetic_report()
    report.empirical_scaled_cov[2, 0, 0] = np.nan
    assert not checks.property_checks(report, TARGET)["finite"]


def test_failed_trials_flags_nonfinite_outputs_and_gains_that_did_not_approach():
    report = synthetic_report()
    assert not checks.failed_trials(report).any()
    report.trial_error_norms[3, 5, 1] = np.inf
    report.terminal_gain_gap[7] = report.trial_gain_gap[7, 0] * 2.0
    assert np.flatnonzero(checks.failed_trials(report)).tolist() == [3, 7]


def test_target_covariance_of_the_ring_inverts_its_information_matrix():
    ref = checks.ref_model(WORKLOADS["ring_bernoulli"])
    circulant = np.array([[3, 2, 1, 1, 2], [2, 3, 2, 1, 1], [1, 2, 3, 2, 1],
                          [1, 1, 2, 3, 2], [2, 1, 1, 2, 3]], dtype=float)
    np.testing.assert_allclose(checks.target_covariance(ref.sensing, ref.noise_cov),
                               np.linalg.inv(circulant), rtol=1e-12)


def _scenario_file(directory, name, seed, **overrides):
    path = directory / f"{name}-{seed}.yaml"
    path.write_text(json.dumps({**scenario(WORKLOADS[name], seed, 0), **overrides}))
    return path


def _program_trial(directory, workload, steps, seed):
    from adle import cli, harness

    config = cli.parse_config(_scenario_file(directory, workload, 1))
    grid = np.array([10, 100, steps])
    trial = harness.run_trial(config.model, config.topology, config.schedule, steps, grid, seed)
    return harness.BLOCK_STEPS, trial


@pytest.mark.parametrize("name", ["ring_bernoulli", "ring_gossip"])
def test_reference_recursion_matches_the_program_across_a_block_boundary(name, tmp_path):
    steps = 1034
    seed = np.random.SeedSequence((5, 0))
    block, trial = _program_trial(tmp_path, name, steps, seed)
    assert block < steps
    ref = checks.ref_model(WORKLOADS[name])
    x, errors = checks.reference_run(ref, seed, steps, block, record=(10, 100, steps))
    program_x = ref.theta + trial.terminal_scaled_errors / np.sqrt(steps + 1.0)
    assert np.abs(program_x - x).max() <= checks.REFERENCE_TOL
    for c, t in enumerate((10, 100, steps)):
        assert np.abs(trial.error_norms[c] - errors[t]).max() <= checks.REFERENCE_TOL


@pytest.mark.parametrize("field, factor", [("b", 1.01), ("a", 0.99), ("gamma0", 1.1)])
def test_reference_comparison_rejects_a_changed_step_size(field, factor, tmp_path):
    steps = 1034
    seed = np.random.SeedSequence((5, 0))
    block, trial = _program_trial(tmp_path, "ring_bernoulli", steps, seed)
    ref = checks.ref_model(WORKLOADS["ring_bernoulli"])
    changed = dataclasses.replace(ref, **{field: getattr(ref, field) * factor})
    x, _ = checks.reference_run(changed, seed, steps, block)
    program_x = ref.theta + trial.terminal_scaled_errors / np.sqrt(steps + 1.0)
    assert np.abs(program_x - x).max() > checks.REFERENCE_TOL


def test_reference_comparison_rejects_a_changed_draw_order(tmp_path):
    steps = 1034
    seed = np.random.SeedSequence((5, 0))
    block, trial = _program_trial(tmp_path, "ring_bernoulli", steps, seed)
    ref = checks.ref_model(WORKLOADS["ring_bernoulli"])
    x, _ = checks.reference_run(ref, seed, steps, block // 2)
    program_x = ref.theta + trial.terminal_scaled_errors / np.sqrt(steps + 1.0)
    assert np.abs(program_x - x).max() > checks.REFERENCE_TOL


def test_self_times_account_for_the_enclosing_span():
    tracer = tracing.Tracer()
    inner = tracer._wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    outer = tracer._wrap("outer", body)
    with tracer.span("root"):
        outer()
    durations = {}
    for name, _, start, end in tracer.spans:
        durations[name] = durations.get(name, 0.0) + end - start
    totals = tracer.layer_totals()
    assert totals["inner"][1] == 2 and totals["outer"][1] == 1
    assert sum(s for s, _ in totals.values()) == pytest.approx(durations["root"], abs=1e-9)
    assert totals["outer"][0] == pytest.approx(durations["outer"] - durations["inner"])
    assert totals["outer"][0] >= 0.01


def test_tracer_wraps_every_call_site_and_restores_it(monkeypatch):
    from adle import estimator, harness

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("harness", "_renamed_away"),))
    original = estimator._gain_kernel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert estimator._gain_kernel is not original
        assert harness._gain_kernel is estimator._gain_kernel
        assert tracer.missing == ["harness._renamed_away"]
    finally:
        tracer.uninstall()
    assert estimator._gain_kernel is original and harness._gain_kernel is original


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    record = {"setup_s": 1.0, "wall_s": 2.0, "run_s": 1.0, "trial_steps": 10,
              "peak_rss_mb": 100.0, "import_s": 0.5, "layers": {}, "alloc_bytes": 1.0}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([record]))
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer([record], [record]))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_and_checks_itself_at_a_small_size(name, tmp_path):
    path = _scenario_file(tmp_path, name, 3, horizon=1024, num_trials=64)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", name, "--scenario",
           str(path), "--out", str(tmp_path), "--trace", "1", "--reference"]
    done = subprocess.run(cmd, env=dict(run.os.environ, **run.THREAD_ENV),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["attempted"] == 64 and record["failed"] == 0
    assert all(record["checks"].values()), record["checks"]
    assert record["missing"] == []
    assert record["alloc_bytes"] > 0
    assert 0.0 < record["import_s"] < record["setup_s"] < record["wall_s"] < 120.0
    assert 0.0 < record["run_s"] < record["wall_s"] and record["peak_rss_mb"] > 0.0
