import concurrent.futures
import csv
import ctypes
import copy
import dataclasses
import hashlib
import itertools
import logging
import math
import os
import pickle
import platform
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adle import _kernel, harness
from adle.cli import example1_model, main
from adle.errors import AdleError, NotPositiveDefinite, TrialDiverged
from adle.estimator import _sample_cov_from_moments, initial_network_state
from adle.harness import (
    BLOCK_STEPS,
    AcceptanceThresholds,
    TrialMetrics,
    checkpoint_grid,
    estimate_scaled_covariance,
    evaluate_acceptance,
    fit_decay_slope,
    run_experiment,
    run_trial,
    trajectory,
    worker_count,
    write_report,
)
from adle.model import ObservationModel
from adle.network import (
    Graph,
    TopologyModel,
    cycle_graph,
    laplacian_of,
    path_graph,
    sample_laplacian,
)
from adle.schedule import WeightSchedule, checkpoint_bound, recursion_trace
from conftest import (
    bind_bank,
    make_noiseless_ring,
    make_ragged_model,
    make_random_sensing_model,
    numpy_states,
    state_arrays,
    stream_states,
)
from reference import (
    check_block_ends,
    fold_observations,
    link_masks,
    observations,
    reference_trajectory,
    reference_walk,
    stacked_round,
    stacked_segment,
    tiled_state,
    unit_variance_draws,
    weights,
    whole_block_draws,
    write_report_by_repr,
)


def small_config(ring_model, bernoulli_pentagon, ring_schedule, **overrides):
    base = dict(
        model=ring_model, topology=bernoulli_pentagon, schedule=ring_schedule,
        horizon=2_000, num_trials=24, master_seed=5, checkpoint_start=10,
        checkpoints_per_decade=8, parallelism=1, fit_window=0.4, run_ks_test=False,
        init_estimate=None, init_grammian=None, init_sample_cov=None,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


# ----------------------------------------------------------------- grid


def test_checkpoint_grid_is_geometric_and_ends_at_horizon():
    grid = checkpoint_grid(100_000, start=10, per_decade=8)
    assert grid[0] == 10
    assert grid[-1] == 100_000
    assert np.all(np.diff(grid) > 0)
    late = grid[grid >= 10_000]
    assert len(late) >= 8  # at least a decade of fit points at 8 per decade


def test_checkpoint_grid_rejects_short_horizon():
    with pytest.raises(ValueError):
        checkpoint_grid(5, start=10)


def test_checkpoint_grid_rejects_a_ratio_that_rounds_to_one():
    # 10 ** (1 / 10**17) is 1.0 in floating point: the grid would never grow
    with pytest.raises(ValueError, match="per_decade"):
        checkpoint_grid(100, 10, 10**17)


@pytest.mark.parametrize("horizon, start, per_decade", [
    (10, 10, 1), (11, 10, 8), (99, 1, 3), (100, 10, 8), (101, 7, 100), (5_000, 13, 7),
    (12_345, 2, 16), (10**5, 10, 1_000), (20_000, 10, 20_000), (10**6, 50, 33),
])
def test_checkpoint_bound_is_at_least_the_grid_size(horizon, start, per_decade):
    size = len(checkpoint_grid(horizon, start, per_decade))
    assert size <= checkpoint_bound(horizon, start, per_decade) <= horizon - start + 1


def test_checkpoint_bound_takes_integers_beyond_the_float_range():
    assert checkpoint_bound(10**400, 10**399, 10**400) == 9 * 10**399 + 1


# ----------------------------------------------------------------- trials


def test_run_trial_is_deterministic(ring_model, bernoulli_pentagon, ring_schedule):
    grid = checkpoint_grid(500)
    runs = [
        run_trial(ring_model, bernoulli_pentagon, ring_schedule, 500, grid,
                  np.random.SeedSequence((3, 1)))
        for _ in range(2)
    ]
    for field in dataclasses.fields(TrialMetrics):
        a = getattr(runs[0], field.name)
        b = getattr(runs[1], field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


def test_run_trial_metrics_are_finite_and_timed(ring_model, bernoulli_pentagon, ring_schedule):
    grid = checkpoint_grid(500)
    metrics = run_trial(ring_model, bernoulli_pentagon, ring_schedule, 500, grid, 7)
    assert np.array_equal(metrics.times, grid)
    for name in ("disagreement", "error_norms", "gain_gap", "grammian_gap",
                 "terminal_scaled_errors", "terminal_scaled_error_centralized"):
        assert np.all(np.isfinite(getattr(metrics, name)))


@pytest.mark.parametrize("law", ["static", "bernoulli", "gossip"])
def test_trajectory_checkpointed_every_step_ends_where_run_trial_ends(ring_model, law):
    # checkpoints only cut the kernel calls into segments; across two
    # block boundaries the terminal errors agree bit for bit
    top = TopologyModel(cycle_graph(5), law, 0.5)
    schedule, horizon = WeightSchedule(b=0.5), 2_500
    seed = np.random.SeedSequence((12, 3))
    metrics = run_trial(ring_model, top, schedule, horizon, checkpoint_grid(horizon), seed)
    for t, state in trajectory(ring_model, top, schedule, horizon, np.arange(1, horizon + 1),
                               [seed]):
        assert state.step == t
    scaled = np.sqrt(horizon + 1.0) * (state.estimates[0] - ring_model.true_param)
    assert np.array_equal(scaled, metrics.terminal_scaled_errors)


# ----------------------------------------------------------------- covariance


def test_scaled_covariance_of_identical_trials_is_zero():
    errors = np.array([[1.0, 2.0], [0.5, -1.0]])
    cov = estimate_scaled_covariance(np.stack([errors, errors, errors])[:, 1])
    assert np.array_equal(cov, np.zeros((2, 2)))


def test_scaled_covariance_requires_two_trials():
    with pytest.raises(ValueError):
        estimate_scaled_covariance(np.zeros((1, 1)))


def test_scaled_covariance_recovers_known_covariance():
    rng = np.random.default_rng(10)
    true_cov = np.array([[2.0, 0.7, 0.0], [0.7, 1.5, -0.3], [0.0, -0.3, 0.8]])
    factor = np.linalg.cholesky(true_cov)
    num = 4_000
    draws = rng.standard_normal((num, 3)) @ factor.T
    estimate = estimate_scaled_covariance(draws)
    tolerance = 4.0 * np.sqrt(2.0 / num) * np.linalg.norm(true_cov)
    assert np.linalg.norm(estimate - true_cov) <= tolerance


def test_covariance_gap_statistic_supports_500_trial_tolerance(ring_model):
    # sampling-noise oracle behind the 0.20 efficiency tolerance: draw 500
    # exact Gaussian scaled errors and measure the same gap statistic
    target = ring_model._centralized.asymptotic_cov
    factor = np.linalg.cholesky(target)
    rng = np.random.default_rng(2)
    gaps = []
    for _ in range(300):
        draws = rng.standard_normal((500, 5)) @ factor.T
        empirical = np.cov(draws, rowvar=False, ddof=1)
        gaps.append(np.linalg.norm(empirical - target) / np.linalg.norm(target))
    assert np.quantile(gaps, 0.99) < 0.20


# ----------------------------------------------------------------- slope fits


def test_fit_decay_slope_exact_power_law():
    t = np.unique(np.round(10 ** np.linspace(1, 5, 40))).astype(int)
    assert fit_decay_slope(t, (t + 1.0) ** -0.5) == pytest.approx(-0.5, abs=1e-9)


def test_fit_decay_slope_constant_is_zero():
    t = np.arange(10, 100)
    assert fit_decay_slope(t, np.full(len(t), 3.0)) == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_slope_on_recursion_trace():
    times, values = recursion_trace(0.0, 1.0, 0.5, 1.0, horizon=100_000)
    assert fit_decay_slope(times[1:], values[1:], window=0.3) <= -0.9


def test_fit_decay_slope_rejects_nonpositive_and_short_windows():
    t = np.arange(10, 30)
    values = np.ones(len(t))
    values[-2] = 0.0
    with pytest.raises(ValueError, match="t=28"):
        fit_decay_slope(t, values)
    with pytest.raises(ValueError):
        fit_decay_slope(t[:4], np.ones(4), window=1.0)


# ----------------------------------------------------------------- experiments


def test_single_identity_agent_matches_unit_covariance():
    model = ObservationModel((np.eye(1),), (np.eye(1),), np.array([0.5]))
    config = SimpleNamespace(
        model=model, topology=TopologyModel(Graph(1, ()), "static"),
        schedule=WeightSchedule(), horizon=2_000, num_trials=400, master_seed=9,
        checkpoint_start=10, checkpoints_per_decade=8, parallelism=1, fit_window=0.4,
        run_ks_test=False, init_estimate=None, init_grammian=None, init_sample_cov=None,
    )
    report = run_experiment(config)
    assert report.target_cov == pytest.approx(np.ones((1, 1)))
    assert float(np.max(report.rel_frobenius_gap)) <= 0.20


def test_run_experiment_rejects_zero_trials(ring_model, bernoulli_pentagon, ring_schedule):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule, num_trials=0)
    with pytest.raises(ValueError):
        run_experiment(config)


def test_report_is_reproducible(ring_model, bernoulli_pentagon, ring_schedule):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule)
    a = run_experiment(config)
    b = run_experiment(config)
    assert np.array_equal(a.empirical_scaled_cov, b.empirical_scaled_cov)
    assert np.array_equal(a.trial_disagreement, b.trial_disagreement)
    assert np.array_equal(a.terminal_gain_gap, b.terminal_gain_gap)


def test_parallel_and_sequential_runs_agree(ring_model, bernoulli_pentagon, ring_schedule):
    sequential = run_experiment(
        small_config(ring_model, bernoulli_pentagon, ring_schedule,
                     num_trials=130, horizon=400, parallelism=1)
    )
    parallel = run_experiment(
        small_config(ring_model, bernoulli_pentagon, ring_schedule,
                     num_trials=130, horizon=400, parallelism=2)
    )
    assert np.array_equal(sequential.trial_error_norms, parallel.trial_error_norms)
    assert np.array_equal(sequential.empirical_scaled_cov, parallel.empirical_scaled_cov)


def test_trial_inside_experiment_is_reproducible_in_isolation(
    ring_model, bernoulli_pentagon, ring_schedule
):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule, num_trials=70)
    report = run_experiment(config)
    # trial 66 sits in the second bank; rerunning it alone from its derived
    # seed reproduces the recorded rows
    grid = checkpoint_grid(config.horizon)
    alone = run_trial(
        ring_model, bernoulli_pentagon, ring_schedule, config.horizon, grid,
        np.random.SeedSequence((config.master_seed, 66)),
    )
    assert np.allclose(alone.error_norms, report.trial_error_norms[66], rtol=0, atol=1e-12)
    assert np.allclose(alone.disagreement, report.trial_disagreement[66], rtol=0, atol=1e-12)
    assert alone.terminal_gain_gap == pytest.approx(report.terminal_gain_gap[66], abs=1e-12)


def test_paired_baseline_trace_margin_holds(ring_model, bernoulli_pentagon, ring_schedule):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule,
                          num_trials=64, horizon=5_000)
    report = run_experiment(config)
    stats = {s.name: s for s in evaluate_acceptance(report, AcceptanceThresholds())}
    assert stats["paired_trace_margin"].passed


def _report_at_bounds(t):
    """The report fields that acceptance reads, each statistic on its bound."""
    return SimpleNamespace(
        rel_frobenius_gap=np.array([t.efficiency_tol]),
        consistency_decay=np.array([t.consistency_slope_min, t.consistency_slope_max]),
        disagreement_slope=t.disagreement_slope_max,
        trial_error_norms=np.ones((20, 3, 2)),
        trial_disagreement=np.full((20, 3), t.disagreement_error_ratio_max),
        optimal_gain_norm=1.0, terminal_gain_gap=np.array([0.0] * 19 + [1.0]),  # 19 of 20
        num_trials=20, target_cov=np.zeros((1, 1)),  # no trace tolerance: margin 1 - 1
        empirical_scaled_cov=np.ones((2, 1, 1)), centralized_scaled_cov=np.ones((1, 1)),
        ks_pvalues=np.array([[t.ks_significance]]))


#: How to put a value into each acceptance row; a fraction of trials is never
#: NaN or infinite.
ROW_VALUES = {
    "efficiency_gap_max": lambda r, v: setattr(r, "rel_frobenius_gap", np.array([v])),
    "consistency_slope_min": lambda r, v: setattr(r, "consistency_decay", np.array([v])),
    "consistency_slope_max": lambda r, v: setattr(r, "consistency_decay", np.array([v])),
    "disagreement_slope": lambda r, v: setattr(r, "disagreement_slope", v),
    "disagreement_error_ratio": lambda r, v: r.trial_disagreement.fill(v),
    "paired_trace_margin": lambda r, v: r.empirical_scaled_cov.fill(v),
    "ks_min_pvalue": lambda r, v: setattr(r, "ks_pvalues", np.array([[v]])),
}


def test_every_acceptance_row_passes_at_its_bound_and_fails_off_the_reals():
    t = AcceptanceThresholds()
    stats = evaluate_acceptance(_report_at_bounds(t), t)
    assert [(s.name, s.value, s.requirement, s.passed, s.gating) for s in stats] == [
        ("efficiency_gap_max", 0.2, "<= 0.2", True, True),
        ("consistency_slope_min", -0.6, ">= -0.6", True, True),
        ("consistency_slope_max", -0.4, "<= -0.4", True, True),
        ("disagreement_slope", -0.3, "<= -0.3", True, True),
        ("disagreement_error_ratio", 0.1, "<= 0.1", True, True),
        ("gain_pass_fraction", 0.95, ">= 0.95", True, True),
        ("paired_trace_margin", 0.0, ">= 0", True, True),
        ("ks_min_pvalue", 0.01, ">= 0.01 (diagnostic)", True, False),
    ]
    for name, put in ROW_VALUES.items():
        for value in (math.nan, math.inf, -math.inf):
            report = _report_at_bounds(t)
            put(report, value)
            stat = {s.name: s for s in evaluate_acceptance(report, t)}[name]
            assert stat.value == value or math.isnan(stat.value) and math.isnan(value), name
            assert not stat.passed, (name, value)
    report = _report_at_bounds(t)  # past its bound, the KS row fails without gating
    report.ks_pvalues[:] = 0.0
    assert [(s.name, s.passed, s.gating) for s in evaluate_acceptance(report, t)
            if not s.passed or not s.gating] == [("ks_min_pvalue", False, False)]


def test_ks_pvalues_present_when_requested(ring_model, bernoulli_pentagon, ring_schedule):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule, run_ks_test=True)
    report = run_experiment(config)
    assert report.ks_pvalues is not None
    assert report.ks_pvalues.shape == (5, 5)
    assert np.all((report.ks_pvalues >= 0.0) & (report.ks_pvalues <= 1.0))


def test_divergence_names_the_trial_and_checkpoint(ring_model, bernoulli_pentagon):
    # Uncapped b = 20 on the ring overflows within a few hundred steps;
    # trials 2 and 11 go non-finite one checkpoint before the others.
    config = small_config(ring_model, bernoulli_pentagon, WeightSchedule(b=20.0),
                          horizon=500, num_trials=12, master_seed=11)
    with pytest.raises(TrialDiverged) as info:
        run_experiment(config)
    alone = []
    grid = checkpoint_grid(config.horizon)
    for k in range(config.num_trials):
        with pytest.raises(TrialDiverged) as single:
            run_trial(ring_model, bernoulli_pentagon, config.schedule, config.horizon, grid,
                      np.random.SeedSequence((config.master_seed, k)))
        alone.append((single.value.step, k))
    step, trial = min(alone)
    assert (info.value.trial, info.value.step) == (trial, step)
    assert trial > 0 and step in grid
    assert f"trial {trial} diverged" in str(info.value) and f"step {step}" in str(info.value)
    copy = pickle.loads(pickle.dumps(info.value))  # crosses the process pool intact
    assert (copy.trial, copy.step, str(copy)) == (trial, step, str(info.value))


def test_weights_beyond_the_float_range_end_in_a_named_divergence(ring_model,
                                                                 bernoulli_pentagon):
    # a config built in code, which validation never saw: from step 1 on,
    # (t + 1)**2000 overflows, gamma is 0 and Q + gamma I, one observation's
    # sample covariance, is zero
    config = small_config(ring_model, bernoulli_pentagon, WeightSchedule(tau_gamma=2000.0),
                          horizon=200, num_trials=3)
    with pytest.raises(TrialDiverged) as info:
        run_experiment(config)
    assert (info.value.trial, info.value.step, info.value.cause) == (0, 1, TrialDiverged.SINGULAR)
    assert "trial 0 diverged: singular matrix in the gain solve at step 1" in str(info.value)


# ----------------------------------------------------------------- reports


def test_write_report_emits_deterministic_csv(tmp_path, ring_model, bernoulli_pentagon, ring_schedule):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule, run_ks_test=True)
    report = run_experiment(config)
    thresholds = AcceptanceThresholds()
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_report(report, first, thresholds)
    write_report(report, second, thresholds)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    expected = {"checkpoints.csv", "summary.csv", "covariance_target.csv",
                "covariance_centralized.csv", "ks_pvalues.csv"}
    assert expected <= set(names)
    assert {f"covariance_agent_{i}.csv" for i in range(5)} <= set(names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    header = (first / "checkpoints.csv").read_text().splitlines()[0]
    assert header == "trial,t,disagreement," + ",".join(
        f"err_agent_{i}" for i in range(5)
    ) + ",gain_gap,grammian_gap"


def _report_by_csv_writer(report, stats, got, oracle):
    """The files of ``write_report`` as ``csv.writer`` writes them, one cell
    per value, into ``oracle``; a matrix file's ``#`` header line is the
    one written into ``got``."""
    n_agents = report.trial_error_norms.shape[-1]
    oracle.mkdir()
    with open(oracle / "checkpoints.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial", "t", "disagreement"]
                        + [f"err_agent_{i}" for i in range(n_agents)]
                        + ["gain_gap", "grammian_gap"])
        for trial in range(report.num_trials):
            for c, t in enumerate(report.checkpoint_times):
                values = [report.trial_disagreement[trial, c],
                          *report.trial_error_norms[trial, c],
                          report.trial_gain_gap[trial, c], report.trial_grammian_gap[trial, c]]
                writer.writerow([int(trial), int(t), *(repr(float(v)) for v in values)])
    matrices = {f"covariance_agent_{agent}.csv": cov
                for agent, cov in enumerate(report.empirical_scaled_cov)}
    matrices.update({"covariance_target.csv": report.target_cov,
                     "covariance_centralized.csv": report.centralized_scaled_cov,
                     "ks_pvalues.csv": report.ks_pvalues})
    for name, matrix in matrices.items():
        with open(oracle / name, "w", newline="") as handle:
            handle.write((got / name).read_text().splitlines(keepends=True)[0])
            csv.writer(handle).writerows([repr(float(v)) for v in row] for row in matrix)
    with open(oracle / "summary.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["statistic", "value", "requirement", "passed"])
        for name in ("master_seed", "num_trials", "horizon"):
            writer.writerow([name, getattr(report, name), "", ""])
        for stat in stats:
            writer.writerow([stat.name, repr(float(stat.value)), stat.requirement,
                             "true" if stat.passed else "false"])


def test_checkpoints_csv_is_the_csv_writer_bytes(tmp_path, ring_model, bernoulli_pentagon,
                                                 ring_schedule):
    # and so is every other file of the report
    report = run_experiment(small_config(ring_model, bernoulli_pentagon, ring_schedule,
                                         num_trials=3, horizon=300, run_ks_test=True))
    report.trial_disagreement[0, 1] = np.nan
    report.trial_error_norms[1, 2, 3] = np.inf
    report.trial_error_norms[2, 0, 0] = -0.0
    report.trial_gain_gap[2, 3] = -np.inf
    report.trial_gain_gap[0, 0] = 1e22
    report.trial_grammian_gap[1, -1] = 5e-324
    report.empirical_scaled_cov[1, 0, 2] = np.nan
    report.centralized_scaled_cov[0, 0] = -0.0
    stats = write_report(report, tmp_path / "out", AcceptanceThresholds())
    _report_by_csv_writer(report, stats, tmp_path / "out", tmp_path / "oracle")
    names = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "oracle").iterdir())
    assert len(names) == 10 and "ks_pvalues.csv" in names
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
    got = (tmp_path / "out" / "checkpoints.csv").read_bytes()
    assert all(cell in got for cell in (b",nan,", b",inf,", b",-0.0,", b",-inf,", b",1e+22,",
                                        b",5e-324\r\n"))
    assert b",nan," in (tmp_path / "out" / "covariance_agent_1.csv").read_bytes()
    assert any(not stat.passed for stat in stats) and any(stat.passed for stat in stats)


#: Doubles at the edges of repr's spelling: its layout switches (1e-05 and
#: 0.0001, 9999999999999998.0 and 1e16), the extremes, an integer past 2**53
#: and the values it spells by name.
PLANTED = (np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-05, 0.0001, 2.0**53 + 2)


def test_report_files_are_the_repr_rows_bytes_with_planted_values(tmp_path):
    # a report built by hand, each of its tables holding every planted value
    # among values of every magnitude, written by the library and by the oracle
    rng = np.random.default_rng(29)
    trials, n, m = 3, 4, 4
    times = np.array([1, 9, 40, 300, 2**40])

    def table(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, shape)
        values.flat[rng.choice(values.size, len(PLANTED), replace=False)] = PLANTED
        return values

    report = harness.ExperimentReport(
        num_trials=trials, horizon=2**40, master_seed=29, checkpoint_times=times,
        trial_disagreement=table(trials, len(times)),
        trial_error_norms=table(trials, len(times), n),
        trial_gain_gap=table(trials, len(times)), trial_grammian_gap=table(trials, len(times)),
        terminal_gain_gap=rng.random(trials), empirical_scaled_cov=table(n, m, m),
        target_cov=table(m, m), rel_frobenius_gap=rng.random(n),
        centralized_scaled_cov=table(m, m), centralized_baseline_gap=0.5,
        median_disagreement=rng.random(len(times)), median_error=rng.random((len(times), n)),
        disagreement_slope=-0.5, consistency_decay=np.full(n, -0.5), optimal_gain_norm=1.0,
        ks_pvalues=table(n, m))
    write_report(report, tmp_path / "out", AcceptanceThresholds())
    write_report_by_repr(report, tmp_path / "oracle", AcceptanceThresholds())
    names = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "oracle").iterdir())
    assert len(names) == 9 and "ks_pvalues.csv" in names
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
    got = (tmp_path / "out" / "checkpoints.csv").read_bytes()
    assert all(repr(value).encode() in got for value in PLANTED)


def _csv_cells(values) -> list[str]:
    """``adle_csv_rows``' spelling of each of ``values``, a one-column table."""
    values = np.ascontiguousarray(values, np.float64).reshape(-1, 1)
    text = np.empty(_kernel.csv_bytes(len(values), 0, 1), np.uint8)
    got = _kernel.load().csv_rows(np.empty((len(values), 0), np.int64), values, text)
    return got.tobytes().decode().split("\r\n")[:-1]


def test_csv_rows_spell_every_double_as_repr():
    # 10**6 random bit patterns, NaN payloads, subnormals and every exponent among them
    patterns = np.random.default_rng(2018).integers(0, 2**64, 10**6, np.uint64, endpoint=False)
    values = patterns.view(np.float64)
    assert _csv_cells(values) == [repr(value) for value in values.tolist()]
    # every power of two, each power of ten and its neighbours, the integers past
    # 2**53, and both sides of repr's switches to scientific notation
    tens = [10.0**k for k in range(-30, 31)]
    specials = [*(2.0**k for k in range(-1074, 1024)),
                *(near for ten in tens for near in (np.nextafter(ten, 0), ten,
                                                    np.nextafter(ten, np.inf))),
                *(2.0**53 + i for i in range(5)),
                1e-05, np.nextafter(1e-04, 0), 0.0001, 9999999999999998.0, 1e16, *PLANTED]
    specials += [-value for value in specials]
    assert _csv_cells(specials) == [repr(float(value)) for value in specials]


def test_csv_rows_fit_their_bound_with_the_longest_fields():
    # rows of int64's minimum and of the longest repr, in a buffer of exactly
    # the bound, followed by guard bytes that stay as they were
    rows, lead, cols = 7, 3, 4
    ints = np.full((rows, lead), np.iinfo(np.int64).min)
    values = np.full((rows, cols), -2.2250738585072014e-308)
    bound = _kernel.csv_bytes(rows, lead, cols)
    buffer = np.full(bound + 64, 0xA5, np.uint8)
    got = _kernel.load().csv_rows(ints, values, buffer[:bound])
    assert np.all(buffer[bound:] == 0xA5)
    row = ",".join(["-9223372036854775808"] * lead + ["-2.2250738585072014e-308"] * cols)
    assert got.tobytes() == f"{row}\r\n".encode() * rows
    assert len(got) == bound - rows  # one byte a row to spare: the last field has no comma
    with pytest.raises(ValueError, match="bytes of uint8 out"):
        _kernel.load().csv_rows(ints, values, buffer[:bound - 1])


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("trials", [1, 4, 7, 64])
def test_median_is_numpy_median_bit_for_bit(trials, nan):
    values = np.random.default_rng(trials).standard_normal((trials, 6, 3))
    values[:, 3, 2] = -0.0  # np.mean sums from +0.0
    values[:, 5, 0] = np.where(np.arange(trials) % 2, 0.0, -5e-324)  # halved, -0.0
    if nan:
        values[trials // 2, 2, 1] = np.nan
        values[0, 4] = np.nan
    assert harness._median(values).tobytes() == np.median(values, axis=0).tobytes()
    column = values[:, :, 1].ravel()
    assert harness._median(column).tobytes() == np.median(column).tobytes()


# ----------------------------------------------------------------- workers


def test_worker_count_is_bounded_by_banks_and_cpus():
    assert worker_count(100_000, banks=2, cpus=8) == 2
    assert worker_count(0, banks=10, cpus=4) == 4
    assert worker_count(3, banks=10, cpus=2) == 2
    assert worker_count(1, banks=10, cpus=8) == 1
    assert worker_count(0, banks=1, cpus=8) == 1


def test_workers_are_bounded_by_the_cpus_this_process_may_use(
    monkeypatch, ring_model, bernoulli_pentagon, ring_schedule
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built for one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule, horizon=200,
                          num_trials=harness.TRIALS_PER_BANK + 2, parallelism=0)
    assert run_experiment(config).trial_gain_gap.shape[0] == harness.TRIALS_PER_BANK + 2


# ----------------------------------------------------------------- memory


def test_previous_block_is_freed_before_the_next_is_drawn(
    ring_model, bernoulli_pentagon, ring_schedule
):
    seeds = [np.random.SeedSequence((4, k)) for k in range(16)]

    def peak(horizon):
        grid = checkpoint_grid(horizon)
        tracemalloc.start()
        try:
            harness._run_bank(ring_model, bernoulli_pentagon, ring_schedule, horizon, grid, seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # build and load the kernel outside the measurement
    one_block, two_blocks = peak(BLOCK_STEPS), peak(2 * BLOCK_STEPS)
    assert two_blocks <= 1.1 * one_block, (one_block, two_blocks)


def test_one_block_peaks_below_one_point_six_noise_blocks(
    ring_model, bernoulli_pentagon, ring_schedule
):
    # The kernel draws each step's noise and links into its lane scratch and
    # forms the observations: no noise, mask, stacked or observation block.
    seeds = [np.random.SeedSequence((4, k)) for k in range(harness.TRIALS_PER_BANK)]
    harness._run_bank(ring_model, bernoulli_pentagon, ring_schedule, 16, checkpoint_grid(16),
                      seeds[:1])  # build and load the kernel outside the measurement
    tracemalloc.start()
    try:
        harness._run_bank(ring_model, bernoulli_pentagon, ring_schedule, BLOCK_STEPS,
                          checkpoint_grid(BLOCK_STEPS), seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise_block = 8 * len(seeds) * BLOCK_STEPS * ring_model.num_agents
    noise_block *= ring_model._stacked.max_dim  # float64 (R, BLOCK_STEPS, N, mx)
    assert peak < 1.6 * noise_block, peak / noise_block


def test_a_windowed_block_peaks_below_point_four_noise_blocks(
    ring_model, bernoulli_pentagon, ring_schedule
):
    # the kernel draws each step's noise and masks itself: the bank holds no
    # window of them, not even one of 64 steps, 1/16 of a block
    seeds = [np.random.SeedSequence((4, k)) for k in range(harness.TRIALS_PER_BANK)]
    harness._run_bank(ring_model, bernoulli_pentagon, ring_schedule, 16, checkpoint_grid(16),
                      seeds[:1])  # build and load the kernel outside the measurement
    tracemalloc.start()
    try:
        harness._run_bank(ring_model, bernoulli_pentagon, ring_schedule, BLOCK_STEPS,
                          checkpoint_grid(BLOCK_STEPS), seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise_step = 8 * len(seeds) * ring_model.num_agents * ring_model._stacked.max_dim
    assert peak < 0.4 * BLOCK_STEPS * noise_step, peak / (BLOCK_STEPS * noise_step)


def _circulant50():
    """The 50-agent, 100-edge circulant of the ``ring50_bernoulli`` benchmark:
    agent n senses a cyclic sum of three of five entries and links to n +- 1
    and n +- 7, each link on with probability 0.5."""
    sensing = []
    for n in range(50):
        row = np.zeros((1, 5))
        row[0, [(n - 1) % 5, n % 5, (n + 1) % 5]] = 1.0
        sensing.append(row)
    model = ObservationModel(tuple(sensing), (np.eye(1),) * 50, np.ones(5))
    edges = {tuple(sorted((i, (i + k) % 50))) for k in (1, 7) for i in range(50)}
    return model, TopologyModel(Graph(50, tuple(edges)), "bernoulli", 0.5)


def test_a_ring50_bank_peaks_below_three_point_two_megabytes():
    # the kernel draws each step's noise and masks: 1.8 MB, where 32-step
    # windows of them (1.0 MB) peaked at 2.7 MB, 131-step windows (4.2 MB) at
    # 6.1 MB and whole-block masks at 13.3 MB
    model, top = _circulant50()
    schedule = WeightSchedule(b=0.25)  # 1 / max_degree
    seeds = [np.random.SeedSequence((4, k)) for k in range(harness.TRIALS_PER_BANK)]
    harness._run_bank(model, top, schedule, 16, checkpoint_grid(16),
                      seeds[:1])  # build and load the kernel outside the measurement
    tracemalloc.start()
    try:
        harness._run_bank(model, top, schedule, BLOCK_STEPS, checkpoint_grid(BLOCK_STEPS), seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6, peak


def test_checkpoint_records_are_held_once(tmp_path, ring_model, ring_schedule):
    # four banks of a static ring with a checkpoint at most steps: 7.5 MiB of
    # records against one bank's 0.13 MiB of buffers; the run holds its records
    # once, beside _median's sorted copy of the error norms and its temporaries
    # and the terminal scaled errors, as validation counts them, and the report
    # writer formats them one trial at a time
    config = small_config(ring_model, TopologyModel(cycle_graph(5), "static"), ring_schedule,
                          num_trials=256, horizon=600, checkpoint_start=1,
                          checkpoints_per_decade=600)
    grid = checkpoint_grid(config.horizon, 1, 600)
    records = config.num_trials * len(grid) * (ring_model.num_agents + 3) * 8
    n, m = ring_model.num_agents, ring_model.param_dim
    counted = (config.num_trials * (len(grid) * (2 * n + 3) + (n + 1) * m) + 3 * len(grid) * n) * 8
    bank = sum(harness._draw_bytes(ring_model, 256).values())
    run_experiment(SimpleNamespace(**{**vars(config), "num_trials": 2, "horizon": 20}))  # warm
    tracemalloc.start()
    try:
        report = run_experiment(config)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        write_report(report, tmp_path, AcceptanceThresholds())
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(grid) == 478 and records == 478 * 256 * 64
    assert run_peak < min(1.7 * records, counted + bank), run_peak / records
    assert write_peak < 0.1 * records, write_peak / records


# ----------------------------------------------------------------- link draws


DRAW_LAWS = {
    "static": TopologyModel(cycle_graph(5), "static"),
    "bernoulli": TopologyModel(cycle_graph(5), "bernoulli", 0.3),
    "gossip": TopologyModel(cycle_graph(5), "gossip"),
}


def _segmented(horizon, window, grid=()):
    """A checkpoint grid that cuts a walk of ``horizon`` steps into segments
    of at most ``window`` steps, with ``grid``'s steps among its own."""
    return sorted({*grid, *range(window, horizon, window), horizon})


@pytest.mark.parametrize("steps", [BLOCK_STEPS, 37], ids=["full_block", "short_block"])
@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_block_masks_are_the_link_draws_read_by_hand(law, steps):
    # the masks of a block are those of numpy's whole-block draw; the kernel's
    # block of `steps` steps after a full one, in segments of 1 and 37 steps,
    # starts its link streams from the streams' states, and leaves both where
    # numpy's whole-block draws leave a copy of each generator and the generator
    top = DRAW_LAWS[law]
    seeds = [np.random.SeedSequence((19, k)) for k in range(3)]
    expected = link_masks(top, [np.random.default_rng(s) for s in seeds], steps)
    masks = [top.draw_active(np.random.default_rng(s), steps) for s in seeds]
    check_block_ends(example1_model(), top, seeds, BLOCK_STEPS + steps)
    if law == "static":
        assert expected is None and masks == [None] * 3
        return
    assert np.array_equal(masks, expected)
    if law == "gossip":  # a one-hot mask gathers its edge's Laplacian bit for bit
        picks = expected.argmax(axis=-1)
        for s in (0, steps - 1):
            gathered = top.edge_laplacians[picks[:, s]]
            assert harness._laplacian_at(top, expected, s).tobytes() == gathered.tobytes()


@pytest.mark.parametrize("steps", [BLOCK_STEPS, 50], ids=["full_block", "short_last_block"])
@pytest.mark.parametrize("window", [1, 37, BLOCK_STEPS], ids=["1", "37", "whole"])
@pytest.mark.parametrize("law", ["bernoulli", "gossip"])
def test_link_windows_are_whole_block_draws(monkeypatch, law, window, steps):
    # two blocks, the kernel drawing each step's links in segments of at most
    # `window` steps: each trial's link draws of a block are one run of its
    # stream, which the walk follows as the oracle's whole-block masks, and its
    # streams end where whole-block draws of numpy's generators leave them
    model, top, schedule = example1_model(), DRAW_LAWS[law], WeightSchedule(b=0.5)
    horizon = BLOCK_STEPS + steps
    grid = _segmented(horizon, window, [BLOCK_STEPS])
    seeds = [np.random.SeedSequence((29, k)) for k in range(3)]
    banks = _binds(monkeypatch)
    walked = _snapshots(harness._walk(model, top, schedule, horizon, grid, seeds))
    oracle = _snapshots(reference_trajectory(model, top, schedule, horizon, grid, seeds))
    assert [t for t, _ in walked] == [t for t, _ in oracle] == grid
    for (_, got), (_, want) in zip(walked, oracle):
        assert max(np.max(np.abs(a - b)) for a, b in zip(got[:2], want[:2])) <= 1e-10
    hand = [np.random.default_rng(s) for s in seeds]
    for block in (BLOCK_STEPS, steps):
        links = copy.deepcopy(hand)
        link_masks(top, links, block)
        link_masks(top, hand, block)
        for rng in hand:
            unit_variance_draws(rng, model.noise, (block, 5, 1))
    arrays = banks[0]._arrays
    assert stream_states(arrays["link_streams"]) == numpy_states(links)
    assert stream_states(arrays["streams"]) == numpy_states(hand)


@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_sample_laplacian_is_a_one_step_block(law):
    top = DRAW_LAWS[law]
    edges = top.base.edges
    for seed in range(20):
        one_step = link_masks(top, [np.random.default_rng(seed)], 1)
        expected = harness._laplacian_at(top, one_step, 0).reshape(5, 5)
        sampled = sample_laplacian(top, np.random.default_rng(seed))
        assert np.array_equal(sampled, expected)
        rng = np.random.default_rng(seed)  # one sample's draws, read by hand
        if law == "static":
            active = edges
        elif law == "bernoulli":
            active = tuple(e for e, u in zip(edges, rng.random(len(edges))) if u < top.p)
        else:
            active = (edges[rng.integers(len(edges))],)
        assert np.array_equal(sampled, laplacian_of(Graph(5, active)))


@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_a_walk_seeds_once_and_draws_links_from_a_copy_per_block(monkeypatch, ring_model,
                                                                 ring_schedule, law):
    # a walk seeds each of its R trials' streams once, under every law, and
    # binds one bank of link streams, which takes the streams' states at each
    # block's start under either drawing law: at the end of a full block and
    # of a short last one, in segments of 1 and 37 steps, the streams and link
    # streams stand where numpy's whole-block draws leave the generators and
    # their copies (under the static law the link streams stay as bound)
    seeded, lib = [], _kernel.load()._lib
    seed = lib.adle_seed

    def spy_seed(states, rows, words):
        seeded.append(rows)
        return seed(states, rows, words)

    monkeypatch.setattr(lib, "adle_seed", spy_seed)
    banks = _binds(monkeypatch)
    top, seeds = DRAW_LAWS[law], [np.random.SeedSequence((31, k)) for k in range(3)]
    horizon = BLOCK_STEPS + 50
    for window in (1, 37):
        seeded.clear()
        grid = _segmented(horizon, window, [BLOCK_STEPS])
        ends = [(t, stream_states(banks[-1]._arrays["streams"]),
                 stream_states(banks[-1]._arrays["link_streams"]))
                for t, _ in harness._walk(ring_model, top, ring_schedule, horizon, grid, seeds)
                if t in (BLOCK_STEPS, horizon)]
        assert seeded == [len(seeds)]
        generators = [np.random.default_rng(s) for s in seeds]
        assert ends == [(end, numpy_states(generators), numpy_states(links))
                        for end, links in whole_block_draws(ring_model, top, generators, horizon)]


def _binds(monkeypatch) -> list:
    """The banks that ``BankKernel.bind`` returns from here on, in order."""
    banks, bind = [], _kernel.BankKernel.bind

    def spy(self, *args):
        banks.append(bind(self, *args))
        return banks[-1]

    monkeypatch.setattr(_kernel.BankKernel, "bind", spy)
    return banks


def _snapshots(walk):
    """Copies of the state arrays of a trajectory (or a walk) at every grid step."""
    return [(t, [a.copy() for a in (state.estimates, state.grammians, state.obs_shifts,
                                    state.obs_sums, state.obs_outer_sums)])
            for t, state, *_ in walk]


@pytest.mark.parametrize("window", [1, 37])
@pytest.mark.parametrize("noise", ["gaussian", "laplace"])
@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_noise_windows_keep_the_bits_of_whole_block_draws(monkeypatch, law, noise, window):
    # across a block boundary into a short last block, in segments of at most
    # `window` steps, with grid steps inside them and on their ends: each trial's
    # links and noise are runs of its stream, which the bank holds no buffer of
    model, top, schedule = example1_model(noise), DRAW_LAWS[law], WeightSchedule(b=0.5)
    horizon = BLOCK_STEPS + 50
    grid = [5, 36, 37, 100, BLOCK_STEPS, BLOCK_STEPS + 1, horizon]
    seeds = [np.random.SeedSequence((23, k)) for k in range(3)]
    whole = _snapshots(trajectory(model, top, schedule, horizon, grid, seeds))
    oracle = _snapshots(reference_trajectory(model, top, schedule, horizon, grid, seeds))
    banks = _binds(monkeypatch)
    walk = harness._walk(model, top, schedule, horizon, _segmented(horizon, window, grid), seeds)
    segmented = [(t, state) for t, state in _snapshots(walk) if t in grid]
    assert sorted(banks[0]._arrays) == ["edges", "factor", "g", "h", "link_streams", "outer",
                                        "q0", "scratch", "shift", "streams", "sums", "truth", "x"]
    assert [t for t, _ in segmented] == [t for t, _ in whole] == [t for t, _ in oracle] == grid
    for (_, got), (_, want), (_, ref) in zip(segmented, whole, oracle):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # the moments fold exactly the observations of the draws
        assert [a.tobytes() for a in got[2:]] == [a.tobytes() for a in ref[2:]]
        assert max(np.max(np.abs(a - b)) for a, b in zip(got[:2], ref[:2])) <= 1e-10


def test_a_non_integral_checkpoint_grid_is_refused_by_name(ring_model, bernoulli_pentagon,
                                                            ring_schedule):
    # not cast to int64, where 10.7 recorded step 10, and 19.9999 read as a grid
    # that does not end at the horizon; integral floats are steps.  A grid of
    # another shape or kind is named too, not numpy's "truth value of an array
    # ... is ambiguous" or an OverflowError from the cast
    kind = "must be a 1-D array of integers or floats, got a"
    for grid, problem in (([10.7, 20], "steps must be integers, got 10.7"),
                          ([10, 19.9999], "steps must be integers, got 19.9999"),
                          ([5, np.nan, 20], "steps must be integers, got nan"),
                          ([[10, 20]], f"{kind} 2-D array of int64"),
                          ([10, 2**70], f"{kind} 1-D array of object")):
        message = f"^{re.escape(f'checkpoint grid {problem}')}$"
        with pytest.raises(ValueError, match=message):
            run_trial(ring_model, bernoulli_pentagon, ring_schedule, 20, grid, seed=3)
        with pytest.raises(ValueError, match=message):
            next(trajectory(ring_model, bernoulli_pentagon, ring_schedule, 20, grid, [3]))
    floats = run_trial(ring_model, bernoulli_pentagon, ring_schedule, 20, [10.0, 20.0], seed=3)
    ints = run_trial(ring_model, bernoulli_pentagon, ring_schedule, 20, [10, 20], seed=3)
    assert floats.times.dtype == np.int64 and floats.times.tolist() == [10, 20]
    assert floats.error_norms.tobytes() == ints.error_norms.tobytes()


def test_a_trajectory_of_no_seeds_is_refused_by_name(ring_model, bernoulli_pentagon,
                                                     ring_schedule):
    walk = trajectory(ring_model, bernoulli_pentagon, ring_schedule, 20, [10, 20], seeds=[])
    with pytest.raises(ValueError, match="^a bank of streams needs at least one seed$"):
        next(walk)


@pytest.mark.parametrize("window", [1, 37])
@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_run_trial_records_keep_their_bits_in_any_window(ring_schedule, law, window):
    # records at a step keep their bits however segments of at most `window`
    # steps cut the walk; those of a call that ends on a block's end take the
    # gamma of the step after the block: grid steps on segment ends
    # (37, 74, 1024, 1061), inside segments, on a block's end and beyond it
    model, top = example1_model(), DRAW_LAWS[law]
    horizon = BLOCK_STEPS + 50
    grid = [1, 5, 36, 37, 38, 74, 100, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1,
            BLOCK_STEPS + 37, horizon]
    library = run_trial(model, top, ring_schedule, horizon, grid, seed=(17, 3))
    dense = _segmented(horizon, window, grid)
    segmented = run_trial(model, top, ring_schedule, horizon, dense, seed=(17, 3))
    rows = [dense.index(t) for t in grid]
    for field in ("disagreement", "error_norms", "gain_gap", "grammian_gap"):
        got, want = getattr(segmented, field)[rows], getattr(library, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
    for field in ("terminal_scaled_errors", "terminal_scaled_error_centralized"):
        assert getattr(segmented, field).tobytes() == getattr(library, field).tobytes(), field
    assert np.all(np.isfinite(segmented.error_norms))


@pytest.mark.parametrize("noise", ["gaussian", "laplace"])
@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_padding_lanes_never_draw(law, noise):
    # the dead lanes of a partial lane group draw nothing, across a block's end:
    # the group's last trial is bit for bit that trial run alone, in a bank of
    # one, the centralized baseline too
    model, top, schedule = example1_model(noise), DRAW_LAWS[law], WeightSchedule(b=0.5)
    horizon = BLOCK_STEPS + 40
    grid = np.array([10, BLOCK_STEPS, horizon])
    for bank in (7, 61):
        seeds = [(41, k) for k in range(bank)]
        together = harness._run_bank(model, top, schedule, horizon, grid, seeds)
        alone = harness._run_bank(model, top, schedule, horizon, grid, seeds[-1:])
        assert len(together) == len(alone) == 6
        for got, want in zip(together, alone):
            assert got[-1].tobytes() == want[0].tobytes()


# ----------------------------------------------------------------- compiled kernel


KERNEL_CASES = {
    "static": (example1_model(), TopologyModel(cycle_graph(5), "static"), WeightSchedule(), None),
    "bernoulli": (example1_model(), TopologyModel(cycle_graph(5), "bernoulli", 0.5),
                  WeightSchedule(b=0.5), None),
    "gossip": (example1_model(), TopologyModel(cycle_graph(5), "gossip"), WeightSchedule(), None),
    "ragged": (make_ragged_model(), TopologyModel(path_graph(3), "bernoulli", 0.7),
               WeightSchedule(b=0.5), None),
    "laplace": (example1_model("laplace"), TopologyModel(cycle_graph(5), "bernoulli", 0.5),
                WeightSchedule(b=0.5), None),
    "init": (make_ragged_model("laplace"), TopologyModel(path_graph(3), "gossip"),
             WeightSchedule(), (np.array([3.0, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]), 2.0)),
    "sensing": (make_random_sensing_model(), TopologyModel(cycle_graph(4), "bernoulli", 0.6),
                WeightSchedule(b=0.5), None),
}


def _seeds(seed, bank=3):
    """The seeds of a bank of trials seeded ``(seed, r)``."""
    return [(seed, r) for r in range(bank)]


def _block(model, top, steps, seed, bank=3, start=0):
    """The link masks and unit-variance noise of steps ``start..start +
    steps - 1`` of a bank of :func:`_seeds` bound at horizon ``start +
    steps``, read by hand from numpy generators of its trials in the
    kernel's order: the link streams start as copies of the streams, and at
    each block's start take their states while the streams draw the
    block's links; the streams then draw each step's noise."""
    rngs = [np.random.default_rng((seed, r)) for r in range(bank)]
    links, draws, noise = copy.deepcopy(rngs), [], []
    s, stop = start, start + steps
    while s < stop:
        end = min(stop, s - s % BLOCK_STEPS + BLOCK_STEPS)
        if s % BLOCK_STEPS == 0 and top.draws_links:
            links = copy.deepcopy(rngs)
            link_masks(top, rngs, end - s)
        draws.append(link_masks(top, links, end - s))
        noise.append(np.stack([unit_variance_draws(rng, model.noise, (end - s, model.num_agents,
                                                                      model._stacked.max_dim))
                               for rng in rngs]))
        s = end
    return (None if draws[0] is None else np.concatenate(draws, axis=1),
            np.concatenate(noise, axis=1))


def _kernel_advance(bound, *stops, out=None):
    """Advance a bank in segments that end at ``stops``, writing the records
    of the last into ``out`` unless ``None``; return its state's arrays."""
    for stop in stops[:-1]:
        bound.advance(stop)
    bound.advance(stops[-1], out)
    return state_arrays(bound.state)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_numpy_round_over_ten_thousand_steps(case):
    model, top, schedule, init = KERNEL_CASES[case]
    steps = 10_000
    draws, noise = _block(model, top, steps, seed=len(case))

    compiled = _kernel_advance(bind_bank(model, top, schedule, _seeds(len(case)), steps, init),
                               3_000, steps)

    obs, sensing = observations(model._stacked, noise), model._stacked.sensing
    start = tiled_state(model, 3, init)
    (x, g, shifts, sums, outer), q0 = state_arrays(start), start.initial_sample_covs
    rates = weights(schedule, 0, steps)
    for s in range(steps):
        x, g = stacked_round(x, g, sums, outer, s, q0, sensing,
                             harness._laplacian_at(top, draws, s), obs[:, s], *rates[:, s])
        fold_observations(shifts, sums, outer, s, obs[:, s])

    for got, want in zip(compiled, (x, g, shifts, sums, outer)):
        assert np.max(np.abs(got - want)) <= 1e-10


def _every_width():
    """The kernel set to each lane width this CPU runs, one lane first."""
    kernel = _kernel.load()
    kernels = []
    for width in _kernel.WIDTHS[:_kernel.WIDTHS.index(kernel.lanes) + 1]:
        kernels.append(copy.copy(kernel))
        kernels[-1].lanes = width
    return kernels


def _same_bits(states):
    for state in states[1:]:
        for got, want in zip(state, states[0]):
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bank", [3, 61, 64])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_every_lane_width_matches_one_lane_bit_for_bit(case, bank):
    model, top, schedule, init = KERNEL_CASES[case]
    steps = 10_000
    states = [_kernel_advance(bind_bank(model, top, schedule, _seeds(len(case), bank), steps,
                                        init, kernel=kernel), 3_000, steps)
              for kernel in _every_width()]
    _same_bits(states)


def test_every_lane_width_names_the_same_singular_trial():
    # With alpha = beta = 0 the Grammians stay put and gamma_s = 1 / (s + 1),
    # so a trial whose Grammian is -gamma_s I meets a zero pivot at step s:
    # trials 9 and 10 at step 42, trial 2 at step 44, from step 40.  The
    # earliest step wins, then the first trial at it, across lane groups.
    model, top, _, _ = KERNEL_CASES["bernoulli"]
    schedule = WeightSchedule(a=0.0, b=0.0, tau_gamma=1.0)
    bank, steps = 11, 8
    _, noise = _block(model, top, steps, seed=0, bank=bank, start=40)

    def bank_at_40(kernel):
        """The bank from step 40, its Grammians the identity."""
        bound = bind_bank(model, top, schedule, _seeds(0, bank), 40 + steps, step=40,
                          kernel=kernel)
        bound.state.grammians[:] = np.eye(model.param_dim)
        return bound

    states = []
    for kernel in _every_width():
        bound = bank_at_40(kernel)
        for trial, s in ((9, 42), (10, 42), (2, 44)):
            bound.state.grammians[trial] = -(1.0 / (s + 1.0)) * np.eye(model.param_dim)
        with pytest.raises(TrialDiverged) as info:
            bound.advance(40 + steps)
        assert (info.value.trial, info.value.step) == (9, 42)
        states.append(state_arrays(bound.state))
    _same_bits(states)
    obs = observations(model._stacked, noise)
    for trial, folded in ((9, 2), (10, 2), (2, 4), (0, steps)):
        # a failed trial stops before its failing step's observation
        total = np.zeros_like(obs[trial, 0])
        for s in range(folded):
            total = total + obs[trial, s]
        assert np.array_equal(states[0][3][trial], total)
    # with records asked for, trial 0's non-finite estimate names the records'
    # step, 48, unless a zero pivot met while advancing comes first
    for kernel in _every_width():
        for pivot, expected in ((False, (0, 48, TrialDiverged.NON_FINITE)),
                                (True, (9, 42, TrialDiverged.SINGULAR))):
            bound = bank_at_40(kernel)
            if pivot:
                bound.state.grammians[9] = -(1.0 / 43.0) * np.eye(model.param_dim)
            bound.state.estimates[0, 3, 1] = np.nan
            with pytest.raises(TrialDiverged) as info:
                bound.advance(40 + steps, np.empty((bank, model.num_agents + 3)))
            assert (info.value.trial, info.value.step, info.value.cause) == expected


@pytest.mark.parametrize("noise", ["gaussian", "laplace"])
@pytest.mark.parametrize("build", [example1_model, make_ragged_model], ids=["example1", "ragged"])
def test_kernel_forms_the_observations_of_the_numpy_synthesis_bit_for_bit(build, noise):
    # With alpha = beta = 0 only the moments move, and they fold exactly
    # the observations the kernel formed from numpy's draws of its streams.
    model = build(noise)
    top = TopologyModel(path_graph(model.num_agents), "bernoulli", 0.5)
    bank, steps = 11, 500
    _, z = _block(model, top, steps, seed=7, bank=bank)
    obs = observations(model._stacked, z)
    _, _, *moments = state_arrays(tiled_state(model, bank))
    for s in range(steps):
        fold_observations(*moments, s, obs[:, s])
    for kernel in _every_width():
        state = _kernel_advance(bind_bank(model, top, WeightSchedule(a=0.0, b=0.0),
                                          _seeds(7, bank), steps, kernel=kernel), steps)
        for got, want in zip(state[2:], moments):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_singular_gain_solve_names_the_first_trial_and_its_step(compiled):
    # the compiled round, and the numpy round of the oracle
    model, top, schedule, _ = KERNEL_CASES["bernoulli"]
    draws, noise = _block(model, top, 5, seed=0, start=40)
    rates = weights(schedule, 40, 5)
    state = tiled_state(model, 3)
    state.grammians[1:] = -rates[2, 0] * np.eye(model.param_dim)  # G + gamma I = 0 at step 40
    state.step = 40
    with pytest.raises(TrialDiverged) as info:
        if compiled:
            bound = bind_bank(model, top, schedule, _seeds(0), 45, state=state_arrays(state),
                              step=40)
            harness._advance(bound, 45)
        else:
            stacked_segment(state, model._stacked, noise, 0, 5, rates, top, draws)
    assert (info.value.trial, info.value.step) == (1, 40)
    assert "singular matrix in the gain solve at step 40" in str(info.value)


def test_kernel_rejects_noncontiguous_and_misshapen_arrays():
    model, top, schedule, _ = KERNEL_CASES["bernoulli"]
    n, fresh = model.num_agents, numpy_states([np.random.default_rng(s) for s in _seeds(0)])
    bound = bind_bank(model, top, schedule, _seeds(0), 2**52)
    for out in (np.empty((n + 3, 3)).T, np.empty((3, n + 2)), np.empty((3, n + 3), np.float32),
                [[0.0] * (n + 3)] * 3):
        with pytest.raises(ValueError, match=re.escape(
                f"out must be a C-contiguous float64 array of shape (3, {n + 3})")):
            bound.advance(8, out)
    for start, stop in [(-1, 2), (3, 2), (0, 2**63), (2**64, 2**64 + 1)]:
        bound.state.step = start
        with pytest.raises(ValueError, match=re.escape(
                f"segment [{start}, {stop}) needs 0 <= start <= stop < 2**63")):
            bound.advance(stop)
        assert bound.state.step == start
    bound.state.step = 2**52
    bound.advance(2**52)  # an empty segment
    assert bound.state.step == 2**52
    assert np.array_equal(bound.state.estimates, np.zeros((3, n, model.param_dim)))  # nothing ran
    assert stream_states(bound._arrays["streams"]) == fresh  # no draw


def test_a_segment_beyond_the_bound_horizon_is_refused():
    # the kernel's last block runs to the horizon: a segment past it would
    # start a block of no steps, or fewer than none
    model, top, schedule, _ = KERNEL_CASES["gossip"]
    for horizon in (-1, 2**63, 2**64 + 40):  # not wrapped into the int64 field
        with pytest.raises(ValueError, match=re.escape(
                f"horizon {horizon} needs 0 <= horizon < 2**63")):
            bind_bank(model, top, schedule, _seeds(0), horizon)
    bound = bind_bank(model, top, schedule, _seeds(0), 40)
    for start, stop in [(0, 41), (40, 41), (41, 41), (BLOCK_STEPS, BLOCK_STEPS + 1)]:
        bound.state.step = start
        with pytest.raises(ValueError, match=re.escape(
                f"segment [{start}, {stop}) ends beyond the horizon 40")):
            bound.advance(stop)
    x = bound.state.estimates
    assert np.array_equal(x, np.zeros_like(x))  # nothing ran
    fresh = numpy_states([np.random.default_rng(s) for s in _seeds(0)])
    assert stream_states(bound._arrays["streams"]) == fresh  # no draw
    bound.state.step = 0
    bound.advance(40)
    assert np.all(x != 0.0)


def test_a_trajectory_yields_the_banks_own_state_in_place(monkeypatch, ring_model,
                                                          bernoulli_pentagon, ring_schedule):
    # the walk yields bound.state itself at every grid step, its arrays where
    # bind put them, and each advance(stop) leaves state.step == stop
    banks, steps = _binds(monkeypatch), []
    grid = [1, 10, 37, BLOCK_STEPS + 3]
    for t, state in trajectory(ring_model, bernoulli_pentagon, ring_schedule, grid[-1], grid,
                               _seeds(4)):
        bound, = banks
        assert state is bound.state and state.step == t
        assert [a.ctypes.data for a in state_arrays(state)] == [
            bound._arrays[name].ctypes.data for name in ("x", "g", "shift", "sums", "outer")]
        assert state.initial_sample_covs is bound._arrays["q0"]
        steps.append(t)
    assert steps == grid


def _advanced_bank(model, top, schedule, init, bank, steps=300):
    """A bank's state after ``steps`` kernel steps."""
    bound = bind_bank(model, top, schedule, _seeds(bank, bank), steps, init)
    bound.advance(steps)
    return bound.state


def _checkpoint(kernel, model, top, state, step, schedule):
    """The kernel's (R, N + 3) records of a bank's state, the arrays of
    ``state`` or else the initial state of three trials, at step ``step``,
    which a zero-step advance writes at the schedule's gamma there."""
    bank = 3 if state is None else len(state[0])
    bound = bind_bank(model, top, schedule, range(bank), step, state=state, step=step,
                      kernel=kernel)
    out = np.full((bank, model.num_agents + 3), np.nan)
    bound.advance(step, out)
    return out


@pytest.mark.parametrize("bank", [3, 61, 64])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_checkpoint_records_match_the_numpy_diagnostics(case, bank):
    model, top, schedule, init = KERNEL_CASES[case]
    steps = 300
    advanced = _advanced_bank(model, top, schedule, init, bank, steps)
    state = state_arrays(advanced)
    gamma = float(schedule.gamma(steps))
    x, g, _, sums, outer = state
    sample_covs = _sample_cov_from_moments(sums, outer, steps, advanced.initial_sample_covs)
    want = harness._bank_checkpoint(x, g, sample_covs, model, gamma)
    records = [_checkpoint(kernel, model, top, state, steps, schedule)
               for kernel in _every_width()]
    _same_bits(records)
    n = model.num_agents
    got = (records[0][:, 0], records[0][:, 1:n + 1], records[0][:, n + 1], records[0][:, n + 2])
    for have, expected in zip(got, want):
        assert np.all(np.isfinite(have)) and have.shape == expected.shape
        assert np.allclose(have, expected, rtol=1e-12, atol=0)
    # all but the gain gap (LAPACK solves in its own order) take numpy's arithmetic
    for have, expected in zip(got[:2] + got[3:], want[:2] + want[3:]):
        assert have.tobytes() == expected.tobytes()


def test_checkpoint_names_the_first_trial_by_precedence():
    # 1. a non-finite estimate or Grammian, 2. a zero pivot, 3. a non-finite record
    model, top, schedule, _ = KERNEL_CASES["bernoulli"]
    steps, bank = 40, 11
    gamma = float(schedule.gamma(steps))
    clean = state_arrays(_advanced_bank(model, top, schedule, None, bank, steps))

    def broken(names):
        state = [a.copy() for a in clean]
        if "nan" in names:
            state[1][9, 2, 1, 1] = np.nan
        if "singular" in names:
            state[1][4] = -gamma * np.eye(model.param_dim)  # G + gamma I = 0
        if "overflow" in names:  # a finite state whose records overflow
            state[0][2, 0] = 1e300
        return state

    expected = [(("nan",), 9, TrialDiverged.NON_FINITE),
                (("singular",), 4, TrialDiverged.SINGULAR),
                (("overflow",), 2, TrialDiverged.NON_FINITE),
                (("nan", "singular"), 9, TrialDiverged.NON_FINITE),
                (("singular", "overflow"), 4, TrialDiverged.SINGULAR),
                (("nan", "singular", "overflow"), 9, TrialDiverged.NON_FINITE)]
    for kernel in _every_width():
        assert np.all(np.isfinite(_checkpoint(kernel, model, top, clean, steps, schedule)))
        for names, trial, cause in expected:
            with pytest.raises(TrialDiverged) as info:
                _checkpoint(kernel, model, top, broken(names), steps, schedule)
            assert (info.value.trial, info.value.step, info.value.cause) == (trial, steps, cause)


def test_checkpoint_needs_its_targets(ring_schedule):
    # a model that does not validate still walks; only its records need the targets
    noiseless, top = make_noiseless_ring(), TopologyModel(cycle_graph(5), "bernoulli", 0.5)
    walk = (noiseless, top, ring_schedule, 50, [10, 50], [1, 2])
    assert [t for t, _ in trajectory(*walk)] == [10, 50]
    with pytest.raises(NotPositiveDefinite):
        next(harness._walk(*walk, records=np.empty((2, 2, 8))))
    model, top, _, _ = KERNEL_CASES["bernoulli"]
    for kernel in _every_width():
        with pytest.raises(NotPositiveDefinite):
            _checkpoint(kernel, noiseless, top, None, 1, ring_schedule)
        records = _checkpoint(kernel, model, top, None, 1, ring_schedule)
        assert records.shape == (3, 8) and np.all(records[:, 1:6] == np.sqrt(5.0))  # x = 0


@pytest.mark.parametrize("case", ["ragged", "sensing"])
def test_grammians_stay_exactly_symmetric_at_every_grid_step(monkeypatch, case):
    # the kernel updates the upper triangles and mirrors them, at every lane
    # width, where H' inv(Q + gamma I) H is symmetric only up to rounding
    model, top, schedule, _ = KERNEL_CASES[case]
    horizon = BLOCK_STEPS + 40
    grid = np.array([1, 2, 37, BLOCK_STEPS, horizon])
    for kernel in _every_width():
        monkeypatch.setattr(_kernel, "load", lambda: kernel)
        steps = []
        for t, state in trajectory(model, top, schedule, horizon, grid, range(11)):
            g = state.grammians
            assert g.tobytes() == g.swapaxes(-1, -2).tobytes(), (kernel.lanes, t)
            steps.append(t)
        assert steps == grid.tolist()
        assert np.any(g != 0.0)


def test_an_asymmetric_grammian_binds_as_its_symmetric_part():
    # bind makes the bank's Grammians from the init Grammian's exactly
    # symmetric (G + G') / 2; a NaN written on a diagonal, its own mirror,
    # still reaches the records, which name it
    model, top, schedule, _ = KERNEL_CASES["sensing"]
    skewed = np.eye(model.param_dim)
    skewed[0, 2] = 1e-300  # its mirror is 0.0
    bound = bind_bank(model, top, schedule, _seeds(0), 8, (None, skewed, None))
    g = bound.state.grammians
    assert g.tobytes() == np.tile((skewed + skewed.T) / 2, (3, 4, 1, 1)).tobytes()
    assert g.tobytes() == g.swapaxes(-1, -2).tobytes()
    g[0, 1, 1, 1] = np.nan
    with pytest.raises(TrialDiverged) as info:
        bound.advance(0, np.empty((3, model.num_agents + 3)))
    assert (info.value.trial, info.value.step, info.value.cause) == (0, 0, TrialDiverged.NON_FINITE)


def test_a_nearly_symmetric_initial_grammian_runs_on_its_symmetric_part():
    # asymmetric at 1e-14 relative: it validates, and the bank starts from
    # (G + G') / 2, the exactly symmetric Grammian
    model, top, schedule, _ = KERNEL_CASES["sensing"]
    g0 = np.array([[2.0, 0.5, 0.25], [0.5, 1.0, -0.125], [0.25, -0.125, 3.0]])
    skewed = g0.copy()
    skewed[0, 1] *= 1 + 1e-14
    skewed[2, 1] *= 1 - 3e-14
    net = initial_network_state(model, grammian=skewed)
    assert net.grammians.tobytes() == np.tile((skewed + skewed.T) / 2, (4, 1, 1)).tobytes()
    assert net.grammians.tobytes() == net.grammians.swapaxes(-1, -2).tobytes()
    assert initial_network_state(model, grammian=g0).grammians.tobytes() == np.tile(
        g0, (4, 1, 1)).tobytes()  # a symmetric Grammian is taken bit for bit
    grid = np.array([5, 40])
    runs = [harness._run_bank(model, top, schedule, 40, grid, [(5, k) for k in range(3)],
                              (None, g, None)) for g in (skewed, (skewed + skewed.T) / 2)]
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


def test_lane_scratch_is_aligned_and_sized_by_the_kernel():
    model, top, _, _ = KERNEL_CASES["ragged"]
    kernel = _kernel.load()
    args = _kernel._BankArgs(n=model.num_agents, m=model.param_dim, mx=model._stacked.max_dim)
    vectors = kernel._lib.adle_scratch_vectors(ctypes.byref(args))
    for bank in (1, 3):
        bound = bind_bank(model, top, WeightSchedule(), range(bank), 0)
        scratch = bound._arrays["scratch"]
        lanes = 1 if bank == 1 else kernel.lanes
        assert scratch.nbytes == kernel.scratch_bytes(model, bank) == vectors * lanes * 8
        assert scratch.ctypes.data % 64 == 0 and bound._args.scratch == scratch.ctypes.data


def test_the_scratch_formula_is_the_kernels():
    # the memory bound's lane scratch is what bind allocates, one lane for one
    # trial, over models of ragged, equal and random observation dimensions
    for (model, top, schedule, _), bank in itertools.product(KERNEL_CASES.values(), (1, 3, 64)):
        scratch = bind_bank(model, top, schedule, range(bank), 0)._arrays["scratch"]
        assert scratch.nbytes == harness._draw_bytes(model, bank)["lane scratch"], (
            model.obs_dims, bank)


def test_the_library_exports_the_typed_entry_points_only():
    # the loader types every adle_* symbol of the library, and the library
    # has one for each of them at every lane width it builds on this machine:
    # a leftover or a stray entry point fails here
    if shutil.which("nm") is None:
        pytest.skip("no nm to list the library's symbols")
    done = subprocess.run(["nm", "-D", "--defined-only", _kernel.load()._lib._name],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    exported = {fields[-1] for fields in map(str.split, done.stdout.splitlines())
                if fields and fields[-1].startswith("adle_")}
    x86 = platform.machine().lower() in ("x86_64", "amd64", "i386", "i686")
    built = _kernel.WIDTHS if x86 else (1,)
    assert exported == {name for name in _kernel.SIGNATURES
                        if not name.startswith(_kernel._WIDE) or int(name.rsplit("_", 1)[1]) in built}
    assert len(exported) == (10 if x86 else 8)


def test_kernel_source_compiles_without_warnings(tmp_path):
    done = subprocess.run([*_kernel.COMPILE, "-Wall", "-Wextra", "-Werror", "-o",
                           str(tmp_path / "k.so"), str(_kernel._SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_reference_trajectory_runs_experiment_like_the_kernel(
    monkeypatch, ring_model, bernoulli_pentagon, ring_schedule
):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule, num_trials=70,
                          horizon=1_500, init_estimate=np.full(5, 0.5), init_sample_cov=1.0)
    compiled = run_experiment(config)
    walks = []

    def oracle_walk(*args):
        walks.append(args)
        return reference_walk(*args)

    monkeypatch.setattr(harness, "_walk", oracle_walk)
    oracle = run_experiment(config)
    assert len(walks) == 2  # both banks ran on the numpy round
    assert np.allclose(oracle.trial_error_norms, compiled.trial_error_norms, rtol=0, atol=1e-10)
    assert np.allclose(oracle.trial_gain_gap, compiled.trial_gain_gap, rtol=0, atol=1e-10)
    assert np.allclose(oracle.empirical_scaled_cov, compiled.empirical_scaled_cov,
                       rtol=0, atol=1e-8)


def test_each_bank_is_bound_once(monkeypatch, ring_model, bernoulli_pentagon, ring_schedule):
    # three banks (64, 64 and 2 trials) over two full blocks and a short one,
    # each bound with the experiment's schedule
    shapes, bind = [], _kernel.BankKernel.bind

    def spy(self, model, top, schedule, seeds, horizon, init=None):
        shapes.append((len(seeds), horizon, schedule))
        return bind(self, model, top, schedule, seeds, horizon, init)

    monkeypatch.setattr(_kernel.BankKernel, "bind", spy)
    horizon = 2 * BLOCK_STEPS + 37
    run_experiment(small_config(ring_model, bernoulli_pentagon, ring_schedule, num_trials=130,
                                horizon=horizon))
    assert shapes == [(64, horizon, ring_schedule), (64, horizon, ring_schedule),
                      (2, horizon, ring_schedule)]


@pytest.mark.parametrize("law", ["static", "bernoulli", "gossip"])
@pytest.mark.parametrize("trials, horizon", [(1, 10), (3, 10), (70, 2 * BLOCK_STEPS + 37)])
def test_draw_bytes_are_those_of_the_bound_buffers(monkeypatch, ring_model, ring_schedule, law,
                                                   trials, horizon):
    top = TopologyModel(cycle_graph(5), law, 0.5)
    seeds = range(min(harness.TRIALS_PER_BANK, trials))
    advance, held, peaks = harness._advance, [], []

    def spy(bound, stop, out=None):  # a segment with its block starts: what it keeps
        tracemalloc.start()
        try:
            advance(bound, stop, out)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(left)
        peaks.append(peak)

    monkeypatch.setattr(harness, "_advance", spy)
    banks = _binds(monkeypatch)
    walk = harness._walk(ring_model, top, ring_schedule, horizon, [horizon], seeds)
    next(walk)
    bound, = banks
    parts = harness._draw_bytes(ring_model, trials)
    arrays = dict(bound._arrays)
    # the model's arrays are not the bank's
    bound_bytes = sum(arrays[name].nbytes for name in arrays
                      if name not in ("h", "truth", "factor", "edges"))
    assert bound_bytes == sum(parts.values())
    assert arrays["scratch"].nbytes == parts["lane scratch"]
    assert arrays["streams"].nbytes + arrays["link_streams"].nbytes == parts["streams"]
    # one segment, whose block starts copy the streams into the bound link
    # streams in the kernel, and keeps nothing
    assert len(held) == 1
    assert max(held + peaks) < 4096
    walk.close()


def _kernel_source_copy(monkeypatch, tmp_path):
    """Point the loader at a copy of the kernel source; return its directory."""
    package = tmp_path / "package"
    package.mkdir()
    (package / "_kernel.c").write_bytes(_kernel._SOURCE.read_bytes())
    monkeypatch.setattr(_kernel, "_SOURCE", package / "_kernel.c")
    return package


def test_a_build_in_the_package_cache_removes_older_libraries(monkeypatch, tmp_path):
    cache = _kernel_source_copy(monkeypatch, tmp_path) / "__pycache__"
    cache.mkdir()
    for name in ("_kernel-0123456789abcdef.so", "_kernel.cpython-311.pyc"):
        (cache / name).write_bytes(b"")
    target = _kernel._build()
    assert target.parent == cache
    assert sorted(p.name for p in cache.iterdir()) == sorted([target.name,
                                                              "_kernel.cpython-311.pyc"])
    (cache / "_kernel-fedcba9876543210.so").write_bytes(b"")  # left by an earlier source
    assert _kernel._build() == target  # found, not built: the cache is pruned all the same
    assert sorted(p.name for p in cache.iterdir()) == sorted([target.name,
                                                              "_kernel.cpython-311.pyc"])


def test_a_build_in_the_shared_cache_removes_no_library(monkeypatch, tmp_path):
    # another checkout's process may be loading its library from there
    _kernel_source_copy(monkeypatch, tmp_path)
    shared = _unwritable_package_cache(monkeypatch, tmp_path)
    shared.mkdir(mode=0o700)
    (shared / "_kernel-0123456789abcdef.so").write_bytes(b"")
    target = _kernel._build()
    assert target.parent == shared
    assert sorted(p.name for p in shared.iterdir()) == sorted([target.name,
                                                               "_kernel-0123456789abcdef.so"])


def test_missing_compiler_is_a_named_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(_kernel, "COMPILE", ("adle-no-such-compiler",))
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(_kernel, "_cache_dir", lambda: cache)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("schema: adle-scenario/1\nmodel: example1\n"
                        "topology: {base: example1, law: bernoulli, p: 0.5}\n"
                        "horizon: 100\nnum_trials: 4\n")
    _kernel.load.cache_clear()
    try:
        with pytest.raises(AdleError, match="adle-no-such-compiler -o"):
            _kernel.load()
        assert main(["--config", str(scenario), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        # validation sizes the bank by the kernel that the run would load
        assert main(["--config", str(scenario), "--validate-only"]) == 1
        captured = capsys.readouterr()
    finally:
        _kernel.load.cache_clear()
    assert list(cache.iterdir()) == []
    assert captured.err == err and "configuration OK" not in captured.out
    assert err.startswith("error: cannot build the compiled bank-step kernel with")
    assert "adle-no-such-compiler" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_missing_static_library_is_a_named_error(monkeypatch, tmp_path, capsys):
    missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    monkeypatch.setattr(_kernel, "NPYRANDOM", missing)
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(_kernel, "_cache_dir", lambda: cache)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("schema: adle-scenario/1\nmodel: example1\n"
                        "topology: {base: example1, law: gossip}\nhorizon: 100\nnum_trials: 4\n")
    _kernel.load.cache_clear()
    try:
        libs = " ".join(_kernel.LIBS)
        with pytest.raises(AdleError, match=re.escape(f"{missing} {libs}`: numpy's static library")):
            _kernel.load()
        assert main(["--config", str(scenario), "--out", str(tmp_path / "out")]) == 1
    finally:
        _kernel.load.cache_clear()
    assert list(cache.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("error: cannot build the compiled bank-step kernel with `gcc ")
    assert f"{missing} is missing" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_the_cache_key_covers_numpy(monkeypatch, tmp_path):
    # a library linked from another numpy's distributions is another library
    key = _kernel._cache_key()
    monkeypatch.setattr(_kernel, "NPYRANDOM", tmp_path / "libnpyrandom.a")
    moved = _kernel._cache_key()
    monkeypatch.setattr(_kernel.np, "__version__", "0.0.0")
    assert len({key, moved, _kernel._cache_key()}) == 3


def test_every_entry_point_keeps_its_declared_types():
    # ctypes makes a new function at each lib[name], so types set on one did not
    # stick: lib.adle_bank_bytes.restype was c_int
    kernel = _kernel.load()
    widths = [f"{_kernel._WIDE}{width}" for width in _kernel.WIDTHS if width > kernel.lanes]
    assert not [name for name in _kernel.SIGNATURES if "checkpoint" in name]
    bound = [name for name in _kernel.SIGNATURES if name not in widths]
    assert sorted(kernel._fns) == [width for width in _kernel.WIDTHS if width <= kernel.lanes]
    for name in bound:
        fn = getattr(kernel._lib, name)
        assert [list(fn.argtypes), fn.restype] == list(_kernel.SIGNATURES[name]), name
    assert kernel._lib.adle_bank_bytes.restype is ctypes.c_int64
    assert kernel._lib.adle_bank_bytes() == ctypes.sizeof(_kernel._BankArgs)


def test_a_library_of_another_layout_is_refused_not_bound(tmp_path):
    # a loader whose _BankArgs has one field more than struct adle_bank
    script = (
        "import ctypes\n"
        "from adle import _kernel\n"
        "class Wider(ctypes.Structure):\n"
        "    _fields_ = [*_kernel._BankArgs._fields_, ('extra', ctypes.c_int64)]\n"
        "_kernel._BankArgs = Wider\n"
        "_kernel.load()\n"
    )
    src = str(Path(_kernel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    size = ctypes.sizeof(_kernel._BankArgs)
    assert done.returncode == 1, (done.returncode, done.stderr)  # an exception, not a signal
    assert done.stderr.splitlines()[-1] == (
        f"adle.errors.AdleError: the compiled kernel's struct adle_bank is layout "
        f"{_kernel.LAYOUT} of {size} bytes, but the loader's _BankArgs is layout "
        f"{_kernel.LAYOUT} of {size + 8} bytes")


def test_a_library_of_layout_two_is_refused(monkeypatch, tmp_path):
    # the same struct adle_bank under earlier version numbers; at layout 3 the
    # weights held no column for the step after the window, at layout 4 the
    # kernel read its noise and links from draw windows, at layout 5 its
    # weights from a block's buffer, and at layout 6 it started no block
    current, size = _kernel._SOURCE.read_bytes(), ctypes.sizeof(_kernel._BankArgs)
    package = _kernel_source_copy(monkeypatch, tmp_path)
    for old in (2, 3, 4, 5, 6):
        source = current.replace(b"#define ADLE_LAYOUT 7\n", b"#define ADLE_LAYOUT %d\n" % old)
        (package / "_kernel.c").write_bytes(source)
        monkeypatch.setattr(_kernel, "_SOURCE_DIGEST", hashlib.sha256(source).digest())
        with pytest.raises(AdleError, match=re.escape(
                f"struct adle_bank is layout {old} of {size} bytes, but the loader's _BankArgs "
                f"is layout 7 of {size} bytes")):
            _kernel.BankKernel(ctypes.CDLL(str(_kernel._build())))


def test_a_library_of_another_stream_size_is_refused(monkeypatch):
    # bind allocates STREAM_BYTES a stream, which the library's draws must not pass
    lib = ctypes.CDLL(str(_kernel._build()))
    _kernel.BankKernel(lib)
    monkeypatch.setattr(_kernel, "STREAM_BYTES", 40)
    with pytest.raises(AdleError, match=re.escape(
            "struct adle_stream is 48 bytes, but the loader's STREAM_BYTES is 40")):
        _kernel.BankKernel(lib)


def test_bank_args_are_struct_adle_bank_field_for_field():
    # the size and version checks cannot see two fields of one type swapped
    body = re.search(r"struct adle_bank \{(.*?)\};", _kernel._SOURCE.read_text(), re.S)[1]
    fields = [(name, star == "*") for star, name in re.findall(r"(\*?)(\w+)(?:\[\d+\])?\s*[,;]",
                                                                body)]
    assert fields == [(name, kind is ctypes.c_void_p) for name, kind in _kernel._BankArgs._fields_]
    assert "steps" not in dict(fields)


def test_the_kernel_source_is_read_once_at_import(monkeypatch, tmp_path):
    # an edit after import changes not the library's key, and is not built
    copy = _kernel_source_copy(monkeypatch, tmp_path)
    built = _kernel._build()
    (copy / "_kernel.c").write_bytes(b"#error edited after import\n")
    assert _kernel._build() == built
    _kernel.BankKernel(ctypes.CDLL(str(built)))
    built.unlink()
    with pytest.raises(AdleError, match="_kernel.c changed after adle._kernel was imported"):
        _kernel._build()
    assert not built.exists()


def test_load_names_its_lane_width_once(caplog):
    _kernel.load.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger=_kernel.__name__):
            kernel = _kernel.load()
            assert _kernel.load() is kernel
    finally:
        _kernel.load.cache_clear()
    assert kernel.lanes in _kernel.WIDTHS
    assert [r.getMessage() for r in caplog.records] == [
        f"compiled bank-step kernel runs {kernel.lanes} trial lanes"]


def test_concurrent_builds_leave_one_loadable_library(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "_cache_dir", lambda: tmp_path)
    with ThreadPoolExecutor(max_workers=3) as pool:
        futures = [pool.submit(_kernel._build) for _ in range(3)]
        paths = {future.result(timeout=120) for future in futures}
    assert len(paths) == 1
    assert [p.name for p in tmp_path.iterdir()] == [paths.pop().name]
    _kernel.BankKernel(ctypes.CDLL(str(next(tmp_path.iterdir()))))


def _unwritable_package_cache(monkeypatch, tmp_path):
    """Make the package's ``__pycache__`` look unwritable and ``tmp_path`` the
    system temporary directory; return the per-user cache path there."""
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    return tmp_path / f"adle-kernel-{os.getuid()}"


def test_unwritable_package_reuses_one_private_cache_per_user(monkeypatch, tmp_path):
    shared = _unwritable_package_cache(monkeypatch, tmp_path)
    assert _kernel._cache_dir() == shared
    assert _kernel._cache_dir() == shared  # the next process builds nothing new
    assert stat.S_IMODE(shared.stat().st_mode) == 0o700
    assert list(tmp_path.iterdir()) == [shared]


@pytest.mark.parametrize("kind", ["group_writable", "symlink"])
def test_a_cache_others_may_write_to_is_not_loaded_from(monkeypatch, tmp_path, kind):
    shared = _unwritable_package_cache(monkeypatch, tmp_path)
    if kind == "symlink":
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        shared.symlink_to(tmp_path / "elsewhere")
    else:
        shared.mkdir()
        shared.chmod(0o770)
    private = _kernel._cache_dir()
    assert private.parent == tmp_path and private.name.startswith("adle-kernel-")
    assert private != shared and not private.is_symlink()
    assert stat.S_IMODE(private.stat().st_mode) == 0o700


def test_a_private_build_directory_is_removed_once_loaded(monkeypatch, tmp_path):
    # neither the package's cache nor a shared one may be used: the process
    # builds in a directory of its own, and leaves none behind in /tmp
    shared = _unwritable_package_cache(monkeypatch, tmp_path)
    shared.mkdir()
    shared.chmod(0o770)
    _kernel.load.cache_clear()
    try:
        kernel = _kernel.load()
    finally:
        _kernel.load.cache_clear()
    assert list(tmp_path.iterdir()) == [shared] and list(shared.iterdir()) == []
    bound = kernel.bind(example1_model(), TopologyModel(cycle_graph(5)), WeightSchedule(), [3], 0)
    assert stream_states(bound._arrays["streams"]) == numpy_states([np.random.default_rng(3)])
    assert kernel.lanes in _kernel.WIDTHS
