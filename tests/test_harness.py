import ctypes
import copy
import dataclasses
import logging
import pickle
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from adle import _kernel, harness
from adle.cli import example1_model
from adle.errors import TrialDiverged
from adle.estimator import NetworkState, _advance, _fold_observations, initial_network_state
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
from adle.model import ObservationModel, _unit_variance_draws
from adle.network import (
    Graph,
    TopologyModel,
    cycle_graph,
    laplacian_of,
    path_graph,
    sample_laplacian,
)
from adle.schedule import WeightSchedule, checkpoint_bound, recursion_trace
from conftest import make_ragged_model


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


# ----------------------------------------------------------------- workers


def test_worker_count_is_bounded_by_banks_and_cpus():
    assert worker_count(100_000, banks=2, cpus=8) == 2
    assert worker_count(0, banks=10, cpus=4) == 4
    assert worker_count(3, banks=10, cpus=2) == 2
    assert worker_count(1, banks=10, cpus=8) == 1
    assert worker_count(0, banks=1, cpus=8) == 1


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
    # The draws land in one noise buffer and one mask buffer, and the
    # kernel forms the observations: no stacked or observation block.
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


# ----------------------------------------------------------------- link draws


DRAW_LAWS = {
    "static": TopologyModel(cycle_graph(5), "static"),
    "bernoulli": TopologyModel(cycle_graph(5), "bernoulli", 0.3),
    "gossip": TopologyModel(cycle_graph(5), "gossip"),
}


@pytest.mark.parametrize("steps", [BLOCK_STEPS, 37], ids=["full_block", "short_block"])
@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_block_masks_are_the_link_draws_read_by_hand(law, steps):
    top = DRAW_LAWS[law]
    seeds = [np.random.SeedSequence((19, k)) for k in range(3)]
    masks = harness._draw_topology_block(top, [np.random.default_rng(s) for s in seeds], steps)
    if law == "static":
        assert masks is None
        return
    expected = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if law == "bernoulli":
            expected.append(rng.random((steps, top.base.num_edges)) < top.p)
        else:
            picks = rng.integers(0, top.base.num_edges, size=steps)
            expected.append(np.arange(top.base.num_edges) == picks[:, None])
    assert masks.dtype == np.bool_ and np.array_equal(masks, np.stack(expected))
    if law == "gossip":  # a one-hot mask gathers its edge's Laplacian bit for bit
        picks = masks.argmax(axis=-1)
        for s in (0, steps - 1):
            gathered = top.edge_laplacians[picks[:, s]]
            assert harness._laplacian_at(top, masks, s).tobytes() == gathered.tobytes()


@pytest.mark.parametrize("law", sorted(DRAW_LAWS))
def test_sample_laplacian_is_a_one_step_block(law):
    top = DRAW_LAWS[law]
    edges = top.base.edges
    for seed in range(20):
        one_step = harness._draw_topology_block(top, [np.random.default_rng(seed)], 1)
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
}


def _block(model, top, schedule, steps, seed, bank=3):
    """Link draws, unit-variance noise and weights of one block, in the
    documented order."""
    rngs = [np.random.default_rng((seed, r)) for r in range(bank)]
    draws = harness._draw_topology_block(top, rngs, steps)
    noise = np.stack([_unit_variance_draws(rng, model.noise, (steps, model.num_agents,
                                                               model._stacked.max_dim))
                      for rng in rngs])
    weights = np.array([[float(rate(t)) for t in range(steps)]
                        for rate in (schedule.alpha, schedule.beta, schedule.gamma)])
    return draws, noise, weights


def _modelled(model):
    """The padded sensing, sensed truth and noise factors the kernel reads."""
    stacked = model._stacked
    return stacked.sensing, stacked.sensed_truth, stacked.noise_factor


def _bank_state(model, init, bank=3):
    net = initial_network_state(model, *(init or (None, None, None)))
    state = [np.tile(a, (bank,) + (1,) * a.ndim)
             for a in (net.estimates, net.grammians, net.obs_shifts, net.obs_sums,
                       net.obs_outer_sums)]
    return state, net.initial_sample_covs


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_numpy_round_over_ten_thousand_steps(case):
    kernel = _kernel.load()
    assert kernel is not None, "the C compiler should be available to the test suite"
    model, top, schedule, init = KERNEL_CASES[case]
    steps = 10_000
    draws, noise, weights = _block(model, top, schedule, steps, seed=len(case))
    modelled = _modelled(model)

    compiled, q0 = _bank_state(model, init)
    kernel.advance(*compiled, 0, q0, *modelled, noise, 0, 3_000, weights, top, draws)
    kernel.advance(*compiled, 3_000, q0, *modelled, noise, 3_000, steps, weights, top, draws)

    obs, sensing = harness._observations(model._stacked, noise), modelled[0]
    (x, g, shifts, sums, outer), _ = _bank_state(model, init)
    for s in range(steps):
        x, g = _advance(x, g, sums, outer, s, q0, sensing,
                        harness._laplacian_at(top, draws, s), obs[:, s], *weights[:, s])
        _fold_observations(shifts, sums, outer, s, obs[:, s])

    for got, want in zip(compiled, (x, g, shifts, sums, outer)):
        assert np.max(np.abs(got - want)) <= 1e-10


def _every_width():
    """The kernel set to each lane width this CPU runs, one lane first."""
    kernel = _kernel.load()
    assert kernel is not None, "the C compiler should be available to the test suite"
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
    draws, noise, weights = _block(model, top, schedule, steps, seed=len(case), bank=bank)
    modelled = _modelled(model)
    states = []
    for kernel in _every_width():
        state, q0 = _bank_state(model, init, bank)
        kernel.advance(*state, 0, q0, *modelled, noise, 0, 3_000, weights, top, draws)
        kernel.advance(*state, 3_000, q0, *modelled, noise, 3_000, steps, weights, top, draws)
        states.append(state)
    _same_bits(states)


def test_every_lane_width_names_the_same_singular_trial():
    # With alpha = beta = 0 the Grammians stay put and gamma = 1, 2, ...
    # per step, so a trial whose Grammian is -gamma_s I meets a zero pivot
    # at block step s: trials 9 and 10 at step 2, trial 2 at step 4.  The
    # earliest step wins, then the first trial at it, across lane groups.
    model, top, schedule, _ = KERNEL_CASES["bernoulli"]
    bank, steps = 11, 8
    draws, noise, _ = _block(model, top, schedule, steps, seed=0, bank=bank)
    weights = np.zeros((3, steps))
    weights[2] = np.arange(1.0, steps + 1)
    states = []
    for kernel in _every_width():
        state, q0 = _bank_state(model, None, bank)
        state[1][:] = np.eye(model.param_dim)
        for trial, s in ((9, 2), (10, 2), (2, 4)):
            state[1][trial] = -weights[2, s] * np.eye(model.param_dim)
        with pytest.raises(TrialDiverged) as info:
            kernel.advance(*state, 40, q0, *_modelled(model), noise, 0, steps, weights, top,
                           draws)
        assert (info.value.trial, info.value.step) == (9, 42)
        states.append(state)
    _same_bits(states)
    obs = harness._observations(model._stacked, noise)
    for trial, folded in ((9, 2), (10, 2), (2, 4), (0, steps)):
        # a failed trial stops before its failing step's observation
        total = np.zeros_like(obs[trial, 0])
        for s in range(folded):
            total = total + obs[trial, s]
        assert np.array_equal(states[0][3][trial], total)


@pytest.mark.parametrize("noise", ["gaussian", "laplace"])
@pytest.mark.parametrize("build", [example1_model, make_ragged_model], ids=["example1", "ragged"])
def test_kernel_forms_the_observations_of_the_numpy_synthesis_bit_for_bit(build, noise):
    # With alpha = beta = 0 only the moments move, and they fold exactly
    # the observations the kernel formed from the noise.
    model = build(noise)
    top = TopologyModel(path_graph(model.num_agents), "bernoulli", 0.5)
    bank, steps = 11, 500
    draws, z, weights = _block(model, top, WeightSchedule(), steps, seed=7, bank=bank)
    weights[:2] = 0.0
    obs = harness._observations(model._stacked, z)
    (_, _, *moments), q0 = _bank_state(model, None, bank)
    for s in range(steps):
        _fold_observations(*moments, s, obs[:, s])
    for kernel in _every_width():
        state, q0 = _bank_state(model, None, bank)
        kernel.advance(*state, 0, q0, *_modelled(model), z, 0, steps, weights, top, draws)
        for got, want in zip(state[2:], moments):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_singular_gain_solve_names_the_first_trial_and_its_step(compiled):
    model, top, schedule, _ = KERNEL_CASES["bernoulli"]
    draws, noise, weights = _block(model, top, schedule, 8, seed=0)
    (x, g, shifts, sums, outer), q0 = _bank_state(model, None)
    g[1:] = -weights[2, 3] * np.eye(model.param_dim)  # G + gamma I = 0 at block step 3
    state = NetworkState(x, g, shifts, sums, outer, q0, 40, model.obs_dims)
    bound = None
    if compiled:
        bound = _kernel.load().bind(x, g, shifts, sums, outer, q0, *_modelled(model), top)
        bound.draws(noise, weights, draws)
    with pytest.raises(TrialDiverged) as info:
        harness._advance(bound, state, model._stacked, noise, 3, 8, weights, top, draws)
    assert (info.value.trial, info.value.step) == (1, 40)
    assert "singular matrix in the gain solve at step 40" in str(info.value)


def test_kernel_rejects_noncontiguous_and_misshapen_arrays():
    kernel = _kernel.load()
    assert kernel is not None
    model, top, schedule, _ = KERNEL_CASES["bernoulli"]
    draws, noise, weights = _block(model, top, schedule, 8, seed=0)
    (x, g, shifts, sums, outer), q0 = _bank_state(model, None)
    modelled = _modelled(model)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.advance(np.asfortranarray(x), g, shifts, sums, outer, 0, q0, *modelled, noise, 0,
                       8, weights, top, draws)
    with pytest.raises(ValueError, match="shape"):
        kernel.advance(x, g[:, :-1].copy(), shifts, sums, outer, 0, q0, *modelled, noise, 0, 8,
                       weights, top, draws)
    with pytest.raises(ValueError, match="shape"):
        kernel.advance(x, g, shifts, sums, outer, 0, q0, *modelled, noise, 0, 8,
                       weights, top, draws[:, :, :-1].copy())
    with pytest.raises(ValueError, match="noise must be a float64 array"):
        kernel.advance(x, g, shifts, sums, outer, 0, q0, *modelled, noise.astype(np.float32), 0,
                       8, weights, top, draws)
    frozen = x.copy()
    frozen.setflags(write=False)
    with pytest.raises(ValueError, match="writable"):
        kernel.advance(frozen, g, shifts, sums, outer, 0, q0, *modelled, noise, 0, 8,
                       weights, top, draws)
    assert np.array_equal(x, np.zeros_like(x))  # nothing ran
    assert np.array_equal(frozen, np.zeros_like(x))


def test_numpy_fallback_runs_experiment_like_the_kernel(
    monkeypatch, ring_model, bernoulli_pentagon, ring_schedule
):
    config = small_config(ring_model, bernoulli_pentagon, ring_schedule, num_trials=70,
                          horizon=1_500, init_estimate=np.full(5, 0.5), init_sample_cov=1.0)
    compiled = run_experiment(config)
    monkeypatch.setattr(harness._kernel, "load", lambda: None)
    fallback = run_experiment(config)
    assert np.allclose(fallback.trial_error_norms, compiled.trial_error_norms, rtol=0, atol=1e-10)
    assert np.allclose(fallback.trial_gain_gap, compiled.trial_gain_gap, rtol=0, atol=1e-10)
    assert np.allclose(fallback.empirical_scaled_cov, compiled.empirical_scaled_cov,
                       rtol=0, atol=1e-8)


def test_missing_compiler_warns_once_and_returns_none(monkeypatch, tmp_path, caplog):
    monkeypatch.setattr(_kernel, "COMPILE", ("adle-no-such-compiler",))
    monkeypatch.setattr(_kernel, "_cache_dir", lambda: tmp_path)
    _kernel.load.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=_kernel.__name__):
            assert _kernel.load() is None
            assert _kernel.load() is None
    finally:
        _kernel.load.cache_clear()
    assert len(caplog.records) == 1
    assert list(tmp_path.iterdir()) == []


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
