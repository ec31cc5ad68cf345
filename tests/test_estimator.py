import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adle.errors import ScheduleViolation
from adle.estimator import _max_disagreement, initial_network_state
from adle.harness import run_trial, trajectory
from adle.model import ObservationModel, validate_observation_model
from adle.network import (
    Graph,
    TopologyModel,
    cycle_graph,
    laplacian_of,
    path_graph,
    sample_laplacian,
)
from adle.schedule import WeightSchedule, validate_schedule
from conftest import make_noiseless_ring, make_ragged_model
from reference import (
    agents_of,
    compute_gain,
    fresh_agent,
    reference_round,
    unit_variance_draws,
    update_estimates,
    update_grammian,
    update_sample_covariance,
)


def states(model, top, schedule, grid, seed=0, trials=1, init=None):
    """Copies of the trial-stacked state at every step of ``grid``."""
    seeds = [np.random.SeedSequence((seed, k)) for k in range(trials)]
    return [copy.deepcopy(state)
            for _, state in trajectory(model, top, schedule, grid[-1], grid, seeds, init)]


# --------------------------------------------------------------------- Q


def test_single_sample_covariance_is_zero():
    state = update_sample_covariance(fresh_agent(3, 2), np.array([4.0, -1.0]))
    assert np.array_equal(state.sample_cov, np.zeros((2, 2)))
    assert state.samples_seen == 1


def test_constant_observations_give_zero_covariance():
    state = fresh_agent(2, 2)
    for _ in range(100):
        state = update_sample_covariance(state, np.array([3.0, -2.0]))
    assert np.max(np.abs(state.sample_cov)) < 1e-12


def test_running_covariance_matches_batch_and_truth():
    rng = np.random.default_rng(1)
    truth = np.diag([2.0, 1.0])
    samples = rng.standard_normal((100_000, 2)) * np.sqrt(np.diag(truth))
    state = fresh_agent(2, 2)
    for y in samples:
        state = update_sample_covariance(state, y)
    batch = np.cov(samples, rowvar=False, ddof=0)
    assert np.max(np.abs(state.sample_cov - batch)) < 1e-9
    assert np.max(np.abs(state.sample_cov - truth)) < 0.05


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(2, 300),
    dim=st.integers(1, 3),
    scale=st.floats(0.5, 10.0),
    offset=st.floats(-1e8, 1e8),
)
def test_sample_covariance_is_invariant_under_a_constant_offset(seed, count, dim, scale, offset):
    # one agent observing theta + noise directly, with theta at 0 and at
    # the offset: the trajectories draw the same noise
    def running_cov(theta):
        model = ObservationModel((np.eye(dim),), (scale**2 * np.eye(dim),), np.full(dim, theta))
        (state,) = states(model, TopologyModel(Graph(1, ()), "static"), WeightSchedule(),
                          [count], seed=seed)
        return state.sample_covariances()[0][0]

    # the offset samples are rounded to the spacing of doubles near 1e8
    # (1.5e-8), which moves the covariance by under 1e-6 of the variance
    gap = np.max(np.abs(running_cov(offset) - running_cov(0.0)))
    assert gap <= 1e-6 * scale**2


def test_sample_covariance_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        update_sample_covariance(fresh_agent(2, 2), np.zeros(3))


# --------------------------------------------------------------------- gains


def test_gain_identity_limit():
    state = fresh_agent(3, 3)
    state.grammian_est = np.eye(3)
    state.sample_cov = np.eye(3)
    gain = compute_gain(state, np.eye(3), 1e-9)
    assert np.allclose(gain, np.eye(3), atol=1e-6)
    # and with vanishing regularization of zero matrices:
    zero = fresh_agent(2, 2)
    assert np.allclose(compute_gain(zero, np.eye(2), 1.0), np.eye(2), atol=1e-12)


def test_gain_requires_positive_regularization():
    with pytest.raises(ValueError):
        compute_gain(fresh_agent(2, 2), np.eye(2), 0.0)
    # the library's guard: a schedule whose regularization is not positive
    with pytest.raises(ScheduleViolation, match="gamma0 > 0"):
        validate_schedule(WeightSchedule(gamma0=0.0))


def test_gains_converge_to_optimal_on_ring(ring_model, bernoulli_pentagon, ring_schedule):
    from adle.harness import checkpoint_grid

    horizon = 100_000
    metrics = run_trial(
        ring_model, bernoulli_pentagon, ring_schedule, horizon,
        checkpoint_grid(horizon), np.random.SeedSequence((99, 0)),
    )
    summary = validate_observation_model(ring_model)
    budget = 0.05 * max(np.linalg.norm(k) for k in summary.optimal_gains)
    assert metrics.terminal_gain_gap <= budget


# --------------------------------------------------------------------- G


def test_grammian_fixed_point():
    # all agents equal and innovation equal to the current value
    gamma_schedule = WeightSchedule()
    gamma = float(gamma_schedule.gamma(4))
    target = np.eye(2) / (1.0 + gamma)
    grammians = np.tile(target, (3, 1, 1))
    lap = laplacian_of(cycle_graph(3))
    sensing = [np.eye(2)] * 3
    covs = [np.eye(2)] * 3
    updated = update_grammian(grammians, lap, sensing, covs, gamma_schedule, 4)
    assert np.max(np.abs(updated - grammians)) < 1e-14


def test_grammian_pure_innovation_on_empty_graph():
    schedule = WeightSchedule()  # alpha(0) = 1
    grammians = np.zeros((2, 3, 3))
    sensing = [np.eye(3), 2.0 * np.eye(3)]
    covs = [np.zeros((3, 3)), np.zeros((3, 3))]
    updated = update_grammian(grammians, np.zeros((2, 2)), sensing, covs, schedule, 0)
    gamma = float(schedule.gamma(0))
    for n, h in enumerate(sensing):
        expected = h.T @ np.linalg.inv(covs[n] + gamma * np.eye(3)) @ h
        assert np.allclose(updated[n], expected, atol=1e-14)


def test_grammian_average_follows_scalar_recursion():
    rng = np.random.default_rng(3)
    schedule = WeightSchedule(b=0.5)
    sensing = [rng.standard_normal((2, 4)) for _ in range(5)]
    covs = [np.eye(2) + 0.3 * np.diag(rng.random(2)) for _ in range(5)]
    grammians = rng.standard_normal((5, 4, 4))
    grammians = grammians + np.swapaxes(grammians, -1, -2)
    top = TopologyModel(cycle_graph(5), "bernoulli", 0.5)
    for t in range(20):
        lap = sample_laplacian(top, rng)
        gamma = float(schedule.gamma(t))
        innovations = np.stack(
            [h.T @ np.linalg.inv(q + gamma * np.eye(2)) @ h for h, q in zip(sensing, covs)]
        )
        predicted = (1.0 - schedule.alpha(t)) * grammians.mean(axis=0) + schedule.alpha(
            t
        ) * innovations.mean(axis=0)
        grammians = update_grammian(grammians, lap, sensing, covs, schedule, t)
        assert np.max(np.abs(grammians.mean(axis=0) - predicted)) < 1e-12


# --------------------------------------------------------------------- x


def test_estimate_fixed_point_at_truth_with_clean_observations(ring_model, ring_schedule):
    truth = ring_model.true_param
    estimates = np.tile(truth, (5, 1))
    observations = [h @ truth for h in ring_model.sensing]
    gains = [np.ones((5, 1))] * 5
    lap = laplacian_of(cycle_graph(5))
    updated = update_estimates(
        estimates, lap, gains, observations, ring_model.sensing, ring_schedule, 3
    )
    assert np.array_equal(updated, estimates)


def test_estimate_update_term_by_term_for_ring_agent(ring_model, ring_schedule):
    # agent 2 with links (0,2) and (2,3) active: the consensus term is
    # beta (2 x_2 - x_0 - x_3) and the innovation gain multiplies
    # y_2 - x_{2,1} - x_{2,2} - x_{2,3}
    rng = np.random.default_rng(4)
    estimates = rng.standard_normal((5, 5))
    y = [rng.standard_normal(1) for _ in range(5)]
    gains = [rng.standard_normal((5, 1)) for _ in range(5)]
    lap = laplacian_of(Graph(5, ((0, 2), (2, 3))))
    t = 7
    updated = update_estimates(estimates, lap, gains, y, ring_model.sensing, ring_schedule, t)
    beta = float(ring_schedule.beta(t))
    alpha = float(ring_schedule.alpha(t))
    consensus = beta * (2.0 * estimates[2] - estimates[0] - estimates[3])
    residual = y[2][0] - estimates[2, 1] - estimates[2, 2] - estimates[2, 3]
    expected = estimates[2] - consensus + alpha * gains[2][:, 0] * residual
    assert np.allclose(updated[2], expected, atol=1e-12)


def test_estimate_pure_innovation_overwrites_with_observation():
    model = ObservationModel((np.eye(3),), (np.eye(3),), np.zeros(3))
    schedule = WeightSchedule(b=1.0)  # alpha(0) = 1
    estimates = np.array([[5.0, -3.0, 2.0]])
    y = [np.array([1.0, 2.0, 3.0])]
    gains = [np.eye(3)]
    updated = update_estimates(
        estimates, np.zeros((1, 1)), gains, y, model.sensing, schedule, 0
    )
    assert np.allclose(updated[0], y[0], atol=1e-12)


def test_zero_gains_preserve_network_average():
    rng = np.random.default_rng(6)
    estimates = rng.standard_normal((5, 4))
    gains = [np.zeros((4, 1))] * 5
    y = [np.zeros(1)] * 5
    sensing = [np.zeros((1, 4))] * 5
    top = TopologyModel(cycle_graph(5), "bernoulli", 0.7)
    schedule = WeightSchedule(b=0.5)
    for t in range(10):
        lap = sample_laplacian(top, rng)
        updated = update_estimates(estimates, lap, gains, y, sensing, schedule, t)
        assert np.max(np.abs(updated.mean(axis=0) - estimates.mean(axis=0))) < 1e-14
        estimates = updated


# --------------------------------------------------------------------- trajectory


def test_step_is_deterministic(ring_model, bernoulli_pentagon, ring_schedule):
    runs = [states(ring_model, bernoulli_pentagon, ring_schedule, [50], seed=1234, trials=3)[0]
            for _ in range(2)]
    for name in ("estimates", "grammians", "obs_shifts", "obs_sums", "obs_outer_sums"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


@pytest.mark.parametrize("case", ["bernoulli", "gossip_ragged_init", "static"])
def test_trajectory_step_matches_reference_round(case, ring_model, ring_schedule):
    model, top, schedule, init = {
        "bernoulli": (ring_model, TopologyModel(cycle_graph(5), "bernoulli", 0.5),
                      ring_schedule, None),
        "gossip_ragged_init": (make_ragged_model(), TopologyModel(path_graph(3), "gossip"),
                               WeightSchedule(), (np.array([3.0, -1.0]), np.eye(2), 2.0)),
        "static": (ring_model, TopologyModel(cycle_graph(5), "static"), WeightSchedule(), None),
    }[case]
    steps, trials, n = 6, 2, model.num_agents
    seeds = [np.random.SeedSequence((77, k)) for k in range(trials)]
    fresh = initial_network_state(model, *(init or (None, None, None)))
    start = copy.deepcopy(fresh)
    for name in ("estimates", "grammians", "obs_shifts", "obs_sums", "obs_outer_sums"):
        setattr(start, name, np.stack([getattr(fresh, name)] * trials))
    snapshots = [start] + [copy.deepcopy(state) for _, state in trajectory(
        model, top, schedule, steps, np.arange(1, steps + 1), seeds, init)]

    # each trial's stream read by hand in the documented order (the block's
    # link draws, then its noise) and turned into neighbor sets and
    # observations
    edges = top.base.edges
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if case == "bernoulli":
            uniforms = rng.random((steps, len(edges)))
        elif case == "gossip_ragged_init":
            picks = rng.integers(0, len(edges), size=steps)
        noise = unit_variance_draws(rng, model.noise, (steps, n, max(model.obs_dims)))
        for t in range(steps):
            if case == "static":
                active = edges
            elif case == "bernoulli":
                active = tuple(e for k, e in enumerate(edges) if uniforms[t, k] < top.p)
            else:
                active = (edges[picks[t]],)
            observations = [h @ model.true_param + f @ noise[t, a, : h.shape[0]]
                            for a, (h, f) in enumerate(zip(model.sensing, model._noise_factors))]
            expected = reference_round(agents_of(snapshots[t], r), laplacian_of(Graph(n, active)),
                                       observations, model.sensing, schedule, t)
            for want, got in zip(expected, agents_of(snapshots[t + 1], r)):
                assert np.max(np.abs(got.estimate - want.estimate)) <= 1e-12
                assert np.max(np.abs(got.grammian_est - want.grammian_est)) <= 1e-12
                assert np.max(np.abs(got.sample_cov - want.sample_cov)) <= 1e-12


def test_step_fixed_point_with_zero_noise_at_truth(ring_schedule):
    model = make_noiseless_ring()
    top = TopologyModel(cycle_graph(5), "static")
    for state in states(model, top, ring_schedule, np.arange(1, 21), init=(model.true_param,
                                                                            None, None)):
        assert np.max(np.abs(state.estimates - model.true_param)) < 1e-12


def test_step_zero_noise_static_graph_converges(ring_schedule):
    model = make_noiseless_ring()
    top = TopologyModel(cycle_graph(5), "static")
    marks = sorted({int(round(10 * 10 ** (k / 4))) for k in range(17)})  # 10 .. 100_000
    recorded = [np.max(np.abs(state.estimates - model.true_param))
                for state in states(model, top, ring_schedule, marks)]
    assert recorded[-1] < 1e-3
    # the worst error is eventually nonincreasing across checkpoints
    tail = recorded[4:]
    assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))


def test_symmetry_is_preserved_along_a_run(ring_model, bernoulli_pentagon, ring_schedule):
    for state in states(ring_model, bernoulli_pentagon, ring_schedule, np.arange(1, 300, 50),
                        seed=8, trials=4):
        asym_g = np.max(np.abs(state.grammians - np.swapaxes(state.grammians, -1, -2)))
        assert asym_g < 1e-12
        for cov in state.sample_covariances():
            assert np.max(np.abs(cov - np.swapaxes(cov, -1, -2))) < 1e-12
            assert np.linalg.eigvalsh(cov).min() > -1e-10


def test_moment_consistency_invariant(ring_model, bernoulli_pentagon, ring_schedule):
    (state,) = states(ring_model, bernoulli_pentagon, ring_schedule, [200], seed=21, trials=4)
    sums = state.obs_sums
    centered = state.obs_outer_sums - sums[..., :, None] * sums[..., None, :] / state.step
    assert np.linalg.eigvalsh(centered).min() > -1e-10


def test_step_diagnostics_report_post_update_state(ring_model, bernoulli_pentagon, ring_schedule):
    grid = np.array([1, 5, 20])
    seed = np.random.SeedSequence((5, 0))
    metrics = run_trial(ring_model, bernoulli_pentagon, ring_schedule, 20, grid, seed)
    visited = [copy.deepcopy(state) for _, state in trajectory(
        ring_model, bernoulli_pentagon, ring_schedule, 20, grid, [seed])]
    for c, state in enumerate(visited):
        x = state.estimates[0]
        errors = np.linalg.norm(x - ring_model.true_param, axis=1)
        assert np.allclose(metrics.error_norms[c], errors, rtol=0, atol=1e-12)
        spread = max(np.linalg.norm(a - b) for a in x for b in x)
        assert metrics.disagreement[c] == pytest.approx(spread, abs=1e-12)
    assert np.all(np.isfinite(metrics.gain_gap)) and np.all(np.isfinite(metrics.grammian_gap))


@pytest.mark.parametrize("agents", [1, 2, 5, 50])
def test_max_disagreement_is_the_all_pairs_max_bit_for_bit(agents):
    rng = np.random.default_rng(agents)
    for shape in [(64, agents, 5), (3, agents, 1), (2, 3, agents, 13)]:
        for scale in (1e-3, 1.0, 1e8):
            estimates = scale * rng.standard_normal(shape)
            diffs = estimates[..., :, None, :] - estimates[..., None, :, :]
            all_pairs = np.sqrt((diffs**2).sum(axis=-1)).max(axis=(-1, -2))
            got = _max_disagreement(estimates)
            assert got.shape == all_pairs.shape and got.tobytes() == all_pairs.tobytes()


def test_single_agent_tracks_truth_like_a_running_average():
    # one agent, scalar identity sensing: the distributed recursion reduces
    # to stochastic-approximation averaging.  An independently coded scalar
    # simulation provides the oracle for the 15 / sqrt(t) bound.
    from types import SimpleNamespace

    from adle.harness import run_experiment

    truth = 2.0
    model = ObservationModel((np.eye(1),), (np.eye(1),), np.array([truth]))
    top = TopologyModel(Graph(1, ()), "static")
    schedule = WeightSchedule()
    horizon, trials = 10_000, 200
    config = SimpleNamespace(
        model=model, topology=top, schedule=schedule, horizon=horizon, num_trials=trials,
        master_seed=31, checkpoint_start=10, checkpoints_per_decade=8, parallelism=1,
        fit_window=0.4, run_ks_test=False, init_estimate=None, init_grammian=None,
        init_sample_cov=None,
    )
    report = run_experiment(config)
    bound = 15.0 / np.sqrt(horizon)
    final_errors = np.abs(report.trial_error_norms[:, -1, 0])
    assert np.mean(final_errors <= bound) >= 0.95

    # oracle: the same recursion written out scalar-wise, fresh randomness
    rng = np.random.default_rng(123)
    x = np.zeros(trials)
    g = np.zeros(trials)
    s1 = np.zeros(trials)
    s2 = np.zeros(trials)
    for t in range(horizon):
        alpha = float(schedule.alpha(t))
        gamma = float(schedule.gamma(t))
        q = np.zeros(trials) if t == 0 else s2 / t - (s1 / t) ** 2
        k = 1.0 / (g + gamma) / (q + gamma)
        y = truth + rng.standard_normal(trials)
        x = x + alpha * k * (y - x)
        g = g + alpha * (1.0 / (q + gamma) - g)
        s1 += y
        s2 += y * y
    assert np.mean(np.abs(x - truth) <= bound) >= 0.95
