import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adle.estimator import (
    AgentState,
    GainSet,
    compute_gain,
    initial_network_state,
    network_gains,
    step,
    update_estimates,
    update_grammian,
    update_sample_covariance,
)
from adle.model import ObservationModel, validate_observation_model
from adle.network import Graph, TopologyModel, cycle_graph, laplacian_of, sample_laplacian
from adle.schedule import WeightSchedule
from conftest import make_noiseless_ring


def fresh_agent(m: int, mn: int) -> AgentState:
    return AgentState(
        estimate=np.zeros(m),
        grammian_est=np.zeros((m, m)),
        sample_cov=np.zeros((mn, mn)),
        obs_sum=np.zeros(mn),
        obs_outer_sum=np.zeros((mn, mn)),
        samples_seen=0,
    )


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
    samples = np.random.default_rng(seed).standard_normal((count, dim)) * scale

    def running_cov(data):
        state = fresh_agent(2, dim)
        for y in data:
            state = update_sample_covariance(state, y)
        return state.sample_cov

    # the offset samples are rounded to the spacing of doubles near 1e8
    # (1.5e-8), which moves the covariance by under 1e-6 of the variance
    gap = np.max(np.abs(running_cov(samples + offset) - running_cov(samples)))
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


def test_gains_converge_to_optimal_on_ring(ring_model, bernoulli_pentagon, ring_schedule):
    from adle.harness import checkpoint_grid, run_trial

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
    gains = GainSet(tuple(np.ones((5, 1)) for _ in range(5)))
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


# --------------------------------------------------------------------- step


def test_step_is_deterministic(ring_model, bernoulli_pentagon, ring_schedule):
    nets = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        net = initial_network_state(ring_model)
        for _ in range(50):
            step(net, ring_model, bernoulli_pentagon, ring_schedule, rng, want_diagnostics=False)
        nets.append(net)
    assert np.array_equal(nets[0].estimates, nets[1].estimates)
    assert np.array_equal(nets[0].grammians, nets[1].grammians)
    assert np.array_equal(nets[0].obs_sums, nets[1].obs_sums)


def test_step_matches_composition_of_public_updates(ring_model, bernoulli_pentagon, ring_schedule):
    rng = np.random.default_rng(77)
    net = initial_network_state(ring_model)
    for _ in range(5):
        step(net, ring_model, bernoulli_pentagon, ring_schedule, rng, want_diagnostics=False)

    # replicate the documented draw order, then compose the public updates
    probe = np.random.default_rng(77)
    probe_net = initial_network_state(ring_model)
    for _ in range(5):
        step(probe_net, ring_model, bernoulli_pentagon, ring_schedule, probe, want_diagnostics=False)
    t = probe_net.step
    lap = sample_laplacian(bernoulli_pentagon, probe)
    draws = probe.standard_normal((5, 1))
    observations = [
        h @ ring_model.true_param + f @ draws[n]
        for n, (h, f) in enumerate(zip(ring_model.sensing, ring_model._noise_factors))
    ]
    gains = network_gains(probe_net, ring_model, ring_schedule)
    covs = probe_net.sample_covariances()
    expected_x = update_estimates(
        probe_net.estimates, lap, gains, observations, ring_model.sensing, ring_schedule, t
    )
    expected_g = update_grammian(
        probe_net.grammians, lap, ring_model.sensing, covs, ring_schedule, t
    )
    expected_agents = [
        update_sample_covariance(agent, y) for agent, y in zip(probe_net.agents, observations)
    ]

    step(net, ring_model, bernoulli_pentagon, ring_schedule, rng, want_diagnostics=False)
    assert np.allclose(net.estimates, expected_x, atol=1e-12)
    assert np.allclose(net.grammians, expected_g, atol=1e-12)
    for n, agent in enumerate(net.agents):
        assert np.allclose(agent.sample_cov, expected_agents[n].sample_cov, atol=1e-12)


def test_step_fixed_point_with_zero_noise_at_truth(ring_schedule):
    model = make_noiseless_ring()
    top = TopologyModel(cycle_graph(5), "static")
    net = initial_network_state(model, estimate=model.true_param)
    rng = np.random.default_rng(0)
    for _ in range(20):
        step(net, model, top, ring_schedule, rng, want_diagnostics=False)
        assert np.max(np.abs(net.estimates - model.true_param)) < 1e-12


def test_step_zero_noise_static_graph_converges(ring_schedule):
    model = make_noiseless_ring()
    top = TopologyModel(cycle_graph(5), "static")
    net = initial_network_state(model)
    rng = np.random.default_rng(0)
    horizon = 100_000
    marks = {int(round(10 * 10 ** (k / 4))) for k in range(17)}
    recorded = []
    for t in range(horizon):
        step(net, model, top, ring_schedule, rng, want_diagnostics=False)
        if (t + 1) in marks:
            recorded.append(np.max(np.abs(net.estimates - model.true_param)))
    assert recorded[-1] < 1e-3
    # the worst error is eventually nonincreasing across checkpoints
    tail = recorded[4:]
    assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))


def test_symmetry_is_preserved_along_a_run(ring_model, bernoulli_pentagon, ring_schedule):
    rng = np.random.default_rng(8)
    net = initial_network_state(ring_model)
    for t in range(300):
        step(net, ring_model, bernoulli_pentagon, ring_schedule, rng, want_diagnostics=False)
        if t % 50 == 0:
            asym_g = np.max(np.abs(net.grammians - np.swapaxes(net.grammians, -1, -2)))
            assert asym_g < 1e-12
            for cov in net.sample_covariances():
                assert np.max(np.abs(cov - cov.T)) < 1e-12
                assert np.linalg.eigvalsh(cov)[0] > -1e-10


def test_moment_consistency_invariant(ring_model, bernoulli_pentagon, ring_schedule):
    rng = np.random.default_rng(21)
    net = initial_network_state(ring_model)
    for _ in range(200):
        step(net, ring_model, bernoulli_pentagon, ring_schedule, rng, want_diagnostics=False)
    for agent in net.agents:
        centered = agent.obs_outer_sum - np.outer(agent.obs_sum, agent.obs_sum) / agent.samples_seen
        assert np.linalg.eigvalsh(centered)[0] > -1e-10


def test_step_diagnostics_report_post_update_state(ring_model, bernoulli_pentagon, ring_schedule):
    rng = np.random.default_rng(5)
    net = initial_network_state(ring_model)
    _, diag = step(net, ring_model, bernoulli_pentagon, ring_schedule, rng)
    assert diag is not None
    expected_err = np.linalg.norm(net.estimates - ring_model.true_param, axis=1)
    assert np.allclose(diag.error_norms, expected_err, atol=1e-12)
    assert diag.disagreement >= 0.0
    assert np.isfinite(diag.gain_gap) and np.isfinite(diag.grammian_gap)


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
