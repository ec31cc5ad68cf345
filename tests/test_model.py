import numpy as np
import pytest

from adle.errors import NotGloballyObservable, NotPositiveDefinite
from adle.model import (
    ObservationModel,
    centralized_estimate,
    centralized_estimate_from_means,
    sample_observation,
    validate_observation_model,
)
from conftest import make_noiseless_ring


def ring_circulant() -> np.ndarray:
    rows = np.zeros((5, 5))
    for n in range(5):
        rows[n, (n - 1) % 5] = rows[n, n] = rows[n, (n + 1) % 5] = 1.0
    return rows


def test_ring_model_is_globally_observable(ring_model):
    summary = validate_observation_model(ring_model)
    c = ring_circulant()
    # circulant eigenvalues 1 + 2cos(2 pi k / 5): {3, golden ratio pair}
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    expected_abs = np.sort(np.abs(np.array([3.0, golden, golden, golden - 1.0, golden - 1.0])))
    assert np.allclose(np.sort(np.abs(np.linalg.eigvals(c))), expected_abs, atol=1e-9)
    assert np.all(expected_abs > 0.0)
    assert np.allclose(summary.grammian_norm, c.T @ c / 5.0, atol=1e-12)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(summary.grammian_norm)), expected_abs**2 / 5.0, atol=1e-9
    )


def test_identity_model_summary_is_identity():
    model = ObservationModel((np.eye(3),), (np.eye(3),), np.zeros(3))
    summary = validate_observation_model(model)
    assert np.allclose(summary.grammian_norm, np.eye(3), atol=1e-12)
    assert np.allclose(summary.asymptotic_cov, np.eye(3), atol=1e-12)
    assert np.allclose(summary.optimal_gains[0], np.eye(3), atol=1e-12)


def test_unobserved_coordinate_raises():
    h = np.array([[1.0, 0.0]])
    model = ObservationModel((h, h), (np.eye(1), np.eye(1)), np.zeros(2))
    with pytest.raises(NotGloballyObservable):
        validate_observation_model(model)


def test_indefinite_noise_covariance_raises_with_agent_index():
    model = ObservationModel(
        (np.eye(2), np.eye(2)),
        (np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])),
        np.zeros(2),
    )
    with pytest.raises(NotPositiveDefinite) as info:
        validate_observation_model(model)
    assert info.value.agent == 1


def test_gain_identity_holds(ring_model):
    summary = validate_observation_model(ring_model)
    total = sum(k @ h for k, h in zip(summary.optimal_gains, ring_model.sensing))
    assert np.max(np.abs(total / ring_model.num_agents - np.eye(5))) < 1e-10
    assert np.max(np.abs(summary.asymptotic_cov @ summary.grammian - np.eye(5))) < 1e-10


def test_grammian_invariant_under_agent_permutation(ring_model):
    rng = np.random.default_rng(0)
    order = rng.permutation(ring_model.num_agents)
    permuted = ObservationModel(
        tuple(ring_model.sensing[i] for i in order),
        tuple(ring_model.noise_cov[i] for i in order),
        ring_model.true_param,
    )
    a = validate_observation_model(ring_model).grammian_norm
    b = validate_observation_model(permuted).grammian_norm
    assert np.max(np.abs(a - b)) < 1e-12


def test_sample_observation_zero_noise_is_exact():
    model = make_noiseless_ring()
    rng = np.random.default_rng(0)
    y = sample_observation(model, 2, rng)
    assert np.array_equal(y, np.array([3.0]))


def test_sample_observation_empirical_mean(ring_model):
    rng = np.random.default_rng(42)
    draws = 100_000
    total = 0.0
    for _ in range(draws):
        total += sample_observation(ring_model, 2, rng)[0]
    assert abs(total / draws - 3.0) < 3.0 * draws**-0.5


def test_sample_observation_is_deterministic_in_seed(ring_model):
    a = [sample_observation(ring_model, n, np.random.default_rng(7)) for n in range(5)]
    b = [sample_observation(ring_model, n, np.random.default_rng(7)) for n in range(5)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_laplace_noise_has_requested_covariance():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = ObservationModel((np.eye(2),), (cov,), np.zeros(2), noise="laplace")
    rng = np.random.default_rng(9)
    samples = np.stack([sample_observation(model, 0, rng) for _ in range(50_000)])
    assert np.max(np.abs(np.cov(samples, rowvar=False) - cov)) < 0.05


def test_centralized_estimate_noiseless_recovers_truth(ring_model):
    observations = [np.tile(h @ ring_model.true_param, (7, 1)) for h in ring_model.sensing]
    estimate = centralized_estimate(ring_model, observations)
    assert np.allclose(estimate, ring_model.true_param, atol=1e-10)


def test_centralized_estimate_single_identity_agent_is_running_mean():
    model = ObservationModel((np.eye(2),), (np.eye(2),), np.array([1.0, -1.0]))
    rng = np.random.default_rng(3)
    history = rng.standard_normal((500, 2)) + model.true_param
    estimate = centralized_estimate(model, [history])
    assert np.allclose(estimate, history.mean(axis=0), atol=1e-12)


def test_centralized_estimate_matches_closed_form(ring_model):
    rng = np.random.default_rng(5)
    histories = [
        h @ ring_model.true_param + rng.standard_normal((100, 1)) for h in ring_model.sensing
    ]
    estimate = centralized_estimate(ring_model, histories)
    summary = validate_observation_model(ring_model)
    weighted = sum(
        h.T @ np.linalg.solve(r, hist.mean(axis=0))
        for h, r, hist in zip(ring_model.sensing, ring_model.noise_cov, histories)
    )
    assert np.allclose(estimate, summary.asymptotic_cov @ weighted, atol=1e-12)


def test_centralized_scaled_error_covariance(ring_model):
    # Monte Carlo of the closed-form estimator: with unit noise variance the
    # scaled per-agent sample means are standard normal, so the scaled error
    # is (draws @ H) @ inv(grammian) exactly, for any horizon.
    summary = validate_observation_model(ring_model)
    rng = np.random.default_rng(12)
    trials = 500
    draws = rng.standard_normal((trials, 5))
    scaled_errors = (draws @ ring_circulant()) @ summary.asymptotic_cov
    empirical = np.cov(scaled_errors, rowvar=False, ddof=1)
    gap = np.linalg.norm(empirical - summary.asymptotic_cov) / np.linalg.norm(summary.asymptotic_cov)
    assert gap <= 0.20


def test_centralized_estimate_requires_equal_counts(ring_model):
    observations = [np.zeros((3, 1))] * 4 + [np.zeros((2, 1))]
    with pytest.raises(ValueError):
        centralized_estimate(ring_model, observations)


def test_centralized_estimate_from_means_matches_history_path(ring_model):
    rng = np.random.default_rng(8)
    histories = [
        h @ ring_model.true_param + rng.standard_normal((50, 1)) for h in ring_model.sensing
    ]
    means = np.stack([hist.mean(axis=0) for hist in histories])
    assert np.allclose(
        centralized_estimate_from_means(ring_model, means),
        centralized_estimate(ring_model, histories),
        atol=1e-12,
    )


def test_model_refuses_a_sensing_matrix_with_no_rows():
    # an agent that observes nothing, named where the model is built, not an
    # IndexError from the eigenvalues of its 0 x 0 noise covariance
    for rows in ((np.zeros((0, 2)), np.eye(2)), (np.eye(2), np.zeros((0, 2)))):
        covs = tuple(np.eye(len(h)) for h in rows)
        agent = next(n for n, h in enumerate(rows) if len(h) == 0)
        with pytest.raises(ValueError, match=fr"^sensing\[{agent}\] has no rows$"):
            ObservationModel(rows, covs, np.zeros(2))


def test_model_rejects_dimension_mismatches():
    with pytest.raises(ValueError):
        ObservationModel((np.eye(2),), (np.eye(3),), np.zeros(2))
    with pytest.raises(ValueError):
        ObservationModel((np.eye(2),), (np.eye(2),), np.zeros(3))
    with pytest.raises(ValueError):
        ObservationModel((np.eye(2),), (np.eye(2), np.eye(2)), np.zeros(2))
