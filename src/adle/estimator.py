"""Consensus+innovation estimate updates with online gain learning.

Each agent ``n`` keeps an estimate ``x_n``, a learned Grammian ``G_n``,
and a running sample covariance ``Q_n`` of its own observations.  One
synchronous round at step ``t`` applies, with all right-hand sides read
from the time-``t`` state:

* gain:      ``K_n = inv(G_n + gamma_t I) H_n' inv(Q_n + gamma_t I)``
* estimate:  ``x_n <- x_n - beta_t sum_{l in Omega_n}(x_n - x_l)
  + alpha_t K_n (y_n - H_n x_n)``
* Grammian:  ``G_n <- G_n - beta_t sum_{l in Omega_n}(G_n - G_l)
  + alpha_t (H_n' inv(Q_n + gamma_t I) H_n - G_n)``
* covariance: fold ``y_n(t)`` into the running moments defining ``Q_n``.

The moments are taken about each agent's first observation, so ``Q_n``
keeps its precision when the observations sit far from zero.

The neighborhoods ``Omega_n(t)`` are read off one freshly sampled
Laplacian shared by the estimate and Grammian updates.  The gain is
measurable with respect to the past: it never sees the observation it
weights.  Kernels accept arbitrary leading batch dimensions so that a
whole bank of Monte Carlo trials advances with the same code path;
``_advance`` is also the oracle of the compiled bank kernel
(``_kernel.c``) and its fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ObservationModel, _unit_variance_draws
from .network import TopologyModel, sample_laplacian
from .schedule import WeightSchedule


@dataclass
class AgentState:
    """Per-agent view of the distributed state at one time step."""

    estimate: np.ndarray        # (M,)
    grammian_est: np.ndarray    # (M, M)
    sample_cov: np.ndarray      # (M_n, M_n)
    obs_sum: np.ndarray         # (M_n,) sum of y - obs_shift
    obs_outer_sum: np.ndarray   # (M_n, M_n) sum of (y - obs_shift)(y - obs_shift)'
    samples_seen: int
    obs_shift: np.ndarray | None = None  # (M_n,) first observation; None before it


@dataclass
class GainSet:
    """The innovation gains of every agent at one time step."""

    gains: tuple[np.ndarray, ...]

    def __post_init__(self):
        gains = tuple(np.asarray(k, dtype=float) for k in self.gains)
        if any(not np.all(np.isfinite(k)) for k in gains):
            raise ValueError("gain matrices must be finite")
        object.__setattr__(self, "gains", gains)


@dataclass
class NetworkState:
    """Mutable whole-network state, stored agent-stacked and padded.

    Arrays use the padded layout of ``ObservationModel._stacked``:
    observation-indexed axes have length ``max_dim`` with zero padding
    for agents whose observation dimension is smaller.  The observation
    moments are taken about ``obs_shifts``, each agent's first
    observation.  ``agents`` materializes unpadded per-agent snapshots.
    """

    estimates: np.ndarray          # (N, M)
    grammians: np.ndarray          # (N, M, M)
    obs_shifts: np.ndarray         # (N, max_dim)
    obs_sums: np.ndarray           # (N, max_dim)
    obs_outer_sums: np.ndarray     # (N, max_dim, max_dim)
    initial_sample_covs: np.ndarray  # (N, max_dim, max_dim)
    samples_seen: int
    step: int
    obs_dims: tuple[int, ...]

    @property
    def num_agents(self) -> int:
        return self.estimates.shape[0]

    def sample_covariances(self) -> list[np.ndarray]:
        """Current per-agent sample covariances, unpadded."""
        padded = _sample_cov_from_moments(
            self.obs_sums, self.obs_outer_sums, self.samples_seen, self.initial_sample_covs
        )
        return [padded[n, :d, :d] for n, d in enumerate(self.obs_dims)]

    @property
    def agents(self) -> list[AgentState]:
        covs = self.sample_covariances()
        return [
            AgentState(
                estimate=self.estimates[n].copy(),
                grammian_est=self.grammians[n].copy(),
                sample_cov=np.array(covs[n]),
                obs_sum=self.obs_sums[n, :d].copy(),
                obs_outer_sum=self.obs_outer_sums[n, :d, :d].copy(),
                samples_seen=self.samples_seen,
                obs_shift=self.obs_shifts[n, :d].copy() if self.samples_seen else None,
            )
            for n, d in enumerate(self.obs_dims)
        ]


@dataclass
class StepDiagnostics:
    """Cheap per-round health metrics, measured on the post-update state."""

    disagreement: float         # max over agent pairs of estimate distance
    error_norms: np.ndarray     # (N,) distance of each estimate to the truth
    gain_gap: float             # max over agents of ||K_n - K_n_opt||_F
    grammian_gap: float         # ||mean_n G_n - normalized Grammian||_F


def initial_network_state(
    model: ObservationModel,
    estimate: np.ndarray | None = None,
    grammian: np.ndarray | None = None,
    sample_cov=None,
) -> NetworkState:
    """Fresh state at step 0; zero initial conditions unless overridden.

    ``estimate`` (length M) and ``grammian`` (M x M) are applied to every
    agent; ``sample_cov`` may be a scalar ``c`` (meaning ``c I``) or a
    square matrix shared by all agents of equal observation dimension.
    """
    stacked = model._stacked
    n, m, mx = model.num_agents, model.param_dim, stacked.max_dim
    x0 = np.zeros(m) if estimate is None else np.asarray(estimate, dtype=float).reshape(m)
    g0 = np.zeros((m, m)) if grammian is None else np.asarray(grammian, dtype=float).reshape(m, m)
    q0 = np.zeros((n, mx, mx))
    if sample_cov is not None:
        q_arr = np.asarray(sample_cov, dtype=float)
        for i, d in enumerate(model.obs_dims):
            q0[i, :d, :d] = q_arr * np.eye(d) if q_arr.ndim == 0 else q_arr.reshape(d, d)
    return NetworkState(
        estimates=np.tile(x0, (n, 1)),
        grammians=np.tile(g0, (n, 1, 1)),
        obs_shifts=np.zeros((n, mx)),
        obs_sums=np.zeros((n, mx)),
        obs_outer_sums=np.zeros((n, mx, mx)),
        initial_sample_covs=q0,
        samples_seen=0,
        step=0,
        obs_dims=model.obs_dims,
    )


# ---------------------------------------------------------------------------
# kernels: leading batch dimensions broadcast through every one of these


def _sample_cov_from_moments(obs_sum, obs_outer_sum, count: int, initial):
    """Sample covariance of the first ``count`` observations, or the
    configured initial value before any observation arrives.

    The moments are sums of ``y - shift`` and its outer products for a
    fixed shift; the covariance does not depend on it."""
    if count == 0:
        return initial
    mean = obs_sum / count
    return obs_outer_sum / count - mean[..., :, None] * mean[..., None, :]


def _fold_observations(shifts, sums, outer_sums, count: int, y) -> None:
    """Fold ``y`` into moments that hold ``count`` observations, in place.

    The first observation (``count == 0``) becomes the shift, so the
    moments stay centered near the data and ``Q`` keeps its precision
    far from zero.
    """
    if count == 0:
        shifts[...] = y
    d = y - shifts
    sums += d
    outer_sums += d[..., :, None] * d[..., None, :]


def _regularized_inverse(mats: np.ndarray, gamma: float) -> np.ndarray:
    """Inverse of ``mats + gamma I`` on the trailing two axes."""
    k = mats.shape[-1]
    if k == 1:
        return 1.0 / (mats + gamma)
    return np.linalg.inv(mats + gamma * np.eye(k))


def _gain_kernel(grammians, gamma: float, sensing_t_dinv):
    """Solve ``(G + gamma I) K = H' inv(Q + gamma I)`` for the gains."""
    m = grammians.shape[-1]
    return np.linalg.solve(grammians + gamma * np.eye(m), sensing_t_dinv)


def _neighborhood_sums_vec(lap, values):
    """Laplacian along the agent axis of vector-valued states (..., N, M):
    row ``n`` of the result is ``sum_{l in Omega_n} (values_n - values_l)``."""
    return np.asarray(lap, dtype=float) @ values


def _neighborhood_sums_mat(lap, values):
    """Laplacian along the agent axis of matrix-valued states (..., N, M, M)."""
    flat = values.reshape(*values.shape[:-2], -1)
    return (np.asarray(lap, dtype=float) @ flat).reshape(values.shape)


def _max_disagreement(estimates: np.ndarray) -> np.ndarray:
    """Max over agent pairs of the estimate distance; batched over leading axes."""
    diffs = estimates[..., :, None, :] - estimates[..., None, :, :]
    return np.sqrt((diffs**2).sum(axis=-1)).max(axis=(-1, -2))


# ---------------------------------------------------------------------------
# per-agent operations


def update_sample_covariance(state: AgentState, y) -> AgentState:
    """Fold one observation into the running moments and refresh the
    sample covariance (mean and second moment over the same window).

    A state that has seen observations but carries no ``obs_shift``
    holds moments about zero."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != state.obs_sum.shape:
        raise ValueError(f"observation has shape {y.shape}, expected {state.obs_sum.shape}")
    shift = np.zeros_like(y) if state.obs_shift is None else np.array(state.obs_shift, dtype=float)
    obs_sum = np.array(state.obs_sum, dtype=float)
    obs_outer = np.array(state.obs_outer_sum, dtype=float)
    _fold_observations(shift, obs_sum, obs_outer, state.samples_seen, y)
    count = state.samples_seen + 1
    return AgentState(
        estimate=state.estimate,
        grammian_est=state.grammian_est,
        sample_cov=_sample_cov_from_moments(obs_sum, obs_outer, count, None),
        obs_sum=obs_sum,
        obs_outer_sum=obs_outer,
        samples_seen=count,
        obs_shift=shift,
    )


def compute_gain(state: AgentState, sensing: np.ndarray, gamma_t: float) -> np.ndarray:
    """Innovation gain ``inv(G + gamma I) H' inv(Q + gamma I)``.

    Both regularized matrices are positive definite for ``gamma_t > 0``
    whenever ``G`` and ``Q`` are positive semidefinite, so the inverses
    exist; the regularization vanishes as the learned quantities converge.
    """
    if gamma_t <= 0.0:
        raise ValueError(f"gamma_t must be positive, got {gamma_t}")
    sensing = np.asarray(sensing, dtype=float)
    dinv = _regularized_inverse(np.asarray(state.sample_cov, dtype=float), gamma_t)
    return _gain_kernel(state.grammian_est, gamma_t, sensing.T @ dinv)


def update_grammian(grammians, lap, sensing, sample_covs, schedule: WeightSchedule, t: int):
    """One synchronous Grammian round for all agents, from time-``t`` inputs.

    ``grammians`` is the (N, M, M) stack, ``sensing`` and ``sample_covs``
    are per-agent sequences, and the neighborhoods are read off ``lap``.
    Returns the new stack; the network average of the result follows the
    scalar recursion ``(1 - alpha_t) avg + alpha_t mean_n innovation_n``
    exactly, because the Laplacian annihilates averages.
    """
    grammians = np.asarray(grammians, dtype=float)
    alpha = float(schedule.alpha(t))
    beta = float(schedule.beta(t))
    gamma = float(schedule.gamma(t))
    innovations = np.stack(
        [
            h.T @ _regularized_inverse(np.asarray(q, dtype=float), gamma) @ h
            for h, q in zip([np.asarray(h, dtype=float) for h in sensing], sample_covs)
        ]
    )
    consensus = _neighborhood_sums_mat(lap, grammians)
    return grammians - beta * consensus + alpha * (innovations - grammians)


def update_estimates(estimates, lap, gains, observations, sensing, schedule: WeightSchedule, t: int):
    """One synchronous estimate round for all agents, from time-``t`` inputs.

    ``gains`` may be a :class:`GainSet` or a plain sequence of matrices;
    ``observations`` holds each agent's fresh measurement.
    """
    estimates = np.asarray(estimates, dtype=float)
    gain_list = gains.gains if isinstance(gains, GainSet) else gains
    alpha = float(schedule.alpha(t))
    beta = float(schedule.beta(t))
    innovation = np.stack(
        [
            np.asarray(k, dtype=float) @ (np.asarray(y, dtype=float).reshape(-1) - np.asarray(h, dtype=float) @ x)
            for k, y, h, x in zip(gain_list, observations, sensing, estimates)
        ]
    )
    consensus = _neighborhood_sums_vec(lap, estimates)
    return estimates - beta * consensus + alpha * innovation


def network_gains(net: NetworkState, model: ObservationModel, schedule: WeightSchedule) -> GainSet:
    """The gains every agent would apply at the current step."""
    gamma = float(schedule.gamma(net.step))
    q_padded = _sample_cov_from_moments(
        net.obs_sums, net.obs_outer_sums, net.samples_seen, net.initial_sample_covs
    )
    stacked = model._stacked
    dinv = _regularized_inverse(q_padded, gamma)
    k_padded = _gain_kernel(net.grammians, gamma, np.swapaxes(stacked.sensing, -1, -2) @ dinv)
    return GainSet(tuple(k_padded[n, :, :d] for n, d in enumerate(net.obs_dims)))


# ---------------------------------------------------------------------------
# one full round


def step(
    net: NetworkState,
    model: ObservationModel,
    top: TopologyModel,
    schedule: WeightSchedule,
    rng: np.random.Generator,
    want_diagnostics: bool = True,
) -> tuple[NetworkState, StepDiagnostics | None]:
    """Advance the network by one round, mutating ``net`` in place.

    Draws one Laplacian, then one observation per agent (a single
    normal/Laplace block in agent order), and applies the gain, estimate,
    Grammian, and covariance updates synchronously from the time-``t``
    snapshot.  Deterministic given the generator state.
    """
    stacked = model._stacked
    t = net.step
    alpha = float(schedule.alpha(t))
    beta = float(schedule.beta(t))
    gamma = float(schedule.gamma(t))

    lap = sample_laplacian(top, rng)
    draws = _unit_variance_draws(rng, model.noise, (net.num_agents, stacked.max_dim))
    eps = (stacked.noise_factor @ draws[..., None])[..., 0]
    observations = stacked.sensed_truth + eps

    new_estimates, new_grammians, gains = _advance(
        net.estimates,
        net.grammians,
        net.obs_sums,
        net.obs_outer_sums,
        net.samples_seen,
        net.initial_sample_covs,
        stacked.sensing,
        lap,
        observations,
        alpha,
        beta,
        gamma,
    )
    net.estimates = new_estimates
    net.grammians = new_grammians
    _fold_observations(net.obs_shifts, net.obs_sums, net.obs_outer_sums, net.samples_seen,
                       observations)
    net.samples_seen += 1
    net.step = t + 1

    if not want_diagnostics:
        return net, None
    diag = StepDiagnostics(
        disagreement=float(_max_disagreement(net.estimates)),
        error_norms=np.linalg.norm(net.estimates - model.true_param, axis=-1),
        gain_gap=float(
            np.sqrt(((gains - model._optimal_gain_stack) ** 2).sum(axis=(-1, -2))).max()
        ),
        grammian_gap=float(
            np.linalg.norm(net.grammians.mean(axis=0) - model._centralized.grammian_norm)
        ),
    )
    return net, diag


def _advance(
    estimates,
    grammians,
    obs_sums,
    obs_outer_sums,
    samples_seen: int,
    initial_sample_covs,
    sensing_padded,
    lap,
    observations,
    alpha: float,
    beta: float,
    gamma: float,
):
    """Shared core of one round in the padded layout; returns the new
    estimate and Grammian stacks plus the gains that were applied.

    All inputs may carry leading batch dimensions (e.g. a bank of trials).
    """
    q = _sample_cov_from_moments(obs_sums, obs_outer_sums, samples_seen, initial_sample_covs)
    dinv = _regularized_inverse(q, gamma)
    sensing_t = np.swapaxes(sensing_padded, -1, -2)
    sensing_t_dinv = sensing_t @ dinv                       # (..., N, M, max_dim)
    gains = _gain_kernel(grammians, gamma, sensing_t_dinv)  # (..., N, M, max_dim)

    residual = observations[..., None] - sensing_padded @ estimates[..., None]
    innovation = (gains @ residual)[..., 0]
    new_estimates = estimates - beta * _neighborhood_sums_vec(lap, estimates) + alpha * innovation

    grammian_innovation = sensing_t_dinv @ sensing_padded
    new_grammians = (
        grammians
        - beta * _neighborhood_sums_mat(lap, grammians)
        + alpha * (grammian_innovation - grammians)
    )
    return new_estimates, new_grammians, gains
