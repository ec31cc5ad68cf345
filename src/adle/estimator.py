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
weights.  The round and the checkpoint diagnostics run in the compiled
bank kernel (``_kernel.c``), driven by :func:`adle.harness.trajectory`,
which owns the draw order.  This module holds the state layout and numpy
kernels batched over leading axes (such as a bank's trial axis): the
tests' oracle of the diagnostics (``harness._bank_checkpoint``) and of
the round (``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .model import ObservationModel, _psd_factor


@dataclass
class NetworkState:
    """Mutable whole-network state, stored agent-stacked and padded.

    Arrays use the padded layout of ``ObservationModel._stacked``:
    observation-indexed axes have length ``max_dim`` with zero padding
    for agents whose observation dimension is smaller.  The observation
    moments are taken about ``obs_shifts``, each agent's first
    observation, and hold ``step`` observations.  Every array but
    ``initial_sample_covs`` may carry leading batch axes, such as the
    trial axis of :func:`adle.harness.trajectory`.
    """

    estimates: np.ndarray          # (..., N, M)
    grammians: np.ndarray          # (..., N, M, M)
    obs_shifts: np.ndarray         # (..., N, max_dim)
    obs_sums: np.ndarray           # (..., N, max_dim)
    obs_outer_sums: np.ndarray     # (..., N, max_dim, max_dim)
    initial_sample_covs: np.ndarray  # (N, max_dim, max_dim)
    step: int
    obs_dims: tuple[int, ...]

    def sample_covariances(self) -> list[np.ndarray]:
        """Current per-agent sample covariances, unpadded: (..., M_n, M_n) each."""
        padded = np.broadcast_to(
            _sample_cov_from_moments(
                self.obs_sums, self.obs_outer_sums, self.step, self.initial_sample_covs
            ),
            self.obs_outer_sums.shape,
        )
        return [padded[..., n, :d, :d] for n, d in enumerate(self.obs_dims)]


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
    Raises ``ValueError`` unless both are symmetric positive semidefinite.
    The Grammian taken is the exactly symmetric (G + G') / 2, which the
    kernel needs: bit for bit ``grammian`` itself where that is symmetric.
    """
    stacked = model._stacked
    n, m, mx = model.num_agents, model.param_dim, stacked.max_dim
    sizes = [("estimate", estimate, m), ("grammian", grammian, m * m)]
    sizes += [("sample_cov", sample_cov, d * d) for d in model.obs_dims if np.ndim(sample_cov)]
    for name, value, size in sizes:
        if value is not None and np.size(value) != size:  # reshape's error names neither
            raise ValueError(f"{name} has {np.size(value)} entries, expected {size}")
    x0 = np.zeros(m) if estimate is None else np.asarray(estimate, dtype=float).reshape(m)
    g0 = np.zeros((m, m)) if grammian is None else np.asarray(grammian, dtype=float).reshape(m, m)
    q0 = np.zeros((n, mx, mx))
    if sample_cov is not None:
        q_arr = np.asarray(sample_cov, dtype=float)
        for i, d in enumerate(model.obs_dims):
            q0[i, :d, :d] = q_arr * np.eye(d) if q_arr.ndim == 0 else q_arr.reshape(d, d)
    for name, given, mats in (("grammian", grammian, (g0,)), ("sample_cov", sample_cov, q0)):
        try:
            for mat in mats if given is not None else ():
                _psd_factor(0, mat)
        except NotPositiveDefinite:
            raise ValueError(f"{name} must be symmetric positive semidefinite") from None
    return NetworkState(
        estimates=np.tile(x0, (n, 1)),
        grammians=np.tile((g0 + g0.T) / 2, (n, 1, 1)),
        obs_shifts=np.zeros((n, mx)),
        obs_sums=np.zeros((n, mx)),
        obs_outer_sums=np.zeros((n, mx, mx)),
        initial_sample_covs=q0,
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
    """Max over agent pairs of the estimate distance; batched over leading axes.

    A running max over one agent ``i`` at a time, against the agents
    after it: no (..., N, N, M) temporary.  Each distance is summed over
    the last axis as in the all-pairs form, and ``max`` is exact, so the
    bits are those of the all-pairs max (0 for one agent).
    """
    worst = np.zeros(estimates.shape[:-2])
    for i in range(estimates.shape[-2] - 1):
        diffs = estimates[..., i + 1:, :] - estimates[..., i:i + 1, :]
        np.maximum(worst, np.sqrt((diffs**2).sum(axis=-1)).max(axis=-1), out=worst)
    return worst
