"""Naive per-agent reference of one consensus+innovation round (test oracle).

Written agent by agent, with neighbor lists and explicit inverses, from
the four update equations in the docstring of ``adle.estimator``; each
right-hand side is read from the time-``t`` state.  The library runs the
same round on a padded, trial-stacked layout (``estimator._advance`` and
the compiled kernel, driven by ``harness.trajectory``); the tests check
that the two agree and check the equations' properties on this oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class AgentState:
    """One agent's unpadded share of the network state at one step."""

    estimate: np.ndarray        # (M,)
    grammian_est: np.ndarray    # (M, M)
    sample_cov: np.ndarray      # (M_n, M_n)
    obs_sum: np.ndarray         # (M_n,) sum of y - obs_shift
    obs_outer_sum: np.ndarray   # (M_n, M_n) sum of (y - obs_shift)(y - obs_shift)'
    samples_seen: int
    obs_shift: np.ndarray | None = None  # (M_n,) first observation; None before it


def fresh_agent(m: int, mn: int) -> AgentState:
    """Zero state of an agent with parameter dimension m and M_n = mn."""
    return AgentState(
        estimate=np.zeros(m),
        grammian_est=np.zeros((m, m)),
        sample_cov=np.zeros((mn, mn)),
        obs_sum=np.zeros(mn),
        obs_outer_sum=np.zeros((mn, mn)),
        samples_seen=0,
    )


def agents_of(state, trial: int) -> list[AgentState]:
    """Per-agent snapshots of one trial of a trial-stacked ``NetworkState``."""
    covs = state.sample_covariances()
    return [
        AgentState(
            estimate=state.estimates[trial, n].copy(),
            grammian_est=state.grammians[trial, n].copy(),
            sample_cov=np.array(covs[n][trial]),
            obs_sum=state.obs_sums[trial, n, :d].copy(),
            obs_outer_sum=state.obs_outer_sums[trial, n, :d, :d].copy(),
            samples_seen=state.step,
            obs_shift=state.obs_shifts[trial, n, :d].copy() if state.step else None,
        )
        for n, d in enumerate(state.obs_dims)
    ]


def neighbors(lap) -> list[list[int]]:
    """``Omega_n``: the agents linked to agent ``n`` in a 0/1 Laplacian."""
    lap = np.asarray(lap)
    return [[l for l in range(len(lap)) if l != n and lap[n, l] < 0] for n in range(len(lap))]


def update_sample_covariance(state: AgentState, y) -> AgentState:
    """Fold one observation into moments about the agent's first
    observation and refresh the sample covariance (divisor ``count``)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != state.obs_sum.shape:
        raise ValueError(f"observation has shape {y.shape}, expected {state.obs_sum.shape}")
    shift = y.copy() if state.samples_seen == 0 else np.asarray(state.obs_shift, dtype=float)
    d = y - shift
    obs_sum = state.obs_sum + d
    obs_outer = state.obs_outer_sum + np.outer(d, d)
    count = state.samples_seen + 1
    mean = obs_sum / count
    return replace(
        state,
        sample_cov=obs_outer / count - np.outer(mean, mean),
        obs_sum=obs_sum,
        obs_outer_sum=obs_outer,
        samples_seen=count,
        obs_shift=shift,
    )


def compute_gain(state: AgentState, sensing, gamma: float) -> np.ndarray:
    """``K = inv(G + gamma I) H' inv(Q + gamma I)``; needs ``gamma > 0``."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    h = np.asarray(sensing, dtype=float)
    m, mn = h.shape[1], h.shape[0]
    dinv = np.linalg.inv(np.asarray(state.sample_cov, dtype=float) + gamma * np.eye(mn))
    return np.linalg.inv(state.grammian_est + gamma * np.eye(m)) @ h.T @ dinv


def update_grammian(grammians, lap, sensing, sample_covs, schedule, t: int) -> np.ndarray:
    """``G_n <- G_n - beta sum_{l in Omega_n}(G_n - G_l)
    + alpha (H_n' inv(Q_n + gamma I) H_n - G_n)`` for every agent."""
    alpha, beta, gamma = (float(rate(t))
                          for rate in (schedule.alpha, schedule.beta, schedule.gamma))
    grammians = np.asarray(grammians, dtype=float)
    updated = []
    for n, (links, h, q) in enumerate(zip(neighbors(lap), sensing, sample_covs)):
        h = np.asarray(h, dtype=float)
        pull = sum((grammians[n] - grammians[l] for l in links), np.zeros_like(grammians[n]))
        innovation = h.T @ np.linalg.inv(np.asarray(q, dtype=float) + gamma * np.eye(len(h))) @ h
        updated.append(grammians[n] - beta * pull + alpha * (innovation - grammians[n]))
    return np.stack(updated)


def update_estimates(estimates, lap, gains, observations, sensing, schedule, t: int) -> np.ndarray:
    """``x_n <- x_n - beta sum_{l in Omega_n}(x_n - x_l) + alpha K_n (y_n - H_n x_n)``."""
    alpha, beta = float(schedule.alpha(t)), float(schedule.beta(t))
    estimates = np.asarray(estimates, dtype=float)
    updated = []
    for n, (links, k, y, h) in enumerate(zip(neighbors(lap), gains, observations, sensing)):
        pull = sum((estimates[n] - estimates[l] for l in links), np.zeros_like(estimates[n]))
        h = np.asarray(h, dtype=float)
        residual = np.asarray(y, dtype=float).reshape(-1) - h @ estimates[n]
        updated.append(estimates[n] - beta * pull + alpha * np.asarray(k, dtype=float) @ residual)
    return np.stack(updated)


def reference_round(agents, lap, observations, sensing, schedule, t: int) -> list[AgentState]:
    """One synchronous round of every agent from the time-``t`` snapshot."""
    gamma = float(schedule.gamma(t))
    gains = [compute_gain(a, h, gamma) for a, h in zip(agents, sensing)]
    estimates = update_estimates(
        [a.estimate for a in agents], lap, gains, observations, sensing, schedule, t
    )
    grammians = update_grammian(
        [a.grammian_est for a in agents], lap, sensing, [a.sample_cov for a in agents],
        schedule, t,
    )
    return [
        replace(update_sample_covariance(a, y), estimate=x, grammian_est=g)
        for a, y, x, g in zip(agents, observations, estimates, grammians)
    ]
