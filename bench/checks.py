"""Output checks made apart from the program.

Nothing here calls into ``adle``: the target covariance, the reference
recursion and the statistical tolerances are computed from the scenario
matrices and from the trial count and horizon alone, so a wrong result
in the program cannot pass by agreeing with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import LINK_P, PARAM_DIM, SCHEDULE, Workload, base_edges, ring_sensing_rows

#: Standard deviations allowed on every sampled statistic.
Z = 5.0

#: Allowed distance of an error-decay slope from -1/2 beyond sampling error:
#: the band [-0.6, -0.4] the method's own acceptance test applies at the
#: horizon where the transient has died out.
SLOPE_BAND = 0.1

#: Trailing share of checkpoints used for every decay-slope fit.
FIT_WINDOW = 0.4

#: Largest allowed distance between the program and the reference
#: recursion, for estimates of order one after about a thousand steps:
#: far above float64 rounding, far below any change of an update rule.
REFERENCE_TOL = 1e-8


@dataclass(frozen=True)
class RefModel:
    """The scenario as the benchmark itself defines it."""

    sensing: tuple          # per agent (M_n, M)
    noise_cov: tuple        # per agent (M_n, M_n)
    theta: np.ndarray       # (M,)
    edges: tuple            # sorted (i, j) pairs with i < j
    law: str
    p: float
    a: float
    b: float
    tau1: float
    tau2: float
    gamma0: float
    tau_gamma: float


def ref_model(workload: Workload) -> RefModel:
    """Matrices and weights of a workload, with ``b`` capped at 1/max_degree."""
    edges = tuple(base_edges(workload))
    degree = np.zeros(workload.num_agents, dtype=int)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    s = SCHEDULE
    return RefModel(
        sensing=tuple(np.array([row]) for row in ring_sensing_rows(workload.num_agents)),
        noise_cov=tuple(np.eye(1) for _ in range(workload.num_agents)),
        theta=np.ones(PARAM_DIM),
        edges=edges,
        law=workload.law,
        p=LINK_P,
        a=s["a"],
        b=min(s["b"], 1.0 / degree.max()),
        tau1=s["tau1"],
        tau2=s["tau2"],
        gamma0=s["gamma0"],
        tau_gamma=s["tau_gamma"],
    )


def target_covariance(sensing, noise_cov) -> np.ndarray:
    """``inv(sum_n H_n' inv(R_n) H_n)``, the centralized estimator's covariance."""
    info = sum(h.T @ np.linalg.solve(r, h) for h, r in zip(sensing, noise_cov))
    return np.linalg.inv(info)


def reference_run(ref: RefModel, seed, steps: int, block_steps: int, record=()):
    """Per-agent consensus+innovation recursion with online gain learning.

    Written from the four update equations, each right-hand side read at
    time ``t``:

    * ``K_n = inv(G_n + gamma I) H_n' inv(Q_n + gamma I)``
    * ``x_n <- x_n - beta sum_l (x_n - x_l) + alpha K_n (y_n - H_n x_n)``
    * ``G_n <- G_n - beta sum_l (G_n - G_l) + alpha (H_n' inv(Q_n + gamma I) H_n - G_n)``
    * ``Q_n`` is the sample covariance of ``y_n(0..t-1)`` (zero before any).

    Randomness follows the documented per-trial draw order: for each
    block of ``block_steps`` steps, the topology draws of the block (one
    uniform per base edge and step for Bernoulli links, one edge index
    per step for gossip), then the standard normal noise of the block,
    shaped (steps, agents, observation dimension).

    Returns the final estimates (N, M) and, for each step in ``record``,
    the per-agent error norms after that step.
    """
    rng = np.random.default_rng(seed)
    agents = len(ref.sensing)
    m = ref.theta.shape[0]
    dims = [h.shape[0] for h in ref.sensing]
    factors = [np.linalg.cholesky(r) for r in ref.noise_cov]
    x = [np.zeros(m) for _ in range(agents)]
    g = [np.zeros((m, m)) for _ in range(agents)]
    first = [np.zeros(d) for d in dims]
    second = [np.zeros((d, d)) for d in dims]
    record = set(record)
    errors = {}
    t = 0
    while t < steps:
        block = min(block_steps, steps - t)
        if ref.law == "bernoulli":
            uniforms = rng.random((block, len(ref.edges)))
        else:
            chosen = rng.integers(0, len(ref.edges), size=block)
        noise = rng.standard_normal((block, agents, max(dims)))
        for s in range(block):
            if ref.law == "bernoulli":
                active = [e for k, e in enumerate(ref.edges) if uniforms[s, k] < ref.p]
            else:
                active = [ref.edges[chosen[s]]]
            neighbors = [[] for _ in range(agents)]
            for i, j in active:
                neighbors[i].append(j)
                neighbors[j].append(i)
            alpha = ref.a / (t + 1.0) ** ref.tau1
            beta = ref.b / (t + 1.0) ** ref.tau2
            gamma = ref.gamma0 / (t + 1.0) ** ref.tau_gamma
            new_x, new_g = [], []
            for n in range(agents):
                h, d = ref.sensing[n], dims[n]
                if t == 0:
                    q = np.zeros((d, d))
                else:
                    mean = first[n] / t
                    q = second[n] / t - np.outer(mean, mean)
                d_inv = np.linalg.inv(q + gamma * np.eye(d))
                gain = np.linalg.solve(g[n] + gamma * np.eye(m), h.T @ d_inv)
                y = h @ ref.theta + factors[n] @ noise[s, n, :d]
                pull_x = sum((x[n] - x[l] for l in neighbors[n]), np.zeros(m))
                pull_g = sum((g[n] - g[l] for l in neighbors[n]), np.zeros((m, m)))
                new_x.append(x[n] - beta * pull_x + alpha * gain @ (y - h @ x[n]))
                new_g.append(g[n] - beta * pull_g + alpha * (h.T @ d_inv @ h - g[n]))
                first[n] = first[n] + y
                second[n] = second[n] + np.outer(y, y)
            x, g = new_x, new_g
            t += 1
            if t in record:
                errors[t] = np.array([np.linalg.norm(xn - ref.theta) for xn in x])
    return np.array(x), errors


# ---------------------------------------------------------------------------
# statistical properties of a finished experiment


def fit_slope(times, medians, log_se):
    """Least-squares slope of log(median) on log(t+1), and its standard error.

    ``log_se`` is the standard error of each log-median; the fit uses the
    trailing ``FIT_WINDOW`` share of the points (at least five).
    """
    count = max(5, math.ceil(FIT_WINDOW * len(times)))
    xs = np.log(np.asarray(times[-count:], dtype=float) + 1.0)
    ys = np.log(np.asarray(medians[-count:], dtype=float))
    centered = xs - xs.mean()
    weights = centered / (centered**2).sum()
    return float(weights @ ys), float(np.sqrt((weights**2 * np.asarray(log_se[-count:]) ** 2).sum()))


def median_decay(samples):
    """Medians across trials of (R, C) samples and the SE of their logs.

    The standard error of a sample median is about ``1.2533 sd / sqrt(R)``.
    """
    samples = np.asarray(samples, dtype=float)
    medians = np.median(samples, axis=0)
    se = 1.2533 * samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    return medians, se / medians


def failed_trials(report) -> np.ndarray:
    """Per-trial verdict: outputs not finite, or gains no closer to optimal."""
    finite = (
        np.isfinite(report.trial_disagreement).all(axis=1)
        & np.isfinite(report.trial_error_norms).all(axis=(1, 2))
        & np.isfinite(report.trial_gain_gap).all(axis=1)
        & np.isfinite(report.trial_grammian_gap).all(axis=1)
        & np.isfinite(report.terminal_gain_gap)
    )
    approached = report.terminal_gain_gap < report.trial_gain_gap[:, 0]
    return ~(finite & approached)


def property_checks(report, target: np.ndarray) -> dict[str, bool]:
    """The method's properties, each with a tolerance from R and the horizon."""
    trials = report.num_trials
    times = report.checkpoint_times
    results = {}

    results["target_covariance"] = bool(
        np.linalg.norm(report.target_cov - target) <= 1e-10 * np.linalg.norm(target)
    )

    # Whitened sample covariance W of R Gaussian draws: tr(W)/M has mean 1
    # and variance 2/(M(R-1)); an off-diagonal entry has mean 0 and
    # variance 1/(R-1).
    factor = np.linalg.cholesky(target)
    whitened = np.linalg.solve(factor, np.linalg.solve(factor, report.centralized_scaled_cov).T)
    m = target.shape[0]
    off_diagonal = whitened[~np.eye(m, dtype=bool)]
    results["baseline_covariance"] = bool(
        abs(np.trace(whitened) / m - 1.0) <= Z * math.sqrt(2.0 / (m * (trials - 1)))
        and np.all(np.abs(off_diagonal) <= Z / math.sqrt(trials - 1))
    )

    agents = report.trial_error_norms.shape[2]
    error_fits = [
        fit_slope(times, *median_decay(report.trial_error_norms[:, :, n])) for n in range(agents)
    ]
    results["error_slope"] = all(
        abs(slope + 0.5) <= SLOPE_BAND + Z * se for slope, se in error_fits
    )

    # The error decays like t^(-1/2); agreement must come at a faster rate.
    dis_slope, dis_se = fit_slope(times, *median_decay(report.trial_disagreement))
    results["disagreement_faster"] = bool(dis_slope + Z * dis_se < -0.5)

    gain_slope, gain_se = fit_slope(times, *median_decay(report.trial_gain_gap))
    results["gains_approach_optimal"] = bool(gain_slope + Z * gain_se < 0.0)

    aggregates = [report.empirical_scaled_cov, report.centralized_scaled_cov]
    if report.ks_pvalues is not None:
        aggregates.append(report.ks_pvalues)
    results["finite"] = bool(all(np.isfinite(a).all() for a in aggregates))
    return results
