"""Static linear observation model and its centralized benchmark quantities.

Each of ``N`` agents observes ``y_n(t) = H_n @ theta + noise_n(t)`` where
``theta`` is the unknown parameter of dimension ``M``, ``H_n`` is a known
local sensing matrix with ``M_n`` rows, and the noise is zero mean with
covariance ``R_n``, i.i.d. over time and uncorrelated across agents.

A fusion center knowing every ``H_n`` and ``R_n`` would weight agent
``n`` by the gain ``K_n = inv(mean_n H_n' inv(R_n) H_n) H_n' inv(R_n)``;
its scaled estimation error ``sqrt(t+1) (x_c(t) - theta)`` is Gaussian
with covariance ``inv(sum_n H_n' inv(R_n) H_n)`` for every horizon.
Those quantities are the benchmark the distributed estimator is measured
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import NotGloballyObservable, NotPositiveDefinite

NOISE_FAMILIES = ("gaussian", "laplace")

#: The scale of a unit-variance Laplace draw, whose variance is 2 scale**2.
_LAPLACE_SCALE = 2.0**-0.5

#: Normalized Grammians whose smallest eigenvalue falls below this times
#: the largest are treated as singular.
OBSERVABILITY_RTOL = 1e-12


def _as_matrix(value, name: str) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(value, dtype=float))
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={mat.ndim}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} has a non-finite entry")
    return mat


def _check_symmetric(agent: int, cov: np.ndarray) -> None:
    """Raise :class:`NotPositiveDefinite` unless ``cov`` is symmetric to 1e-12."""
    gap = float(np.max(np.abs(cov - cov.T), initial=0.0))
    if gap > 1e-12 * max(float(np.max(np.abs(cov), initial=0.0)), 1.0):
        raise NotPositiveDefinite(agent, float("nan"), "matrix is not symmetric")


def _psd_factor(agent: int, cov: np.ndarray) -> np.ndarray:
    """A factor F with F @ F.T equal to ``cov``; raises
    :class:`NotPositiveDefinite` unless ``cov`` is symmetric positive
    semidefinite (eigenvalues down to -1e-8 of the largest count as 0)."""
    _check_symmetric(agent, cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w[0] < -1e-8 * max(w[-1], 1.0):
            raise NotPositiveDefinite(agent, float(w[0]), "negative eigenvalue") from None
        return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True, eq=False)
class ObservationModel:
    """Sensing matrices, noise covariances, and the true parameter.

    ``noise`` selects the sampling family: ``gaussian`` (default) or
    ``laplace`` (heavier tails, same covariance).  The covariance is what
    the theory constrains; the family only changes higher moments.
    """

    sensing: tuple[np.ndarray, ...]
    noise_cov: tuple[np.ndarray, ...]
    true_param: np.ndarray
    noise: str = "gaussian"

    def __post_init__(self):
        sensing = tuple(_as_matrix(h, f"sensing[{n}]") for n, h in enumerate(self.sensing))
        noise_cov = tuple(_as_matrix(r, f"noise_cov[{n}]") for n, r in enumerate(self.noise_cov))
        theta = _as_matrix(self.true_param, "true_param").reshape(-1)
        if len(sensing) == 0:
            raise ValueError("need at least one agent")
        if len(sensing) != len(noise_cov):
            raise ValueError(
                f"{len(sensing)} sensing matrices but {len(noise_cov)} noise covariances"
            )
        m = sensing[0].shape[1]
        if m == 0:
            raise ValueError("sensing[0] has no columns")
        for n, (h, r) in enumerate(zip(sensing, noise_cov)):
            if h.shape[0] == 0:
                raise ValueError(f"sensing[{n}] has no rows")
            if h.shape[1] != m:
                raise ValueError(f"sensing[{n}] has {h.shape[1]} columns, expected {m}")
            if r.shape != (h.shape[0], h.shape[0]):
                raise ValueError(
                    f"noise_cov[{n}] has shape {r.shape}, expected {(h.shape[0],) * 2}"
                )
        if theta.shape != (m,):
            raise ValueError(f"true_param has length {theta.shape[0]}, expected {m}")
        if self.noise not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.noise!r}; expected one of {NOISE_FAMILIES}")
        for arr in (*sensing, *noise_cov, theta):
            arr.setflags(write=False)
        object.__setattr__(self, "sensing", sensing)
        object.__setattr__(self, "noise_cov", noise_cov)
        object.__setattr__(self, "true_param", theta)

    @property
    def num_agents(self) -> int:
        return len(self.sensing)

    @property
    def param_dim(self) -> int:
        return self.true_param.shape[0]

    @property
    def obs_dims(self) -> tuple[int, ...]:
        return tuple(h.shape[0] for h in self.sensing)

    @cached_property
    def _noise_factors(self) -> tuple[np.ndarray, ...]:
        """Per-agent factors F with F @ F.T equal to the noise covariance.

        Positive semidefinite covariances are accepted here (a zero matrix
        yields exactly noiseless observations, useful in tests); strict
        positive definiteness is enforced only by model validation.
        """
        factors = tuple(_psd_factor(n, r) for n, r in enumerate(self.noise_cov))
        for factor in factors:
            factor.setflags(write=False)
        return factors

    @cached_property
    def _centralized(self) -> "CentralizedSummary":
        return validate_observation_model(self)

    @cached_property
    def _stacked(self) -> SimpleNamespace:
        """Agent quantities padded to a common observation dimension.

        Padding a sensing matrix with zero rows and its noise factor with
        zero rows and columns leaves every recursion unchanged: the padded
        observation coordinates are identically zero and the padded gain
        columns multiply zero residuals.  This enables one batched code
        path regardless of ragged per-agent dimensions.
        """
        n_agents, m = self.num_agents, self.param_dim
        max_dim = max(self.obs_dims)
        sensing = np.zeros((n_agents, max_dim, m))
        factor = np.zeros((n_agents, max_dim, max_dim))
        for n, (h, f) in enumerate(zip(self.sensing, self._noise_factors)):
            k = h.shape[0]
            sensing[n, :k, :] = h
            factor[n, :k, :k] = f
        sensed_truth = sensing @ self.true_param
        for arr in (sensing, factor, sensed_truth):
            arr.setflags(write=False)
        return SimpleNamespace(max_dim=max_dim, sensing=sensing, noise_factor=factor,
                               sensed_truth=sensed_truth)

    @cached_property
    def _optimal_gain_stack(self) -> np.ndarray:
        """Optimal gains padded to (N, M, max_dim); triggers validation."""
        summary = self._centralized
        stack = np.zeros((self.num_agents, self.param_dim, self._stacked.max_dim))
        for n, gain in enumerate(summary.optimal_gains):
            stack[n, :, : gain.shape[1]] = gain
        stack.setflags(write=False)
        return stack


@dataclass(frozen=True, eq=False)
class CentralizedSummary:
    """Benchmark quantities of the fully informed fusion-center estimator."""

    grammian_norm: np.ndarray          # (M, M): mean_n H_n' inv(R_n) H_n
    grammian: np.ndarray               # (M, M): N times grammian_norm
    asymptotic_cov: np.ndarray         # (M, M): inverse of grammian
    optimal_gains: tuple[np.ndarray, ...]  # per agent, (M, M_n)
    noise_weight: np.ndarray           # (N, max_dim, M): inv(R_n) H_n, zero-padded


def validate_observation_model(model: ObservationModel) -> CentralizedSummary:
    """Check positive-definite noise and global observability.

    Raises :class:`NotPositiveDefinite` for a bad noise covariance and
    :class:`NotGloballyObservable` when the normalized Grammian
    ``mean_n H_n' inv(R_n) H_n`` is numerically singular.
    """
    n_agents, m = model.num_agents, model.param_dim
    grammian_norm = np.zeros((m, m))
    weight = np.zeros((n_agents, max(model.obs_dims), m))  # inv(R_n) H_n, padded
    for n, (h, r) in enumerate(zip(model.sensing, model.noise_cov)):
        _check_symmetric(n, r)
        eigenvalues = np.linalg.eigvalsh(r)
        if eigenvalues[0] <= 0.0:
            raise NotPositiveDefinite(n, float(eigenvalues[0]))
        rinv_h = weight[n, :len(h)] = np.linalg.solve(r, h)
        grammian_norm += h.T @ rinv_h
    grammian_norm /= n_agents
    grammian_norm = 0.5 * (grammian_norm + grammian_norm.T)

    spectrum = np.linalg.eigvalsh(grammian_norm)
    smallest, largest = float(spectrum[0]), float(spectrum[-1])
    if not (largest > 0.0 and smallest > OBSERVABILITY_RTOL * largest):
        raise NotGloballyObservable(smallest, largest)

    grammian = n_agents * grammian_norm
    asymptotic_cov = np.linalg.inv(grammian)
    asymptotic_cov = 0.5 * (asymptotic_cov + asymptotic_cov.T)
    gains = tuple(np.linalg.solve(grammian_norm, rinv_h[:len(h)].T)
                  for rinv_h, h in zip(weight, model.sensing))
    for arr in (grammian_norm, grammian, asymptotic_cov, *gains, weight):
        arr.setflags(write=False)
    return CentralizedSummary(
        grammian_norm=grammian_norm,
        grammian=grammian,
        asymptotic_cov=asymptotic_cov,
        optimal_gains=gains,
        noise_weight=weight,
    )


def sample_observation(model: ObservationModel, agent: int, rng) -> np.ndarray:
    """Draw ``y_agent = H_agent @ theta + noise`` with covariance ``R_agent``
    from ``rng``, a numpy ``Generator``, by :func:`_unit_variance_draws`."""
    h = model.sensing[agent]
    draw = _unit_variance_draws(rng, model.noise, len(h))
    return h @ model.true_param + model._noise_factors[agent] @ draw


def _unit_variance_draws(rng, family: str, size) -> np.ndarray:
    """``size`` unit-variance draws of ``family`` from ``rng``, a numpy
    ``Generator``: the draws that the compiled kernel makes of a trial's
    stream at each step, ``n * max_dim`` of them."""
    if family == "gaussian":
        return rng.standard_normal(size)
    return rng.laplace(0.0, _LAPLACE_SCALE, size)


def centralized_estimate(model: ObservationModel, observations) -> np.ndarray:
    """Batch least-squares estimate from full observation histories.

    ``observations[n]`` is the (k, M_n) array of agent ``n``'s first ``k``
    observations; all agents must have seen the same number.  The result
    equals the recursively computed best linear estimate and serves as
    the efficiency baseline.
    """
    histories = [np.atleast_2d(np.asarray(obs, dtype=float)) for obs in observations]
    if len(histories) != model.num_agents:
        raise ValueError(f"expected {model.num_agents} observation histories, got {len(histories)}")
    counts = {h.shape[0] for h in histories}
    if len(counts) != 1 or counts == {0}:
        raise ValueError("all agents need the same, nonzero number of observations")
    for n, (hist, dim) in enumerate(zip(histories, model.obs_dims)):
        if hist.shape[1] != dim:
            raise ValueError(f"observations[{n}] has width {hist.shape[1]}, expected {dim}")
    means = np.zeros((model.num_agents, model._stacked.max_dim))
    for n, hist in enumerate(histories):
        means[n, : hist.shape[1]] = hist.mean(axis=0)
    return centralized_estimate_from_means(model, means)


def centralized_estimate_from_means(model: ObservationModel, means: np.ndarray) -> np.ndarray:
    """Vectorized baseline estimate from per-agent observation means.

    ``means`` has shape ``(..., N, max_dim)`` in the padded layout of
    ``model._stacked``; returns estimates of shape ``(..., M)``.  The sums
    run in a fixed order, so each estimate's bits do not depend on the
    leading shape (``einsum`` and ``@`` pick their order by it).
    """
    summary = model._centralized
    weighted = (summary.noise_weight * means[..., None]).sum(axis=(-3, -2))
    return (weighted[..., :, None] * summary.asymptotic_cov).sum(axis=-2)
