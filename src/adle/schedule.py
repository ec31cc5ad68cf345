"""Mixed time-scale weight sequences and their admissibility constraints.

Three decaying step-size sequences drive the estimator:

* ``alpha(t) = a / (t+1)**tau1`` weights the local innovation,
* ``beta(t)  = b / (t+1)**tau2`` weights the consensus pull,
* ``gamma(t) = gamma0 / (t+1)**tau_gamma`` regularizes the online
  matrix inverses in the gain computation.

``tau2 <= tau1`` makes ``beta/alpha`` grow without bound, so agreement
dynamics dominate innovation dynamics asymptotically.  The admissible
region additionally requires ``tau1 > tau2 + 1/(2+eps1) + 1/2`` where
``eps1`` bounds the observation-noise moments (``E|noise|**(2+eps1)``
finite).  Asymptotic efficiency further pins ``tau1 = 1`` and ``a = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, ScheduleViolation


@dataclass(frozen=True)
class WeightSchedule:
    """Parameters of the three power-law step-size sequences.

    The defaults satisfy every admissibility constraint with slack 0.175
    and meet the efficiency requirements ``tau1 = 1``, ``a = 1``.
    """

    a: float = 1.0
    b: float = 1.0
    tau1: float = 1.0
    tau2: float = 0.2
    gamma0: float = 1.0
    tau_gamma: float = 0.75
    eps1: float = 6.0

    def alpha(self, t):
        """Innovation weight at step ``t`` (scalar or array)."""
        return self.a / (np.asarray(t) + 1.0) ** self.tau1

    def beta(self, t):
        """Consensus weight at step ``t``."""
        return self.b / (np.asarray(t) + 1.0) ** self.tau2

    def gamma(self, t):
        """Inverse-regularization level at step ``t``; positive, decaying to 0."""
        return self.gamma0 / (np.asarray(t) + 1.0) ** self.tau_gamma

    @property
    def separation_slack(self) -> float:
        """Slack of the time-scale separation inequality; must be positive."""
        return self.tau1 - (self.tau2 + 1.0 / (2.0 + self.eps1) + 0.5)


def validate_schedule(s: WeightSchedule, require_efficiency: bool = False) -> WeightSchedule:
    """Check every admissibility constraint, reporting all violations at once.

    With ``require_efficiency`` the stricter conditions for matching the
    centralized asymptotic covariance (``tau1 = 1`` and ``a = 1``) are
    also enforced; without it any ``a > 0`` passes (consistency-only
    guarantees hold for ``a >= 1``).
    """
    violations: list[tuple[str, float]] = []

    def check(description: str, slack: float):
        if not slack > 0.0:
            violations.append((description, slack))

    check("a > 0", s.a)
    check("b > 0", s.b)
    check("gamma0 > 0", s.gamma0)
    check("tau_gamma > 0", s.tau_gamma)
    check("eps1 > 0", s.eps1)
    check("tau2 > 0", s.tau2)
    if s.tau2 > s.tau1:
        violations.append(("tau2 <= tau1", s.tau1 - s.tau2))
    if s.tau1 > 1.0:
        violations.append(("tau1 <= 1", 1.0 - s.tau1))
    check("tau1 > tau2 + 1/(2+eps1) + 1/2", s.separation_slack)
    if require_efficiency:
        if s.tau1 != 1.0:
            violations.append(("tau1 == 1 (efficiency)", -abs(s.tau1 - 1.0)))
        if s.a != 1.0:
            violations.append(("a == 1 (efficiency)", -abs(s.a - 1.0)))
    if violations:
        raise ScheduleViolation(violations)
    return s


def checkpoint_grid(horizon: int, start: int = 10, per_decade: int = 8) -> np.ndarray:
    """Geometric checkpoint step indices from ``start`` to ``horizon``."""
    if horizon < start:
        raise ValueError(f"horizon {horizon} ends before the first checkpoint {start}")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    ratio = 10.0 ** (1.0 / per_decade)
    if ratio == 1.0:
        raise ValueError(f"per_decade {per_decade} is too large: the grid ratio rounds to 1")
    points = []
    mark = float(start)
    while round(mark) < horizon:
        value = int(round(mark))
        if not points or value > points[-1]:
            points.append(value)
        mark *= ratio
    points.append(horizon)
    return np.array(points, dtype=np.int64)


def checkpoint_bound(horizon: int, start: int = 10, per_decade: int = 8) -> int:
    """An upper bound on ``len(checkpoint_grid(horizon, start, per_decade))``,
    without building the grid: the smaller of the steps from ``start`` to
    ``horizon`` and ``per_decade * log10((horizon + 0.5) / start) + 2``.
    Exact for integers beyond the float range."""
    num, den = (math.log10(2 * horizon + 1) - math.log10(2 * start)).as_integer_ratio()
    return min(horizon - start + 1, per_decade * num // den + 2)


def recursion_trace(
    delta1: float,
    delta2: float,
    a1: float,
    a2: float,
    horizon: int,
    points_per_decade: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate ``z <- (1 - r1(t)) z + r2(t)`` and record a geometric trace.

    ``r1(t) = a1/(t+1)**delta1`` clamped to [0, 1] and
    ``r2(t) = a2/(t+1)**delta2``, starting from ``z_0 = 1``.  Returns the
    recorded step indices and the value of ``z`` at those steps.  The
    iterates contract toward zero at rate ``delta2 - delta1`` when
    ``delta1 < delta2`` and stay bounded when ``delta1 == delta2``.

    The recursion is evaluated in vectorized segments: over a segment the
    affine maps compose into a single product coefficient and a weighted
    sum of forcing terms, which matches the step-by-step iteration up to
    floating-point association.
    """
    if not (0.0 <= delta1 <= 1.0):
        raise InvalidExponent(f"delta1 must lie in [0, 1], got {delta1}")
    if delta2 <= 0.0:
        raise InvalidExponent(f"delta2 must be positive, got {delta2}")
    if a1 <= 0.0 or a2 < 0.0:
        raise InvalidExponent(f"need a1 > 0 and a2 >= 0, got a1={a1}, a2={a2}")
    if horizon < 1:
        raise InvalidExponent(f"horizon must be >= 1, got {horizon}")

    times_arr = np.concatenate(([0], checkpoint_grid(horizon, 1, points_per_decade)))

    values = np.empty(len(times_arr))
    values[0] = 1.0
    z = 1.0
    for i in range(1, len(times_arr)):
        t0, t1 = times_arr[i - 1], times_arr[i]
        tt = np.arange(t0, t1, dtype=float) + 1.0
        contraction = 1.0 - np.clip(a1 / tt**delta1, 0.0, 1.0)
        forcing = a2 / tt**delta2
        # z_{t1} = (prod of contractions) * z_{t0} + sum_i (suffix prod > i) * forcing_i
        suffix = np.ones(len(tt) + 1)
        suffix[:-1] = np.cumprod(contraction[::-1])[::-1]
        z = suffix[0] * z + float(np.dot(suffix[1:], forcing))
        values[i] = z
    return times_arr, values


def deterministic_recursion_oracle(
    delta1: float,
    delta2: float,
    a1: float,
    a2: float,
    horizon: int = 10**6,
) -> float:
    """Fitted log-log slope of the recursion trace over its last decade.

    A slope near ``-(delta2 - delta1)`` confirms the predicted decay rate;
    a slope near zero indicates the bounded regime ``delta1 == delta2``.
    """
    times, values = recursion_trace(delta1, delta2, a1, a2, horizon)
    window = times >= horizon / 10
    t_fit = times[window]
    z_fit = values[window]
    if np.any(z_fit <= 0.0):
        raise InvalidExponent(
            "trace reached a nonpositive value inside the fit window; "
            "slope of log(z) is undefined"
        )
    slope = np.polyfit(np.log(t_fit + 1.0), np.log(z_fit), 1)[0]
    return float(slope)
