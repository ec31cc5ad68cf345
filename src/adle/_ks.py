"""Exact two-sided one-sample Kolmogorov-Smirnov test against ``N(0, std**2)``.

``_kolmogorov_sf(n, d)`` is ``P(D_n >= d)`` for the two-sided statistic
of ``n`` samples, evaluated by the case split of Simard & L'Ecuyer
(2011, J. Stat. Softw. 39(11)): closed forms at both ends (Ruben &
Gambino 1982), twice the exact one-sided tail (Birnbaum & Tingey 1951)
for large ``d``, and otherwise Durbin's matrix as evaluated by
Marsaglia, Tsang & Wang (2003, J. Stat. Softw. 8(18)).
"""

from __future__ import annotations

import math

import numpy as np


def ks_normal_pvalue(sample, std: float) -> float:
    """Two-sided KS p-value of ``sample`` against ``N(0, std**2)``; NaN
    when the sample holds a NaN."""
    z = np.sort(np.asarray(sample, dtype=float)) / (std * math.sqrt(2.0))
    n = z.size
    cdf = np.array([0.5 * math.erfc(-v) for v in z])
    i = np.arange(n)
    d = float(np.maximum((i + 1) / n - cdf, cdf - i / n).max())
    return _kolmogorov_sf(n, d)


def _kolmogorov_sf(n: int, d: float) -> float:
    """``P(D_n >= d)`` for the two-sided statistic of ``n`` samples."""
    if not math.isfinite(d):
        return math.nan
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        inside = 1.0
        for i in range(1, n + 1):
            inside *= i / n * (2.0 * t - 1.0)
        return 1.0 - inside
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    if d >= 0.5 or t * d > 4.0:
        return min(1.0, 2.0 * _smirnov_sf(n, d))
    return min(1.0, max(0.0, 1.0 - _durbin_cdf(n, d)))


def _smirnov_sf(n: int, d: float) -> float:
    """One-sided ``P(D+_n >= d)``, summed exactly in log space."""
    log_n_factorial = math.lgamma(n + 1)
    total = 0.0
    for j in range(math.floor(n * (1.0 - d)) + 1):
        rest = 1.0 - d - j / n
        if rest <= 0.0:
            continue
        total += math.exp(
            log_n_factorial - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + (n - j) * math.log(rest) + (j - 1) * math.log(d + j / n)
        )
    return d * total


def _durbin_cdf(n: int, d: float) -> float:
    """``P(D_n < d)`` as ``n!/n**n`` times the central entry of ``H**n``.

    ``H`` has order ``2k - 1`` with ``k = ceil(n d)``; powers are kept in
    range by exact power-of-two rescaling, with the exponent carried aside.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_factorial = np.ones(m + 1)
    for j in range(1, m + 1):
        inv_factorial[j] = inv_factorial[j - 1] / j
    # H[i, j] = 1/(i-j+1)! on and below the superdiagonal; the first column
    # and last row hold (1 - h**r)/r!, and the corner (1 - 2h**m + (2h-1)_+**m)/m!.
    lag = np.arange(m)[:, None] - np.arange(m)[None, :] + 1
    H = np.where(lag >= 0, inv_factorial[np.clip(lag, 0, m)], 0.0)
    powers = h ** np.arange(1, m + 1)
    H[:, 0] -= powers * inv_factorial[1:]
    H[-1, :] -= powers[::-1] * inv_factorial[m:0:-1]
    H[-1, 0] += max(0.0, 2.0 * h - 1.0) ** m * inv_factorial[m]

    def rescaled(a, exponent):
        _, shift = math.frexp(float(np.abs(a).max()))
        return np.ldexp(a, -shift), exponent + shift

    result, result_exp = np.eye(m), 0
    base, base_exp = H, 0
    e = n
    while True:
        if e & 1:
            result, result_exp = rescaled(result @ base, result_exp + base_exp)
        e >>= 1
        if not e:
            break
        base, base_exp = rescaled(base @ base, 2 * base_exp)

    value, exponent = math.frexp(float(result[k - 1, k - 1]))
    exponent += result_exp
    for i in range(1, n + 1):
        value, shift = math.frexp(value * i / n)
        exponent += shift
    return math.ldexp(value, exponent)
