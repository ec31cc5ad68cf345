import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import adle
from adle._ks import _kolmogorov_sf, ks_normal_pvalue


def _branch(n, d):
    t = n * d
    if d >= 1.0:
        return "d>=1"
    if t <= 0.5:
        return "t<=1/2"
    if t <= 1.0:
        return "t<=1"
    if t >= n - 1:
        return "t>=n-1"
    if d >= 0.5 or t * d > 4.0:
        return "smirnov"
    return "durbin"


def _d_grid(n):
    """Uniform in d, and dense in t = n d where the small-d branches live."""
    t = np.linspace(0.25, 2.0 * math.sqrt(n) + 2.0, 50)
    return np.unique(np.concatenate([np.linspace(0.0025, 1.0, 80), t[t < n] / n]))


def test_kolmogorov_sf_matches_scipy_for_every_n_up_to_140():
    branches = set()
    worst = 0.0
    for n in range(2, 141):
        grid = _d_grid(n)
        expected = stats.kstwo.sf(grid, n)
        got = np.array([_kolmogorov_sf(n, float(d)) for d in grid])
        worst = max(worst, float(np.abs(got - expected).max()))
        branches.update(_branch(n, float(d)) for d in grid)
    assert branches == {"d>=1", "t<=1/2", "t<=1", "t>=n-1", "smirnov", "durbin"}
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [141, 500, 3000])
def test_kolmogorov_sf_is_close_to_scipy_for_large_n(n):
    # above n = 140 scipy switches to the Pelz-Good approximation; the
    # Durbin matrix used here stays exact
    grid = _d_grid(n)
    got = np.array([_kolmogorov_sf(n, float(d)) for d in grid])
    assert np.abs(got - stats.kstwo.sf(grid, n)).max() <= 1e-5


@pytest.mark.parametrize("n", [16, 32, 128])
def test_pvalue_matches_scipy_kstest(n):
    rng = np.random.default_rng(n)
    std = 1.7
    for scale in (0.6, 1.0, 1.5):
        sample = scale * rng.normal(0.0, std, size=n)
        expected = stats.kstest(sample, "norm", args=(0.0, std)).pvalue
        assert abs(ks_normal_pvalue(sample, std) - expected) <= 1e-12


def test_nan_sample_gives_nan_pvalue():
    sample = np.array([0.3, -1.2, np.nan, 0.8])
    assert math.isnan(ks_normal_pvalue(sample, 1.0))
    assert math.isnan(_kolmogorov_sf(10, math.nan))
    assert math.isnan(_kolmogorov_sf(10, math.inf))


def test_importing_the_package_loads_no_scipy():
    src = str(Path(adle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, adle, adle.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
