import numpy as np
import pytest

from adle.errors import InvalidExponent, ScheduleViolation
from adle.harness import BLOCK_STEPS
from adle.model import ObservationModel
from adle.network import Graph, TopologyModel
from adle.schedule import (
    WeightSchedule,
    deterministic_recursion_oracle,
    recursion_trace,
    validate_schedule,
)
from conftest import bind_bank, state_arrays
from reference import fold_observations, observations, stacked_round, weights


def test_alpha_direct_values():
    assert WeightSchedule(a=1.0, tau1=1.0).alpha(5) == pytest.approx(1.0 / 6.0)
    assert WeightSchedule(a=1.0, tau1=1.0).alpha(0) == pytest.approx(1.0)
    assert WeightSchedule(a=2.0, tau1=1.0).alpha(3) == pytest.approx(0.5)


def test_beta_direct_values_and_ratio_growth():
    s = WeightSchedule(b=1.0, tau2=0.2)
    assert s.beta(0) == pytest.approx(1.0)
    t = np.arange(10_000)
    ratio = s.beta(t) / s.alpha(t)
    assert np.all(np.diff(ratio) > 0.0)
    assert WeightSchedule(b=0.5, tau2=0.25).beta(15) == pytest.approx(0.25)


def test_gamma_values_monotone_positive_vanishing():
    s = WeightSchedule(gamma0=1.0, tau_gamma=0.1)
    assert s.gamma(0) == pytest.approx(1.0)
    assert s.gamma(10**10) < 0.1
    t = np.arange(10**6)
    g = s.gamma(t)
    assert np.all(g > 0.0)
    assert np.all(np.diff(g) <= 0.0)


@pytest.mark.parametrize(
    "schedule",
    [WeightSchedule(), WeightSchedule(b=0.5),
     WeightSchedule(b=0.25, tau2=0.3, gamma0=2.0, tau_gamma=0.6),
     WeightSchedule(a=2.0, tau1=0.9, tau2=0.15)],
    ids=["default", "capped_ring", "efficiency", "consistency_only"],
)
def test_block_equals_per_step_values_bit_for_bit(schedule):
    # The kernel computes each step's weights itself, at block ends and far
    # beyond them: one-step segments from steps around a block's end and up
    # to 2**52 equal the oracle's round at Python-float weights bit for bit.
    # Two agents on one edge observe the scalar parameter, so every solve of
    # the round is one division, as numpy's is, and a weight one bit off shows.
    model = ObservationModel((np.array([[1.0]]), np.array([[2.0]])),
                             (np.eye(1), np.array([[0.5]])), np.array([0.3]))
    top, stacked, bank = TopologyModel(Graph(2, ((0, 1),)), "static"), model._stacked, 3
    for start in (0, BLOCK_STEPS - 1, BLOCK_STEPS, 10**6, 2**40, 2**52):
        rng = np.random.default_rng(start % 997)
        sums = rng.standard_normal((bank, 2, 1)) * start**0.5
        state = [rng.standard_normal((bank, 2, 1)), 1.0 + rng.random((bank, 2, 1, 1)),
                 rng.standard_normal((bank, 2, 1)), sums,
                 sums[..., None] ** 2 / max(start, 1) + start * (1.0 + rng.random((bank, 2, 1, 1)))]
        q0, (x, g, shifts, moments, outer) = np.ones((2, 1, 1)), [a.copy() for a in state]
        bound = bind_bank(model, top, schedule, [(start, r) for r in range(bank)], start + 1,
                          (None, None, 1.0), state, start)
        bound.advance(start + 1)
        state = state_arrays(bound.state)

        noise = np.stack([np.random.default_rng((start, r)).standard_normal((2, 1))
                          for r in range(bank)])
        y = observations(stacked, noise)
        x, g = stacked_round(x, g, moments, outer, start, q0, stacked.sensing,
                             top.laplacians(None), y, *weights(schedule, start, 1)[:, 0])
        fold_observations(shifts, moments, outer, start, y)
        for got, want in zip(state, (x, g, shifts, moments, outer)):
            assert got.tobytes() == want.tobytes(), start


def test_validate_accepts_defaults_with_expected_slack():
    s = validate_schedule(WeightSchedule(a=1.0, b=1.0, tau1=1.0, tau2=0.2, eps1=6.0))
    assert s.separation_slack == pytest.approx(1.0 - (0.2 + 0.125 + 0.5))


def test_validate_rejects_insufficient_separation():
    # 0.6 + 1/4 + 1/2 = 1.35 > 1
    with pytest.raises(ScheduleViolation) as info:
        validate_schedule(WeightSchedule(tau1=1.0, tau2=0.6, eps1=2.0))
    (desc, slack), = [v for v in info.value.violations if "1/2" in v[0]]
    assert slack == pytest.approx(-0.35)


def test_validate_rejects_reversed_exponents():
    with pytest.raises(ScheduleViolation) as info:
        validate_schedule(WeightSchedule(tau1=0.8, tau2=0.9))
    assert any("tau2 <= tau1" in desc for desc, _ in info.value.violations)


def test_validate_efficiency_flag_pins_tau1_and_a():
    validate_schedule(WeightSchedule(a=1.0, tau1=1.0), require_efficiency=True)
    with pytest.raises(ScheduleViolation):
        validate_schedule(WeightSchedule(a=2.0, tau1=1.0), require_efficiency=True)
    # a >= 1 with tau1 = 1 stays acceptable for consistency-only runs
    validate_schedule(WeightSchedule(a=2.0, tau1=1.0), require_efficiency=False)


def test_validate_reports_every_violation_at_once():
    with pytest.raises(ScheduleViolation) as info:
        validate_schedule(WeightSchedule(a=-1.0, b=0.0, tau2=0.9, tau1=0.8, gamma0=-2.0))
    assert len(info.value.violations) >= 4


def test_alpha_square_summable_when_tau1_is_one():
    s = WeightSchedule()
    t = np.arange(10**6)
    partial = np.cumsum(s.alpha(t) ** 2)
    # Cauchy over the last decade of the horizon
    assert partial[-1] - partial[10**5] < 1e-5


def test_alpha_and_beta_are_persistent():
    s = WeightSchedule()
    t = np.arange(10**6)
    assert np.sum(s.alpha(t)) > 10.0
    assert np.sum(s.beta(t)) > 10.0


def test_beta_alpha_ratio_nondecreasing_when_tau1_exceeds_tau2():
    s = WeightSchedule(tau1=0.9, tau2=0.3)
    t = np.arange(10**4)
    ratio = s.beta(t) / s.alpha(t)
    assert np.all(np.diff(ratio) >= 0.0)


def test_recursion_trace_matches_naive_iteration():
    times, values = recursion_trace(0.3, 0.9, 0.7, 1.3, horizon=2_000)
    z = 1.0
    naive = {0: z}
    for t in range(2_000):
        r1 = min(0.7 / (t + 1) ** 0.3, 1.0)
        z = (1.0 - r1) * z + 1.3 / (t + 1) ** 0.9
        naive[t + 1] = z
    for t, v in zip(times, values):
        assert v == pytest.approx(naive[int(t)], rel=1e-12)


def test_oracle_constant_contraction_decays_at_forcing_rate():
    slope = deterministic_recursion_oracle(0.0, 1.0, 0.5, 1.0, horizon=10**6)
    assert slope <= -0.9


def test_oracle_balanced_exponents_stay_bounded():
    times, values = recursion_trace(0.5, 0.5, 0.5, 1.0, horizon=10**6)
    assert np.all(np.isfinite(values))
    late = values[times >= 10**5]
    assert late.max() / late.min() < 10.0


def test_oracle_without_forcing_is_monotone_nonincreasing():
    _, values = recursion_trace(0.2, 0.8, 0.5, 0.0, horizon=10_000)
    assert np.all(np.diff(values) <= 1e-15)


def test_oracle_rejects_bad_exponents():
    with pytest.raises(InvalidExponent):
        deterministic_recursion_oracle(1.5, 1.0, 0.5, 1.0, horizon=100)
    with pytest.raises(InvalidExponent):
        deterministic_recursion_oracle(0.5, -1.0, 0.5, 1.0, horizon=100)
    with pytest.raises(InvalidExponent):
        deterministic_recursion_oracle(0.5, 1.0, -0.5, 1.0, horizon=100)
