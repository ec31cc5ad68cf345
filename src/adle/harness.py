"""Monte Carlo experiment orchestration and statistical measurement.

A trial runs the full network recursion to a horizon, recording health
metrics on a geometric checkpoint grid and the terminal scaled errors
``sqrt(T+1) (x_n(T) - theta)``.  An experiment runs many trials on
independent, counter-derived random streams, estimates the empirical
covariance of the scaled errors per agent, and compares it against the
centralized benchmark covariance along with agreement- and
consistency-rate fits.

Trials are advanced in fixed-size banks by :func:`trajectory`, the one
driver of the round: each trial still consumes only its own random
stream (topology draws for a block of steps, then observation noise for
the block), so any single trial is bit-reproducible from its seed alone
and reports do not depend on the parallelism degree.  A compiled kernel
(``_kernel.c``) advances a bank from one checkpoint to the next in a
single call, forming each step's observations from the noise; where it
cannot be built, the numpy round ``estimator._advance`` runs step by
step on the observations of :func:`_observations`.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernel, _ks, estimator
from .errors import TrialDiverged
from .estimator import (
    NetworkState,
    _fold_observations,
    _gain_kernel,
    _max_disagreement,
    _regularized_inverse,
    _sample_cov_from_moments,
    initial_network_state,
)
from .model import ObservationModel, _unit_variance_draws, centralized_estimate_from_means
from .network import TopologyModel
from .schedule import WeightSchedule, checkpoint_grid

#: Steps simulated between random-draw refills; part of the documented
#: per-trial draw order (topology block, then noise block).
BLOCK_STEPS = 1024

#: Trials advanced together in one vectorized bank.  Fixed so that
#: experiment output is independent of the parallelism degree.
TRIALS_PER_BANK = 64


@dataclass(frozen=True)
class AcceptanceThresholds:
    """Tolerances of the statistical acceptance checks."""

    efficiency_tol: float = 0.20
    consistency_slope_min: float = -0.6
    consistency_slope_max: float = -0.4
    disagreement_slope_max: float = -0.3
    disagreement_error_ratio_max: float = 0.10
    gain_rel_tol: float = 0.05
    gain_pass_fraction_min: float = 0.95
    ks_significance: float = 0.01


@dataclass
class TrialMetrics:
    """Time-indexed health metrics and terminal errors of one trial."""

    times: np.ndarray                    # (C,) checkpoint step indices
    disagreement: np.ndarray             # (C,) max pairwise estimate distance
    error_norms: np.ndarray              # (C, N) per-agent distance to truth
    gain_gap: np.ndarray                 # (C,) max_n ||K_n - K_n_opt||_F
    grammian_gap: np.ndarray             # (C,) ||avg Grammian - target||_F
    terminal_scaled_errors: np.ndarray   # (N, M) sqrt(T+1) (x_n(T) - theta)
    terminal_scaled_error_centralized: np.ndarray  # (M,) baseline on same noise
    terminal_gain_gap: float


@dataclass
class ExperimentReport:
    """Aggregated outcome of a Monte Carlo experiment."""

    num_trials: int
    horizon: int
    master_seed: int
    checkpoint_times: np.ndarray         # (C,)
    trial_disagreement: np.ndarray       # (R, C)
    trial_error_norms: np.ndarray        # (R, C, N)
    trial_gain_gap: np.ndarray           # (R, C)
    trial_grammian_gap: np.ndarray       # (R, C)
    terminal_gain_gap: np.ndarray        # (R,)
    empirical_scaled_cov: np.ndarray     # (N, M, M)
    target_cov: np.ndarray               # (M, M)
    rel_frobenius_gap: np.ndarray        # (N,)
    centralized_scaled_cov: np.ndarray   # (M, M)
    centralized_baseline_gap: float
    median_disagreement: np.ndarray      # (C,)
    median_error: np.ndarray             # (C, N)
    disagreement_slope: float
    consistency_decay: np.ndarray        # (N,) per-agent error decay slopes
    optimal_gain_norm: float             # max_n ||K_n_opt||_F
    ks_pvalues: np.ndarray | None        # (N, M) or None


@dataclass(frozen=True)
class StatResult:
    """One acceptance statistic with its requirement and verdict."""

    name: str
    value: float
    requirement: str
    passed: bool
    gating: bool = True


def _draw_topology_block(top: TopologyModel, rngs, steps: int, out=None):
    """Per-trial active-edge masks for a block of steps, bool (R, steps, E)
    in trial order, each trial's row drawn into ``out`` when it is given;
    ``None`` when every edge is always active."""
    if not top.draws_links:
        return None
    if out is None:
        out = np.empty((len(rngs), steps, top.base.num_edges), dtype=bool)
    for rng, row in zip(rngs, out):
        top.draw_active(rng, steps, row)
    return out


def _laplacian_at(top: TopologyModel, active, s: int):
    """Sampled Laplacians for step ``s`` of a block: (R, N, N) or shared (N, N)."""
    return top.laplacians(None if active is None else active[:, s])


def _advance(bound, state: NetworkState, stacked, noise, start: int, stop: int, weights,
             top: TopologyModel, active) -> None:
    """Advance a bank through block steps ``start..stop-1`` in place,
    ``state.step`` included.

    One call of ``bound``, the compiled kernel bound to the bank's state
    and draw buffers (``_kernel.BoundBank``); without it, the numpy round
    ``estimator._advance`` and the moment update run step by step on the
    observations :func:`_observations` forms from ``noise``.
    """
    if bound is not None:
        bound.advance(state.step, start, stop)
        state.step += stop - start
        return
    x, g, shifts, sums, outer = (state.estimates, state.grammians, state.obs_shifts,
                                 state.obs_sums, state.obs_outer_sums)
    q0 = state.initial_sample_covs
    for s in range(start, stop):
        y = _observations(stacked, noise[:, s])
        lap, count = _laplacian_at(top, active, s), state.step
        x[...], g[...] = _naming_singular(count, len(x), lambda pick: estimator._advance(
            x[pick], g[pick], sums[pick], outer[pick], count, q0, stacked.sensing,
            lap if lap.ndim == 2 else lap[pick], y[pick], *weights[:, s]))
        _fold_observations(shifts, sums, outer, count, y)
        state.step += 1


def _naming_singular(step: int, bank: int, call):
    """``call(slice(None))`` on the whole bank.  When one of its solves
    meets a singular matrix, ``call`` is repeated one trial at a time and
    :class:`TrialDiverged` names the first trial that fails alone."""
    try:
        return call(slice(None))
    except np.linalg.LinAlgError:
        for r in range(bank):
            try:
                call(slice(r, r + 1))
            except np.linalg.LinAlgError:
                raise TrialDiverged(r, step, TrialDiverged.SINGULAR) from None
        raise


def _bank_checkpoint(estimates, grammians, sample_covs, model, gamma):
    """Fresh diagnostics at the current time for a whole trial bank."""
    dinv = _regularized_inverse(sample_covs, gamma)
    sensing_t = np.swapaxes(model._stacked.sensing, -1, -2)
    gains = _gain_kernel(grammians, gamma, sensing_t @ dinv)
    gain_gap = np.sqrt(((gains - model._optimal_gain_stack) ** 2).sum(axis=(-1, -2))).max(axis=-1)
    avg_gap = grammians.mean(axis=-3) - model._centralized.grammian_norm
    grammian_gap = np.sqrt((avg_gap**2).sum(axis=(-1, -2)))
    disagreement = _max_disagreement(estimates)
    error_norms = np.linalg.norm(estimates - model.true_param, axis=-1)
    return disagreement, error_norms, gain_gap, grammian_gap


def _check_finite(step: int, *arrays) -> None:
    """Raise :class:`TrialDiverged` for the first trial (leading axis) with
    a non-finite entry in any of ``arrays``."""
    finite = np.logical_and.reduce(
        [np.isfinite(a.reshape(len(a), -1)).all(axis=1) for a in arrays]
    )
    if not finite.all():
        raise TrialDiverged(int(np.argmin(finite)), step)


def trajectory(
    model: ObservationModel,
    top: TopologyModel,
    schedule: WeightSchedule,
    horizon: int,
    grid,
    seeds,
    init: tuple | None = None,
):
    """Advance a bank of trials, one per seed, and yield ``(t, state)`` at
    every step ``t`` of ``grid``.

    ``state`` is one :class:`NetworkState` whose arrays carry a leading
    trial axis; it is advanced in place, its arrays bound to the kernel
    once (replace none of them), so copy what must outlive the next
    step.  ``init`` holds the optional initial estimate, Grammian
    and sample covariance of :func:`initial_network_state`.  Each trial
    consumes only its own stream, in blocks of ``BLOCK_STEPS`` steps:
    the topology draws of the block, then its unit-variance observation
    noise.  Each trial draws them straight into its row of one mask and
    one noise buffer, allocated once per trajectory (again only when a
    short last block changes their length), and the observations are
    formed from the noise step by step.  A block's draws are consumed in
    segments that end at grid steps or at the block end; :func:`_advance`
    runs one segment.  A singular gain solve raises
    :class:`TrialDiverged` with the trial's place in the bank.
    """
    stacked = model._stacked
    n, mx = model.num_agents, stacked.max_dim
    rngs = [np.random.default_rng(seed) for seed in seeds]
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size == 0 or grid[-1] != horizon or np.any(np.diff(grid) <= 0) or grid[0] < 1:
        raise ValueError("checkpoint grid must be strictly increasing and end at the horizon")
    grid = grid.tolist()

    state = initial_network_state(model, *(init if init is not None else (None, None, None)))
    for field in ("estimates", "grammians", "obs_shifts", "obs_sums", "obs_outer_sums"):
        a = getattr(state, field)
        setattr(state, field, np.tile(a, (len(rngs),) + (1,) * a.ndim))
    kernel = _kernel.load()
    bound = None if kernel is None else kernel.bind(
        state.estimates, state.grammians, state.obs_shifts, state.obs_sums,
        state.obs_outer_sums, state.initial_sample_covs, stacked.sensing, stacked.sensed_truth,
        stacked.noise_factor, top)

    noise = None
    pointer = 0
    while state.step < horizon:
        block_start = state.step
        steps = min(BLOCK_STEPS, horizon - block_start)
        if noise is None or noise.shape[1] != steps:  # the first block or a short last one
            noise = np.empty((len(rngs), steps, n, mx))
            active = (np.empty((len(rngs), steps, top.base.num_edges), dtype=bool)
                      if top.draws_links else None)
            weights = np.empty((3, steps))
            if bound is not None:
                bound.draws(noise, weights, active)
        _draw_topology_block(top, rngs, steps, active)
        for rng, row in zip(rngs, noise):
            _unit_variance_draws(rng, model.noise, row.shape, row)
        weights[...] = schedule.block(block_start, steps)
        block_end = block_start + steps
        while state.step < block_end:
            stop = min(block_end, grid[pointer])
            _advance(bound, state, stacked, noise, state.step - block_start,
                     stop - block_start, weights, top, active)
            if state.step == grid[pointer]:
                yield state.step, state
                pointer += 1


def _observations(stacked, noise: np.ndarray) -> np.ndarray:
    """Observations ``sensed_truth + noise_factor @ z`` of unit-variance
    draws ``z`` (..., N, mx), the product summed one factor column at a
    time, left to right: no (..., N, mx, mx) temporary.  The compiled
    kernel forms each step's observations with these same operations."""
    factor = stacked.noise_factor
    acc = factor[..., 0] * noise[..., :1]
    for j in range(1, noise.shape[-1]):
        acc += factor[..., j] * noise[..., j:j + 1]
    return stacked.sensed_truth + acc


def _run_bank(
    model: ObservationModel,
    top: TopologyModel,
    schedule: WeightSchedule,
    horizon: int,
    grid: np.ndarray,
    seeds,
    init: tuple | None = None,
    first_trial: int = 0,
) -> tuple[np.ndarray, ...]:
    """Run a bank of trials to the horizon, one per seed.

    Returns arrays with a leading trial axis: the checkpoint records
    ``disagreement`` (R, C), ``error_norms`` (R, C, N), ``gain_gap``
    (R, C) and ``grammian_gap`` (R, C), then the terminal scaled errors
    (R, N, M) and the scaled centralized baseline (R, M).  The
    diagnostics are taken at each step of ``grid`` along the
    :func:`trajectory`.  A trial whose state or diagnostics are
    non-finite there, or whose gain solve meets a singular matrix,
    raises :class:`TrialDiverged`, naming it by ``first_trial`` plus its
    place in the bank.
    """
    model._optimal_gain_stack  # force validation before the hot loop
    bank = len(seeds)
    grid = np.asarray(grid, dtype=np.int64)
    records = [np.empty((bank, len(grid), *shape)) for shape in ((), (model.num_agents,), (), ())]
    try:
        for c, (t, state) in enumerate(trajectory(model, top, schedule, horizon, grid, seeds,
                                                  init)):
            _check_finite(t, state.estimates, state.grammians)
            q = _sample_cov_from_moments(state.obs_sums, state.obs_outer_sums, t,
                                         state.initial_sample_covs)
            gamma = float(schedule.gamma(t))
            with np.errstate(over="ignore"):  # an overflow is reported just below
                diagnostics = _naming_singular(t, bank, lambda pick: _bank_checkpoint(
                    state.estimates[pick], state.grammians[pick], q[pick], model, gamma))
            _check_finite(t, *diagnostics)
            for record, value in zip(records, diagnostics):
                record[:, c] = value
    except TrialDiverged as exc:
        raise TrialDiverged(first_trial + exc.trial, exc.step, exc.cause) from None

    scaled_errors = math.sqrt(horizon + 1.0) * (state.estimates - model.true_param)
    baseline = centralized_estimate_from_means(model, state.obs_shifts + state.obs_sums / t)
    scaled_baseline = math.sqrt(t) * (baseline - model.true_param)
    return (*records, scaled_errors, scaled_baseline)


def run_trial(
    model: ObservationModel,
    top: TopologyModel,
    schedule: WeightSchedule,
    horizon: int,
    checkpoint_grid: np.ndarray,
    seed,
    init: tuple | None = None,
) -> TrialMetrics:
    """Run one trial to the horizon; deterministic in ``seed``."""
    grid = np.asarray(checkpoint_grid, dtype=np.int64)
    rows = [result[0] for result in _run_bank(model, top, schedule, horizon, grid, [seed], init)]
    # the TrialMetrics fields in order; rows[2] is the gain gap
    return TrialMetrics(grid.copy(), *rows, terminal_gain_gap=float(rows[2][-1]))


def estimate_scaled_covariance(errors) -> np.ndarray:
    """Across-trial sample covariance of scaled errors: (R, M) to (M, M)."""
    if len(errors) < 2:
        raise ValueError(f"need at least 2 trials to estimate a covariance, got {len(errors)}")
    return np.atleast_2d(np.cov(errors, rowvar=False, ddof=1))


def fit_decay_slope(times, values, window: float = 0.4) -> float:
    """Least-squares slope of log(value) against log(t+1) over the late window.

    ``window`` is the fraction of trailing checkpoints used for the fit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    n_fit = int(math.ceil(window * len(times)))
    if n_fit < 5:
        raise ValueError(f"fit window holds {n_fit} checkpoints, need at least 5")
    t_fit = times[-n_fit:]
    v_fit = values[-n_fit:]
    bad = np.nonzero(v_fit <= 0.0)[0]
    if bad.size:
        raise ValueError(f"nonpositive value at checkpoint t={int(t_fit[bad[0]])}")
    return float(np.polyfit(np.log(t_fit + 1.0), np.log(v_fit), 1)[0])


def worker_count(requested: int, banks: int, cpus: int) -> int:
    """Worker processes for ``banks`` banks: the request (0 means one per
    CPU), capped by the number of banks and of CPUs."""
    return max(1, min(requested or cpus, banks, cpus))


def run_experiment(config) -> ExperimentReport:
    """Run the configured Monte Carlo experiment and aggregate its report.

    ``config`` provides the scenario attributes (``model``, ``topology``,
    ``schedule``, ``horizon``, ``num_trials``, ``master_seed``,
    ``checkpoint_start``, ``checkpoints_per_decade``, ``parallelism``,
    ``fit_window``, ``run_ks_test``, and the optional ``init_*`` values);
    see :class:`adle.cli.ScenarioConfig`.  Trials are reproducible in
    isolation: trial ``k`` always uses the stream derived from
    ``(master_seed, k)``.
    """
    if config.num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    grid = checkpoint_grid(config.horizon, config.checkpoint_start, config.checkpoints_per_decade)
    init = (config.init_estimate, config.init_grammian, config.init_sample_cov)
    seeds = [np.random.SeedSequence((config.master_seed, k)) for k in range(config.num_trials)]
    payloads = [
        (config.model, config.topology, config.schedule, config.horizon, grid,
         seeds[i : i + TRIALS_PER_BANK], init, i)
        for i in range(0, len(seeds), TRIALS_PER_BANK)
    ]
    workers = worker_count(config.parallelism, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            banks = list(pool.map(_run_bank, *zip(*payloads)))
    else:
        banks = [_run_bank(*payload) for payload in payloads]
    return _aggregate(config, grid, [np.concatenate(parts) for parts in zip(*banks)])


def _aggregate(config, grid: np.ndarray, results: list[np.ndarray]) -> ExperimentReport:
    """The report of the trial-stacked arrays that :func:`_run_bank` returns."""
    trial_disagreement, trial_error, trial_gain, trial_grammian, scaled, baseline = results
    model: ObservationModel = config.model
    summary = model._centralized
    num_trials, n, m = scaled.shape
    target = np.array(summary.asymptotic_cov)
    target_norm = float(np.linalg.norm(target))

    if num_trials >= 2:
        empirical = np.stack([estimate_scaled_covariance(scaled[:, agent]) for agent in range(n)])
        centralized_cov = estimate_scaled_covariance(baseline)
    else:
        empirical = np.full((n, m, m), np.nan)
        centralized_cov = np.full((m, m), np.nan)
    gaps = np.array([np.linalg.norm(cov - target) / target_norm for cov in empirical])
    centralized_gap = float(np.linalg.norm(centralized_cov - target) / target_norm)

    median_disagreement = np.median(trial_disagreement, axis=0)
    median_error = np.median(trial_error, axis=0)

    def safe_slope(values):
        try:
            return fit_decay_slope(grid, values, config.fit_window)
        except ValueError:
            return float("nan")

    disagreement_slope = safe_slope(median_disagreement)
    consistency = np.array([safe_slope(median_error[:, agent]) for agent in range(n)])

    ks_pvalues = None
    if config.run_ks_test and num_trials >= 2:
        ks_pvalues = np.empty((n, m))
        for agent in range(n):
            for coord in range(m):
                std = math.sqrt(target[coord, coord])
                ks_pvalues[agent, coord] = _ks.ks_normal_pvalue(scaled[:, agent, coord], std)

    optimal_norm = float(max(np.linalg.norm(k) for k in summary.optimal_gains))
    return ExperimentReport(
        num_trials=num_trials,
        horizon=config.horizon,
        master_seed=config.master_seed,
        checkpoint_times=grid,
        trial_disagreement=trial_disagreement,
        trial_error_norms=trial_error,
        trial_gain_gap=trial_gain,
        trial_grammian_gap=trial_grammian,
        terminal_gain_gap=trial_gain[:, -1],
        empirical_scaled_cov=empirical,
        target_cov=target,
        rel_frobenius_gap=gaps,
        centralized_scaled_cov=centralized_cov,
        centralized_baseline_gap=centralized_gap,
        median_disagreement=median_disagreement,
        median_error=median_error,
        disagreement_slope=disagreement_slope,
        consistency_decay=consistency,
        optimal_gain_norm=optimal_norm,
        ks_pvalues=ks_pvalues,
    )


def evaluate_acceptance(
    report: ExperimentReport, thresholds: AcceptanceThresholds
) -> list[StatResult]:
    """Score the report against the acceptance tolerances.

    The Kolmogorov-Smirnov row, when present, is diagnostic only: with
    many coordinates tested at a fixed significance an occasional small
    p-value is expected, so it never gates the overall verdict.
    """
    results: list[StatResult] = []

    def ok(value, bound):
        return bool(np.isfinite(value)) and value <= bound

    gap_max = float(np.max(report.rel_frobenius_gap))
    results.append(StatResult(
        "efficiency_gap_max", gap_max, f"<= {thresholds.efficiency_tol}",
        ok(gap_max, thresholds.efficiency_tol),
    ))

    slope_min = float(np.min(report.consistency_decay))
    slope_max = float(np.max(report.consistency_decay))
    results.append(StatResult(
        "consistency_slope_min", slope_min, f">= {thresholds.consistency_slope_min}",
        bool(np.isfinite(slope_min)) and slope_min >= thresholds.consistency_slope_min,
    ))
    results.append(StatResult(
        "consistency_slope_max", slope_max, f"<= {thresholds.consistency_slope_max}",
        ok(slope_max, thresholds.consistency_slope_max),
    ))

    results.append(StatResult(
        "disagreement_slope", report.disagreement_slope,
        f"<= {thresholds.disagreement_slope_max}",
        ok(report.disagreement_slope, thresholds.disagreement_slope_max),
    ))

    final_error = float(np.median(report.trial_error_norms[:, -1, :]))
    final_disagreement = float(np.median(report.trial_disagreement[:, -1]))
    ratio = final_disagreement / final_error if final_error > 0 else float("inf")
    results.append(StatResult(
        "disagreement_error_ratio", ratio,
        f"<= {thresholds.disagreement_error_ratio_max}",
        ok(ratio, thresholds.disagreement_error_ratio_max),
    ))

    gain_budget = thresholds.gain_rel_tol * report.optimal_gain_norm
    fraction = float(np.mean(report.terminal_gain_gap <= gain_budget))
    results.append(StatResult(
        "gain_pass_fraction", fraction, f">= {thresholds.gain_pass_fraction_min}",
        fraction >= thresholds.gain_pass_fraction_min,
    ))

    # Finite-horizon sanity: the distributed covariance can exceed the
    # benchmark but should never undercut it beyond sampling noise.
    trace_tol = 4.0 * math.sqrt(2.0 / max(report.num_trials, 1)) * float(np.trace(report.target_cov))
    min_trace = float(min(np.trace(cov) for cov in report.empirical_scaled_cov))
    margin = min_trace - (float(np.trace(report.centralized_scaled_cov)) - trace_tol)
    results.append(StatResult(
        "paired_trace_margin", margin, ">= 0",
        bool(np.isfinite(margin)) and margin >= 0.0,
    ))

    if report.ks_pvalues is not None:
        min_p = float(np.min(report.ks_pvalues))
        results.append(StatResult(
            "ks_min_pvalue", min_p, f">= {thresholds.ks_significance} (diagnostic)",
            min_p >= thresholds.ks_significance, gating=False,
        ))
    return results


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_matrix(path: Path, matrix: np.ndarray, header: str):
    with open(path, "w", newline="") as handle:
        handle.write(f"# {header}\n")
        writer = csv.writer(handle)
        for row in np.atleast_2d(matrix):
            writer.writerow([_fmt(v) for v in row])


def write_report(
    report: ExperimentReport,
    outdir,
    thresholds: AcceptanceThresholds,
) -> list[StatResult]:
    """Write the CSV artifacts and return the acceptance statistics.

    Files: ``checkpoints.csv`` (one row per trial and checkpoint),
    ``covariance_agent_<n>.csv``, ``covariance_target.csv``,
    ``covariance_centralized.csv``, optional ``ks_pvalues.csv``, and
    ``summary.csv`` with one pass/fail row per acceptance statistic.
    Output bytes are a deterministic function of the report.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n_agents = report.empirical_scaled_cov.shape[0]

    with open(outdir / "checkpoints.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["trial", "t", "disagreement"]
            + [f"err_agent_{i}" for i in range(n_agents)]
            + ["gain_gap", "grammian_gap"]
        )
        # tolist() gives Python ints and floats, whose repr is _fmt's
        times = report.checkpoint_times.tolist()
        columns = (report.trial_disagreement, report.trial_error_norms, report.trial_gain_gap,
                   report.trial_grammian_gap)
        for trial, rows in enumerate(zip(*(column.tolist() for column in columns))):
            writer.writerows(
                [trial, t, repr(disagreement), *map(repr, errors), repr(gain), repr(grammian)]
                for t, disagreement, errors, gain, grammian in zip(times, *rows)
            )

    for agent in range(n_agents):
        _write_matrix(
            outdir / f"covariance_agent_{agent}.csv",
            report.empirical_scaled_cov[agent],
            f"scaled-error covariance, agent {agent}, trials={report.num_trials}, "
            f"horizon={report.horizon}",
        )
    _write_matrix(outdir / "covariance_target.csv", report.target_cov,
                  "centralized asymptotic covariance (benchmark)")
    _write_matrix(outdir / "covariance_centralized.csv", report.centralized_scaled_cov,
                  f"scaled-error covariance of the centralized baseline, "
                  f"trials={report.num_trials}, horizon={report.horizon}")
    if report.ks_pvalues is not None:
        _write_matrix(outdir / "ks_pvalues.csv", report.ks_pvalues,
                      "KS p-values per agent (rows) and coordinate (columns)")

    stats = evaluate_acceptance(report, thresholds)
    with open(outdir / "summary.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["statistic", "value", "requirement", "passed"])
        writer.writerow(["master_seed", str(report.master_seed), "", ""])
        writer.writerow(["num_trials", str(report.num_trials), "", ""])
        writer.writerow(["horizon", str(report.horizon), "", ""])
        for stat in stats:
            writer.writerow([stat.name, _fmt(stat.value), stat.requirement, _fmt(stat.passed)])
    return stats
