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
and reports do not depend on the parallelism degree.  The compiled
kernel (``_kernel.c``) is the one round: one call advances a bank from
one checkpoint to the next, computing each step's weights, starting each
block's link draws, drawing each step's noise and links and forming the
observations from the noise, and writes the checkpoint diagnostics of
the step it ends on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernel, _ks
from .errors import TrialDiverged
from .estimator import (
    NetworkState,
    _gain_kernel,
    _max_disagreement,
    _regularized_inverse,
    initial_network_state,
)
from .model import ObservationModel, centralized_estimate_from_means
# the Generator draw of the noise that the kernel draws; here only for bench/tracing.py to time
from .model import _unit_variance_draws  # noqa: F401
from .network import TopologyModel
from .schedule import WeightSchedule, checkpoint_grid

#: Steps of a block, whose link draws each trial's stream holds before its
#: noise (``_kernel.BLOCK_STEPS``, which the kernel reads).
BLOCK_STEPS = _kernel.BLOCK_STEPS

#: Trials advanced together in one vectorized bank.  Fixed so that
#: experiment output is independent of the parallelism degree.
TRIALS_PER_BANK = 64

#: The cgroup file systems' mount root, and the groups of this process
#: (``hierarchy:controllers:path`` lines; v2's controllers are empty).
_CGROUP_ROOT = Path("/sys/fs/cgroup")
_PROC_CGROUP = Path("/proc/self/cgroup")


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


def _draw_topology_block(top: TopologyModel, rng, steps: int):
    """A block's active-edge masks drawn from ``rng``, a numpy ``Generator``
    (:meth:`TopologyModel.draw_active`).  No library call makes it, since
    the kernel starts each block's link draws itself: here only for
    bench/tracing.py to time."""
    return top.draw_active(rng, steps)


def _laplacian_at(top: TopologyModel, active, s: int):
    """Sampled Laplacians for step ``s`` of a block: (R, N, N) or shared (N, N).
    Off the run path, where the kernel draws the links; the numpy oracle reads it."""
    return top.laplacians(None if active is None else active[:, s])


def _advance(bound, state: NetworkState, stop: int, out=None) -> None:
    """Advance a bank in place from ``state.step`` to step ``stop``,
    ``state.step`` included, by one call of its ``_kernel.BoundBank``,
    which writes the records of step ``stop`` into ``out`` unless ``None``."""
    bound.advance(state.step, stop, out)
    state.step = stop


def _bank_checkpoint(estimates, grammians, sample_covs, model, gamma):
    """A trial bank's records in numpy: the oracle of those ``BoundBank.advance`` writes."""
    dinv = _regularized_inverse(sample_covs, gamma)
    sensing_t = np.swapaxes(model._stacked.sensing, -1, -2)
    gains = _gain_kernel(grammians, gamma, sensing_t @ dinv)
    gain_gap = np.sqrt(((gains - model._optimal_gain_stack) ** 2).sum(axis=(-1, -2))).max(axis=-1)
    avg_gap = grammians.mean(axis=-3) - model._centralized.grammian_norm
    grammian_gap = np.sqrt((avg_gap**2).sum(axis=(-1, -2)))
    disagreement = _max_disagreement(estimates)
    error_norms = np.linalg.norm(estimates - model.true_param, axis=-1)
    return disagreement, error_norms, gain_gap, grammian_gap


def _draw_bytes(model: ObservationModel, trials: int) -> dict[str, int]:
    """Bytes of the buffers that one bank of an experiment holds, by part:
    the streams of :func:`_walk` and the link streams that its bound bank
    holds, the kernel's lane scratch at the widest lane width, and the
    bank's state."""
    rows = min(TRIALS_PER_BANK, trials)
    n, m, mx = model.num_agents, model.param_dim, max(model.obs_dims)
    return {
        "streams": 2 * rows * _kernel.STREAM_BYTES,
        "lane scratch": _kernel.scratch_vectors(n, m, mx) * max(_kernel.WIDTHS) * 8,
        "bank state": (rows * (m + m * m + 2 * mx + mx * mx) + mx * mx) * n * 8,
    }


def _memory_shortfall(model, trials: int, checkpoints: int, parallelism: int) -> str | None:
    """Why an experiment does not fit in memory, naming its largest part:
    the parent process's records of up to ``checkpoints`` checkpoints, with
    the sorted copy of their error norms and the three (checkpoints, N)
    temporaries that :func:`_median` makes, and the terminal scaled errors
    and baseline, beside each worker's bank (:func:`_draw_bytes`); ``None``
    where it fits, or where the memory size is unknown."""
    memory, bounded_by = _memory_limit()
    banks = -(-trials // TRIALS_PER_BANK)
    workers = worker_count(parallelism, banks)
    bank = _draw_bytes(model, trials)
    n, m = model.num_agents, model.param_dim
    records = (trials * (checkpoints * (2 * n + 3) + (n + 1) * m) + 3 * checkpoints * n) * 8
    parts = {"records": records, **{name: workers * size for name, size in bank.items()}}
    if memory is None or sum(parts.values()) <= memory:
        return None
    largest = max(parts, key=parts.get)
    return (f"{trials} trials x up to {checkpoints} checkpoints need "
            f"{records >> 20} MiB of records and {workers} workers x "
            f"{sum(bank.values()) / 2**20:.1f} MiB of bank buffers, more than "
            f"{memory >> 20} MiB of {bounded_by}; the largest part is the {largest} "
            f"({parts[largest] / 2**20:.1f} MiB)")


def _cgroup_limits() -> list[tuple[int, str]]:
    """The numeric memory limits of this process's cgroups, each with its
    file: v2's ``memory.max`` and v1's ``memory.limit_in_bytes`` of the
    group that ``/proc/self/cgroup`` names and of each group above it, up
    to the mount root (a container's own group, where its path is not
    mounted).  v2's ``max`` is no limit; v1's "unlimited" is a number
    beyond any machine's memory."""
    try:
        lines = _PROC_CGROUP.read_text().splitlines()
    except OSError:
        return []
    limits = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if not controllers:
            root, name = _CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            root, name = _CGROUP_ROOT / "memory", "memory.limit_in_bytes"
        else:
            continue
        steps = [step for step in path.split("/") if step]
        for depth in range(len(steps), -1, -1):
            try:
                text = (root.joinpath(*steps[:depth]) / name).read_text()
            except OSError:  # not mounted here, or no limit file
                continue
            if text.strip().isdigit():
                limits.append((int(text), f"cgroup memory ({name})"))
    return limits


def _memory_limit() -> tuple[int | None, str]:
    """Bytes of memory a run may hold, and what sets them: physical memory,
    or a cgroup limit where that is a smaller number (:func:`_cgroup_limits`);
    ``None`` where neither is known."""
    limits = []
    try:
        limits.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
                       "physical memory"))
    except (AttributeError, ValueError, OSError):  # the size is unknown
        pass
    return min(limits + _cgroup_limits(), default=(None, "memory"), key=lambda limit: limit[0])


def _grid_steps(grid, horizon: int) -> np.ndarray:
    """The checkpoint grid as int64 steps, refused unless they are integers,
    strictly increasing from 1 and end at the horizon."""
    grid = np.asarray(grid)
    if grid.dtype.kind == "f":
        fractional = grid[~(np.isfinite(grid) & (grid == np.floor(grid)))]
        if fractional.size:
            raise ValueError(f"checkpoint grid steps must be integers, got {fractional[0]!s}")
    grid = grid.astype(np.int64)
    if grid.size == 0 or grid[-1] != horizon or np.any(np.diff(grid) <= 0) or grid[0] < 1:
        raise ValueError("checkpoint grid must be strictly increasing and end at the horizon")
    return grid


def _walk(model, top, schedule, horizon: int, grid, seeds, init=None, records=None):
    """:func:`trajectory`: the bank, bound once with its schedule, its
    streams and the horizon, advances in one segment per grid step; the
    call that ends on grid step ``grid[c]`` writes the bank's records there
    into ``records[c]`` unless ``records`` is ``None``."""
    rngs = _kernel.Streams(seeds)
    grid = _grid_steps(grid, horizon).tolist()

    state = initial_network_state(model, *(init if init is not None else (None, None, None)))
    for field in ("estimates", "grammians", "obs_shifts", "obs_sums", "obs_outer_sums"):
        a = getattr(state, field)
        setattr(state, field, np.tile(a, (len(rngs),) + (1,) * a.ndim))
    bound = _kernel.load().bind(state, model, top, schedule, rngs, horizon)
    for c, stop in enumerate(grid):
        _advance(bound, state, stop, None if records is None else records[c])
        yield stop, state


def trajectory(model: ObservationModel, top: TopologyModel, schedule: WeightSchedule,
               horizon: int, grid, seeds, init: tuple | None = None):
    """Advance a bank of trials, one per seed, and yield ``(t, state)`` at
    every step ``t`` of ``grid``.

    ``state`` is one :class:`NetworkState` whose arrays carry a leading
    trial axis.  It is advanced in place, its arrays bound to the kernel
    once with the streams (replace none of them), so copy what must
    outlive the next step.  ``init`` holds the optional initial
    estimate, Grammian and sample covariance of :func:`initial_network_state`.
    Each trial consumes only its own stream, the one
    ``np.random.default_rng(seed)`` draws (one ``_kernel.Streams`` bank
    for the trials, seeded once), in blocks of ``BLOCK_STEPS`` steps: the
    topology draws of the block, then its unit-variance noise.  The kernel
    starts each block itself: the trial's link stream takes its stream's
    state, from which it draws the block's links, while the stream moves
    to where the block's noise starts.  It computes each step's weights
    from ``schedule``, draws its links and noise and forms the
    observations, in one segment per grid step (:func:`_advance`).  A
    singular gain solve raises :class:`TrialDiverged` with the trial's
    place in the bank; empty ``seeds`` and a grid whose steps are not
    integers raise ``ValueError``.
    """
    yield from _walk(model, top, schedule, horizon, grid, seeds, init)


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
    (R, N, M) and the scaled centralized baseline (R, M).  The kernel call of
    :func:`_walk` that ends on each step of ``grid`` writes the bank's
    records there, into a (C, R, N + 3) table.  A trial whose state or
    records are non-finite there, or whose gain solve meets a singular
    matrix, raises :class:`TrialDiverged`, naming it by ``first_trial``
    plus its place in the bank.
    """
    n = model.num_agents
    records = np.empty((len(grid), len(seeds), n + 3))
    try:  # the walk, once exhausted, frees its bound buffers before the terminal errors
        for t, state in _walk(model, top, schedule, horizon, grid, seeds, init, records):
            pass
    except TrialDiverged as exc:
        raise TrialDiverged(first_trial + exc.trial, exc.step, exc.cause) from None
    table = records.swapaxes(0, 1)
    scaled_errors = math.sqrt(horizon + 1.0) * (state.estimates - model.true_param)
    baseline = centralized_estimate_from_means(model, state.obs_shifts + state.obs_sums / t)
    scaled_baseline = math.sqrt(t) * (baseline - model.true_param)
    return (table[..., 0], table[..., 1:n + 1], table[..., n + 1], table[..., n + 2],
            scaled_errors, scaled_baseline)


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
    grid = _grid_steps(checkpoint_grid, horizon)
    rows = [result[0] for result in _run_bank(model, top, schedule, horizon, grid, [seed], init)]
    # the TrialMetrics fields in order; rows[2] is the gain gap
    return TrialMetrics(grid, *rows, terminal_gain_gap=float(rows[2][-1]))


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


def worker_count(requested: int, banks: int, cpus: int | None = None) -> int:
    """Worker processes for ``banks`` banks: the request (0 means one per
    CPU), capped by the number of banks and of CPUs, by default those this
    process may run on (``taskset`` and cpusets narrow them)."""
    if cpus is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    return max(1, min(requested or cpus, banks, cpus))


def run_experiment(config) -> ExperimentReport:
    """Run the configured Monte Carlo experiment and aggregate its report.

    ``config`` provides the scenario attributes (``model``, ``topology``,
    ``schedule``, ``horizon``, ``num_trials``, ``master_seed``,
    ``checkpoint_start``, ``checkpoints_per_decade``, ``parallelism``,
    ``fit_window``, ``run_ks_test``, and the optional ``init_*`` values);
    see :class:`adle.cli.ScenarioConfig`.  Trials are reproducible in
    isolation: trial ``k`` always uses the stream seeded by
    ``(master_seed, k)``, that of ``np.random.default_rng((master_seed, k))``.
    """
    if config.num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    grid = checkpoint_grid(config.horizon, config.checkpoint_start, config.checkpoints_per_decade)
    init = (config.init_estimate, config.init_grammian, config.init_sample_cov)
    seeds = [(config.master_seed, k) for k in range(config.num_trials)]
    payloads = [
        (config.model, config.topology, config.schedule, config.horizon, grid,
         seeds[i : i + TRIALS_PER_BANK], init, i)
        for i in range(0, len(seeds), TRIALS_PER_BANK)
    ]
    workers = worker_count(config.parallelism, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = _stack_banks(pool.map(_run_bank, *zip(*payloads)), config.num_trials)
    else:
        results = _stack_banks(map(_run_bank, *zip(*payloads)), config.num_trials)
    return _aggregate(config, grid, results)


def _stack_banks(banks, trials: int) -> list[np.ndarray]:
    """The trial-stacked results of ``banks`` in trial order, each bank's
    copied into one array per result as it arrives and then dropped, so
    that the records are held once."""
    results, start = None, 0
    for bank in banks:
        if results is None:
            results = [np.empty((trials, *part.shape[1:])) for part in bank]
        for result, part in zip(results, bank):
            result[start:start + len(part)] = part
        start += len(bank[0])
        del bank  # before the next bank is run
    return results


def _median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)`` bit for bit, by a sort: the middle
    value, or the mean ``(a + b) / 2`` of the middle two, and NaN wherever
    a column holds a NaN (which sorts last).  Like ``np.mean`` the sum
    starts from +0.0, so a -0.0 median reads +0.0.  ``np.median``'s NaN
    check imports ``numpy.ma`` on its first call, which costs a run more
    than its medians do."""
    ordered = np.sort(values, axis=0)
    half = len(ordered) // 2
    if len(ordered) % 2:
        middle = 0.0 + ordered[half]
    else:
        middle = (0.0 + ordered[half - 1] + ordered[half]) / 2
    return np.where(np.isnan(ordered[-1]), np.nan, middle)


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

    median_disagreement = _median(trial_disagreement)
    median_error = _median(trial_error)

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
    """Score the report against the acceptance tolerances, one row per
    statistic: its value passes where it is finite and on the required
    side of its bound.

    The Kolmogorov-Smirnov row, when present, is diagnostic only: with
    many coordinates tested at a fixed significance an occasional small
    p-value is expected, so it never gates the overall verdict.
    """
    t = thresholds
    final_error = float(_median(report.trial_error_norms[:, -1, :].ravel()))
    final_disagreement = float(_median(report.trial_disagreement[:, -1]))
    gain_budget = t.gain_rel_tol * report.optimal_gain_norm
    # Finite-horizon sanity: the distributed covariance can exceed the
    # benchmark but should never undercut it beyond sampling noise.
    trace_tol = 4.0 * math.sqrt(2.0 / max(report.num_trials, 1)) * float(np.trace(report.target_cov))
    min_trace = float(min(np.trace(cov) for cov in report.empirical_scaled_cov))
    rows = [  # (name, value, relation, bound)
        ("efficiency_gap_max", float(np.max(report.rel_frobenius_gap)), "<=", t.efficiency_tol),
        ("consistency_slope_min", float(np.min(report.consistency_decay)), ">=",
         t.consistency_slope_min),
        ("consistency_slope_max", float(np.max(report.consistency_decay)), "<=",
         t.consistency_slope_max),
        ("disagreement_slope", report.disagreement_slope, "<=", t.disagreement_slope_max),
        ("disagreement_error_ratio", final_disagreement / final_error if final_error > 0
         else float("inf"), "<=", t.disagreement_error_ratio_max),
        ("gain_pass_fraction", float(np.mean(report.terminal_gain_gap <= gain_budget)), ">=",
         t.gain_pass_fraction_min),
        ("paired_trace_margin", min_trace - (float(np.trace(report.centralized_scaled_cov))
                                             - trace_tol), ">=", 0),
    ]
    if report.ks_pvalues is not None:
        rows.append(("ks_min_pvalue", float(np.min(report.ks_pvalues)), ">=", t.ks_significance))
    results = []
    for name, value, relation, bound in rows:
        gating = name != "ks_min_pvalue"
        side = value <= bound if relation == "<=" else value >= bound
        requirement = f"{relation} {bound}" + ("" if gating else " (diagnostic)")
        results.append(StatResult(name, value, requirement, bool(np.isfinite(value)) and side,
                                  gating))
    return results


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _row(fields) -> str:
    """One CSV row as ``csv.writer`` writes fields that need no quoting."""
    return ",".join(fields) + "\r\n"


def _write_matrix(path: Path, matrix: np.ndarray, header: str):
    with open(path, "w", newline="") as handle:
        handle.write(f"# {header}\n")
        handle.writelines(_row(map(_fmt, row)) for row in np.atleast_2d(matrix))


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

    header = ["trial", "t", "disagreement", *(f"err_agent_{i}" for i in range(n_agents)),
              "gain_gap", "grammian_gap"]
    times = report.checkpoint_times.tolist()  # Python ints and floats: repr is _fmt
    with open(outdir / "checkpoints.csv", "w", newline="") as handle:
        handle.write(_row(header))
        for trial, errors in enumerate(report.trial_error_norms):  # a trial's table at a time
            rows = np.column_stack([report.trial_disagreement[trial], errors,
                                    report.trial_gain_gap[trial], report.trial_grammian_gap[trial]])
            handle.writelines(_row([str(trial), str(t), *map(repr, row)])
                              for t, row in zip(times, rows.tolist()))

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
    summary = [["statistic", "value", "requirement", "passed"],
               *([name, str(getattr(report, name)), "", ""]
                 for name in ("master_seed", "num_trials", "horizon")),
               *([stat.name, _fmt(stat.value), stat.requirement, _fmt(stat.passed)]
                 for stat in stats)]
    with open(outdir / "summary.csv", "w", newline="") as handle:
        handle.writelines(map(_row, summary))
    return stats
