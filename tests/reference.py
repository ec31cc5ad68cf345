"""Reference rounds of the consensus+innovation recursion (test oracles).

Two oracles of the compiled bank kernel, the library's one round:

* the naive per-agent round (:func:`reference_round`), written agent by
  agent, with neighbor lists and explicit inverses, from the four update
  equations in the docstring of ``adle.estimator``; each right-hand side
  is read from the time-``t`` state;
* the trial-stacked numpy round (:func:`stacked_round`) on the library's
  padded layout, and :func:`reference_trajectory`, which drives it with
  the draws and draw order of ``adle.harness.trajectory``;
  :func:`reference_walk` adds the kernel's checkpoint records of its
  state, as ``adle.harness._walk`` does.

The tests check that the kernel agrees with both and check the
equations' properties on the per-agent oracle.  The report files'
rows, built once by :func:`report_rows`, are the oracle of the library's
CSV text: :func:`write_report_by_repr` writes them a row of Python
strings at a time, each value by ``repr``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from adle import harness
from adle.errors import TrialDiverged
from adle.estimator import (
    _gain_kernel,
    _neighborhood_sums_mat,
    _neighborhood_sums_vec,
    _regularized_inverse,
    _sample_cov_from_moments,
    initial_network_state,
)
from adle.schedule import WeightSchedule
from conftest import (
    STATE_FIELDS,
    bind_bank,
    numpy_states,
    state_arrays,
    stream_states,
    write_state,
)


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


# ---------------------------------------------------------------------------
# the trial-stacked numpy round


def observations(stacked, noise: np.ndarray) -> np.ndarray:
    """Observations ``sensed_truth + noise_factor @ z`` of unit-variance
    draws ``z`` (..., N, mx), the product summed one factor column at a
    time, left to right: no (..., N, mx, mx) temporary.  The compiled
    kernel forms each step's observations with these same operations."""
    factor = stacked.noise_factor
    acc = factor[..., 0] * noise[..., :1]
    for j in range(1, noise.shape[-1]):
        acc += factor[..., j] * noise[..., j:j + 1]
    return stacked.sensed_truth + acc


def fold_observations(shifts, sums, outer_sums, count: int, y) -> None:
    """Fold ``y`` into moments that hold ``count`` observations, in place.

    The first observation (``count == 0``) becomes the shift, so the
    moments stay centered near the data and ``Q`` keeps its precision
    far from zero.
    """
    if count == 0:
        shifts[...] = y
    d = y - shifts
    sums += d
    outer_sums += d[..., :, None] * d[..., None, :]


def stacked_round(
    estimates,
    grammians,
    obs_sums,
    obs_outer_sums,
    count: int,
    initial_sample_covs,
    sensing_padded,
    lap,
    observations,
    alpha: float,
    beta: float,
    gamma: float,
):
    """One round in the padded layout from moments that hold ``count``
    observations; returns the new estimate and Grammian stacks.

    All inputs may carry leading batch dimensions (e.g. a bank of trials).
    """
    q = _sample_cov_from_moments(obs_sums, obs_outer_sums, count, initial_sample_covs)
    dinv = _regularized_inverse(q, gamma)
    sensing_t = np.swapaxes(sensing_padded, -1, -2)
    sensing_t_dinv = sensing_t @ dinv                       # (..., N, M, max_dim)
    gains = _gain_kernel(grammians, gamma, sensing_t_dinv)  # (..., N, M, max_dim)

    residual = observations[..., None] - sensing_padded @ estimates[..., None]
    innovation = (gains @ residual)[..., 0]
    new_estimates = estimates - beta * _neighborhood_sums_vec(lap, estimates) + alpha * innovation

    grammian_innovation = sensing_t_dinv @ sensing_padded
    new_grammians = (
        grammians
        - beta * _neighborhood_sums_mat(lap, grammians)
        + alpha * (grammian_innovation - grammians)
    )
    return new_estimates, new_grammians


def naming_singular(step: int, bank: int, call):
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


def weights(schedule, start: int, steps: int) -> np.ndarray:
    """The oracle's weights: rows alpha, beta, gamma of ``schedule`` at
    steps ``start .. start+steps-1``, (3, steps), in Python floats, which
    equal the per-step values of ``WeightSchedule.alpha`` and the others
    bit for bit; numpy's array power can differ from them in the last bit."""
    return np.array([
        [c / (u + 1.0) ** e for u in range(start, start + steps)]
        for c, e in ((schedule.a, schedule.tau1), (schedule.b, schedule.tau2),
                     (schedule.gamma0, schedule.tau_gamma))
    ])


def stacked_segment(state, stacked, noise, start: int, stop: int, weights, top, active) -> None:
    """Advance a trial-stacked ``NetworkState`` through block steps
    ``start..stop-1`` in place with :func:`stacked_round` and the moment
    update, on the block's unit-variance ``noise`` (R, S, N, mx), its
    (3, S) ``weights`` (:func:`weights`) and its active-edge masks
    ``active``.  A singular solve raises ``TrialDiverged`` naming the
    first trial that fails alone.
    """
    x, g, shifts, sums, outer = (state.estimates, state.grammians, state.obs_shifts,
                                 state.obs_sums, state.obs_outer_sums)
    q0 = state.initial_sample_covs
    for s in range(start, stop):
        y = observations(stacked, noise[:, s])
        lap, count = harness._laplacian_at(top, active, s), state.step
        x[...], g[...] = naming_singular(count, len(x), lambda pick: stacked_round(
            x[pick], g[pick], sums[pick], outer[pick], count, q0, stacked.sensing,
            lap if lap.ndim == 2 else lap[pick], y[pick], *weights[:, s]))
        fold_observations(shifts, sums, outer, count, y)
        state.step += 1


def unit_variance_draws(rng, family: str, shape) -> np.ndarray:
    """Unit-variance draws of ``family`` from ``rng``, a numpy ``Generator``:
    standard normals, or Laplace draws of scale 1/sqrt(2)."""
    if family == "gaussian":
        return rng.standard_normal(shape)
    return rng.laplace(0.0, 2.0**-0.5, shape)


def link_masks(top, rngs, steps: int):
    """A block's active-edge masks, bool (R, steps, E), each trial's link
    draws read by hand from its stream in one call; ``None`` under the
    static law."""
    if not top.draws_links:
        return None
    edges, masks = top.base.num_edges, []
    for rng in rngs:
        if top.law == "bernoulli":
            masks.append(rng.random((steps, edges)) < top.p)
        else:
            picks = rng.integers(0, edges, size=steps)
            masks.append(np.arange(edges) == picks[:, None])
    return np.stack(masks)


def whole_block_draws(model, top, generators, horizon: int):
    """A walk's draws of its trials' streams, to ``horizon``, made of numpy
    ``generators``, one per trial, each block's in one call each: where
    links are drawn, a copy of each generator takes its state at the
    block's start and draws the block's masks, which the generator draws
    too; the generator then draws the block's noise.  Yields each block's
    end and the copies there, the kernel's link streams, which start as
    copies of the streams."""
    shape = (model.num_agents, model._stacked.max_dim)
    links = copy.deepcopy(generators)
    for start in range(0, horizon, harness.BLOCK_STEPS):
        steps = min(harness.BLOCK_STEPS, horizon - start)
        if top.draws_links:
            links = copy.deepcopy(generators)
            link_masks(top, links, steps)
            link_masks(top, generators, steps)
        for rng in generators:
            unit_variance_draws(rng, model.noise, (steps, *shape))
        yield start + steps, links


def tiled_state(model, bank: int, init=None):
    """The initial ``NetworkState`` of ``model``, from the optional ``init`` of
    ``initial_network_state``, with a leading axis of ``bank`` trials."""
    state = initial_network_state(model, *(init if init is not None else (None, None, None)))
    for field in STATE_FIELDS:
        a = getattr(state, field)
        setattr(state, field, np.tile(a, (bank,) + (1,) * a.ndim))
    return state


def check_block_ends(model, top, seeds, horizon: int, windows=(1, 37)):
    """Walk a bank of ``model``'s trials, one per seed, bound at its initial
    state with the horizon, to ``horizon`` by ``BoundBank.advance`` in
    segments of at most each of ``windows`` steps that end at every block's
    end too; check that at each block's end its streams and link streams
    stand where :func:`whole_block_draws` leaves numpy's generators and
    their copies.  Returns those ends, with the streams' and link streams'
    states (``conftest.stream_states``)."""
    for window in windows:
        bound = bind_bank(model, top, WeightSchedule(), seeds, horizon)
        ends = []
        for start in range(0, horizon, harness.BLOCK_STEPS):
            end = min(start + harness.BLOCK_STEPS, horizon)
            for s in range(start, end, window):
                bound.advance(min(s + window, end))
            ends.append((end, stream_states(bound._arrays["streams"]),
                         stream_states(bound._arrays["link_streams"])))
        generators = [np.random.default_rng(seed) for seed in seeds]
        assert ends == [(end, numpy_states(generators), numpy_states(links))
                        for end, links in whole_block_draws(model, top, generators, horizon)]
    return ends


def reference_trajectory(model, top, schedule, horizon: int, grid, seeds, init=None):
    """``harness.trajectory`` on the numpy round: the same per-trial draws
    in the same order (per block of ``BLOCK_STEPS`` steps, the link draws
    of the whole block by :func:`link_masks`, then the noise of the whole
    block), advanced by :func:`stacked_segment` one step at a time,
    yielding ``(t, state)`` at every step ``t`` of ``grid``."""
    stacked = model._stacked
    shape = (model.num_agents, stacked.max_dim)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    grid = set(np.asarray(grid).tolist())
    state = tiled_state(model, len(rngs), init)
    while state.step < horizon:
        steps = min(harness.BLOCK_STEPS, horizon - state.step)
        active = link_masks(top, rngs, steps)
        noise = np.stack([unit_variance_draws(rng, model.noise, (steps, *shape))
                          for rng in rngs])
        block = weights(schedule, state.step, steps)
        for s in range(steps):
            stacked_segment(state, stacked, noise, s, s + 1, block, top, active)
            if state.step in grid:
                yield state.step, state


def reference_walk(model, top, schedule, horizon: int, grid, seeds, init=None, records=None):
    """``harness._walk`` on the numpy round: :func:`reference_trajectory`,
    whose state at grid step ``grid[c]`` is written into a bank bound once,
    which writes the kernel's records of it into ``records[c]`` by a
    zero-step advance at the schedule's gamma, unless ``records`` is
    ``None``."""
    bound = None
    for c, (t, state) in enumerate(reference_trajectory(model, top, schedule, horizon, grid,
                                                        seeds, init)):
        if records is not None:
            if bound is None:
                bound = bind_bank(model, top, schedule, seeds, horizon, init)
            write_state(bound, state_arrays(state), t)
            bound.advance(t, records[c])
        yield t, state


def report_rows(report, thresholds) -> dict[str, tuple[str | None, list[list]]]:
    """The files that ``harness.write_report`` writes of ``report``, each
    with its ``#`` header line's text (``None`` for none) and its rows of
    cells, a CSV header among them: a checkpoint row's trial and step as
    ints, every value a Python float, ``summary.csv``'s verdicts as bools.
    Each oracle spells the cells and joins them in its own way."""
    n_agents = report.empirical_scaled_cov.shape[0]
    checkpoints = [["trial", "t", "disagreement", *(f"err_agent_{i}" for i in range(n_agents)),
                    "gain_gap", "grammian_gap"]]
    times = report.checkpoint_times.tolist()
    for trial, errors in enumerate(report.trial_error_norms):
        rows = np.column_stack([report.trial_disagreement[trial], errors,
                                report.trial_gain_gap[trial], report.trial_grammian_gap[trial]])
        checkpoints += ([trial, t, *row] for t, row in zip(times, rows.tolist()))
    run = f"trials={report.num_trials}, horizon={report.horizon}"
    matrices = {f"covariance_agent_{agent}.csv": (f"scaled-error covariance, agent {agent}, {run}",
                                                  cov)
                for agent, cov in enumerate(report.empirical_scaled_cov)}
    matrices["covariance_target.csv"] = ("centralized asymptotic covariance (benchmark)",
                                         report.target_cov)
    matrices["covariance_centralized.csv"] = (
        f"scaled-error covariance of the centralized baseline, {run}",
        report.centralized_scaled_cov)
    if report.ks_pvalues is not None:
        matrices["ks_pvalues.csv"] = ("KS p-values per agent (rows) and coordinate (columns)",
                                      report.ks_pvalues)
    stats = harness.evaluate_acceptance(report, thresholds)
    summary = [["statistic", "value", "requirement", "passed"],
               *([name, getattr(report, name), "", ""]
                 for name in ("master_seed", "num_trials", "horizon")),
               *([stat.name, float(stat.value), stat.requirement, bool(stat.passed)]
                 for stat in stats)]
    return {"checkpoints.csv": (None, checkpoints),
            **{name: (header, np.atleast_2d(np.asarray(matrix, np.float64)).tolist())
               for name, (header, matrix) in matrices.items()},
            "summary.csv": (None, summary)}


def _repr_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def write_report_by_repr(report, outdir, thresholds) -> None:
    """``harness.write_report`` in Python rows: each row of
    :func:`report_rows` ``harness._row`` of ``str`` of each int and string,
    ``repr`` of each float and ``true`` or ``false`` of each verdict."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in report_rows(report, thresholds).items():
        with open(outdir / name, "w", newline="") as handle:
            if header is not None:
                handle.write(f"# {header}\n")
            handle.writelines(harness._row(map(_repr_cell, row)) for row in rows)
