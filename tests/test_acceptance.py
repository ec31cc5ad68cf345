"""Full-scale statistical acceptance suite.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the corresponding tolerance.  The heavy Monte
Carlo runs are shared per module: the efficiency run (500 trials to
horizon 50k), the long run (100 trials to horizon 100k, used by the
consistency, agreement, and gain-learning checks), and the gossip run
(500 trials to horizon 100k); the efficiency and gossip runs use two
worker processes, which does not change their results.  Budget: several
minutes on two cores.
"""

import time

import numpy as np
import pytest
import yaml

from adle.cli import ScenarioConfig, example1_graph, example1_model, main
from adle.estimator import initial_network_state
from adle.harness import fit_decay_slope, run_experiment, trajectory
from adle.model import validate_observation_model
from adle.network import TopologyModel, fiedler_value, sample_laplacian
from adle.schedule import WeightSchedule, deterministic_recursion_oracle, recursion_trace

RING_SCHEDULE = WeightSchedule(b=0.5)  # consensus weight capped at 1/max_degree


def ring_config(**overrides) -> ScenarioConfig:
    base = dict(
        model=example1_model(),
        topology=TopologyModel(example1_graph(), "bernoulli", 0.5),
        schedule=RING_SCHEDULE,
        horizon=50_000,
        num_trials=500,
        master_seed=20260810,
        parallelism=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def report_line(name: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def last_decade_window(times) -> float:
    times = np.asarray(times)
    return float(np.count_nonzero(times >= times[-1] / 10)) / len(times)


@pytest.fixture(scope="module")
def efficiency_report():
    return run_experiment(ring_config(parallelism=2))


@pytest.fixture(scope="module")
def long_report():
    return run_experiment(ring_config(horizon=100_000, num_trials=100, master_seed=20260811))


@pytest.fixture(scope="module")
def gossip_report():
    return run_experiment(ring_config(
        topology=TopologyModel(example1_graph(), "gossip"),
        horizon=100_000, num_trials=500, master_seed=20260812, parallelism=2,
    ))


def test_1_asymptotic_efficiency_under_bernoulli_links(efficiency_report):
    gaps = efficiency_report.rel_frobenius_gap
    passed = bool(np.all(gaps <= 0.20))
    report_line("asymptotic-efficiency", passed,
                f"max per-agent covariance gap {gaps.max():.4f} <= 0.20")
    assert passed, f"per-agent gaps {gaps}"


def test_2_consistency_with_order_optimal_decay(long_report):
    window = last_decade_window(long_report.checkpoint_times)
    slopes = np.array([
        fit_decay_slope(long_report.checkpoint_times, long_report.median_error[:, agent], window)
        for agent in range(long_report.median_error.shape[1])
    ])
    passed = bool(np.all((slopes >= -0.6) & (slopes <= -0.4)))
    report_line("consistency-decay", passed,
                f"median-error slopes in [{slopes.min():.3f}, {slopes.max():.3f}], "
                f"required within [-0.6, -0.4]")
    assert passed, f"slopes {slopes}"


def test_3_agreement_outpaces_estimation_error(long_report):
    window = last_decade_window(long_report.checkpoint_times)
    slope = fit_decay_slope(long_report.checkpoint_times, long_report.median_disagreement, window)
    final_error = float(np.median(long_report.trial_error_norms[:, -1, :]))
    final_disagreement = float(np.median(long_report.trial_disagreement[:, -1]))
    ratio = final_disagreement / final_error
    passed = slope <= -0.3 and ratio < 0.10
    report_line("agreement-rate", passed,
                f"disagreement slope {slope:.3f} <= -0.3, final ratio {ratio:.4f} < 0.10")
    assert passed, (slope, ratio)


def test_4_gains_learned_to_five_percent(long_report):
    budget = 0.05 * long_report.optimal_gain_norm
    fraction = float(np.mean(long_report.terminal_gain_gap <= budget))
    passed = fraction >= 0.95
    report_line("gain-learning", passed,
                f"{fraction:.1%} of trials with terminal gain gap <= {budget:.4f}")
    assert passed, fraction


def test_5_grammian_average_identity_and_convergence():
    model = example1_model()
    top = TopologyModel(example1_graph(), "bernoulli", 0.5)
    summary = validate_observation_model(model)
    horizon = 10_000

    def predicted_average(grammians, sample_covs, t):
        # the scalar recursion of the network-average Grammian over step t
        gamma = float(RING_SCHEDULE.gamma(t))
        alpha = float(RING_SCHEDULE.alpha(t))
        innovations = np.stack([
            h.T @ np.linalg.inv(q + gamma * np.eye(q.shape[0])) @ h
            for h, q in zip(model.sensing, sample_covs)
        ])
        return (1.0 - alpha) * grammians.mean(axis=0) + alpha * innovations.mean(axis=0)

    fresh = initial_network_state(model)
    predicted = predicted_average(fresh.grammians, fresh.sample_covariances(), 0)
    worst = 0.0
    for t, state in trajectory(model, top, RING_SCHEDULE, horizon, np.arange(1, horizon + 1),
                               [np.random.SeedSequence((20260813, 0))]):
        average = state.grammians[0].mean(axis=0)
        worst = max(worst, float(np.max(np.abs(average - predicted))))
        assert worst <= 1e-12, f"average-Grammian identity broken at step {t - 1}: {worst:.3e}"
        predicted = predicted_average(state.grammians[0],
                                      [q[0] for q in state.sample_covariances()], t)
    gap = float(np.linalg.norm(average - summary.grammian_norm))
    passed = worst <= 1e-12 and gap < 0.05
    report_line("grammian-dynamics", passed,
                f"identity residual {worst:.2e} <= 1e-12, gap to target {gap:.4f} < 0.05")
    assert passed, (worst, gap)


def test_6_efficiency_survives_gossip_links(gossip_report):
    top = TopologyModel(example1_graph(), "gossip")
    # exhaustive: the gossip sample space is one Laplacian per base edge,
    # and every one of them is disconnected on five nodes
    for lap in top.edge_laplacians:
        assert fiedler_value(lap) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(1)
    sampled_fiedler = max(fiedler_value(sample_laplacian(top, rng)) for _ in range(2000))
    gaps = gossip_report.rel_frobenius_gap
    passed = bool(np.all(gaps <= 0.25)) and sampled_fiedler < 1e-12
    report_line("gossip-efficiency", passed,
                f"max covariance gap {gaps.max():.4f} <= 0.25 with every sampled "
                f"topology disconnected")
    assert passed, gaps


def test_7_recursion_oracle_regimes():
    t0 = time.perf_counter()
    regimes_ok = True
    details = []
    for delta1, delta2 in ((0.0, 1.0), (0.2, 0.8)):
        start = time.perf_counter()
        slope = deterministic_recursion_oracle(delta1, delta2, 0.5, 1.0, horizon=10**6)
        elapsed = time.perf_counter() - start
        ok = (-slope >= 0.9 * (delta2 - delta1)) and elapsed < 1.0
        regimes_ok &= ok
        details.append(f"decay({delta1},{delta2})={-slope:.3f} in {elapsed:.2f}s")
    start = time.perf_counter()
    times, values = recursion_trace(0.5, 0.5, 0.5, 1.0, horizon=10**6)
    elapsed = time.perf_counter() - start
    late = values[times >= 10**5]
    bounded = float(late.max() / late.min())
    ok = bounded < 10.0 and elapsed < 1.0
    regimes_ok &= ok
    details.append(f"bounded regime ratio {bounded:.2f} in {elapsed:.2f}s")
    report_line("recursion-oracle", regimes_ok, "; ".join(details))
    assert regimes_ok, details
    assert time.perf_counter() - t0 < 5.0


def test_8_repeated_runs_are_byte_identical(tmp_path):
    doc = {
        "schema": "adle-scenario/1",
        "model": "example1",
        "topology": {"base": "example1", "law": "bernoulli", "p": 0.5},
        "horizon": 2_000,
        "num_trials": 16,
        "master_seed": 20260814,
        "cap_consensus_weight": True,
        "run_ks_test": True,
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["--config", str(path), "--out", str(out_a)])
    code_b = main(["--config", str(path), "--out", str(out_b)])
    names = sorted(p.name for p in out_a.iterdir())
    identical = code_a == code_b and names == sorted(p.name for p in out_b.iterdir()) and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    report_line("determinism", identical,
                f"{len(names)} output files byte-identical across reruns")
    assert identical
