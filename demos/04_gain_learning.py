"""Watching the innovation gains being learned online.

No agent knows any noise covariance.  Each keeps a running sample
covariance of its own observations and a consensus-learned estimate of
the network Grammian; together they produce gains that converge to the
optimal fusion weights a centralized designer would have chosen.
"""

import numpy as np

from adle.cli import example1_graph, example1_model
from adle.harness import run_trial, trajectory
from adle.model import validate_observation_model
from adle.network import TopologyModel
from adle.schedule import WeightSchedule

model = example1_model()
summary = validate_observation_model(model)
top = TopologyModel(example1_graph(), "bernoulli", 0.5)
schedule = WeightSchedule(b=0.5)

optimal_norm = max(np.linalg.norm(k) for k in summary.optimal_gains)
print(f"largest optimal gain norm: {optimal_norm:.3f}")
print(f"{'step':>7} {'max err':>9} {'disagree':>9} {'gain gap':>9} {'grammian gap':>13}")

marks = np.array([10, 100, 1_000, 10_000, 50_000])
horizon = int(marks[-1])
metrics = run_trial(model, top, schedule, horizon, marks, seed=3)
for c, t in enumerate(marks):
    print(f"{t:>7} {metrics.error_norms[c].max():>9.4f} {metrics.disagreement[c]:>9.5f} "
          f"{metrics.gain_gap[c]:>9.4f} {metrics.grammian_gap[c]:>13.4f}")

# the same trial again, keeping its final state: agent 0's gain
# K = inv(G + gamma I) H' inv(Q + gamma I) at the horizon
(_, state), = trajectory(model, top, schedule, horizon, [horizon], [3])
gamma = float(schedule.gamma(horizon))
h, g, q = model.sensing[0], state.grammians[0, 0], state.sample_covariances()[0][0]
m, d = h.shape[1], h.shape[0]
learned = (np.linalg.inv(g + gamma * np.eye(m)) @ h.T @ np.linalg.inv(q + gamma * np.eye(d)))[:, 0]
print("\nlearned gain of agent 0: ", np.round(learned, 3))
print("optimal gain of agent 0: ", np.round(summary.optimal_gains[0][:, 0], 3))
