"""The benchmark's workloads: the scenario each one runs, built from a seed.

Only the standard library is imported here, because the launcher reads
these definitions without loading numpy or adle.  Every scenario runs
with ``parallelism: 1``: the experiment stays in one process.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default ``--seed`` of every workload.
DEFAULT_SEED = 1

#: Step-size schedule written into every scenario; ``b`` is capped at
#: ``1 / max_degree`` by ``cap_consensus_weight``.
SCHEDULE = {"a": 1.0, "b": 1.0, "tau1": 1.0, "tau2": 0.2,
            "gamma0": 1.0, "tau_gamma": 0.75, "eps1": 6.0}

#: On-probability of every link under the Bernoulli law.
LINK_P = 0.5

#: Entries of the parameter vector; every agent observes a cyclic sum of three.
PARAM_DIM = 5

#: Offsets of the 50-agent circulant: node ``i`` links to ``i +- 1`` and ``i +- 7``.
#: Offset 7 alone would leave the network a slow-mixing ring (Fiedler value
#: 0.016); with it the mean Laplacian's Fiedler value is 0.37, so the method's
#: decay properties are visible within the horizon of one run.
CIRCULANT_OFFSETS = (1, 7)


@dataclass(frozen=True)
class Workload:
    name: str
    num_agents: int
    law: str
    num_trials: int
    horizon: int
    run_ks_test: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ring_bernoulli", 5, "bernoulli", 128, 4096, True,
                 "the paper's 5-agent ring with Bernoulli(0.5) links and the KS test: "
                 "gain solve and elementwise round dominate"),
        Workload("ring_gossip", 5, "gossip", 128, 4096, False,
                 "the same ring under single-edge gossip: a gathered Laplacian, "
                 "two agents move per step, one integer drawn per step"),
        Workload("ring50_bernoulli", 50, "bernoulli", 64, 1024, False,
                 "a 50-agent circulant with Bernoulli(0.5) links: the O(N^2) Laplacians, "
                 "consensus products and disagreement temporaries dominate"),
    )
}


def ring_sensing_rows(num_agents: int) -> list[list[float]]:
    """Agent ``n`` senses ``theta[n-1] + theta[n] + theta[n+1]`` (indices mod 5)."""
    rows = []
    for n in range(num_agents):
        row = [0.0] * PARAM_DIM
        for k in (n - 1, n, n + 1):
            row[k % PARAM_DIM] = 1.0
        rows.append(row)
    return rows


def base_edges(workload: Workload) -> list[tuple[int, int]]:
    """Undirected edges of the base graph, each written ``(min, max)``."""
    n = workload.num_agents
    offsets = (1,) if n == 5 else CIRCULANT_OFFSETS
    return sorted({tuple(sorted((i, (i + k) % n))) for k in offsets for i in range(n)})


def master_seed(seed: int, child: int) -> int:
    """Master seed of the ``child``-th workload process of a run."""
    return 1000 * seed + child


def scenario(workload: Workload, seed: int, child: int) -> dict:
    """The scenario mapping of one workload process.

    The 5-agent rings use the ``example1`` preset, as the demo scenarios
    do; the 50-agent circulant is written out as an explicit model.
    """
    if workload.num_agents == 5:
        model = "example1"
        base = "example1"
    else:
        model = {
            "sensing": [[row] for row in ring_sensing_rows(workload.num_agents)],
            "noise_cov": [[[1.0]]] * workload.num_agents,
            "true_param": [1.0] * PARAM_DIM,
        }
        base = [list(edge) for edge in base_edges(workload)]
    topology = {"base": base, "law": workload.law}
    if workload.law == "bernoulli":
        topology["p"] = LINK_P
    return {
        "schema": "adle-scenario/1",
        "model": model,
        "topology": topology,
        "schedule": dict(SCHEDULE),
        "cap_consensus_weight": True,
        "horizon": workload.horizon,
        "num_trials": workload.num_trials,
        "master_seed": master_seed(seed, child),
        "run_ks_test": workload.run_ks_test,
        "parallelism": 1,
    }
