"""Communication graphs, random link-failure laws, and spectral checks.

Graphs are simple and undirected.  A topology model pairs a base graph
with a link law describing which edges are active at each step; the
three supported laws are

* ``static`` -- every base edge is active at every step,
* ``bernoulli`` -- each base edge is independently active with
  probability ``p``,
* ``gossip`` -- exactly one base edge, chosen uniformly, is active.

The law is read here only: :attr:`TopologyModel.kernel_links` tells the
compiled kernel what to draw at each step for a trial's links, from the
link stream that takes the trial's stream's state at each block's start,
and :meth:`TopologyModel.draw_active` turns one numpy ``Generator`` into
the same active-edge masks for :func:`sample_laplacian`.

The quantity that matters for convergence is not per-step connectivity
but the algebraic connectivity (Fiedler value) of the *mean* Laplacian:
under the gossip law no single sample is connected for more than two
nodes, yet the mean Laplacian can still have a spectral gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotMeanConnected

LINK_LAWS = ("static", "bernoulli", "gossip")

#: Mean Laplacians with a Fiedler value at or below this are rejected.
CONNECTIVITY_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``0..num_nodes-1``."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("graph needs at least one node")
        canonical = []
        for edge in self.edges:
            n, l = int(edge[0]), int(edge[1])
            if n == l:
                raise ValueError(f"self-loop ({n},{l}) is not allowed")
            if not (0 <= n < self.num_nodes and 0 <= l < self.num_nodes):
                raise ValueError(f"edge ({n},{l}) out of range for {self.num_nodes} nodes")
            canonical.append((min(n, l), max(n, l)))
        if len(set(canonical)) != len(canonical):
            raise ValueError("duplicate edges are not allowed")
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(np.array(self.edges, dtype=int).ravel(), minlength=self.num_nodes)


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` nodes (a pentagon for ``n=5``)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> Graph:
    """All pairs connected."""
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def laplacian_of(graph: Graph) -> np.ndarray:
    """Graph Laplacian ``L = D - A`` as a dense float array."""
    lap = np.diag(graph.degrees().astype(float))
    for n, l in graph.edges:
        lap[n, l] = lap[l, n] = -1.0
    return lap


def fiedler_value(lap: np.ndarray) -> float:
    """Second-smallest eigenvalue of a Laplacian; positive iff connected.

    A single-node network has no disagreement modes at all, so its
    algebraic connectivity is reported as ``inf``.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.shape[0] == 1:
        return math.inf
    eigenvalues = np.linalg.eigvalsh(lap)
    return float(eigenvalues[1])


@dataclass(frozen=True)
class TopologyModel:
    """A base graph together with a random link-activation law."""

    base: Graph
    law: str = "static"
    p: float = 1.0

    def __post_init__(self):
        if self.law not in LINK_LAWS:
            raise ValueError(f"unknown link law {self.law!r}; expected one of {LINK_LAWS}")
        if self.law == "bernoulli" and not (0.0 < self.p <= 1.0):
            raise ValueError(f"bernoulli on-probability must be in (0, 1], got {self.p}")
        if self.law == "gossip" and self.base.num_edges < 1:
            raise ValueError("gossip law needs a base graph with at least one edge")

    @cached_property
    def base_laplacian(self) -> np.ndarray:
        lap = laplacian_of(self.base)
        lap.setflags(write=False)
        return lap

    @cached_property
    def edge_laplacians(self) -> np.ndarray:
        """Stack of single-edge Laplacians, one per base edge, shape (E, N, N)."""
        n = self.base.num_nodes
        stack = np.zeros((self.base.num_edges, n, n))
        for k, (i, j) in enumerate(self.base.edges):
            stack[k, i, i] = stack[k, j, j] = 1.0
            stack[k, i, j] = stack[k, j, i] = -1.0
        stack.setflags(write=False)
        return stack

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The base edges as a read-only int64 array, shape (E, 2)."""
        edges = np.array(self.base.edges, dtype=np.int64).reshape(-1, 2)
        edges.setflags(write=False)
        return edges

    @property
    def draws_links(self) -> bool:
        """Whether the law draws links at all; the ``static`` law does not."""
        return self.law != "static"

    @property
    def kernel_links(self) -> int:
        """What the compiled kernel draws of each trial's links at each step
        (``links`` of its ``struct adle_bank``): 0, nothing, and no block
        starts; 1, a uniform per edge, the edge on below ``p``; 2, one of
        the E edges.  At a block's start the kernel moves the trial's
        stream past the block's links: it jumps the Bernoulli uniforms, and
        draws and drops the gossip picks, which read a varying count of
        outputs."""
        return {"static": 0, "bernoulli": 1, "gossip": 2}[self.law]

    def draw_active(self, rng, steps: int) -> np.ndarray | None:
        """Active-edge masks of ``steps`` i.i.d. link draws from ``rng``, a
        numpy ``Generator``, bool (steps, E): the links that the kernel draws
        from a trial's link stream, a block's from its start.  ``None``
        under the ``static`` law, which draws nothing."""
        if not self.draws_links:
            return None
        edges = self.base.num_edges
        if self.law == "gossip":
            return np.arange(edges) == rng.integers(0, edges, steps)[:, None]
        return rng.random((steps, edges)) < self.p

    def laplacians(self, active: np.ndarray | None) -> np.ndarray:
        """Laplacians of active-edge masks, (..., E) to (..., N, N); ``None``
        (every edge active) gives the shared, read-only base Laplacian."""
        if active is None:
            return self.base_laplacian
        n = self.base.num_nodes
        flat = self.edge_laplacians.reshape(self.base.num_edges, n * n)
        return (active.astype(float) @ flat).reshape(*active.shape[:-1], n, n)


def mean_laplacian(top: TopologyModel) -> np.ndarray:
    """Exact expectation of the sampled Laplacian under the link law."""
    if top.law == "static":
        return np.array(top.base_laplacian)
    if top.law == "bernoulli":
        return top.p * top.base_laplacian
    # gossip: each of the E single-edge Laplacians occurs with probability 1/E
    return np.array(top.base_laplacian) / top.base.num_edges


def validate_mean_connectivity(top: TopologyModel) -> float:
    """Return the Fiedler value of the mean Laplacian, rejecting if it vanishes."""
    value = fiedler_value(mean_laplacian(top))
    if value <= CONNECTIVITY_TOL:
        raise NotMeanConnected(value)
    return value


def sample_laplacian(top: TopologyModel, rng) -> np.ndarray:
    """One i.i.d. draw of the communication Laplacian, from a one-step
    :meth:`TopologyModel.draw_active` mask of ``rng``, a numpy ``Generator``.
    Under the ``static`` law it is the read-only base Laplacian (cached
    storage); copy before mutating.
    """
    active = top.draw_active(rng, 1)
    return top.laplacians(None if active is None else active[0])
