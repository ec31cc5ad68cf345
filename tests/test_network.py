import ast
from pathlib import Path

import numpy as np
import pytest

import adle
from adle.errors import NotMeanConnected
from adle.network import (
    Graph,
    TopologyModel,
    complete_graph,
    cycle_graph,
    fiedler_value,
    laplacian_of,
    mean_laplacian,
    path_graph,
    sample_laplacian,
    validate_mean_connectivity,
)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 5),))


def test_laplacian_empty_graph_is_zero():
    assert np.array_equal(laplacian_of(Graph(4, ())), np.zeros((4, 4)))


def test_laplacian_path_three_nodes():
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian_of(path_graph(3)), expected)


def test_laplacian_pentagon_with_chords():
    # pentagon plus the chords (0,2) and (1,3): degrees and row sums must
    # follow directly from the definition L = D - A
    graph = Graph(5, tuple(cycle_graph(5).edges) + ((0, 2), (1, 3)))
    lap = laplacian_of(graph)
    assert np.array_equal(np.diag(lap), graph.degrees().astype(float))
    assert np.array_equal(lap.sum(axis=1), np.zeros(5))
    assert np.array_equal(lap, lap.T)
    off_diag = lap[~np.eye(5, dtype=bool)]
    assert set(np.unique(off_diag)) <= {0.0, -1.0}


@pytest.mark.parametrize("n", [3, 5, 8])
def test_fiedler_complete_graph(n):
    # known spectrum {0, n, ..., n}; oracle is the symmetric eigensolver
    assert fiedler_value(laplacian_of(complete_graph(n))) == pytest.approx(n, abs=1e-9)


def test_fiedler_disconnected_pair_of_edges():
    lap = laplacian_of(Graph(4, ((0, 1), (2, 3))))
    assert fiedler_value(lap) == pytest.approx(0.0, abs=1e-12)


def test_fiedler_path_three():
    # spectrum of the 3-path Laplacian is {0, 1, 3}
    assert fiedler_value(laplacian_of(path_graph(3))) == pytest.approx(1.0, abs=1e-9)


def test_fiedler_single_node_is_infinite():
    assert fiedler_value(np.zeros((1, 1))) == np.inf


def test_mean_laplacian_bernoulli_sure_links(pentagon):
    top = TopologyModel(pentagon, "bernoulli", 1.0)
    assert np.array_equal(mean_laplacian(top), laplacian_of(pentagon))


def test_mean_laplacian_bernoulli_scales_base():
    top = TopologyModel(path_graph(3), "bernoulli", 0.5)
    assert np.allclose(mean_laplacian(top), 0.5 * laplacian_of(path_graph(3)), atol=1e-15)


def test_mean_laplacian_gossip_triangle_exact_and_empirical():
    top = TopologyModel(cycle_graph(3), "gossip")
    exact = sum(top.edge_laplacians) / 3.0
    assert np.allclose(mean_laplacian(top), exact, atol=1e-15)
    assert np.allclose(np.diag(mean_laplacian(top)), 2.0 / 3.0)

    rng = np.random.default_rng(3)
    total = np.zeros((3, 3))
    draws = 100_000
    for _ in range(draws):
        total += sample_laplacian(top, rng)
    assert np.max(np.abs(total / draws - exact)) < 0.01


def test_mean_connectivity_gossip_despite_disconnected_samples(pentagon):
    top = TopologyModel(pentagon, "gossip")
    assert validate_mean_connectivity(top) > 0.0
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert fiedler_value(sample_laplacian(top, rng)) == pytest.approx(0.0, abs=1e-12)


def test_mean_connectivity_rejects_disconnected_base():
    top = TopologyModel(Graph(4, ((0, 1), (2, 3))), "bernoulli", 0.3)
    with pytest.raises(NotMeanConnected):
        validate_mean_connectivity(top)


def test_mean_connectivity_bernoulli_path_three():
    # lambda_2 scales linearly with the on-probability
    top = TopologyModel(path_graph(3), "bernoulli", 0.5)
    assert validate_mean_connectivity(top) == pytest.approx(0.5, abs=1e-9)


def test_sample_static_always_base(pentagon):
    top = TopologyModel(pentagon, "static")
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert np.array_equal(sample_laplacian(top, rng), laplacian_of(pentagon))


def test_sample_bernoulli_edge_frequencies(pentagon):
    p = 0.37
    top = TopologyModel(pentagon, "bernoulli", p)
    rng = np.random.default_rng(5)
    draws = 100_000
    active = np.zeros(pentagon.num_edges)
    for _ in range(draws):
        lap = sample_laplacian(top, rng)
        for k, (i, j) in enumerate(pentagon.edges):
            active[k] -= lap[i, j]
    assert np.max(np.abs(active / draws - p)) < 0.01


def test_sample_gossip_exactly_one_edge(pentagon):
    top = TopologyModel(pentagon, "gossip")
    rng = np.random.default_rng(2)
    for _ in range(500):
        lap = sample_laplacian(top, rng)
        assert lap.trace() == pytest.approx(2.0)
        assert np.sum(lap != 0.0) == 4


def test_sampled_laplacians_satisfy_invariants(pentagon):
    rng = np.random.default_rng(11)
    top = TopologyModel(pentagon, "bernoulli", 0.6)
    for _ in range(10_000):
        lap = sample_laplacian(top, rng)
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(lap.sum(axis=1), np.zeros(5))
        off = lap[~np.eye(5, dtype=bool)]
        assert np.all((off == 0.0) | (off == -1.0))
        assert np.all(np.diag(lap) >= 0.0)


def test_empirical_mean_matches_mean_laplacian_within_four_sigma(pentagon):
    p = 0.5
    top = TopologyModel(pentagon, "bernoulli", p)
    rng = np.random.default_rng(17)
    draws = 20_000
    total = np.zeros((5, 5))
    for _ in range(draws):
        total += sample_laplacian(top, rng)
    # each off-diagonal entry is a Bernoulli(p) mean; diagonal sums two of them
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.max(np.abs(total / draws - mean_laplacian(top))) < 4 * sigma * 2


def test_jensen_direction_for_fiedler_value(pentagon):
    top = TopologyModel(pentagon, "bernoulli", 0.5)
    rng = np.random.default_rng(23)
    sampled = [fiedler_value(sample_laplacian(top, rng)) for _ in range(2000)]
    tol = 4 * np.std(sampled) / np.sqrt(len(sampled))
    assert fiedler_value(mean_laplacian(top)) >= np.mean(sampled) - tol


def test_the_link_law_is_read_in_network_only():
    # the harness, the kernel's loader and the CLI see only TopologyModel's kernel_links
    def reads_law(path):
        return any(isinstance(node, ast.Attribute) and node.attr == "law"
                   for node in ast.walk(ast.parse(path.read_text())))

    package = Path(adle.__file__).parent
    assert reads_law(package / "network.py")
    assert [path.name for path in sorted(package.glob("*.py"))
            if path.name != "network.py" and reads_law(path)] == []


def test_generators_are_drawn_from_in_the_public_helpers_only():
    # a run draws from a bank of Streams by adle's own names; a numpy Generator's
    # are called only where the public helpers draw from the caller's generator
    names = {"random", "integers", "standard_normal"}

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope, self.found = module, ["<module>"], []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Attribute) and node.func.attr in names:
                self.found.append((self.module, self.scope[-1], node.func.attr))
            self.generic_visit(node)

    found = []
    for path in sorted(Path(adle.__file__).parent.glob("*.py")):
        calls = Calls(path.name)
        calls.visit(ast.parse(path.read_text()))
        found += calls.found
    assert sorted(found) == [("model.py", "_unit_variance_draws", "standard_normal"),
                             ("network.py", "draw_active", "integers"),
                             ("network.py", "draw_active", "random")]
