import numpy as np
import pytest

from adle.cli import example1_graph, example1_model
from adle.model import ObservationModel
from adle.network import TopologyModel
from adle.schedule import WeightSchedule


@pytest.fixture(scope="session")
def ring_model():
    """Five agents, each observing a noisy cyclic three-entry sum."""
    return example1_model()


@pytest.fixture(scope="session")
def pentagon():
    return example1_graph()


@pytest.fixture(scope="session")
def ring_schedule():
    """Default weights with the consensus weight capped at 1/max_degree."""
    return WeightSchedule(b=0.5)


@pytest.fixture(scope="session")
def bernoulli_pentagon(pentagon):
    return TopologyModel(pentagon, "bernoulli", 0.5)


def make_noiseless_ring() -> ObservationModel:
    """The ring observation pattern with exactly zero observation noise."""
    sensing = []
    noise_cov = []
    for n in range(5):
        row = np.zeros((1, 5))
        row[0, (n - 1) % 5] = row[0, n] = row[0, (n + 1) % 5] = 1.0
        sensing.append(row)
        noise_cov.append(np.zeros((1, 1)))
    return ObservationModel(tuple(sensing), tuple(noise_cov), np.ones(5))


def make_ragged_model(noise: str = "gaussian") -> ObservationModel:
    """Three agents with observation dimensions 2, 1 and 1 (padded to 2)."""
    sensing = (np.eye(2), np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]))
    noise_cov = (np.array([[1.0, 0.3], [0.3, 2.0]]), np.eye(1), np.array([[0.5]]))
    return ObservationModel(sensing, noise_cov, np.array([1.0, -2.0]), noise=noise)
