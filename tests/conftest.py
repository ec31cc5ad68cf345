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


def stream_states(states) -> list[tuple[int, ...]]:
    """Each stream's PCG64 state and increment, and its carried half-word's
    flag and value, of a bank's states (``_kernel.Streams._states``)."""
    rows = [bytes(row) for row in states]
    return [(int.from_bytes(row[:16], "little"), int.from_bytes(row[16:32], "little"),
             *np.frombuffer(row[32:40], np.uint32).tolist()) for row in rows]


def numpy_states(generators) -> list[tuple[int, ...]]:
    """:func:`stream_states` of numpy generators."""
    return [(state["state"]["state"], state["state"]["inc"], state["has_uint32"],
             state["uinteger"]) for state in (rng.bit_generator.state for rng in generators)]
