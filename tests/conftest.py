import numpy as np
import pytest

from adle import _kernel
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


def make_random_sensing_model() -> ObservationModel:
    """Four agents and three parameters, with random (not 0 or 1) sensing
    entries, observation dimensions 2, 1, 2 and 1 and correlated noise, so
    that H' inv(Q + gamma I) H is symmetric only up to rounding."""
    rng = np.random.default_rng(20110301)
    dims = (2, 1, 2, 1)
    sensing = tuple(rng.normal(size=(d, 3)) for d in dims)
    noise_cov = tuple(a @ a.T + 0.5 * np.eye(d)
                      for a, d in ((rng.normal(size=(d, d)), d) for d in dims))
    return ObservationModel(sensing, noise_cov, np.array([0.5, -1.0, 2.0]))


#: The ``NetworkState`` arrays that carry a bank's trial axis.
STATE_FIELDS = ("estimates", "grammians", "obs_shifts", "obs_sums", "obs_outer_sums")


def state_arrays(state) -> list[np.ndarray]:
    """The trial-stacked arrays of a ``NetworkState``, in :data:`STATE_FIELDS` order."""
    return [getattr(state, name) for name in STATE_FIELDS]


def write_state(bound, arrays, step: int) -> None:
    """Write ``arrays``, in :data:`STATE_FIELDS` order, into a bound bank's
    state in place, and set its step."""
    for target, value in zip(state_arrays(bound.state), arrays):
        target[...] = value
    bound.state.step = step


def bind_bank(model, top, schedule, seeds, horizon, init=None, state=None, step=0, kernel=None):
    """A bank made by ``BankKernel.bind`` of ``kernel``, else of the loaded
    library, at step ``step``: at its initial state, or with the arrays of
    ``state`` written into it (:func:`write_state`)."""
    bound = (kernel or _kernel.load()).bind(model, top, schedule, seeds, horizon, init)
    write_state(bound, () if state is None else state, step)
    return bound


def stream_states(states) -> list[tuple[int, ...]]:
    """Each stream's PCG64 state and increment, and its carried half-word's
    flag and value, of a bank's states (``BoundBank._arrays["streams"]`` or
    ``["link_streams"]``)."""
    rows = [bytes(row) for row in states]
    return [(int.from_bytes(row[:16], "little"), int.from_bytes(row[16:32], "little"),
             *np.frombuffer(row[32:40], np.uint32).tolist()) for row in rows]


def numpy_states(generators) -> list[tuple[int, ...]]:
    """:func:`stream_states` of numpy generators."""
    return [(state["state"]["state"], state["state"]["inc"], state["has_uint32"],
             state["uinteger"]) for state in (rng.bit_generator.state for rng in generators)]
