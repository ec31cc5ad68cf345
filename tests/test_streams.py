"""The trials' random streams (``_kernel.Streams``) against numpy's own
``SeedSequence`` and ``default_rng``: the same seed words, the same states
and the same draws, which the kernel makes; and the public helpers, which
draw from a numpy ``Generator`` directly, against that generator read by hand."""

import json

import numpy as np
import pytest

from adle import _kernel
from adle.harness import BLOCK_STEPS, trajectory
from adle.model import ObservationModel, sample_observation
from adle.network import (
    Graph,
    TopologyModel,
    cycle_graph,
    laplacian_of,
    path_graph,
    sample_laplacian,
)
from adle.schedule import WeightSchedule
from conftest import make_ragged_model, numpy_states, stream_states

SEED_PARTS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**33]


def _pairs(count=3, start=0):
    """A bank of ``count`` streams and the numpy generators of the same seeds."""
    seeds = [np.random.SeedSequence((41, start + k)) for k in range(count)]
    return _kernel.Streams(seeds), [np.random.default_rng(seed) for seed in seeds]


@pytest.mark.parametrize("first", SEED_PARTS)
def test_seed_words_are_the_seed_sequence_state(first):
    for second in SEED_PARTS:
        expected = np.random.SeedSequence((first, second)).generate_state(4, np.uint64)
        assert _kernel._seed_words((first, second)) == expected.tolist(), (first, second)


def test_seeds_are_entropy_or_seed_sequences():
    # ints, nested and long sequences (entropy beyond the pool of four words),
    # and objects with generate_state, which seed from their own words
    seeds = [7, [1, [2, 3]], list(range(9)), 2**100 + 5,
             np.random.SeedSequence(5, spawn_key=(2,))]
    streams = _kernel.Streams(seeds)
    assert stream_states(streams._states) == numpy_states(
        [np.random.default_rng(seed) for seed in seeds])
    with pytest.raises(ValueError, match="non-negative"):
        _kernel.Streams([(1, -2)])


def test_an_empty_bank_is_refused_by_name():
    # not numpy's "cannot reshape array of size 0" from the state allocation
    for seeds in ([], (), range(0)):
        with pytest.raises(ValueError, match="^a bank of streams needs at least one seed$"):
            _kernel.Streams(seeds)


@pytest.mark.parametrize("family", ["normal", "laplace"])
def test_the_kernels_noise_is_numpys_draws(family):
    # a zero truth and identity noise factors make each trial's first
    # observation, its moments' shift, its stream's first n * max_dim draws bit
    # for bit, in a bank whose last lane group is partial; the padded
    # coordinate of a ragged agent draws too, and observes zero
    noise = "gaussian" if family == "normal" else "laplace"
    seeds = [np.random.SeedSequence((43, k)) for k in range(7)]
    for sensing in ((np.eye(2),) * 3, make_ragged_model().sensing):
        dims = [len(h) for h in sensing]
        model = ObservationModel(sensing, tuple(np.eye(d) for d in dims), np.zeros(2), noise)
        _, state = next(trajectory(model, TopologyModel(path_graph(3)), WeightSchedule(), 1,
                                   [1], seeds))
        for shifts, seed in zip(state.obs_shifts, seeds):
            rng = np.random.default_rng(seed)
            draws = (rng.standard_normal(6) if noise == "gaussian"
                     else rng.laplace(0.0, 2.0**-0.5, 6)).reshape(3, 2)
            expected = np.where(np.arange(2) < np.array(dims)[:, None], draws, 0.0)
            assert shifts.tobytes() == expected.tobytes()


def test_bernoulli_masks_across_the_block_jump():
    # a copy of the bank takes its states, from which the kernel draws the
    # block's masks, while the bank jumps the S * E uniforms they take
    top = TopologyModel(cycle_graph(7), "bernoulli", 0.3)
    streams, generators = _pairs()
    links = _kernel.Streams([0] * 3)
    for steps in (BLOCK_STEPS, 50):
        start = numpy_states(generators)
        top.link_draws(streams, links, steps)
        for rng in generators:
            rng.random((steps, 7))
        assert stream_states(links._states) == start
        assert stream_states(streams._states) == numpy_states(generators)


def test_gossip_picks_carry_the_half_word_until_an_advance():
    # each pick draws a half-word: the bank skips a block's picks, 37 of them
    # carrying one into the next block's, and 37 + 1024 one into the advance,
    # which drops it, as numpy's does; the copy starts where the bank did
    top = TopologyModel(cycle_graph(5), "gossip")
    streams, generators = _pairs()
    links = _kernel.Streams([0] * 3)
    for steps in (37, BLOCK_STEPS):
        start = numpy_states(generators)
        top.link_draws(streams, links, steps)
        for rng in generators:
            rng.integers(0, 5, size=steps)
        assert stream_states(links._states) == start
        assert stream_states(streams._states) == numpy_states(generators)
    assert stream_states(streams._states)[0][2] == 1  # 37 + 1024 half-words: one carried
    streams.advance(3)
    for rng in generators:
        rng.bit_generator.advance(3)
    assert stream_states(streams._states) == numpy_states(generators)
    # skips of other edge counts
    for high in (2, 300):
        streams, generators = _pairs(start=high)
        streams.skip_picks(high, 7)
        for rng in generators:
            rng.integers(0, high, 7)
        assert stream_states(streams._states) == numpy_states(generators)


@pytest.mark.parametrize("law", ["bernoulli", "gossip"])
def test_a_one_edge_graph(law):
    # one edge: gossip picks it every step without drawing
    top = TopologyModel(Graph(2, ((0, 1),)), law, 0.5)
    streams, generators = _pairs()
    links = streams.copy()
    top.link_draws(streams, links, 40)
    for rng in generators:
        top.draw_active(rng, 40)
    assert stream_states(streams._states) == numpy_states(generators)
    if law == "gossip":
        assert stream_states(streams._states) == stream_states(links._states)


# ----------------------------------------------------------------- public helpers


def _twins(seed: int):
    """Pairs of equal numpy generators: a PCG64 one that carries a half-word,
    after an odd count of small ``integers`` draws, and an MT19937 one."""
    pairs = []
    for make in (np.random.PCG64, np.random.MT19937):
        rng, hand = np.random.Generator(make(seed)), np.random.Generator(make(seed))
        if make is np.random.PCG64:
            rng.integers(0, 7, 3)
            hand.integers(0, 7, 3)
            assert rng.bit_generator.state["has_uint32"] == 1
        pairs.append((rng, hand))
    return pairs


def _same_state(rng, hand):
    def text(state):
        return json.dumps(state, default=lambda array: array.tolist())

    assert text(rng.bit_generator.state) == text(hand.bit_generator.state)


TOPOLOGIES = [TopologyModel(graph, law, 0.4) for graph in (cycle_graph(5), Graph(2, ((0, 1),)))
              for law in ("static", "bernoulli", "gossip")]


@pytest.mark.parametrize("top", TOPOLOGIES, ids=lambda top: f"{top.law}-{top.base.num_edges}")
def test_link_helpers_are_the_generators_draws_read_by_hand(top):
    edges, n = top.base.edges, top.base.num_nodes
    for seed in range(4):
        for rng, hand in _twins(seed):
            for steps in (1, 37):  # one uniform or pick per edge or step, read singly
                if top.law == "static":
                    expected = None
                elif top.law == "bernoulli":
                    expected = [[hand.random() < top.p for _ in edges] for _ in range(steps)]
                else:
                    picks = [hand.integers(len(edges)) for _ in range(steps)]
                    expected = [[k == pick for k in range(len(edges))] for pick in picks]
                active = top.draw_active(rng, steps)
                assert (active is None) if expected is None else active.tolist() == expected
                _same_state(rng, hand)
            for _ in range(3):
                if top.law == "static":
                    sampled = edges
                elif top.law == "bernoulli":
                    sampled = tuple(e for e in edges if hand.random() < top.p)
                else:
                    sampled = (edges[hand.integers(len(edges))],)
                assert np.array_equal(sample_laplacian(top, rng), laplacian_of(Graph(n, sampled)))
                _same_state(rng, hand)


@pytest.mark.parametrize("family", ["gaussian", "laplace"])
def test_sample_observation_is_the_generators_draws_read_by_hand(family):
    model = make_ragged_model(family)
    for seed in range(4):
        for rng, hand in _twins(seed):
            for agent, (h, factor) in enumerate(zip(model.sensing, model._noise_factors)):
                draws = [hand.standard_normal() if family == "gaussian"
                         else hand.laplace(0.0, 2.0**-0.5) for _ in range(h.shape[0])]
                expected = h @ model.true_param + factor @ np.array(draws)
                assert sample_observation(model, agent, rng).tobytes() == expected.tobytes()
                _same_state(rng, hand)
