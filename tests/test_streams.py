"""The trials' random streams (``_kernel.Streams``) against numpy's own
``SeedSequence`` and ``default_rng``: the same seed words, the same states
and the same draws, which the kernel makes; and the public helpers, which
draw from a numpy ``Generator`` directly, against that generator read by hand."""

import json
import re

import numpy as np
import pytest

from adle import _kernel
from adle.harness import BLOCK_STEPS, trajectory
from adle.model import ObservationModel, sample_observation
from adle.network import (
    Graph,
    TopologyModel,
    complete_graph,
    cycle_graph,
    laplacian_of,
    path_graph,
    sample_laplacian,
)
from adle.schedule import WeightSchedule
from conftest import make_ragged_model, numpy_states, stream_states
from reference import check_block_ends

SEED_PARTS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**33]


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


def test_a_seed_of_no_ints_is_refused_by_name():
    # not "'float' object is not iterable" from inside the seeding
    for seed in (1.5, (3, 2.0), "7", [4, [None]]):
        with pytest.raises(TypeError, match=re.escape(
                "a seed must be a non-negative int, a sequence of them or a SeedSequence, "
                f"got {seed!r}")):
            _kernel.Streams([0, seed])


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


def _scalar_model(agents: int) -> ObservationModel:
    """``agents`` agents, each observing the scalar parameter with unit noise."""
    return ObservationModel((np.ones((1, 1)),) * agents, (np.eye(1),) * agents, np.zeros(1))


def _seeds(start=0):
    return [np.random.SeedSequence((41, start + k)) for k in range(3)]


def test_bernoulli_masks_across_the_block_jump():
    # at a block's start each trial's link stream takes its stream's state, from
    # which the kernel draws the block's masks, while the stream jumps the S * E
    # uniforms they take: at the end of a full block and of a short last one, in
    # segments of 1 and 37 steps, both stand where numpy's whole-block draws of
    # the masks and the noise leave its generators
    top = TopologyModel(cycle_graph(7), "bernoulli", 0.3)
    check_block_ends(_scalar_model(7), top, _seeds(), BLOCK_STEPS + 50)


def test_gossip_picks_carry_the_half_word_past_the_noise():
    # each pick draws a half-word: the stream skips a full block's picks, then
    # 37 of them, whose last carries one past the block's noise, which draws
    # whole words, as numpy's does; the link stream ends carrying it too
    top = TopologyModel(cycle_graph(5), "gossip")
    (_, streams, links), = check_block_ends(_scalar_model(5), top, _seeds(), BLOCK_STEPS + 37)[1:]
    assert [state[2] for state in streams + links] == [1] * 6
    # skips of other edge counts, in a short first block
    for high, graph in ((2, path_graph(3)), (300, complete_graph(25))):
        assert graph.num_edges == high
        top = TopologyModel(graph, "gossip")
        check_block_ends(_scalar_model(graph.num_nodes), top, _seeds(high), 7)


@pytest.mark.parametrize("law", ["bernoulli", "gossip"])
def test_a_one_edge_graph(law):
    # one edge: gossip picks it every step without drawing, so its link
    # streams stay where the streams were at the block's start
    top = TopologyModel(Graph(2, ((0, 1),)), law, 0.5)
    (_, _, links), = check_block_ends(_scalar_model(2), top, _seeds(), 40)
    fresh = numpy_states([np.random.default_rng(seed) for seed in _seeds()])
    assert (links == fresh) == (law == "gossip")


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
