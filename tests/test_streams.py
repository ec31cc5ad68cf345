"""The trials' random streams (``_kernel.Streams``) against numpy's own
``SeedSequence`` and ``default_rng``: the same seed words, the same draws,
and the same next draw after them; and the public helpers, which draw
from a numpy ``Generator`` directly, against that generator read by hand."""

import json

import numpy as np
import pytest

from adle import _kernel
from adle.harness import BLOCK_STEPS
from adle.model import sample_observation
from adle.network import Graph, TopologyModel, cycle_graph, laplacian_of, sample_laplacian
from conftest import make_ragged_model

SEED_PARTS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**33]


def _pairs(count=3, start=0):
    """A bank of ``count`` streams and the numpy generators of the same seeds."""
    seeds = [np.random.SeedSequence((41, start + k)) for k in range(count)]
    return _kernel.Streams(seeds), [np.random.default_rng(seed) for seed in seeds]


def _same_next_draw(streams, generators):
    assert streams.normals(np.empty((len(streams), 2))).tolist() == [
        rng.standard_normal(2).tolist() for rng in generators]


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
    assert streams.normals(np.empty((5, 4))).tolist() == [
        np.random.default_rng(seed).standard_normal(4).tolist() for seed in seeds]
    with pytest.raises(ValueError, match="non-negative"):
        _kernel.Streams([(1, -2)])


def test_an_empty_bank_is_refused_by_name():
    # not numpy's "cannot reshape array of size 0" from the state allocation
    for seeds in ([], (), range(0)):
        with pytest.raises(ValueError, match="^a bank of streams needs at least one seed$"):
            _kernel.Streams(seeds)


@pytest.mark.parametrize("family", ["normal", "laplace"])
def test_noise_windows_are_numpy_draws(family):
    # windows of 1 and 37 steps and a whole block, into the rows of a wider buffer
    streams, generators = _pairs()
    shape = (5, 2)
    buffer = np.empty((3, BLOCK_STEPS + 3, *shape))
    for steps in (1, 37, BLOCK_STEPS):
        out = buffer[:, :steps]
        if family == "normal":
            assert streams.normals(out) is out
            expected = [rng.standard_normal((steps, *shape)) for rng in generators]
        else:
            assert streams.laplace(2.0**-0.5, out) is out
            expected = [rng.laplace(0.0, 2.0**-0.5, (steps, *shape)) for rng in generators]
        assert out.tobytes() == np.stack(expected).tobytes()
        _same_next_draw(streams, generators)


def test_bernoulli_masks_across_the_block_jump():
    # a copy of the bank draws the block's masks a window at a time while the
    # bank jumps the S * E uniforms they take
    top = TopologyModel(cycle_graph(7), "bernoulli", 0.3)
    streams, generators = _pairs()
    for steps in (BLOCK_STEPS, 50):
        fill = top.link_draws(streams, steps)
        masks = np.empty((3, steps, 7), bool)
        for w0 in range(0, steps, 37):
            fill(masks[:, w0:w0 + 37])
        assert np.array_equal(masks, [rng.random((steps, 7)) < 0.3 for rng in generators])
        _same_next_draw(streams, generators)


def _states(streams) -> list[tuple[int, ...]]:
    """Each stream's PCG64 state and increment, and its carried half-word's flag and value."""
    rows = [bytes(row) for row in streams._states]
    return [(int.from_bytes(row[:16], "little"), int.from_bytes(row[16:32], "little"),
             *np.frombuffer(row[32:40], np.uint32).tolist()) for row in rows]


def _numpy_states(generators) -> list[tuple[int, ...]]:
    """:func:`_states` of numpy generators."""
    return [(state["state"]["state"], state["state"]["inc"], state["has_uint32"],
             state["uinteger"]) for state in (rng.bit_generator.state for rng in generators)]


def test_gossip_picks_carry_the_half_word_until_an_advance():
    # each pick draws a half-word: the bank skips a block's picks, 37 of them
    # carrying one into the next block's, and 37 + 1024 one into the advance,
    # which drops it, as numpy's does; a copy draws them again, 1 and 37 steps
    # at a time
    top = TopologyModel(cycle_graph(5), "gossip")
    streams, generators = _pairs()
    for steps, window in ((37, 1), (BLOCK_STEPS, 37)):
        masks = np.empty((3, steps, 5), bool)
        fill = top.link_draws(streams, steps)
        for w0 in range(0, steps, window):
            fill(masks[:, w0:w0 + window])
        picks = [rng.integers(0, 5, size=steps) for rng in generators]
        assert np.array_equal(masks.argmax(axis=-1), picks)
        assert masks.sum(axis=-1).tolist() == [[1] * steps] * 3
        assert _states(streams) == _numpy_states(generators)
    assert _states(streams)[0][2] == 1  # 37 + 1024 half-words: one carried
    streams.advance(3)
    for rng in generators:
        rng.bit_generator.advance(3)
    assert _states(streams) == _numpy_states(generators)
    assert streams.picks(5, np.empty((3, 3, 5), bool)).argmax(axis=-1).tolist() == [
        rng.integers(0, 5, 3).tolist() for rng in generators]
    _same_next_draw(streams, generators)
    # picks of other edge counts, and their skips
    for high in (2, 300):
        streams, generators = _pairs(start=high)
        twin = streams.copy()
        assert twin.picks(high, np.empty((3, 7, high), bool)).argmax(axis=-1).tolist() == [
            rng.integers(0, high, 7).tolist() for rng in generators]
        streams.skip_picks(high, 7)
        assert _states(streams) == _states(twin) == _numpy_states(generators)
        _same_next_draw(streams, generators)


@pytest.mark.parametrize("law", ["bernoulli", "gossip"])
def test_a_one_edge_graph(law):
    # one edge: gossip picks it every step without drawing
    top = TopologyModel(Graph(2, ((0, 1),)), law, 0.5)
    streams, generators = _pairs()
    masks = np.empty((3, 40, 1), bool)
    top.link_draws(streams, 40)(masks)
    assert np.array_equal(masks, [top.draw_active(rng, 40) for rng in generators])
    _same_next_draw(streams, generators)


def test_draws_refuse_an_out_that_is_not_one_row_per_stream():
    streams = _kernel.Streams([1, 2])
    for out, message in [(np.empty((3, 4)), "2 rows"), (np.empty(2), "2 rows"),
                         (np.empty((2, 4), np.float32), "float64"),
                         (np.empty((2, 8))[:, ::2], "C-contiguous")]:
        with pytest.raises(ValueError, match=message):
            streams.normals(out)
        with pytest.raises(ValueError, match=message):
            streams.laplace(1.0, out)
    with pytest.raises(ValueError, match="bool"):
        streams.below(0.5, np.empty((2, 4)))
    # adle_picks writes a row of `edges` flags per step, one of them at the pick
    with pytest.raises(ValueError, match=r"for edges >= 1, got edges 0 and shape \(2, 2, 0\)"):
        streams.picks(0, np.empty((2, 2, 0), bool))
    for out, message in [(np.empty((2, 3, 5), np.uint8), "bool"),
                         (np.empty((2, 15), bool), r"edges 5 and shape \(2, 15\)"),
                         (np.empty((2, 3, 4), bool), r"edges 5 and shape \(2, 3, 4\)"),
                         (np.empty((2, 3, 5, 1), bool), r"edges 5 and shape \(2, 3, 5, 1\)"),
                         (np.empty((2, 6, 5), bool)[:, ::2], "C-contiguous")]:
        with pytest.raises(ValueError, match=message):
            streams.picks(5, out)
    _same_next_draw(streams, [np.random.default_rng(1), np.random.default_rng(2)])


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
