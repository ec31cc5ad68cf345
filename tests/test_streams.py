"""The trials' random streams (``_kernel.Streams``) against numpy's own
``SeedSequence`` and ``default_rng``: the same seed words, the same draws,
and the same next draw after them."""

import numpy as np
import pytest

from adle import _kernel
from adle.harness import BLOCK_STEPS
from adle.network import Graph, TopologyModel, cycle_graph

SEED_PARTS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**33]


def _pairs(count=3, start=0):
    """A bank of ``count`` streams and the numpy generators of the same seeds."""
    seeds = [np.random.SeedSequence((41, start + k)) for k in range(count)]
    return _kernel.Streams(seeds), [np.random.default_rng(seed) for seed in seeds]


def _same_next_draw(streams, generators):
    assert streams.standard_normal(2).tolist() == [rng.standard_normal(2).tolist()
                                                   for rng in generators]


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
    assert streams.integers(0, 2**40, 4).tolist() == [
        np.random.default_rng(seed).integers(0, 2**40, 4).tolist() for seed in seeds]
    with pytest.raises(ValueError, match="non-negative"):
        _kernel.Streams([(1, -2)])


@pytest.mark.parametrize("family", ["normal", "laplace"])
def test_noise_windows_are_numpy_draws(family):
    # windows of 1 and 37 steps and a whole block, into the rows of a wider buffer
    streams, generators = _pairs()
    shape = (5, 2)
    buffer = np.empty((3, BLOCK_STEPS + 3, *shape))
    for steps in (1, 37, BLOCK_STEPS):
        out = buffer[:, :steps]
        if family == "normal":
            streams.standard_normal((steps, *shape), out=out)
            expected = [rng.standard_normal((steps, *shape)) for rng in generators]
        else:
            streams.laplace(0.0, 2.0**-0.5, (steps, *shape), out=out)
            expected = [rng.laplace(0.0, 2.0**-0.5, (steps, *shape)) for rng in generators]
        assert out.tobytes() == np.stack(expected).tobytes()
        _same_next_draw(streams, generators)


def test_bernoulli_masks_across_the_block_jump():
    # the scratch streams draw the block's masks a window at a time while the
    # bank jumps the S * E uniforms they take
    top = TopologyModel(cycle_graph(7), "bernoulli", 0.3)
    streams, generators = _pairs()
    scratch = top.link_scratch(len(streams))
    for steps in (BLOCK_STEPS, 50):
        fill = top.link_draws(streams, steps, scratch)
        masks = np.empty((3, steps, 7), bool)
        for w0 in range(0, steps, 37):
            fill(w0, masks[:, w0:w0 + 37])
        assert np.array_equal(masks, [rng.random((steps, 7)) < 0.3 for rng in generators])
        _same_next_draw(streams, generators)


def test_gossip_picks_carry_the_half_word_until_an_advance():
    # each pick draws a half-word: 37 picks carry one into the next block's
    # picks, and 37 + 1024 one into the advance, which drops it, as numpy's does
    top = TopologyModel(cycle_graph(5), "gossip")
    streams, generators = _pairs()
    for steps in (37, BLOCK_STEPS):
        masks = np.empty((3, steps, 5), bool)
        top.link_draws(streams, steps)(0, masks)
        picks = [rng.integers(0, 5, size=steps) for rng in generators]
        assert np.array_equal(masks.argmax(axis=-1), picks)
        assert masks.sum(axis=-1).tolist() == [[1] * steps] * 3
    streams.advance(3)
    for rng in generators:
        rng.bit_generator.advance(3)
    assert streams.integers(0, 5, 3).tolist() == [rng.integers(0, 5, 3).tolist()
                                                  for rng in generators]
    _same_next_draw(streams, generators)
    # a bank keeps its picks in the smallest dtype of their bounds
    assert [streams.integers(low, high, 1).dtype for low, high in [(0, 5), (0, 300), (-1, 5)]] == [
        np.uint8, np.uint16, np.int16]


@pytest.mark.parametrize("law", ["bernoulli", "gossip"])
def test_a_one_edge_graph(law):
    # one edge: gossip picks it every step without drawing
    top = TopologyModel(Graph(2, ((0, 1),)), law, 0.5)
    streams, generators = _pairs()
    masks = np.empty((3, 40, 1), bool)
    top.link_draws(streams, 40, top.link_scratch(3))(0, masks)
    assert np.array_equal(masks, [top.draw_active(rng, 40) for rng in generators])
    _same_next_draw(streams, generators)


def test_draws_refuse_an_out_that_is_not_one_row_per_stream():
    streams = _kernel.Streams([1, 2])
    for out, message in [(np.empty((3, 4)), r"shape \(2, 4\)"),
                         (np.empty((2, 4), np.float32), "float64"),
                         (np.empty((2, 8))[:, ::2], "C-contiguous")]:
        with pytest.raises(ValueError, match=message):
            streams.standard_normal(4, out=out)
    with pytest.raises(ValueError, match="bool"):
        streams.below(0.5, np.empty((2, 4)))
    with pytest.raises(ValueError, match="high <= low"):
        streams.integers(3, 3, 2)
