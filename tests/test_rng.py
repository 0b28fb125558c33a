"""rng.streams against numpy's own seeding: SeedSequence into PCG64, one seed at a time."""

import numpy as np
import pytest

from pblr import rng


def states(iterator):
    return [gen.bit_generator.state for gen in iterator]


def numpy_states(seeds, *key):
    return [rng.stream(seed, *key).bit_generator.state for seed in seeds]


@pytest.mark.parametrize("seeds, key", [
    (range(1024), (rng.SINE_TAG, 15)),
    (range(2**32 - 3, 2**32 + 4), (rng.SINE_TAG, 15)),  # one and two words in one block
    ([2**64 - 1, 2**64, 2**80], (rng.LINEAR_TAG, 20)),  # 4, 5 and 5 words
    ([0, 7, 2**32 + 7], (2**33, 9)),  # a two-word key: 4 and 5 words
    ([5], (rng.SINE_TAG, 15)),
    ([], (rng.SINE_TAG, 15)),
    ([11, 12, 11, 11], (rng.TRIAL_TAG,)),
    ([0, 1, 2], ()),
    ([3, 4], (0, 0, 0, 0)),  # five words, the last four 0
], ids=["0-1023", "2**32-3..2**32+3", "2**64-1,2**64,2**80", "two-word-key", "one-seed",
        "no-seeds", "repeated", "no-key", "zero-key"])
def test_streams_reproduce_numpy_seeding(seeds, key):
    assert states(rng.streams(seeds, *key)) == numpy_states(seeds, *key)


@pytest.mark.parametrize("seeds, key", [([-1], (1, 15)), ([3, -1], (1, 15)),
                                        ([3, 4], (1, -15))])
def test_negative_entropy_is_refused(seeds, key):
    with pytest.raises(ValueError):
        rng.stream(min(seeds), *key)
    with pytest.raises(ValueError):
        list(rng.streams(seeds, *key))


def test_two_iterators_interleave():
    # each call owns its generator: advancing one iterator leaves the other's state alone
    first, second = rng.streams(range(4), 1, 15), rng.streams(range(10, 14), 1, 15)
    interleaved = []
    for a, b in zip(first, second):
        interleaved.append((a.random(3).tolist(), b.random(3).tolist()))
    one = [gen.random(3).tolist() for gen in rng.streams(range(4), 1, 15)]
    other = [gen.random(3).tolist() for gen in rng.streams(range(10, 14), 1, 15)]
    assert interleaved == list(zip(one, other))


def test_streams_taken_into_a_list_stay_independent():
    # every generator is its own object: drawing from one leaves the others' states alone
    seeds, key = [2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 7], (rng.SINE_TAG, 15)  # 1 and 2 words
    gens = list(rng.streams(seeds, *key))
    draws = [gen.random(4).tolist() for gen in gens]
    expected = [np.random.default_rng(np.random.SeedSequence([seed, *key])).random(4).tolist()
                for seed in seeds]
    assert draws == expected
