"""Deterministic derivation of independent random streams from one master seed.

`stream(seed, *key)` is numpy's seeding: a `SeedSequence` of [seed, *key] into a
`PCG64`. `streams(seeds, *key)` yields the same streams for a block of seeds: it
runs `SeedSequence`'s hash (pool of 4 words) on a (words, S) uint32 array, turns
each seed's 8 output words into a PCG64 state as `pcg_setseq_128_srandom_r`
does, and reseeds one generator per seed. The hash has a fixed cost of about
four seeds of numpy's own path, so a one-seed block goes to `stream` instead.
`tests/test_rng.py` compares the states with numpy's.
"""

import numpy as np

# Tags keep streams for different purposes disjoint even under equal seeds;
# tests/oracles.py draws its posterior samples under tag 3.
SINE_TAG = 1
LINEAR_TAG = 2
TEST_SET_TAG = 4
MGF_TAG = 5
TRIAL_TAG = 6

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def derive_seed(seed: int, *key: int) -> int:
    """Stable child seed for APIs that take a plain integer seed."""
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])


def _words(value: int) -> list:
    """SeedSequence's entropy words of an int: little-endian uint32, and 0 is one word."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _constants(const: int, mult: int, count: int) -> tuple:
    """(count, 1) uint32 columns: call k of hashmix xors with c_k and multiplies by c_(k+1)."""
    c = np.array([const * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(count + 1)], np.uint32)
    return c[:-1, None], c[1:, None]


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul  # uint32 arrays, so the product wraps without a warning
    return value ^ value >> 16


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _state_words(words: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of each column of words (width >= 4, S), as (S, 4)."""
    xor, mul = _constants(_INIT_A, _MULT_A, 4 * len(words))
    pool = _hashmix(words[:4], xor[:4], mul[:4])
    for src in range(4):  # one source word's calls are independent: one step per source
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k:k + 3], mul[k:k + 3]))
    for k in range(16, 4 * len(words), 4):  # each word beyond the pool mixes into all 4
        pool = _mix(pool, _hashmix(words[k // 4], xor[k:k + 4], mul[k:k + 4]))
    out = _hashmix(np.concatenate([pool, pool]), *_constants(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8")


def streams(seeds, *key: int):
    """Yield, seed by seed, one generator reseeded to the state of stream(seed, *key).

    Draw from it before the next step. Each call owns its generator, so two
    iterators may be interleaved.
    """
    if len(seeds) == 1:
        yield stream(seeds[0], *key)
        return
    tail = [w for k in key for w in _words(int(k))]
    # a row of under 4 words hashes as if padded with zeros, so one block per width >= 4
    rows = [row + [0] * (4 - len(row)) for row in (_words(int(s)) + tail for s in seeds)]
    states = [None] * len(rows)
    for width in {len(row) for row in rows}:
        index = [i for i, row in enumerate(rows) if len(row) == width]
        words = np.array([rows[i] for i in index], np.uint32)
        for i, (s0, s1, q0, q1) in zip(index, _state_words(words.T).tolist()):
            inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
            states[i] = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128, inc
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield gen
