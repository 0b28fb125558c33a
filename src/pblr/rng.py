"""Deterministic derivation of independent random streams from one master seed."""

import numpy as np

# Tags keep streams for different purposes disjoint even under equal seeds;
# tests/oracles.py draws its posterior samples under tag 3.
SINE_TAG = 1
LINEAR_TAG = 2
TEST_SET_TAG = 4
MGF_TAG = 5
TRIAL_TAG = 6


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def derive_seed(seed: int, *key: int) -> int:
    """Stable child seed for APIs that take a plain integer seed."""
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])
