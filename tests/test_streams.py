"""Vectorized per-path uniform streams against numpy's own generators."""

from __future__ import annotations

import numpy as np
import pytest

from carpetmf.streams import path_uniforms

SEEDS = (0, 1, 12345, 2**40 + 7)
N_DRAWS = (1, 3, 47)


def _rng_for_sample(master_seed: int, sample_index: int) -> np.random.Generator:
    """The oracle: one generator per (seed, sample index)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(sample_index,))
    return np.random.default_rng(ss)


def _oracle(master_seed: int, indices, n_draws: int) -> np.ndarray:
    return np.array([_rng_for_sample(master_seed, i).random(n_draws) for i in indices])


def test_matches_numpy_on_1e5_indices():
    # 10**5 paths in all: one disjoint index block per (seed, n_draws).
    cases = [(seed, n) for seed in SEEDS for n in N_DRAWS]
    block = -(-10**5 // len(cases))
    for k, (seed, n_draws) in enumerate(cases):
        lo, hi = k * block, (k + 1) * block
        got = path_uniforms(seed, lo, hi, n_draws)
        assert got.shape == (block, n_draws)
        assert got.tobytes() == _oracle(seed, range(lo, hi), n_draws).tobytes(), (seed, n_draws)


@pytest.mark.parametrize("seed", SEEDS)
def test_two_word_spawn_keys(seed):
    # Indices from 2**32 on are two-word spawn keys; a range across the
    # boundary mixes both kinds in one batch.
    for lo in (2**32 - 3, 2**40 + 3):
        got = path_uniforms(seed, lo, lo + 6, 3)
        assert got.tobytes() == _oracle(seed, range(lo, lo + 6), 3).tobytes()


def test_edges():
    assert path_uniforms(5, 7, 7, 3).shape == (0, 3)
    assert path_uniforms(5, 0, 4, 0).shape == (4, 0)
    big_seed = 2**130 + 5  # more run entropy than the pool holds
    assert path_uniforms(big_seed, 0, 9, 2).tobytes() == _oracle(big_seed, range(9), 2).tobytes()
    with pytest.raises(ValueError, match="master seed"):
        path_uniforms(-1, 0, 1, 1)
