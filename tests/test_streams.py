"""Seeded streams against their oracles: the per-path uniforms against a
pure-Python SplitMix64, and the pure-Python PCG64 draws of the seeded test
data against numpy's own generator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetmf.gibbs import path_uniforms
from carpetmf.reference import pcg64_uniform, random_depth2_weight

SEEDS = (0, 1, 12345, 2**40 + 7)
MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64's finalizer (Steele, Lea and Flood, OOPSLA 2014)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _key(master_seed: int) -> int:
    """Every 64-bit word of the seed, lowest first, folded by ``mix64``."""
    key = 0
    for shift in range(0, max(master_seed.bit_length(), 1), 64):
        key = _mix64(key ^ ((master_seed >> shift) & MASK))
    return key


def _oracle(master_seed: int, path: int, draw: int) -> float:
    """Uniform ``draw`` of ``path``: the top 53 bits of ``mix64(b + (draw +
    1) gamma)`` for the path's base ``b = mix64(K + (path + 1) gamma)``."""
    base = _mix64((_key(master_seed) + (path + 1) * GAMMA) & MASK)
    return (_mix64((base + (draw + 1) * GAMMA) & MASK) >> 11) * 2.0**-53


def _oracle_rows(master_seed: int, lo: int, hi: int, n_draws: int) -> np.ndarray:
    rows = [[_oracle(master_seed, i, j) for j in range(n_draws)] for i in range(lo, hi)]
    return np.array(rows, dtype=float).reshape(hi - lo, n_draws)


def test_oracle_known_answer():
    # The first three outputs of SplitMix64 from state 0.
    want = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    assert tuple(_mix64(k * GAMMA & MASK) for k in (1, 2, 3)) == want
    # Seed 0 has key 0, so path 0's base is the first of them.
    assert _key(0) == 0 and _key(2**64) != _key(0)


def test_matches_splitmix_oracle():
    for seed in SEEDS:
        got = path_uniforms(seed, 3, 8, 9)
        assert got.shape == (5, 9)
        assert got.tobytes() == _oracle_rows(seed, 3, 8, 9).tobytes(), seed
    # Single points far along a path and far into the index range.
    for seed, path, draw in ((7, 0, 63), (7, 1000, 40), (2**63, 123456789, 17)):
        assert path_uniforms(seed, path, path + 1, draw + 1)[0, draw] == _oracle(seed, path, draw)


def test_any_split_keeps_the_paths():
    whole = path_uniforms(11, 5, 14, 6)
    for mid in range(5, 15):
        halves = np.vstack([path_uniforms(11, 5, mid, 6), path_uniforms(11, mid, 14, 6)])
        assert halves.tobytes() == whole.tobytes(), mid


def test_shorter_draw_is_a_prefix():
    full = path_uniforms(3, 0, 7, 13)
    for k in range(14):
        assert np.array_equal(path_uniforms(3, 0, 7, k), full[:, :k]), k


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_path_indices(seed):
    # Path words past 32 bits, and the last paths before the 64-bit limit.
    for lo, hi in ((2**32 - 3, 2**32 + 3), (2**64 - 4, 2**64)):
        got = path_uniforms(seed, lo, hi, 5)
        assert got.tobytes() == _oracle_rows(seed, lo, hi, 5).tobytes(), lo
        mid = lo + 2
        halves = np.vstack([path_uniforms(seed, lo, mid, 5), path_uniforms(seed, mid, hi, 5)])
        assert halves.tobytes() == got.tobytes()


def test_edges():
    assert path_uniforms(5, 7, 7, 3).shape == (0, 3)
    assert path_uniforms(5, 0, 4, 0).shape == (4, 0)
    assert np.array_equal(path_uniforms(5, np.int64(2), np.int64(4), 6), path_uniforms(5, 2, 4, 6))
    big_seed = 2**130 + 5  # more entropy than one 64-bit word
    assert path_uniforms(big_seed, 0, 9, 2).tobytes() == _oracle_rows(big_seed, 0, 9, 2).tobytes()
    # The high words of a seed reach the key: not the low word's stream.
    assert not np.array_equal(path_uniforms(2**64 + 5, 0, 4, 3), path_uniforms(5, 0, 4, 3))
    with pytest.raises(ValueError, match="master seed"):
        path_uniforms(-1, 0, 1, 1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        path_uniforms(5, 2**64 - 1, 2**64 + 1, 1)


def test_uniforms_look_independent():
    # 2**16 paths x 8 draws.  Each of the 18 statistics below is, for i.i.d.
    # uniforms, close to normal with the stated standard deviation; a bound
    # of 5 standard deviations is passed by chance with probability 5.7e-7
    # each, so a correct stream fails this test at a given seed with
    # probability below 18 * 5.7e-7 = 1.1e-5.
    n, d = 2**16, 8
    u = path_uniforms(2024, 0, n, d)
    assert u.min() >= 0.0 and u.max() < 1.0
    # Per draw: the mean (sd sqrt(1/12 / n)) and the variance about 1/2
    # (sd sqrt(1/180 / n)).
    assert np.all(np.abs(u.mean(axis=0) - 0.5) < 5 * np.sqrt(1 / 12 / n))
    assert np.all(np.abs(((u - 0.5) ** 2).mean(axis=0) - 1 / 12) < 5 * np.sqrt(1 / 180 / n))
    # Lag-1 correlation between adjacent paths (same draw) and between
    # adjacent draws (same path), pooled: sd 1 / sqrt(pairs).
    c = u - 0.5
    for a, b in ((c[:-1], c[1:]), (c[:, :-1], c[:, 1:])):
        corr = (a * b).mean() * 12
        assert abs(corr) < 5 / np.sqrt(a.size), corr


# -- the PCG64 draws of the seeded test data -----------------------------------------


@pytest.mark.parametrize("seed", (0, 7, 2**32 - 1, 2**32, 20260814, 2**64 + 5, 2**127 + 1))
def test_pcg64_uniform_matches_numpy(seed):
    for low, high, size in ((-0.5, 0.5, (5, 5)), (0.05, 1.0, (5, 2, 2)), (0.0, 1.0, 130)):
        want = np.random.default_rng(seed).uniform(low, high, size)
        got = pcg64_uniform(seed, low, high, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, size)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**160),
    size=st.integers(0, 64),
    low=st.floats(-1e6, 1e6),
    width=st.floats(0.0, 1e6),
)
def test_pcg64_uniform_matches_numpy_anywhere(seed, size, low, width):
    high = low + width
    want = np.random.default_rng(seed).uniform(low, high, size)
    assert pcg64_uniform(seed, low, high, size).tobytes() == want.tobytes()


def test_pcg64_uniform_refusals():
    # As numpy does: no negative seed, no reversed range.
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        pcg64_uniform(-1, 0.0, 1.0, 3)
    with pytest.raises(ValueError):
        pcg64_uniform(3, 1.0, 0.0, 3)


def test_seeded_window_tables_are_pinned():
    # Seed 1 is the benchmark's window-d2 weight, whose values its config holds.
    want = {
        1: "74491650cf16b2f4346bfda45bcd907fbe3e244cb5f046568a59afa24bfce701",
        7: "c652c362b890c1a8b224565675485dea77cbc8ab316577e9f9e77c22c0fa9b17",
    }
    for seed, digest in want.items():
        table = random_depth2_weight(seed).window_log
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest, seed
