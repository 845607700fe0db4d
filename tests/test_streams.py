"""Per-path uniform streams against a pure-Python Philox4x64-10."""

from __future__ import annotations

import numpy as np
import pytest

from carpetmf.gibbs import path_uniforms

SEEDS = (0, 1, 12345, 2**40 + 7)
MASK = 2**64 - 1


def _philox(key: tuple[int, int], counter: tuple[int, int, int, int]) -> tuple[int, ...]:
    """One Philox4x64-10 block (Salmon et al., SC'11)."""
    k0, k1 = key
    c0, c1, c2, c3 = counter
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK, (p0 >> 64) ^ c3 ^ k1, p0 & MASK
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & MASK, (k1 + 0xBB67AE8584CAA73B) & MASK
    return c0, c1, c2, c3


def _oracle(master_seed: int, path: int, draw: int) -> float:
    """Uniform ``draw`` of ``path``: word ``draw % 4`` of block ``(path,
    draw // 4, 0, 0)``, as ``Generator.random`` reads it."""
    key = tuple(int(k) for k in np.random.SeedSequence(master_seed).generate_state(2, np.uint64))
    return (_philox(key, (path, draw // 4, 0, 0))[draw % 4] >> 11) * 2.0**-53


def _oracle_rows(master_seed: int, lo: int, hi: int, n_draws: int) -> np.ndarray:
    rows = [[_oracle(master_seed, i, j) for j in range(n_draws)] for i in range(lo, hi)]
    return np.array(rows, dtype=float).reshape(hi - lo, n_draws)


def test_oracle_known_answer():
    # The Random123 known-answer vector for key 0, counter 0.
    want = (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)
    assert _philox((0, 0), (0, 0, 0, 0)) == want


def test_matches_philox_oracle():
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
    with pytest.raises(ValueError, match="master seed"):
        path_uniforms(-1, 0, 1, 1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        path_uniforms(5, 2**64 - 1, 2**64 + 1, 1)
