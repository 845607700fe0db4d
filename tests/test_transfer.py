"""The prefix-shared transfer kernel against row enumeration.

Random small systems (including empty row fibers), window weights of depth
1-3 and matrix cocycles of dimension 1-3; batches come unsorted, with
repeated words and with out-of-range digits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carpetmf import CellSystem, log_total_mass, make_constant_cell, make_matrix_cocycle
from carpetmf.weights import prefix_transfer_log, row_sum_log_any

Q_VALUES = (-1.5, 0.0, 0.7, 1.0, 2.0, 3.0)


@st.composite
def small_systems(draw) -> CellSystem:
    r1 = draw(st.integers(2, 3))
    r2 = draw(st.integers(r1, 4))
    cells = [(a1, a2) for a1 in range(r1) for a2 in range(r2)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    allowed = tuple(cell for cell, k in zip(cells, keep) if k)
    assume(len(allowed) >= 2)
    return CellSystem(r1, r2, allowed)


@st.composite
def weights(draw):
    system = draw(small_systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = system.n_cells
    if draw(st.booleans()):
        depth = draw(st.integers(1, 3))
        return make_constant_cell(system, depth, rng.uniform(-1.0, 1.0, (nc,) * depth))
    dim = draw(st.integers(1, 3))
    return make_matrix_cocycle(system, dim, rng.uniform(0.05, 1.0, (nc, dim, dim)))


@st.composite
def batches(draw, r1: int) -> np.ndarray:
    """Unsorted column words with repeats and a few out-of-range digits."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(0, r1, (draw(st.integers(1, 12)), n))
    repeats = draw(st.integers(0, words.shape[0]))
    words = np.concatenate([words, words[rng.permutation(words.shape[0])[:repeats]]])
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.integers(words.shape[0]), rng.integers(n)
        words[i, j] = draw(st.sampled_from((-1, r1)))
    return words


@settings(max_examples=150, deadline=None)
@given(data=st.data(), psi=weights(), q=st.sampled_from(Q_VALUES))
def test_row_sums_match_enumeration(data, psi, q):
    words = data.draw(batches(psi.system.r1))
    fast = row_sum_log_any(psi, words, q)
    slow = row_sum_log_any(psi, words, q, method="enumerate")
    np.testing.assert_array_equal(np.isneginf(fast), np.isneginf(slow))
    finite = np.isfinite(slow)
    assert np.all(
        np.abs(fast[finite] - slow[finite]) <= 1e-12 * np.maximum(1.0, np.abs(slow[finite]))
    )
    if getattr(psi, "dim", 1) >= 2 and q >= 0 and float(q).is_integer():
        assert psi.row_sum_log_batch(words, q) is not None  # the Kronecker route ran
    # Worker determinism: a word's value does not depend on its batch.
    split = data.draw(st.integers(0, words.shape[0]))
    halves = np.concatenate(
        [row_sum_log_any(psi, words[:split], q), row_sum_log_any(psi, words[split:], q)]
    )
    assert halves.tobytes() == fast.tobytes()


@settings(max_examples=40, deadline=None)
@given(psi=weights(), m=st.integers(1, 4))
def test_total_mass_matches_enumeration(psi, m):
    fast = log_total_mass(psi, m)
    slow = log_total_mass(psi, m, method="enumerate")
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_kernel_shares_prefixes_exactly():
    # Three-state dense chain; a lex-sorted batch and its reversal agree bit
    # for bit, and single-row batches reproduce every row.
    rng = np.random.default_rng(5)
    steps = np.log(rng.uniform(0.1, 1.0, (2, 3, 3)))
    start = np.log(rng.uniform(0.1, 1.0, (2, 3)))
    keys = np.array(list(np.ndindex(2, 2, 2, 2)))
    whole = prefix_transfer_log(keys, start, steps)
    rows = [prefix_transfer_log(k[None, :], start, steps)[0] for k in keys]
    assert whole.tobytes() == np.array(rows).tobytes()
    assert prefix_transfer_log(keys[::-1], start, steps).tobytes() == whole[::-1].tobytes()
    # Against the plain product of matrices in linear space.
    for k, value in zip(keys, whole):
        v = np.exp(start[k[0]])
        for letter in k[1:]:
            v = v @ np.exp(steps[letter])
        assert value == pytest.approx(np.log(v.sum()), rel=1e-13)
