"""The prefix-shared transfer kernel and the q-batched pressure pass against
row enumeration.

Random small systems (including empty row fibers), window weights of depth
1-3, matrix cocycles of dimension 1-3, and skew products and moment tilts
over those; batches come unsorted, with repeated words and with
out-of-range digits.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carpetmf import (
    CapExceededError,
    VARIANT_PSI_Q,
    VARIANT_PSI_TILDE_Q,
    CellSystem,
    SkewProductWeight,
    finite_T,
    finite_beta,
    log_total_mass,
    make_auxiliary,
    make_constant_cell,
    make_matrix_cocycle,
    pressure_curves,
    random_depth2_weight,
)
from carpetmf import gibbs, numerics, pressure, weights as weights_module
from carpetmf.numerics import lse, scaled_powers
from carpetmf.symbolic import digits_of_indices
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


#: Exponents of the factored weights: the tilts' q and the skew products'.
FACTOR_QS = (0.0, 1.0, 1.5, 2.0)


@st.composite
def factored_weights(draw):
    """``theta(w1) * rho(w1 x w2)^q / I_{rho,q}(w1)`` over a :func:`weights`
    base: skew products with each kind of row marginal, and both tilts."""
    rho = draw(weights())
    q = draw(st.sampled_from(FACTOR_QS))
    r1 = rho.system.r1
    tilts = (VARIANT_PSI_Q, VARIANT_PSI_TILDE_Q)
    kind = draw(st.sampled_from(("uniform", "letters", "rowSum", *tilts)))
    if kind in tilts:
        return make_auxiliary(rho, q, draw(st.floats(-1.0, 1.0)), kind)
    if kind == "uniform":
        return SkewProductWeight(rho, -np.log(r1), q=q)
    if kind == "letters":
        seed = draw(st.integers(0, 2**32 - 1))
        return SkewProductWeight(rho, np.random.default_rng(seed).uniform(-1.0, 1.0, r1), q=q)
    return SkewProductWeight(rho, moments=((draw(st.sampled_from(FACTOR_QS)), 1.0),), q=q)


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


@settings(max_examples=250, deadline=None)
@given(data=st.data(), psi=weights() | factored_weights(), q=st.sampled_from(Q_VALUES))
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
        assert psi.transfer_mask(np.array([q])).all()  # the Kronecker route ran
    # Worker determinism: a word's value does not depend on its batch.
    split = data.draw(st.integers(0, words.shape[0]))
    halves = np.concatenate(
        [row_sum_log_any(psi, words[:split], q), row_sum_log_any(psi, words[split:], q)]
    )
    assert halves.tobytes() == fast.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), psi=weights() | factored_weights())
def test_repeated_q_batch_matches_single_q(data, psi):
    """A q batch with repeats and in any order gives, column for column, the
    bytes of one call per q."""
    words = data.draw(batches(psi.system.r1))
    qs = np.array(data.draw(st.lists(st.sampled_from(Q_VALUES), min_size=1, max_size=8)))
    batch = row_sum_log_any(psi, words, qs)
    single = np.column_stack([row_sum_log_any(psi, words, q) for q in qs])
    assert batch.tobytes() == single.tobytes()


def test_repeated_q_runs_once():
    # A psiQ tilt at q = 2 asks its base for [q, q * r] = [2, 1, 2] at
    # r in {0.5, 1}: each base batch sees each distinct exponent once.
    tilt = make_auxiliary(random_depth2_weight(1), 2.0, 0.0, VARIANT_PSI_Q)
    words = np.array([[0, 1, 1], [1, 0, 1]])
    seen = []
    original = type(tilt.rho).row_sum_log_batch

    def spy(self, a1s, qs):
        seen.append(list(qs))
        return original(self, a1s, qs)

    with mock.patch.object(type(tilt.rho), "row_sum_log_batch", spy):
        row_sum_log_any(tilt, words, np.array([0.5, 1.0]))
    assert seen and all(batch == [1.0, 2.0] for batch in seen)


@pytest.mark.parametrize("kind", ["psiQ", "rowSum"])
def test_one_rho_row_sum_call_per_evaluation(kind):
    # The column marginal's row-sum moments, the fiber normalizer I_{rho,q}
    # and, for row sums, I_{rho,qr} all come from one q-batched call on rho.
    rho = random_depth2_weight(1)
    if kind == "psiQ":
        psi = make_auxiliary(rho, 2.0, 0.1, VARIANT_PSI_Q)
    else:
        psi = SkewProductWeight(rho, moments=((1.5, 1.0),), q=2.0)
    a1s = np.array([[0, 1, 1], [1, 0, 1]])
    a2s = np.array([[0, 2, 1], [1, 0, 2]])
    calls = []
    original = weights_module.row_sum_log_any

    def spy(weight, *args, **kwargs):
        calls.append(weight)
        return original(weight, *args, **kwargs)

    # Every module binding of the function, as a tilt could reach it from gibbs.
    with mock.patch.object(weights_module, "row_sum_log_any", spy), mock.patch.object(
        gibbs, "row_sum_log_any", spy
    ):
        psi.log_weight_arrays(a1s, a2s)
        assert calls == [rho]
        calls.clear()
        psi.row_sum_log_batch(a1s, np.array([0.5, 1.0]))
        assert calls == [rho]


@settings(max_examples=60, deadline=None)
@given(
    psi=weights(),
    grid=st.lists(st.sampled_from(Q_VALUES), min_size=1, max_size=6, unique=True),
    keep=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_pressure_curves_per_q_values(psi, grid, keep):
    schedule = (2, 3)
    # Small chunks, so that several chunk partials combine and workers=3
    # really runs a thread pool.
    with mock.patch.object(numerics, "MIN_CHUNK_SIZE", 2):
        whole = pressure_curves(psi, grid, schedule, workers=1)
        sub = [q for q, k in zip(grid, keep) if k] or grid[:1]
        part = pressure_curves(psi, sub, schedule, workers=3)
    for kind in ("T", "beta"):
        for q in sub:
            for n in schedule:
                # Bit-identical whatever other q share the grid and for any
                # number of workers.
                assert whole[kind].finite_value_at(n, q) == part[kind].finite_value_at(n, q)
                oracle = (finite_T if kind == "T" else finite_beta)(
                    psi, q, n, method="enumerate"
                )
                got = whole[kind].finite_value_at(n, q)
                assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))
            assert whole[kind].value_at(q) == part[kind].value_at(q)


def test_preflight_raises_before_any_depth(ref_system):
    # q = 0.5 has no Kronecker route, so every depth enumerates its rows;
    # depth 6 builds 2**6 * 4**6 * 6 digit cells, over the cap.
    mats = np.random.default_rng(3).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    psi = make_matrix_cocycle(ref_system, 2, mats)
    with mock.patch.object(pressure, "finite_values", side_effect=AssertionError("ran")):
        with pytest.raises(CapExceededError, match=r"depth 6: row enumeration for q = 0\.5"):
            pressure_curves(psi, [0.5, 1.0, 2.0], (2, 4, 6), cap=2**20)
    # Integer q have a transfer route, so the same stage fits.
    curves = pressure_curves(psi, [1.0, 2.0], (2, 4, 6), cap=2**20)
    assert curves["T"].depths == (2, 4, 6)
    with pytest.raises(CapExceededError, match="depth 6"):
        finite_T(psi, 1.0, 6, method="enumerate", cap=2**20)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), psi=weights(), block=st.sampled_from((1, 5, 64)))
def test_enumeration_blocks_are_exact(data, psi, block):
    """Enumeration in blocks of rows equals one whole-batch lse, bit for bit."""
    words = data.draw(batches(psi.system.r1))
    W, n = words.shape
    r2 = psi.system.r2
    rows = digits_of_indices(np.arange(r2**n), r2, n)
    lw = psi.log_weight_arrays(
        np.repeat(words, r2**n, axis=0), np.tile(rows, (W, 1))
    ).reshape(W, r2**n)
    qs = np.array(Q_VALUES)
    want = np.column_stack([lse(scaled_powers(q, lw), axis=1) for q in qs])
    with mock.patch.object(weights_module, "ENUMERATION_BLOCK", block):
        got = row_sum_log_any(psi, words, qs, method="enumerate")
        fast = row_sum_log_any(psi, words, qs)
    assert got.tobytes() == want.tobytes()
    assert fast.tobytes() == row_sum_log_any(psi, words, qs).tobytes()


@settings(max_examples=80, deadline=None)
@given(psi=weights() | factored_weights(), m=st.integers(1, 4))
def test_total_mass_matches_enumeration(psi, m):
    fast = log_total_mass(psi, m)
    slow = log_total_mass(psi, m, method="enumerate")
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("case", ["uniform", "rowSum", "psiQ", "psiTildeQ"])
def test_total_mass_fallback_matches_enumeration(case):
    # Weights with no closed total mass sum I_1 over the column words.
    rho = random_depth2_weight()
    if case == "uniform":
        psi = SkewProductWeight(rho, -np.log(rho.system.r1))
    elif case == "rowSum":
        psi = SkewProductWeight(rho, moments=((1.0, 1.0),))
    else:
        psi = make_auxiliary(rho, 1.5, 0.1, case)
    for m in range(1, 5):
        assert psi.log_total_mass(m) is None
        fast = log_total_mass(psi, m)
        slow = log_total_mass(psi, m, method="enumerate")
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_kernel_shares_prefixes_exactly():
    # Three-state dense chains for two q values; a lex-sorted batch and its
    # reversal agree bit for bit, single-row batches reproduce every row, and
    # each q column equals a run of that q alone.
    rng = np.random.default_rng(5)
    steps = np.log(rng.uniform(0.1, 1.0, (2, 2, 3, 3)))  # (letter, q, state, next)
    start = np.log(rng.uniform(0.1, 1.0, (2, 2, 3)))
    keys = np.array(list(np.ndindex(2, 2, 2, 2)))
    whole = prefix_transfer_log(keys, start, steps)
    assert whole.shape == (keys.shape[0], 2)
    rows = [prefix_transfer_log(k[None, :], start, steps)[0] for k in keys]
    assert whole.tobytes() == np.array(rows).tobytes()
    assert prefix_transfer_log(keys[::-1], start, steps).tobytes() == whole[::-1].tobytes()
    for j in range(2):
        alone = prefix_transfer_log(keys, start[:, j : j + 1], steps[:, j : j + 1])
        assert alone[:, 0].tobytes() == whole[:, j].tobytes()
    # Against the plain product of matrices in linear space.
    for k, values in zip(keys, whole):
        for j, value in enumerate(values):
            v = np.exp(start[k[0], j])
            for letter in k[1:]:
                v = v @ np.exp(steps[letter, j])
            assert value == pytest.approx(np.log(v.sum()), rel=1e-13)
