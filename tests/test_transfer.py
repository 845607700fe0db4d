"""The split transfer kernel and the q-batched pressure pass against row
enumeration.

Random small systems (including empty row fibers), window weights of depth
1-4, matrix cocycles of dimension 1-3, and skew products and moment tilts
over those; batches come unsorted, with repeated words and with
out-of-range digits.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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
    log_total_mass,
    make_auxiliary,
    make_constant_cell,
    make_matrix_cocycle,
    normalize_to_gibbs,
    pressure_curves,
    random_depth2_weight,
)
from carpetmf import gibbs, numerics, pressure, symbolic, transfer, weights as weights_module
from carpetmf.numerics import lse, scaled_powers
from carpetmf.reference import default_q_grid, reference_system
from carpetmf.symbolic import MAX_TRANSFER_TABLE, digits_of_indices
from carpetmf.transfer import TailMemo, split_point, split_transfer_log
from carpetmf.weights import MatrixCocycleWeight, row_sum_log_any

Q_VALUES = (-1.5, 0.0, 0.7, 1.0, 2.0, 3.0)


def pressures_by_definition(psi, q: float, n: int) -> dict[str, float]:
    """``T_n(q) = -lse(s log I_q) / (n log r1)`` and
    ``beta_n(q) = -lse(q(1-s) log I_1 + s log I_q) / (n log r1)`` over the
    row sums of every depth-n column word, enumerated row by row."""
    system = psi.system
    words = digits_of_indices(np.arange(system.r1**n), system.r1, n)
    log_iq, log_i1 = row_sum_log_any(psi, words, [q, 1.0], method="enumerate").T
    s, scale = system.s, n * np.log(system.r1)
    s_log_iq = scaled_powers(s, log_iq)
    return {
        "T": -lse(s_log_iq) / scale,
        "beta": -lse(scaled_powers(q * (1.0 - s), log_i1) + s_log_iq) / scale,
    }


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
def deep_windows(draw):
    """Window weights of depth 4: states of three row digits, stepped as a
    shift register."""
    system = draw(small_systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_constant_cell(system, 4, rng.uniform(-1.0, 1.0, (system.n_cells,) * 4))


#: Exponents of the factored weights: the tilts' q and the skew products'.
FACTOR_QS = (0.0, 1.0, 1.5, 2.0)


@st.composite
def factored_weights(draw, bases=None, qs=FACTOR_QS):
    """``theta(w1) * rho(w1 x w2)^q / I_{rho,q}(w1)`` over a :func:`weights`
    base (or one of ``bases``), with exponents among ``qs``: skew products
    with each kind of row marginal, and both tilts."""
    rho = draw(weights() if bases is None else bases)
    q = draw(st.sampled_from(qs))
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
    return SkewProductWeight(rho, moments=((draw(st.sampled_from(qs)), 1.0),), q=q)


@st.composite
def batches(draw, r1: int, n_min: int = 1, n_max: int = 4) -> np.ndarray:
    """Unsorted column words with repeats and a few out-of-range digits."""
    n = draw(st.integers(n_min, n_max))
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
    original = type(tilt.base).row_sum_log_batch

    def spy(self, a1s, qs):
        seen.append(list(qs))
        return original(self, a1s, qs)

    with mock.patch.object(type(tilt.base), "row_sum_log_batch", spy):
        row_sum_log_any(tilt, words, np.array([0.5, 1.0]))
    assert seen and all(batch == [1.0, 2.0] for batch in seen)


#: What builds, packs or de-duplicates digit rows.
DIGIT_BUILDERS = ("digits_of_indices", "pack_digits", "distinct_rows", "row_words_range")


def test_tilt_passes_read_no_digits():
    # A tilt's pressure pass and the column-first sampler's marginal read
    # the window's row sums and the tilt's letter sums by rank.  The
    # window's cached grids, built from digits, are built first.
    window = random_depth2_weight(1)
    window.step_tables(np.array([1.0]))
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
            for module in (symbolic, weights_module, transfer, pressure, gibbs)
            for name in DIGIT_BUILDERS
            if hasattr(module, name)
        ]
        for variant in (VARIANT_PSI_Q, VARIANT_PSI_TILDE_Q):
            tilt = make_auxiliary(window, 2.0, 0.1, variant)
            pressure.finite_values(tilt, np.array([-1.0, 0.0, 1.0, 2.0]), 10, workers=2)
            gibbs._column_first_route(tilt, window, 2.0, 10, 2)
    assert len(spies) >= len(DIGIT_BUILDERS)
    assert not [spy for spy in spies if spy.called]


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
    with mock.patch.object(numerics, "MIN_CHUNK_SIZE", 2), mock.patch.object(
        pressure, "CHUNK_WORDS", 2
    ):
        whole = pressure_curves(psi, grid, schedule, workers=1)
        sub = [q for q, k in zip(grid, keep) if k] or grid[:1]
        part = pressure_curves(psi, sub, schedule, workers=3)
    for kind in ("T", "beta"):
        for q in sub:
            i, j = (np.searchsorted(c[kind].q_grid, q) for c in (whole, part))
            for n in schedule:
                # Bit-identical whatever other q share the grid and for any
                # number of workers.
                assert whole[kind].finite_values[n][i] == part[kind].finite_values[n][j]
                oracle = pressures_by_definition(psi, q, n)[kind]
                got = whole[kind].finite_values[n][i]
                assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))
            assert whole[kind].value_at(q) == part[kind].value_at(q)


@settings(max_examples=60, deadline=None)
@given(
    psi=weights() | factored_weights(),
    grid=st.lists(st.sampled_from(Q_VALUES), min_size=1, max_size=6, unique=True),
    n=st.integers(1, 3),
    block=st.sampled_from((1, 2, 4)),
)
def test_column_sums_do_not_depend_on_the_q_block(psi, grid, n, block):
    # The pass routes PART_BLOCK q at a time; the q values that enumerate
    # rows share one enumeration per chunk.  Each q keeps its bytes.
    kinds = pressure.COLUMN_KINDS
    whole = pressure.column_log_sums(psi, grid, n, kinds)
    with mock.patch.object(pressure, "PART_BLOCK", block):
        split = pressure.column_log_sums(psi, grid, n, kinds)
    for kind in kinds:
        assert split[kind].tobytes() == whole[kind].tobytes()


def test_column_pass_holds_a_block_of_row_sums():
    # 93 q over the 2**16 column words of one chunk: the whole (93, 2**16)
    # table of row sums would take 48 MB.
    psi = random_depth2_weight(1)
    grid = default_q_grid()
    full = grid.size * 2**16 * 8
    tracemalloc.start()
    try:
        pressure.finite_values(psi, grid, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full / 2


def test_preflight_raises_before_any_depth(ref_system, monkeypatch):
    # q = 0.5 has no Kronecker route, so every depth enumerates its rows;
    # depth 6 builds 2**6 * 4**6 * 6 digit cells, over the cap.
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 2**20)
    mats = np.random.default_rng(3).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    psi = make_matrix_cocycle(ref_system, 2, mats)
    with mock.patch.object(pressure, "finite_values", side_effect=AssertionError("ran")):
        with pytest.raises(CapExceededError, match=r"depth 6: row enumeration for q = 0\.5"):
            pressure_curves(psi, [0.5, 1.0, 2.0], (2, 4, 6))
    # Integer q have a transfer route, so the same stage fits.
    curves = pressure_curves(psi, [1.0, 2.0], (2, 4, 6))
    assert curves["T"].depths == (2, 4, 6)
    # A single pressure value runs the same preflight.
    with pytest.raises(CapExceededError, match="depth 6"):
        finite_T(psi, 0.5, 6)


def test_preflight_counts_the_row_sums_a_tilt_reads(ref_system):
    # The tilt's own route is transfer at every q, but it reads the
    # cocycle's row sums at q = 0.5, which enumerate 4**n rows: depth 10
    # builds 2**10 * 4**10 * 10 digit cells, over the cap.
    mats = np.random.default_rng(3).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    aux = make_auxiliary(make_matrix_cocycle(ref_system, 2, mats), 0.5, 0.0, VARIANT_PSI_TILDE_Q)
    with mock.patch.object(pressure, "finite_values", side_effect=AssertionError("ran")):
        for tilt in (aux, normalize_to_gibbs(aux, 0.25)):
            with pytest.raises(CapExceededError, match="depth 10"):
                pressure_curves(tilt, [1.0], (2, 10))


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


@pytest.mark.parametrize("n", [6, 8])
def test_enumeration_transient_is_bounded_in_digit_cells(ref_system, n):
    # A block holds ENUMERATION_BLOCK = 2**16 digit cells, 512 KiB per int64
    # array of them; a dim-2 cocycle's log weights keep about five such
    # arrays alive at once (column letters, row digits, cell indices and
    # their clipped copies).  Add one word's 4**n row log weights and their
    # lse (512 KiB each at n = 8): eight block arrays, 4 MiB, bound the peak
    # at both depths.  Blocks of 2**16 rows would build 2**19 cells at
    # n = 8, and peak near 21 MB.
    mats = np.random.default_rng(1).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    psi = make_matrix_cocycle(ref_system, 2, mats)
    words = np.ones((1, n), dtype=np.int64)
    qs = np.array([0.5, 1.0])
    want = row_sum_log_any(psi, words, qs, method="enumerate")
    tracemalloc.start()
    try:
        got = row_sum_log_any(psi, words, qs, method="enumerate")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 8 * weights_module.ENUMERATION_BLOCK * 8


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


#: The kinds of depth-1 weight: each reads the depth-1 table and the total
#: mass off its one-cell log weights.
DEPTH1_KINDS = (
    "window",
    "shift",
    "skew",
    VARIANT_PSI_Q,
    VARIANT_PSI_TILDE_Q,
    "tilt of a shift",
    "shift of a tilt",
)


@st.composite
def depth1_weights(draw, kind: str):
    """A depth-1 weight of ``kind`` over a random depth-1 window."""
    system = draw(small_systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = make_constant_cell(system, 1, rng.uniform(-1.0, 1.0, system.n_cells))
    q, shift = draw(st.sampled_from(FACTOR_QS)), draw(st.floats(-1.0, 1.0))
    variant = kind if kind in (VARIANT_PSI_Q, VARIANT_PSI_TILDE_Q) else VARIANT_PSI_Q
    tilt = lambda base: make_auxiliary(base, q, draw(st.floats(-1.0, 1.0)), variant)  # noqa: E731
    if kind == "window":
        return window
    if kind == "shift":
        return normalize_to_gibbs(window, shift)
    if kind == "skew":
        letters = rng.uniform(-1.0, 1.0, system.r1)
        moments = [(draw(st.sampled_from(FACTOR_QS)), e) for e in rng.uniform(-1.0, 1.0, 2)]
        return SkewProductWeight(window, letters, moments, q)
    if kind == "tilt of a shift":
        return tilt(normalize_to_gibbs(window, shift))
    if kind == "shift of a tilt":
        return normalize_to_gibbs(tilt(window), shift)
    return tilt(window)


@pytest.mark.parametrize("kind", DEPTH1_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), q=st.sampled_from(Q_VALUES))
def test_depth1_hook_gives_closed_forms_and_total_masses(kind, data, q):
    # dependence_depth is the one depth-1 hook: the closed forms read the
    # table it gives and must equal T_3 and beta_3 of the enumerated row
    # sums, and the total masses must equal the enumerated ones.
    psi = data.draw(depth1_weights(kind))
    assert psi.dependence_depth == 1
    finite = pressures_by_definition(psi, q, 3)
    assert pressure.closed_form_T(psi, q) == pytest.approx(finite["T"], rel=1e-12, abs=1e-12)
    assert pressure.closed_form_beta(psi, q) == pytest.approx(
        finite["beta"], rel=1e-12, abs=1e-12
    )
    for m in range(1, 5):
        slow = log_total_mass(psi, m, method="enumerate")
        assert log_total_mass(psi, m) == pytest.approx(slow, rel=1e-12, abs=1e-12)
    # Over a depth-2 window the same construction has no depth-1 structure.
    rho = random_depth2_weight()
    tilt = make_auxiliary(rho, q, 0.1, VARIANT_PSI_Q)
    for deep in (SkewProductWeight(rho, moments=((2.0, 0.5),)), tilt):
        assert deep.dependence_depth is None
        assert deep.depth1_log_table() is None
        with pytest.raises(ValueError, match="depth-1"):
            pressure.closed_form_T(deep, q)


@pytest.mark.parametrize("kind", DEPTH1_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_closed_forms_on_a_q_grid_match_the_per_q_calls(kind, data):
    # An array of q gives, byte for byte, the scalar call at each of its q,
    # and a scalar q gives a float.
    psi = data.draw(depth1_weights(kind))
    q_values = st.one_of(st.sampled_from(Q_VALUES), st.floats(-10.0, 10.0))
    grid = np.array(data.draw(st.lists(q_values, min_size=1, max_size=12)))
    for closed in (pressure.closed_form_T, pressure.closed_form_beta):
        scalars = [closed(psi, float(q)) for q in grid]
        assert all(type(value) is float for value in scalars)
        assert closed(psi, grid).tobytes() == np.array(scalars).tobytes()


def _split_at(psi, words, qs, a) -> np.ndarray:
    """``split_transfer_log`` after ``a`` letters on the weight's
    ``step_tables``, one call per run of q of one table size."""
    columns, j = [], 0
    for _, run in itertools.groupby(psi.transfer_floats(q) for q in qs):
        qb = qs[j : j + len(list(run))]
        k, start, steps = psi.step_tables(qb)
        columns.append(split_transfer_log(words, qb, k, psi.system.r1, start, steps, psi._tails, a))
        j += qb.size
    return np.concatenate(columns, axis=1)


def _kernel_window(psi) -> int | None:
    """The window span ``k`` of the split kernel's steps, or None when the
    weight's row sums take another route."""
    if getattr(psi, "depth", 1) >= 2:
        return psi.depth
    if getattr(psi, "dim", 1) >= 2:
        return 1
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data(), psi=weights() | deep_windows())
def test_split_points_match_enumeration(data, psi):
    """Every split point from ``k - 1`` to ``n``, both ends included, gives
    the enumerated row sums and their -inf pattern; a row's bytes do not
    depend on its batch, its order or on the memo."""
    k = _kernel_window(psi)
    assume(k is not None)
    words = data.draw(batches(psi.system.r1, n_min=k, n_max=max(5, k + 2)))
    n = words.shape[1]
    a = data.draw(st.integers(k - 1, n))
    qs = np.array(Q_VALUES if k > 1 else [q for q in Q_VALUES if q >= 0 and q.is_integer()])
    psi._tails = TailMemo()
    cold = _split_at(psi, words, qs, a)
    slow = row_sum_log_any(psi, words, qs, method="enumerate")
    np.testing.assert_array_equal(np.isneginf(cold), np.isneginf(slow))
    finite = np.isfinite(slow)
    assert np.all(
        np.abs(cold[finite] - slow[finite]) <= 1e-12 * np.maximum(1.0, np.abs(slow[finite]))
    )
    assert _split_at(psi, words, qs, a).tobytes() == cold.tobytes()  # memo warm
    assert _split_at(psi, words[::-1], qs, a).tobytes() == cold[::-1].tobytes()
    split = data.draw(st.integers(0, words.shape[0]))
    halves = np.concatenate(
        [_split_at(psi, words[:split], qs, a), _split_at(psi, words[split:], qs, a)]
    )
    assert halves.tobytes() == cold.tobytes()
    # Production splits at split_point; a cocycle's state count is dim**q.
    production = psi.row_sum_log_batch(words, qs)
    for j, q in enumerate(qs):
        S = psi.system.r2 ** (k - 1) if k > 1 else psi.dim ** int(q)
        if a == split_point(n, k, psi.system.r1, S):
            assert production[:, j].tobytes() == cold[:, j].tobytes()


@st.composite
def kernel_weights(draw):
    """Weights whose complete ranges take the split kernel's range route:
    windows of depth 2-3 and dim-2 cocycles, on random small systems and on
    a system whose column 2 holds no cell (-inf rows)."""
    system = draw(small_systems() | st.just(CellSystem(3, 3, ((0, 0), (0, 2), (1, 1), (1, 2)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = system.n_cells
    if draw(st.booleans()):
        depth = draw(st.integers(2, 3))
        return make_constant_cell(system, depth, rng.uniform(-1.0, 1.0, (nc,) * depth))
    return make_matrix_cocycle(system, 2, rng.uniform(0.05, 1.0, (nc, 2, 2)))


@st.composite
def lettered_skews(draw):
    """Skew products with random letter values, one per letter or one for
    both, over a depth-2 window on the two-column reference system."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    system = reference_system()
    rho = make_constant_cell(system, 2, rng.uniform(-1.0, 1.0, (system.n_cells,) * 2))
    moments = draw(st.sampled_from(((), ((1.0, 0.5),))))
    q = draw(st.sampled_from(FACTOR_QS))
    letters = rng.uniform(-1.0, 1.0, draw(st.sampled_from(((), (2,)))))
    return SkewProductWeight(rho, letters, moments, q)


@st.composite
def range_weights(draw):
    """The :func:`kernel_weights`, the skew products of each kind and both
    tilts over them (integer exponents, which a cocycle routes), the
    :func:`lettered_skews`, and a pressure shift of any of these."""
    factored = factored_weights(kernel_weights(), (0.0, 1.0, 2.0))
    psi = draw(kernel_weights() | factored | lettered_skews())
    if draw(st.booleans()):
        psi = normalize_to_gibbs(psi, draw(st.floats(-1.0, 1.0)))
    return psi


def _core(psi):
    """The weight with step tables under any wrappers."""
    while hasattr(psi, "base"):
        psi = psi.base
    return psi


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    psi=range_weights() | st.none(),
    block=st.sampled_from((1, 5, 64, transfer.SPLIT_BLOCK)),
)
def test_ranges_match_the_batch_kernel(data, psi, block):
    """Any range of column word ranks, in q blocks of any size, gets the
    bytes of the batch kernel on its digit rows at the same split point,
    and the enumerated row sums.  A wrapper reaches depth 12 on two
    columns, where distinct letters cross numpy's 8-wide pairwise sum.
    ``psi = None`` is the kernel of
    :func:`test_underflowing_dot_product_is_redone_in_log_space`, whose
    products underflow and are redone in log space."""
    k, r1 = (1, 2) if psi is None else (_kernel_window(_core(psi)), psi.system.r1)
    wrapped = psi is not None and _core(psi) is not psi
    top = (12 if wrapped else 8) if r1 == 2 else 5
    deep = top > 8 and data.draw(st.booleans())
    n = data.draw(st.integers(9 if deep else max(k, 2), top))
    lo = data.draw(st.integers(0, r1**n))
    hi = data.draw(st.integers(lo, r1**n))
    words = digits_of_indices(np.arange(lo, hi), r1, n)
    with mock.patch.object(transfer, "SPLIT_BLOCK", block):
        if psi is None:
            kernel = (np.array([1.0]), 1, 2, np.zeros((1, 3)), _underflow_steps())
            got = transfer.split_transfer_range(n, lo, hi, *kernel, TailMemo())
            assert got.tobytes() == split_transfer_log(words, *kernel, TailMemo()).tobytes()
            return
        qs = np.array([0.0, 1.0, 2.0])
        _core(psi)._tails = TailMemo()
        got = psi.row_sum_log_range(n, lo, hi, qs)
    assert got.tobytes() == psi.row_sum_log_batch(words, qs).tobytes()
    if n <= 4:
        slow = row_sum_log_any(psi, words, qs, method="enumerate")
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(slow))
        finite = np.isfinite(slow)
        assert np.all(
            np.abs(got[finite] - slow[finite]) <= 1e-12 * np.maximum(1.0, np.abs(slow[finite]))
        )


def test_untabled_tails_and_evicted_memo_keep_bytes():
    # Depth-2 window on the reference: 64 floats of matrices per q, and a
    # tail table of 2**6 * 5 = 320 floats per q at n = 10.
    psi = random_depth2_weight(1)
    words = digits_of_indices(np.arange(2**10), 2, 10)
    qs = np.array([-2.0, 0.0, 1.0, 2.0, 4.0])
    want = psi.row_sum_log_batch(words, qs)
    # Room for three tables: five q keep none (each block would evict what
    # the next chunk needs), and the batch's tails are walked.
    with mock.patch.object(symbolic, "MAX_TRANSFER_TABLE", 1000):
        psi._tails = TailMemo()
        assert psi.row_sum_log_batch(words, qs).tobytes() == want.tobytes()
        assert psi._tails.floats == 0
        # Three q fit; two more drop the oldest two.
        assert psi.row_sum_log_batch(words, qs[:3]).tobytes() == want[:, :3].tobytes()
        assert psi._tails.floats == 3 * 320
        assert psi.row_sum_log_batch(words, qs[3:]).tobytes() == want[:, 3:].tobytes()
        assert psi._tails.floats == 3 * 320
        assert sorted(psi._tails._entries) == [("backward", 6, q) for q in (1.0, 2.0, 4.0)]
        assert psi.row_sum_log_batch(words, qs).tobytes() == want.tobytes()


def test_one_table_budget_reaches_both_readers():
    # symbolic.MAX_TRANSFER_TABLE is read at call time by weights (which q
    # keep the transfer route) and by transfer (what a memo keeps).  The
    # window's table is 2**2 x 4**2 = 64 floats.
    psi = random_depth2_weight(1)
    q = np.array([1.0])
    memo = TailMemo()
    with mock.patch.object(symbolic, "MAX_TRANSFER_TABLE", 63):
        assert not psi.transfer_mask(q).any()
        memo._store(("backward", 2, 1.0), (np.zeros(64),))
        assert memo.floats == 0
    assert psi.transfer_mask(q).all()
    memo._store(("backward", 2, 1.0), (np.zeros(64),))
    assert memo.floats == 64


def test_window_table_error_names_its_size():
    psi = random_depth2_weight(1)
    with mock.patch.object(symbolic, "MAX_TRANSFER_TABLE", 32):
        with pytest.raises(
            CapExceededError, match=r"2\*\*2 x 4\*\*2 = 64 floats, over MAX_TRANSFER_TABLE 32$"
        ):
            psi.row_sum_log_batch(np.zeros((1, 3), dtype=np.int64), np.array([1.0]))


def test_preflight_names_the_table_it_refuses(ref_system, monkeypatch):
    # q = 2 needs a Kronecker table of 5 x 2**4 = 80 floats, over a table
    # budget of 20, so it enumerates rows; the refusal says why.
    mats = np.random.default_rng(3).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    psi = make_matrix_cocycle(ref_system, 2, mats)
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 100)
    monkeypatch.setattr(symbolic, "MAX_TRANSFER_TABLE", 20)
    because = "because the Kronecker table at q = 2 of 80 floats is over MAX_TRANSFER_TABLE 20$"
    for weight in (psi, normalize_to_gibbs(psi, 0.5)):
        with pytest.raises(CapExceededError, match=rf"^depth 3: .*; rows are enumerated {because}"):
            pressure_curves(weight, [1.0, 2.0], (3, 4))
    # q = 0.5 has no Kronecker route at any size: nothing to name.
    with pytest.raises(CapExceededError, match=r"over the enumeration cap 100$"):
        pressure_curves(psi, [0.5], (3, 4))


def test_oversized_window_is_refused_before_its_table():
    # A depth-4 window over 5x10 cells: its 5**4 x 10**4 transfer table is
    # over MAX_TRANSFER_TABLE, so no q takes the transfer route, and the
    # pass preflight refuses the 625 x 10**4 rows of depth 4 up front.
    system = CellSystem(5, 10, tuple((a, b) for a in range(5) for b in (a, a + 5)))
    psi = make_constant_cell(system, 4, np.zeros((10,) * 4))
    assert 5**4 * 10**4 > MAX_TRANSFER_TABLE
    assert not psi.transfer_mask(np.array([0.0, 1.0, 2.0])).any()
    with mock.patch.object(pressure, "finite_values", side_effect=AssertionError("ran")):
        with pytest.raises(CapExceededError, match=r"^depth 4: row enumeration for q = 1, 2 "):
            pressure_curves(psi, [1.0, 2.0], (3, 4))
    assert "_window_grid" not in vars(psi)
    # Depth 3 enumerates its rows: each of the 5**3 column words has 2**3.
    want = -(1.0 + system.s * np.log(2) / np.log(5))
    assert finite_T(psi, 1.0, 3) == pytest.approx(want, abs=1e-12)


def test_long_words_keep_distinct_prefixes_and_tails():
    # 70-letter words that differ only in their first 4 letters: packed in
    # base 2 their prefixes and tails would agree modulo 2**64, so long
    # halves are told apart row by row.  Every split point gives the sums of
    # the default one.
    psi = random_depth2_weight(1)
    shared = np.random.default_rng(0).integers(0, 2, 66)
    words = np.array([[*head, *shared] for head in np.ndindex(2, 2, 2, 2)])
    qs = np.array([1.0, 2.0])
    want = psi.row_sum_log_batch(words, qs)
    assert np.unique(want[:, 0]).size == 16
    k, start, steps = psi.step_tables(qs)
    for a in (1, 2, 69, 70):
        got = split_transfer_log(words, qs, k, 2, start, steps, psi._tails, a)
        np.testing.assert_allclose(got, want, rtol=1e-13)


def test_memo_shared_by_threads_keeps_bytes():
    # Eight threads on one weight, batches and complete ranges, with a bound
    # that keeps the memo evicting and a short switch interval: every call
    # gets the serial bytes, and the memo stays within its bound.  Per q,
    # tail tables hold 160 floats at n = 8 and 320 at n = 9, 10, and prefix
    # tables 64 at n = 8, 9 and 128 at n = 10; at n = 11 a range takes the
    # batch route, which walks its tails.
    psi = random_depth2_weight(1)
    qs = np.array([-2.0, 1.0, 4.0])
    depths = (8, 9, 10, 11)
    batches = [digits_of_indices(np.arange(2**n), 2, n) for n in depths]
    want = [psi.row_sum_log_batch(words, qs).tobytes() for words in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(symbolic, "MAX_TRANSFER_TABLE", 1500):
            psi._tails = TailMemo()
            with ThreadPoolExecutor(8) as pool:
                calls = [
                    pool.submit(psi.row_sum_log_batch, batches[i % 4], qs)
                    if i % 8 < 4
                    else pool.submit(psi.row_sum_log_range, depths[i % 4], 0, 2 ** (8 + i % 4), qs)
                    for i in range(128)
                ]
                got = [call.result(timeout=60).tobytes() for call in calls]
            assert psi._tails.floats <= 1500
            # On a fresh memo the serial range's stores are the only ones,
            # and together they fit the bound.
            psi._tails = TailMemo()
            assert psi.row_sum_log_range(10, 0, 2**10, qs).tobytes() == want[2]
            assert {("forward", 5), ("backward", 6)} <= {key[:2] for key in psi._tails._entries}
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i % 4] for i in range(128)]


def test_memo_bounded_on_default_grid():
    psi = random_depth2_weight(1)
    pressure.finite_values(psi, default_q_grid(), 16, workers=2)
    assert 0 < psi._tails.floats <= MAX_TRANSFER_TABLE
    # The pass read all 93 q of both halves, split after 8 of 16 letters.
    keys = {key[:2] for key in psi._tails._entries}
    assert keys == {("forward", 8), ("backward", 9)}
    assert len(psi._tails._entries) == 2 * default_q_grid().size


def test_kernel_shares_prefixes_exactly():
    # Three-state dense chains on two letters for two q values, stepped by
    # windows of two letters.  Every split point gives the plain product of
    # matrices; a batch and its reversal agree bit for bit, single-row
    # batches reproduce every row, and each q column equals a run of that q
    # alone.
    rng = np.random.default_rng(5)
    steps = np.log(rng.uniform(0.1, 1.0, (4, 2, 3, 3)))  # (window, q, state, next)
    start = np.log(rng.uniform(0.1, 1.0, (2, 3)))  # (first letter, state)
    qs = np.array([0.5, 1.5])
    words = np.array(list(np.ndindex(*(2,) * 5)))

    def kernel(a1s, a, columns=slice(None)):
        return split_transfer_log(
            a1s, qs[columns], 2, 2, start, steps[:, columns], TailMemo(), a
        )

    for a in range(1, 6):
        whole = kernel(words, a)
        assert whole.shape == (words.shape[0], 2)
        rows = [kernel(w[None, :], a)[0] for w in words]
        assert whole.tobytes() == np.array(rows).tobytes()
        assert kernel(words[::-1], a).tobytes() == whole[::-1].tobytes()
        for j in range(2):
            alone = kernel(words, a, slice(j, j + 1))
            assert alone[:, 0].tobytes() == whole[:, j].tobytes()
        # Against the plain product of matrices in linear space.
        for w, values in zip(words, whole):
            for j, value in enumerate(values):
                v = np.exp(start[w[0]])
                for i in range(4):
                    v = v @ np.exp(steps[2 * w[i] + w[i + 1], j])
                assert value == pytest.approx(np.log(v.sum()), rel=1e-13)


def _underflow_steps() -> np.ndarray:
    """Three states on two letters: letter 0 keeps state 0 and takes state 1
    to itself with weight e = 1e-200, letter 1 keeps state 2 and takes state
    1 to itself with weight e."""
    e = np.log(1e-200)
    inf = -np.inf
    return np.array(
        [
            [[0.0, inf, inf], [inf, e, inf], [inf, inf, inf]],
            [[inf, inf, inf], [inf, e, inf], [inf, inf, 0.0]],
        ]
    )[:, None]


def test_underflowing_dot_product_is_redone_in_log_space():
    # Word (0, 1) split after one letter: u = [1, e, 0] and v = [0, e, 1]
    # with e = 1e-200, so the linear dot product e**2 underflows to 0; the
    # row sum is still positive and must come out as 2 log e.
    e = np.log(1e-200)
    steps = _underflow_steps()
    words = np.array([[0, 1], [1, 0], [0, 0]])
    for a in (0, 1, 2):
        got = split_transfer_log(
            words, np.array([1.0]), 1, 2, np.zeros((1, 3)), steps, TailMemo(), a
        )[:, 0]
        assert got[0] == pytest.approx(2 * e, rel=1e-15)
        assert got[1] == pytest.approx(2 * e, rel=1e-15)
        assert got[2] == 0.0  # log(1 + e**2)
    # The range route splits (0, 1) and (1, 0) at the same point and redoes
    # both in log space.
    want = split_transfer_log(
        digits_of_indices(np.arange(4), 2, 2), np.array([1.0]), 1, 2, np.zeros((1, 3)),
        steps, TailMemo(),
    )
    with mock.patch.object(transfer, "_walk_tails", wraps=transfer._walk_tails) as walk:
        got = transfer.split_transfer_range(
            2, 0, 4, np.array([1.0]), 1, 2, np.zeros((1, 3)), steps, TailMemo()
        )
    assert walk.call_count == 1 and got.tobytes() == want.tobytes()


def test_skew_rows_read_rho_once_per_column_word(ref_system):
    # The tilt's rows enumerate, and each row's log weight reads the
    # cocycle's row sums at q = 0.5, which enumerate 4**n rows again.  Read
    # once per distinct column word, depth 6 builds 64 x 4**6 x 6 digit
    # cells for them, not one word per tilt row (1.6e9 cells).
    mats = np.random.default_rng(3).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    aux = make_auxiliary(make_matrix_cocycle(ref_system, 2, mats), 0.5, 0.0, VARIANT_PSI_TILDE_Q)
    for n in (2, 4, 6):
        want = pressures_by_definition(aux, 1.0, n)
        assert finite_T(aux, 1.0, n) == pytest.approx(want["T"], rel=1e-12)
    # Rows that share their column words, one with an out-of-range letter:
    # the batch's log weights are the per-row ones, bit for bit.
    rng = np.random.default_rng(0)
    a1s = rng.integers(0, 2, (6, 3))[rng.integers(0, 6, 40)]
    a1s[0, 1] = -1
    a2s = rng.integers(0, 4, (40, 3))
    whole = aux.log_weight_arrays(a1s, a2s)
    rows = [aux.log_weight_arrays(a1s[i : i + 1], a2s[i : i + 1])[0] for i in range(40)]
    assert whole.tobytes() == np.array(rows).tobytes()
    assert np.isneginf(whole[0]) and np.isfinite(whole).sum() > 10


def test_words_through_an_empty_column_skip_the_log_space_walk():
    # Column 2 holds no cell, so every word with the letter 2 is dead: its
    # forward state or its tail vector is all zero, and it is -inf without
    # the log-space walk, which no row of this batch needs.
    system = CellSystem(3, 3, ((0, 0), (0, 2), (1, 1), (1, 2)))
    rng = np.random.default_rng(7)
    window = make_constant_cell(system, 2, rng.uniform(-1.0, 1.0, (4, 4)))
    cocycle = make_matrix_cocycle(system, 2, rng.uniform(0.05, 1.0, (4, 2, 2)))
    words = digits_of_indices(np.arange(3**6), 3, 6)
    dead = (words == 2).any(axis=1)
    qs = np.array([0.0, 1.0, 2.0])
    for psi in (window, cocycle):
        with mock.patch.object(transfer, "_walk_tails", wraps=transfer._walk_tails) as walk:
            fast = psi.row_sum_log_batch(words, qs)
        assert walk.call_count == 0
        slow = row_sum_log_any(psi, words, qs, method="enumerate")
        assert np.isneginf(fast[dead]).all() and np.isneginf(slow[dead]).all()
        np.testing.assert_allclose(fast[~dead], slow[~dead], rtol=1e-12)


# -- one transfer route on CylinderWeight ------------------------------------


def _per_class_mask(psi, qs) -> np.ndarray:
    """Each class's own transfer mask, the oracle of the shared routing: a
    window's grid of ``r1**k x r2**k`` floats must fit, for every q alike; a
    cocycle of dimension >= 2 has Kronecker tables at integer q >= 0 only,
    and they must fit too."""
    if isinstance(psi, weights_module.ConstantCellWeight):
        r1, r2, k = psi.system.r1, psi.system.r2, psi.depth
        return np.full(len(qs), r1**k * r2**k <= symbolic.MAX_TRANSFER_TABLE)
    return np.array(
        [
            psi.dim == 1
            or (q >= 0 and float(q).is_integer()
                and _per_class_kronecker(psi, q) <= symbolic.MAX_TRANSFER_TABLE)
            for q in qs
        ],
        dtype=bool,
    )


def _per_class_kronecker(psi, q) -> int:
    return max(psi.system.n_cells, psi.system.r1) * psi.dim ** (2 * int(q))


def _per_class_refusal(psi, qs) -> str | None:
    cap = symbolic.MAX_TRANSFER_TABLE
    if isinstance(psi, weights_module.ConstantCellWeight):
        r1, r2, k = psi.system.r1, psi.system.r2, psi.depth
        if r1**k * r2**k <= cap:
            return None
        return (
            f"the window transfer table of {r1}**{k} x {r2}**{k} = {r1**k * r2**k} floats "
            f"is over MAX_TRANSFER_TABLE {cap}"
        )
    over = [
        q for q in qs
        if psi.dim > 1 and q >= 0 and float(q).is_integer() and _per_class_kronecker(psi, q) > cap
    ]
    if not over:
        return None
    q = min(over)
    return (
        f"the Kronecker table at q = {q:g} of {_per_class_kronecker(psi, q)} floats "
        f"is over MAX_TRANSFER_TABLE {cap}"
    )


def _per_class_kernel_blocks(psi, qs):
    """``(k, start, steps, qb)`` per q block as each class builds them on
    its own: a window's blocks of ``MAX_TRANSFER_TABLE // grid`` q on its scaled grid,
    a cocycle's one q at a time on its letter tables."""
    if isinstance(psi, weights_module.ConstantCellWeight):
        k, r1, r2 = psi.depth, psi.system.r1, psi.system.r2
        block = max(1, symbolic.MAX_TRANSFER_TABLE // psi._window_grid.size)
        for j in range(0, qs.size, block):
            qb = qs[j : j + block]
            tables = scaled_powers(qb[:, None, None], psi._window_grid)
            tables = tables.reshape(qb.size, r1**k, r2 ** (k - 1), r2)
            yield k, psi._start_table, np.ascontiguousarray(tables.transpose(1, 0, 2, 3)), qb
    else:
        for q in qs:
            steps = psi._letter_tables(q)[:, None]
            yield 1, np.zeros((1, steps.shape[-1])), steps, np.array([q])


def _per_class_gather(system, table, a1s, qs) -> np.ndarray:
    """A depth-1 weight's row sums as its class gathered them from its
    ``(r1, r2)`` log table: ``(W, Q)`` sums of per-letter fiber lse's."""
    letter = np.full((qs.size, system.r1 + 1), -np.inf)
    letter[:, :-1] = lse(scaled_powers(qs[:, None, None], table), axis=2)
    a1s = np.asarray(a1s, dtype=np.int64)
    pos = np.where((a1s >= 0) & (a1s < system.r1), a1s, system.r1)
    block = max(1, weights_module.ENUMERATION_BLOCK // max(1, pos.size))
    sums = [
        np.take(letter[j : j + block], pos, axis=1).sum(axis=2)
        for j in range(0, qs.size, block)
    ]
    return np.concatenate(sums).T


def _per_class_batch(psi, words, qs) -> np.ndarray:
    W, n = words.shape
    k = getattr(psi, "depth", 1)
    if getattr(psi, "dim", 1) == 1 and k == 1:
        return _per_class_gather(psi.system, psi.depth1_log_table(), words, qs)
    if n == 0:
        return np.zeros((W, qs.size))
    if n < k:
        return weights_module._enumerate_row_sums(psi, words, qs)
    return np.concatenate(
        [
            split_transfer_log(words, qb, k, psi.system.r1, start, steps, TailMemo())
            for k, start, steps, qb in _per_class_kernel_blocks(psi, qs)
        ],
        axis=1,
    )


def _per_class_range(psi, n, lo, hi, qs) -> np.ndarray:
    k = getattr(psi, "depth", 1)
    if (getattr(psi, "dim", 1) == 1 and k == 1) or n < max(k, 1) or n == 0:
        return _per_class_batch(psi, digits_of_indices(np.arange(lo, hi), psi.system.r1, n), qs)
    return np.concatenate(
        [
            transfer.split_transfer_range(n, lo, hi, qb, k, psi.system.r1, start, steps, TailMemo())
            for k, start, steps, qb in _per_class_kernel_blocks(psi, qs)
        ],
        axis=1,
    )


@st.composite
def transfer_weights(draw):
    """Windows of depth 1-3 and cocycles of dimension 1-2."""
    system = draw(small_systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = system.n_cells
    if draw(st.booleans()):
        depth = draw(st.integers(1, 3))
        return make_constant_cell(system, depth, rng.uniform(-1.0, 1.0, (nc,) * depth))
    dim = draw(st.integers(1, 2))
    return make_matrix_cocycle(system, dim, rng.uniform(0.05, 1.0, (nc, dim, dim)))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    psi=transfer_weights(),
    cap=st.sampled_from((4, 16, 40, 100, 300, 2000)),
    qs=st.lists(st.sampled_from(Q_VALUES), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_shared_routing_keeps_the_per_class_rules(data, psi, cap, qs):
    """Under a small table budget, the routing on :class:`CylinderWeight`
    gives each window and cocycle the mask, refusal text and row-sum bytes
    of its class's own rules, kept above as the oracle."""
    qs = np.array(qs)
    r1 = psi.system.r1
    with mock.patch.object(symbolic, "MAX_TRANSFER_TABLE", cap):
        mask = psi.transfer_mask(qs)
        np.testing.assert_array_equal(mask, _per_class_mask(psi, qs))
        assert psi.transfer_refusal(qs) == _per_class_refusal(psi, qs)
        routed = qs[mask]
        if not routed.size:
            return
        empty = st.just(np.zeros((3, 0), dtype=np.int64))  # words of no letter
        words = data.draw(batches(r1, n_max=5) | empty)
        psi._tails = TailMemo()
        got = psi.row_sum_log_batch(words, routed)
        assert got.shape == (words.shape[0], routed.size)
        assert got.tobytes() == _per_class_batch(psi, words, routed).tobytes()
        n = data.draw(st.integers(0, 6 if r1 == 2 else 4))
        lo = data.draw(st.integers(0, r1**n))
        hi = data.draw(st.integers(lo, r1**n))
        got = psi.row_sum_log_range(n, lo, hi, routed)
        assert got.tobytes() == _per_class_range(psi, n, lo, hi, routed).tobytes()


@st.composite
def table_weights(draw):
    """Windows of depth 1-3, dim-2 cocycles and a directly built dim-1
    cocycle (the factory builds dimension 1 as a depth-1 window)."""
    system = draw(small_systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = system.n_cells
    kind = draw(st.sampled_from(("window", "cocycle", "dim1")))
    if kind == "window":
        depth = draw(st.integers(1, 3))
        return make_constant_cell(system, depth, rng.uniform(-1.0, 1.0, (nc,) * depth))
    dim = 2 if kind == "cocycle" else 1
    return MatrixCocycleWeight(system, dim, rng.uniform(0.05, 1.0, (nc, dim, dim)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), psi=table_weights(), q=st.sampled_from((-1.5, 0.0, 0.5, 1.0, 2.0, 3.0)))
def test_step_tables_are_the_transfer_contract(data, psi, q):
    """Wherever a weight reports a transfer table at q, the split kernel on
    its ``step_tables`` gives the enumerated row sums, so code that reads
    only ``transfer_floats`` and ``step_tables`` is exact at every depth."""
    assume(psi.transfer_floats(q) is not None)
    qs = np.array([q])
    k, start, steps = psi.step_tables(qs)
    words = data.draw(batches(psi.system.r1, n_min=k, n_max=k + 3))
    got = split_transfer_log(words, qs, k, psi.system.r1, start, steps, TailMemo())
    want = row_sum_log_any(psi, words, qs, method="enumerate")
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.all(
        np.abs(got[finite] - want[finite]) <= 1e-12 * np.maximum(1.0, np.abs(want[finite]))
    )


def test_memo_store_holds_its_lock():
    # Eight threads store into one memo whose bound holds no entry, so each
    # store evicts the entries it and the others just made, with a switch
    # interval short enough that two evictions interleave.  Unlocked, one
    # thread's eviction runs into another's: the dictionary changes size
    # under an iteration, or a key is popped twice.
    memo = TailMemo()
    entry = (np.zeros(4),)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(symbolic, "MAX_TRANSFER_TABLE", 2):

            def store(thread: int) -> None:
                for i in range(2000):
                    memo._store(("backward", thread, float(i)), entry)

            with ThreadPoolExecutor(8) as pool:
                for call in [pool.submit(store, t) for t in range(8)]:
                    call.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert memo.floats == 0 and not memo._entries
