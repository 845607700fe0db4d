"""The batched path sampler: its three routes, chunking, enumeration
blocks, and tables built once per call.

The enumerate route is the oracle.  The i.i.d. route draws exactly its
paths on the same streams.  The column-first route draws other paths from
the same uniforms, so it is checked by its law: every path's probability
exactly, and the frequencies of drawn paths by a chi-square test.
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetmf import (
    VARIANT_PSI_Q,
    VARIANT_PSI_TILDE_Q,
    SkewProductWeight,
    closed_form_beta,
    finite_beta,
    gibbs,
    make_auxiliary,
    make_constant_cell,
    make_matrix_cocycle,
    normalize_to_gibbs,
    sample_path,
    sample_paths,
    sampled_log_masses,
)
from carpetmf import weights as weights_module
from carpetmf.gibbs import AuxiliaryWeight
from carpetmf.numerics import lse
from carpetmf.pressure import pass_chunks
from carpetmf.reference import random_depth2_weight, reference_system, reference_weight
from carpetmf.symbolic import CapExceededError, CellSystem, digits_of_indices, pack_digits
from carpetmf.weights import CylinderWeight, unwrap_shift


class Opaque(CylinderWeight):
    """The same weight with no structure hook, so it samples by enumeration."""

    def __init__(self, inner: CylinderWeight) -> None:
        self.system = inner.system
        self.inner = inner

    def log_weight_arrays(self, a1s, a2s):
        return self.inner.log_weight_arrays(a1s, a2s)


def _tilt(seed: int = 7) -> AuxiliaryWeight:
    """psiQ tilt of a normalized depth-2 window weight: the column-first route."""
    base = random_depth2_weight(seed)
    psi = normalize_to_gibbs(base, -finite_beta(base, 1.0, 6) * math.log(2))
    return make_auxiliary(psi, 1.5, finite_beta(psi, 1.5, 6), VARIANT_PSI_Q)


def _cocycle_tilt() -> AuxiliaryWeight:
    """psiQ tilt of a dim-2 matrix cocycle: no route but enumeration."""
    matrices = np.random.default_rng(1).uniform(0.05, 1.0, (5, 2, 2))
    cocycle = make_matrix_cocycle(reference_system(), 2, matrices)
    return make_auxiliary(cocycle, 2.0, 0.1, VARIANT_PSI_Q)


def _depth1_factored() -> tuple[CylinderWeight, CylinderWeight]:
    """A psiQ tilt and a skew product of depth-1 weights: both draw i.i.d.
    cells from the factored weight's depth-1 table.  The tilted weight's
    fibers sum to 0.6 and 0.4, so its tilt is not the weight itself."""
    skewed = make_constant_cell(reference_system(), 1, np.log([0.3, 0.3, 0.1, 0.15, 0.15]))
    tilt = make_auxiliary(skewed, 2.0, closed_form_beta(skewed, 2.0), VARIANT_PSI_Q)
    skew = SkewProductWeight(reference_weight(), np.log([0.7, 0.3]))
    return tilt, skew


ROUTES = {
    "iid": lambda: reference_weight(),
    "window": lambda: random_depth2_weight(),
    "tilt": lambda: _tilt(),
    "enumerate": lambda: _cocycle_tilt(),
}


@pytest.mark.parametrize("seed", range(5))
def test_fast_routes_draw_the_enumeration_paths(seed):
    # The enumerate route is the oracle: on the same streams, the i.i.d.
    # route must draw exactly its paths.
    factored = _depth1_factored()
    assert all(weight.dependence_depth == 1 for weight in factored)  # the i.i.d. route
    for weight in (reference_weight(), *factored):
        fast = sample_paths(weight, 6, seed, 0, 2000)
        oracle = sample_paths(Opaque(weight), 6, seed, 0, 2000)
        assert np.array_equal(fast, oracle)


def _random_system(rng: np.random.Generator) -> CellSystem:
    """A random 2-3 x 2-4 cell system with a cell in every column."""
    r1 = int(rng.integers(2, 4))
    r2 = int(rng.integers(r1, 5))
    allowed = {(a, b) for a in range(r1) for b in range(r2) if rng.random() < 0.6}
    allowed |= {(a, int(rng.integers(r2))) for a in range(r1)}
    return CellSystem(r1=r1, r2=r2, allowed=tuple(sorted(allowed)))


def _enumerated_law(weight: CylinderWeight, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(W, m, 2)`` cells of all ``W = n_cells**m`` words, in the order
    of their packed cell indices, and their normalized weights."""
    system = weight.system
    cells = system.cells_array[digits_of_indices(np.arange(system.n_cells**m), system.n_cells, m)]
    lw = weight.log_weight_arrays(cells[..., 0], cells[..., 1])
    return cells, np.exp(lw - lse(lw))


def _route_law(weight: CylinderWeight, k: int, m: int) -> np.ndarray:
    """Every word's probability under the column-first route, in the order
    of :func:`_enumerated_law`: each of the route's draws is forced onto all
    words at once and records the probability of its index under the cdf
    the route gave it."""
    system = weight.system
    cells, _ = _enumerated_law(weight, m)
    a1s, a2s = cells[..., 0], cells[..., 1]
    # The draws in order: the column word, the first k-1 row digits, then
    # one row digit per window.
    targets = [pack_digits(a1s, system.r1), pack_digits(a2s[:, : k - 1], system.r2)]
    targets += list(a2s[:, k - 1 :].T)
    probs = []

    def forced(cdf, uniforms):
        index = targets[len(probs)]
        below = np.concatenate([np.zeros(cdf.shape[:-1] + (1,)), cdf], axis=-1)
        rows = () if cdf.ndim == 1 else (np.arange(index.size),)
        probs.append(below[(*rows, index + 1)] - below[(*rows, index)])
        return index

    with mock.patch.object(gibbs, "_draw", forced):
        assert np.array_equal(sample_paths(weight, m, 0, 0, len(cells)), cells)
    assert len(probs) == m - k + 3
    return np.prod(probs, axis=0)


def _windows(rng: np.random.Generator, system: CellSystem):
    """``(k, weight)``: random windows of depth 2 and 3, each raw, as psiQ
    and psiTildeQ tilts of its shifted weight at q in {-1.5, 0.5, 2}, and
    under chains of skew products, tilts and shifts several levels deep."""
    for k in (2, 3):
        window = make_constant_cell(system, k, rng.normal(size=(system.n_cells,) * k))
        yield k, window
        for q in (-1.5, 0.5, 2.0):
            for variant in (VARIANT_PSI_Q, VARIANT_PSI_TILDE_Q):
                yield k, make_auxiliary(normalize_to_gibbs(window, 0.3), q, -0.2, variant)
        skew = SkewProductWeight(window, rng.normal(size=system.r1), ((1.5, 0.5),), q=1.5)
        yield k, skew
        yield k, make_auxiliary(skew, 2.0, 0.1, VARIANT_PSI_Q)
        yield k, make_auxiliary(normalize_to_gibbs(skew, 0.3), -1.5, -0.2, VARIANT_PSI_TILDE_Q)
        tilt = make_auxiliary(normalize_to_gibbs(window, 0.3), 2.0, -0.2, VARIANT_PSI_Q)
        yield k, SkewProductWeight(tilt, q=0.5)


@pytest.mark.parametrize("seed", range(4))
def test_column_first_route_has_the_enumerated_law(seed):
    # Every path's probability, its column word's times its row
    # conditionals, is its enumerated normalized weight, at every horizon
    # from the window depth to 4.
    rng = np.random.default_rng(seed)
    system = _random_system(rng)
    with mock.patch.object(gibbs, "_enumerate_route", side_effect=AssertionError):
        for k, weight in _windows(rng, system):
            for m in range(k, 5):
                _, want = _enumerated_law(weight, m)
                np.testing.assert_allclose(_route_law(weight, k, m), want, rtol=0, atol=1e-12)


def test_column_first_route_draws_the_enumerated_frequencies():
    # 20,000 paths of a psiQ tilt at horizon 3 against the enumerated law,
    # pooling the words expected fewer than 5 times.  The threshold is the
    # chi-square quantile of false-alarm rate 1e-4: a correct sampler fails
    # on one seed in 10,000.
    from scipy.stats import chi2

    rng = np.random.default_rng(11)
    system = CellSystem(r1=2, r2=3, allowed=((0, 0), (0, 2), (1, 0), (1, 1), (1, 2)))
    window = make_constant_cell(system, 2, rng.normal(size=(5, 5)))
    weight = make_auxiliary(window, 2.0, 0.0, VARIANT_PSI_Q)
    n = 20_000
    _, want = _enumerated_law(weight, 3)
    paths = sample_paths(weight, 3, 5, 0, n)
    words = pack_digits(system.cell_index[paths[..., 0], paths[..., 1]], system.n_cells)
    observed, expected = np.bincount(words, minlength=want.size), n * want
    pooled = expected < 5
    observed = np.append(observed[~pooled], observed[pooled].sum())
    expected = np.append(expected[~pooled], expected[pooled].sum())
    assert pooled.any() and observed.size > 30
    statistic = np.sum((observed - expected) ** 2 / expected)
    assert statistic < chi2.isf(1e-4, observed.size - 1)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_paths_do_not_depend_on_the_split(route):
    weight = ROUTES[route]()
    whole = sample_paths(weight, 5, 3, 5, 45)
    assert whole.shape == (40, 5, 2)
    for mid in (5, 6, 23, 45):
        parts = np.concatenate(
            [sample_paths(weight, 5, 3, 5, mid), sample_paths(weight, 5, 3, mid, 45)]
        )
        assert np.array_equal(whole, parts)
    for row, i in enumerate(range(5, 45)):
        assert np.array_equal(whole[row], sample_path(weight, 5, 3, i))


def test_column_marginal_chunks_on_threads_keep_the_bytes():
    # Horizon 17 splits the column marginal's pass into two chunks of 2**16
    # words; eight threads with a short switch interval share the weight's
    # memo and must draw the serial paths.
    tilt = _tilt()
    want = sampled_log_masses(tilt.base, tilt, 8, 17, 300, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sampled_log_masses(tilt.base, tilt, 8, 17, 300, 4, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(pass_chunks(2, 17)) == 2
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_enumeration_blocks_draw_identical_paths(block):
    weight = _cocycle_tilt()
    want = sample_paths(weight, 3, 2, 0, 300)
    with mock.patch.object(weights_module, "ENUMERATION_BLOCK", block):
        assert np.array_equal(sample_paths(weight, 3, 2, 0, 300), want)


def test_sampler_validation(monkeypatch):
    weight = reference_weight()
    assert sample_paths(weight, 5, 0, 4, 4).shape == (0, 5, 2)
    with pytest.raises(ValueError):
        sample_paths(weight, 5, 0, 4, 3)
    with pytest.raises(ValueError):
        sample_paths(weight, 0, 0, 0, 1)
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 4)
    with pytest.raises(CapExceededError, match="5 extension evaluations"):
        sample_paths(Opaque(weight), 1, 0, 0, 1)
    with pytest.raises(CapExceededError, match="needs 8 column words"):
        sample_paths(random_depth2_weight(), 3, 0, 0, 1)
    # A window whose transfer grid is over its budget is refused at once.
    monkeypatch.undo()
    sparse = CellSystem(r1=5, r2=10, allowed=tuple((a, b) for a in range(5) for b in (a, a + 5)))
    with pytest.raises(CapExceededError, match="window transfer table too large"):
        sample_paths(make_constant_cell(sparse, 4, np.zeros((10,) * 4)), 4, 0, 0, 1)


def _calls(target, name, run) -> int:
    with mock.patch.object(target, name, wraps=getattr(target, name)) as spy:
        run()
    return spy.call_count


@pytest.mark.parametrize("n_samples", [16, 1100])
def test_tables_are_built_once_per_call(n_samples):
    # 1,100 samples split into two chunks; no count may grow with it.  At
    # depth = horizon there is no ball, so a chunk reads only psi's log
    # weights: the window's step tables are built once for the column
    # marginal's one pass and once for the rows.  The tilt's marginal reads
    # its base's by rank, and that pressure shift reads the window's: one
    # ranked read per layer and chunk.
    for weight, layers in ((random_depth2_weight(), 1), (_tilt(), 3)):
        window = unwrap_shift(getattr(weight, "base", weight))
        run = partial(sampled_log_masses, window, weight, 4, 4, n_samples, 1)
        reads = _calls(weights_module, "row_sum_log_ranks", run)
        assert reads == layers * len(pass_chunks(2, 4)) == layers
        assert _calls(window, "step_tables", run) == 2
    tilt = _cocycle_tilt()
    run = partial(sampled_log_masses, tilt.base, tilt, 2, 4, n_samples, 1)
    assert _calls(tilt, "log_weight_arrays", run) == 1


@pytest.mark.parametrize(
    "tilt, enumerations", [(_tilt, 0), (_cocycle_tilt, 1)], ids=["window", "cocycle"]
)
def test_only_opaque_tilts_sample_by_enumeration(tilt, enumerations):
    # What the sample command runs: a psiQ tilt's paths at horizon g(3) = 6.
    aux = tilt()
    with mock.patch.object(gibbs, "_enumerate_route", wraps=gibbs._enumerate_route) as spy:
        sampled_log_masses(aux.base, aux, 3, 6, 40, 1, workers=2)
    assert spy.call_count == enumerations


# -- the inverse-cdf table ---------------------------------------------------


def _cdf_with_temporaries(log_probs: np.ndarray) -> np.ndarray:
    """The cdf as it was computed before it worked in place: the shifted
    logs and their exponentials as new arrays."""
    peak = np.max(log_probs, axis=-1, keepdims=True)
    p = np.exp(log_probs - peak)
    p /= p.sum(axis=-1, keepdims=True)
    return np.cumsum(p, axis=-1, out=p)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(((1,), (7,), (1000,), (5, 3), (64, 33), (3, 1001))),
    scale=st.sampled_from((1e-3, 1.0, 40.0, 800.0)),
)
def test_cdf_in_place_keeps_the_bytes(seed, shape, scale):
    rng = np.random.default_rng(seed)
    log_probs = rng.normal(0.0, scale, shape)
    log_probs[rng.random(shape) < 0.2] = -np.inf
    log_probs[..., 0] = rng.normal(0.0, scale, shape[:-1])  # a finite entry per row
    want = _cdf_with_temporaries(log_probs.copy())
    got = gibbs._cdf(log_probs)
    assert np.shares_memory(got, log_probs)
    assert got.tobytes() == want.tobytes()


def test_cdf_holds_no_copy_of_its_input():
    # 2**20 entries: the shifted logs and their exponentials live in the
    # input's buffer, so the peak stays near the input's own 8 MB.
    tracemalloc.start()
    try:
        log_probs = np.random.default_rng(0).normal(0.0, 3.0, 2**20)
        tracemalloc.reset_peak()
        gibbs._cdf(log_probs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * log_probs.nbytes
