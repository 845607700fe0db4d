"""The numpy log-sum-exp against an exactly rounded reference."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import carpetmf
from carpetmf.numerics import lse

NEG_INF = float("-inf")

entries = st.one_of(st.just(NEG_INF), st.floats(-700.0, 700.0))


@st.composite
def arrays(draw, ndim: int = 2) -> np.ndarray:
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    flat = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=float).reshape(shape)


def fsum_lse(values) -> float:
    values = [float(v) for v in values]
    peak = max(values, default=NEG_INF)
    if peak == NEG_INF:
        return NEG_INF
    return math.log(math.fsum(math.exp(v - peak) for v in values)) + peak


def assert_close(got: float, want: float) -> None:
    if want == NEG_INF:
        assert got == NEG_INF
    else:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


@settings(max_examples=200, deadline=None)
@given(arrays())
def test_lse_matches_fsum_reference(x):
    assert_close(float(lse(x)), fsum_lse(x.ravel()))
    for axis in (0, 1):
        got = lse(x, axis=axis)
        assert got.shape == (x.shape[1 - axis],)
        for i, value in enumerate(got):
            assert_close(float(value), fsum_lse(np.take(x, i, axis=1 - axis)))


def test_lse_all_neg_inf_and_empty_slices():
    assert lse(np.full(4, NEG_INF)) == NEG_INF
    rows = lse(np.array([[NEG_INF, NEG_INF], [0.0, NEG_INF]]), axis=1)
    assert rows[0] == NEG_INF and rows[1] == 0.0
    assert lse(np.empty(0)) == NEG_INF
    assert lse([]) == NEG_INF
    assert np.array_equal(lse(np.empty((0, 3)), axis=0), np.full(3, NEG_INF))
    assert np.array_equal(lse(np.empty((3, 0)), axis=1), np.full(3, NEG_INF))
    assert lse(np.empty((0, 3)), axis=1).shape == (0,)


def test_lse_non_finite_peaks():
    assert lse([math.inf, 1.0]) == math.inf
    assert math.isnan(lse([math.nan, 1.0]))


@settings(max_examples=100, deadline=None)
@given(arrays(ndim=3), st.data())
def test_lse_row_independent_of_batch(x, data):
    # The transfer kernel reduces axis 1 of (batch, C, S) blocks and relies on
    # each batch row's value being the same bits however the batch is cut.
    whole = lse(x, axis=1)
    lo = data.draw(st.integers(0, x.shape[0] - 1))
    hi = data.draw(st.integers(lo + 1, x.shape[0]))
    assert lse(x[lo:hi], axis=1).tobytes() == whole[lo:hi].tobytes()
    flat = x[:, :, 0]
    rows = lse(flat, axis=1)
    for i in range(flat.shape[0]):
        assert lse(flat[i]) == rows[i]
        assert lse(flat[i : i + 1], axis=1).tobytes() == rows[i : i + 1].tobytes()


def test_cli_import_leaves_scipy_out():
    code = "import sys, carpetmf.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(carpetmf.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
