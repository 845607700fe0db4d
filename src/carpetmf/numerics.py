"""Log-space numerics shared by the pressure, spectra and sampling pipelines.

Weights and measures are manipulated exclusively through their logarithms
(``-inf`` encodes an exactly-zero weight).  Large sums are evaluated as
chunked log-sum-exp reductions whose chunk layout depends only on the problem
size — never on the worker count — and whose partial results are combined
along a fixed binary tree, so results are bit-identical for any ``workers``
setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

NEG_INF = float("-inf")

ChunkResult = TypeVar("ChunkResult")

#: Maximum number of contiguous chunks a reduction is split into.
REDUCTION_CHUNKS = 64

#: Do not bother splitting below this many items per chunk.
MIN_CHUNK_SIZE = 512


def lse(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(values))) with empty/all-(-inf) slices mapping to -inf.

    Each slice is shifted by its own max (non-finite peaks shift by 0), so an
    output element depends only on its own slice and a row's value is
    bit-identical whatever batch it sits in.
    """
    values = np.asarray(values, dtype=float)
    peak = np.max(values, axis=axis, keepdims=True, initial=NEG_INF)
    peak[~np.isfinite(peak)] = 0.0
    shifted = values - peak
    np.exp(shifted, out=shifted)  # in place: one temporary of the input's size
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(shifted, axis=axis)) + np.squeeze(peak, axis=axis)
    return out if out.ndim else out[()]


def scaled_powers(exponent, log_values: np.ndarray) -> np.ndarray:
    """``exponent * log_values`` under the zero-weight convention ``0**e == 0``.

    Entries at -inf stay -inf for every real exponent, including e <= 0, so a
    vanished weight never resurrects as 1 (e = 0) or infinity (e < 0).  An
    array of exponents broadcasts against ``log_values``.
    """
    log_values = np.asarray(log_values, dtype=float)
    with np.errstate(invalid="ignore"):
        out = exponent * log_values
    if np.any(np.asarray(exponent) <= 0.0):
        out = np.asarray(out)
        np.copyto(out, NEG_INF, where=np.isneginf(log_values))
    return out


# ---------------------------------------------------------------------------
# Deterministic chunked log-sum-exp
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogSumPart:
    """Partial state of a log-sum-exp: ``peak + log(total)`` when finished."""

    peak: float
    total: float


EMPTY_PART = LogSumPart(NEG_INF, 0.0)


def parts_from_rows(log_values: np.ndarray) -> list[LogSumPart]:
    """Reduce each row of a ``(K, W)`` chunk of log-values to a partial state.

    Row ``k`` gives the same state as :func:`part_from_array` on that row
    alone: each row is summed as one contiguous run.
    """
    v = np.ascontiguousarray(log_values, dtype=float)
    if v.shape[1] == 0:
        return [EMPTY_PART] * v.shape[0]
    peaks = np.max(v, axis=1)
    if np.isnan(peaks).any():
        raise FloatingPointError("NaN encountered in log-space reduction")
    live = peaks != NEG_INF
    shifted = v - np.where(live, peaks, 0.0)[:, None]
    totals = np.sum(np.exp(shifted, out=shifted), axis=1)
    return [
        LogSumPart(float(p), float(t)) if ok else EMPTY_PART
        for p, t, ok in zip(peaks, totals, live)
    ]


def part_from_array(log_values: np.ndarray) -> LogSumPart:
    """Reduce one chunk of log-values to a partial sum state."""
    return parts_from_rows(np.asarray(log_values, dtype=float).reshape(1, -1))[0]


def combine_parts(a: LogSumPart, b: LogSumPart) -> LogSumPart:
    if a.peak == NEG_INF:
        return b
    if b.peak == NEG_INF:
        return a
    peak = a.peak if a.peak >= b.peak else b.peak
    total = a.total * math.exp(a.peak - peak) + b.total * math.exp(b.peak - peak)
    return LogSumPart(peak, total)


def part_value(part: LogSumPart) -> float:
    if part.peak == NEG_INF or part.total <= 0.0:
        return NEG_INF
    return part.peak + math.log(part.total)


def tree_combine(parts: Sequence[LogSumPart]) -> LogSumPart:
    """Combine partials along a fixed binary tree (adjacent pairs per round)."""
    level = list(parts)
    if not level:
        return EMPTY_PART
    while len(level) > 1:
        nxt = [
            combine_parts(level[i], level[i + 1]) if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
        level = nxt
    return level[0]


def chunk_ranges(total: int) -> list[tuple[int, int]]:
    """Contiguous index ranges covering ``range(total)``.

    The layout is a function of ``total`` alone, which is what makes
    multi-worker reductions reproduce the single-worker bytes.
    """
    if total <= 0:
        return []
    n_chunks = max(1, min(REDUCTION_CHUNKS, total // MIN_CHUNK_SIZE))
    base, extra = divmod(total, n_chunks)
    ranges = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def map_chunks(
    fn: Callable[[int, int], ChunkResult], total: int, workers: int = 1
) -> list[ChunkResult]:
    """``fn(start, stop)`` over :func:`chunk_ranges`, results in index order."""
    return map_ranges(fn, chunk_ranges(total), workers)


def map_ranges(
    fn: Callable[[int, int], ChunkResult], ranges: Sequence[tuple[int, int]], workers: int = 1
) -> list[ChunkResult]:
    """``fn(start, stop)`` over a chunk layout, results in index order.

    Threads only change which worker evaluates a chunk, not the chunk layout
    or the order of the results.
    """
    if workers <= 1 or len(ranges) <= 1:
        return [fn(a, b) for a, b in ranges]
    pool_class = globals().get("ThreadPoolExecutor") or __getattr__("ThreadPoolExecutor")
    with pool_class(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def __getattr__(name: str):
    # ThreadPoolExecutor loads when first read, so only threaded passes load
    # concurrent.futures; map_ranges uses any pool class set on the module.
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor

    globals()[name] = ThreadPoolExecutor
    return ThreadPoolExecutor


def chunked_logsumexp(
    partial_fn: Callable[[int, int], LogSumPart],
    total: int,
    workers: int = 1,
) -> float:
    """log-sum-exp of ``total`` terms produced chunk-wise by ``partial_fn``.

    ``partial_fn(start, stop)`` must return the partial state of the chunk
    ``[start, stop)``; partials combine along :func:`tree_combine`.
    """
    return part_value(tree_combine(map_chunks(partial_fn, total, workers)))


def run_chunked_arrays(
    array_fn: Callable[[int, int], np.ndarray],
    total: int,
    workers: int = 1,
) -> np.ndarray:
    """Concatenate per-chunk 1-d arrays in index order (worker-independent)."""
    blocks = map_chunks(array_fn, total, workers)
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=float)


# ---------------------------------------------------------------------------
# 1-d grids and their derivatives
# ---------------------------------------------------------------------------


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values of a float array, as ``np.unique`` gives
    them, without the ``numpy.ma`` import its plain form pays."""
    out = np.sort(np.asarray(values, dtype=float).ravel())
    keep = np.ones(out.size, dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def central_derivative(f: Callable[[float], float], x: float, h: float = 1e-4) -> float:
    """Richardson-refined central difference of a scalar function."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def grid_derivative(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """df/dq on a sorted, possibly non-uniform grid.

    Interior points use the three-point (quadratic-fit) stencil; endpoints use
    one-sided secants, which for concave data yield supporting lines that stay
    above the graph outside the bracket — the safe choice for envelope
    constructions.  Where a locally uniform five-point window exists, the
    stencil is Richardson-refined using the double-spacing neighbors.
    """
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    n = q.size
    if n < 2:
        raise ValueError("need at least two grid points")
    if np.any(np.diff(q) <= 0):
        raise ValueError("grid must be strictly increasing")
    d = np.empty(n)
    d[0] = (f[1] - f[0]) / (q[1] - q[0])
    d[-1] = (f[-1] - f[-2]) / (q[-1] - q[-2])
    for i in range(1, n - 1):
        hl = q[i] - q[i - 1]
        hr = q[i + 1] - q[i]
        d3 = (
            -hr / (hl * (hl + hr)) * f[i - 1]
            + (hr - hl) / (hl * hr) * f[i]
            + hl / (hr * (hl + hr)) * f[i + 1]
        )
        d[i] = d3
        if 2 <= i <= n - 3 and math.isclose(hl, hr, rel_tol=1e-12):
            h = hl
            if math.isclose(q[i] - q[i - 2], 2 * h, rel_tol=1e-12) and math.isclose(
                q[i + 2] - q[i], 2 * h, rel_tol=1e-12
            ):
                d2h = (f[i + 2] - f[i - 2]) / (4.0 * h)
                d[i] = (4.0 * d3 - d2h) / 3.0
    return d


def concavity_defect(q: np.ndarray, f: np.ndarray) -> float:
    """Largest increase of consecutive chord slopes (0 for concave data)."""
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    if q.size < 3:
        return 0.0
    slopes = np.diff(f) / np.diff(q)
    return float(max(0.0, np.max(slopes[1:] - slopes[:-1])))


def mean_and_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error (ddof=1), pairwise-summed by numpy."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(np.mean(x))
    if n < 2:
        return mean, float("nan")
    return mean, float(np.std(x, ddof=1)) / math.sqrt(n)
