"""Auxiliary Gibbs-type weights, ball masses, and path sampling.

For a weight psi and a moment parameter q, two auxiliary weights tilt psi
toward the q-typical behavior; both have pressure zero when the supplied
level constant equals the corresponding extrapolated pressure value:

* variant ``psiQ``  (level constant from the ``beta`` curve):
  ``theta_q(w1) = r1^{n L} I_1(w1)^{q(1-s)} I_q(w1)^s`` and
  ``psi_q = theta_q psi^q / I_q`` — its row marginal is exactly ``theta_q``;
* variant ``psiTildeQ`` (level constant from the ``T`` curve):
  ``tilde-theta_q(w1) = r1^{n L} I_q(w1)^s`` and
  ``tilde-psi_q = tilde-theta_q psi^q / I_q``.

Both are skew products (:class:`~carpetmf.weights.SkewProductWeight`) of psi
with exponent q: the column marginal has the letter factor ``r1^L`` (L the
level constant) and the row-sum moments ``((1, q(1-s)), (q, s))`` or
``((q, s),)``, so every evaluation takes the row sums of psi it needs from
one q-batched call.

At q = 1 with the pressure of psi as level constant, ``psiQ`` reproduces the
normalized weight itself.  Sampling draws cell paths from the exact
cylinder law: i.i.d. cells for depth-1 weights; for wider windows under any
chain of shifts and skew products, the column word from its marginal and
then its rows; else each cell from the enumerated extensions.  Each sample
index has its own counter-based RNG stream, so runs are reproducible for
any worker count.

The streams are SplitMix64 counter streams (Steele, Lea and Flood, OOPSLA
2014), computed with numpy ``uint64`` arithmetic mod ``2**64``.  With
``gamma = 0x9E3779B97F4A7C15`` and ``mix64`` SplitMix64's finalizer, the
key ``K`` folds every 64-bit word of the master seed, lowest first, as
``K = mix64(K ^ word)`` from ``K = 0``; path ``i`` has the base ``b_i =
mix64(K + (i + 1) gamma)``, and its uniform ``j`` is ``(mix64(b_i + (j + 1)
gamma) >> 11) * 2**-53``.  A path's uniforms depend neither on its chunk nor
on how many are drawn, and path indices stop at ``2**64``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import weights as weights_module
from .numerics import NEG_INF, lse, map_ranges, mean_and_stderr, run_chunked_arrays
from .pressure import log_total_mass, pass_chunks
from .symbolic import CellSystem, check_budget, depth_map, digits_of_indices, pack_digits
from .transfer import _transfer_level, _window_keys
from .weights import (
    ConstantCellWeight,
    CylinderWeight,
    SkewProductWeight,
    WrappedWeight,
    row_sum_log_any,
    unwrap_shift,
)

VARIANT_PSI_Q = "psiQ"
VARIANT_PSI_TILDE_Q = "psiTildeQ"
VARIANTS = (VARIANT_PSI_Q, VARIANT_PSI_TILDE_Q)


class AuxiliaryWeight(SkewProductWeight):
    """Moment tilt ``theta_q(w1) * psi(w1 x w2)^q / I_q(w1)``: the skew
    product of ``psi`` with exponent q whose column marginal has the letter
    factor ``r1^L`` (L the level constant) and the moments ``I_1^{q(1-s)}
    I_q^s`` (``psiQ``) or ``I_q^s`` (``psiTildeQ``)."""

    def __init__(
        self,
        base: CylinderWeight,
        q: float,
        level_constant: float,
        variant: str,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        self.level_constant = float(level_constant)
        self.variant = variant
        q, s = float(q), base.system.s
        moments = ((1.0, q * (1.0 - s)), (q, s)) if variant == VARIANT_PSI_Q else ((q, s),)
        super().__init__(base, self.level_constant * math.log(base.system.r1), moments, q)


def make_auxiliary(
    psi: CylinderWeight, q: float, level_constant: float, variant: str
) -> AuxiliaryWeight:
    """Tilt ``psi`` toward its q-typical rows/cells; see module docstring.

    ``level_constant`` should be the extrapolated ``beta(q)`` (variant
    ``psiQ``) or ``T(q)`` (variant ``psiTildeQ``) so the tilt has pressure
    zero; any float is accepted — the pressure then shifts accordingly.
    """
    return AuxiliaryWeight(psi, q, level_constant, variant)


# ---------------------------------------------------------------------------
# Ball masses
# ---------------------------------------------------------------------------


def ball_mass(
    psi: CylinderWeight, column_word: Sequence[int], row_word: Sequence[int]
) -> float:
    """Log mass of the anisotropic ball given by a depth-n row word and a
    depth-g(n) column word.

    The mass multiplies the cylinder weight of the square part ``w1|n x w2``
    by the normalized row-marginal fraction of the column extension:
    ``I_1(u) / sum_{|u'| = g-n} I_1(u')``.
    """
    row_word = np.asarray(row_word, dtype=np.int64)
    column_word = np.asarray(column_word, dtype=np.int64)
    n = row_word.size
    g = depth_map(psi.system, n)
    if column_word.size != g:
        raise ValueError(f"column word must have depth g({n}) = {g}, got {column_word.size}")
    if n == 0:
        return 0.0
    lw = float(
        psi.log_weight_arrays(column_word[None, :n], row_word[None, :])[0]
    )
    if lw == NEG_INF:
        return NEG_INF
    m = g - n
    if m == 0:
        return lw
    lmar = float(row_sum_log_any(psi, column_word[None, n:], 1.0)[0])
    if lmar == NEG_INF:
        return NEG_INF
    lz = log_total_mass(psi, m)
    return lw + lmar - lz


# ---------------------------------------------------------------------------
# Path sampling
# ---------------------------------------------------------------------------


#: SplitMix64's increment and the multipliers of its finalizer.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, applied to the ``uint64`` array ``z`` in
    place, with ``scratch`` (same shape) for the shifted words."""
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= factor
    z ^= np.right_shift(z, 31, out=scratch)
    return z


def path_uniforms(master_seed: int, lo: int, hi: int, n_draws: int) -> np.ndarray:
    """``(hi - lo, n_draws)`` uniforms of paths ``lo .. hi-1``: the
    SplitMix64 counter streams of the module docstring, mixed and turned
    into floats in one ``uint64`` buffer."""
    if master_seed < 0:
        raise ValueError("master seed must be >= 0")
    if hi > 2**64:
        raise ValueError("path indices must be < 2**64")
    master_seed, lo, hi = int(master_seed), int(lo), int(hi)
    key = np.zeros(1, dtype=np.uint64)
    for shift in range(0, max(master_seed.bit_length(), 1), 64):
        key ^= np.uint64((master_seed >> shift) % 2**64)
        _mix64(key, np.empty_like(key))
    base = np.arange(hi - lo, dtype=np.uint64) * _GAMMA
    base += key + np.uint64((lo + 1) * int(_GAMMA) % 2**64)
    _mix64(base, np.empty_like(base))
    words = base[:, None] + np.arange(1, n_draws + 1, dtype=np.uint64) * _GAMMA
    _mix64(words, np.empty_like(words))
    words >>= np.uint64(11)
    return np.multiply(words, 2.0**-53, out=words.view(np.float64))


#: A route's draw: ``(B, n_draws)`` uniforms -> ``(B, horizon)`` cell indices.
Advance = Callable[[np.ndarray], np.ndarray]


def _cdf(log_probs: np.ndarray) -> np.ndarray:
    """Normalized cumulative probabilities along the last axis, computed in
    (and returned as) the buffer of ``log_probs``, a caller's temporary."""
    peak = np.max(log_probs, axis=-1, keepdims=True)
    if np.any(peak == NEG_INF):
        raise ValueError("no admissible continuation has positive weight")
    p = np.exp(np.subtract(log_probs, peak, out=log_probs), out=log_probs)
    p /= p.sum(axis=-1, keepdims=True)
    return np.cumsum(p, axis=-1, out=p)


def _draw(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw of one index per uniform, from one shared 1-d cdf or
    from each row of a ``(B, K)`` cdf."""
    if cdf.ndim == 1:
        idx = np.searchsorted(cdf, uniforms, side="right")
    else:  # counting the cdf entries <= u is searchsorted(side="right") per row
        idx = np.sum(cdf <= uniforms[:, None], axis=1)
    return np.minimum(idx, cdf.shape[-1] - 1)


def _iid_route(system: CellSystem, table: np.ndarray) -> Advance:
    """Depth-1 weights: i.i.d. cells from one normalized cell cdf."""
    cdf = _cdf(table[system.cells_array[:, 0], system.cells_array[:, 1]])
    return lambda uniforms: _draw(cdf, uniforms)


def _column_first_route(
    core: CylinderWeight, window: ConstantCellWeight, q: float, m: int, workers: int
) -> Advance:
    """A window of depth ``2 <= k <= m`` under shifts and skew products
    whose exponents multiply to q, with ``core`` the unshifted outer weight:
    the column word from ``core``'s exact marginal ``I_1`` over all
    ``r1**m`` column words, then its rows from the backward vectors of the
    window's steps at q along it; a path takes ``m - k + 3`` uniforms."""
    r1, r2 = window.system.r1, window.system.r2
    check_budget(r1**m, f"sampling this weight needs {r1**m} column words")
    k, start, steps = window.step_tables(np.array([q]))  # (r1**k, 1, S, r2) steps
    steps_t = np.ascontiguousarray(steps.swapaxes(2, 3))  # for backward levels
    S = start.shape[1]
    marginal = np.empty(r1**m)

    def fill(lo: int, hi: int) -> None:
        marginal[lo:hi] = weights_module.row_sum_log_ranks(core, m, lo, hi, 1.0)

    map_ranges(fill, pass_chunks(r1, m), workers)
    columns = _cdf(marginal)

    def advance(uniforms: np.ndarray) -> np.ndarray:
        paths = np.arange(uniforms.shape[0])
        w1 = digits_of_indices(_draw(columns, uniforms[:, 0]), r1, m)
        keys = _window_keys(w1, k, r1)
        # back[j][i, 0, s] = log weight of all the rows after path i's first
        # j windows, from row state s.
        back = [np.zeros((paths.size, 1, S))]
        for j in range(m - k, -1, -1):
            back.insert(0, _transfer_level(back[0], paths, keys[:, j], steps_t, backward=True))
        # The first k-1 row digits carry no window of their own: draw them
        # jointly from the start table times the first backward vector.
        state = _draw(_cdf(start[pack_digits(w1[:, : k - 1], r1)] + back[0][:, 0]), uniforms[:, 1])
        w2 = np.empty_like(w1)
        w2[:, : k - 1] = digits_of_indices(state, r2, k - 1)
        for j in range(m - k + 1):
            tail = state % (S // r2) * r2  # the next state, less its new digit
            ahead = np.take_along_axis(back[j + 1][:, 0], tail[:, None] + np.arange(r2), axis=1)
            y = _draw(_cdf(steps[keys[:, j], 0, state] + ahead), uniforms[:, j + 2])
            w2[:, j + k - 1], state = y, tail + y
        return window.system.cell_index[w1, w2]

    return advance


def _enumerate_route(weight: CylinderWeight, m: int) -> Advance:
    """Any weight: conditionals from the log weights of all ``nc**m`` words."""
    system = weight.system
    nc = system.n_cells
    total = nc**m
    check_budget(total, f"sampling this weight needs {total} extension evaluations")
    cells = system.cells_array
    # Words are built ENUMERATION_BLOCK digit cells at a time; only their
    # log weights persist.  Word index = packed cell indices, so the
    # extensions of a depth-pos prefix are one contiguous (nc, nc**rem) slice.
    block = max(1, weights_module.ENUMERATION_BLOCK // m)
    lw = np.empty(total)
    for lo in range(0, total, block):
        digits = digits_of_indices(np.arange(lo, min(lo + block, total)), nc, m)
        lw[lo : lo + block] = weight.log_weight_arrays(cells[digits, 0], cells[digits, 1])
    # levels[pos][prefix, c] = log of the total weight extending prefix + c,
    # built bottom-up so each lse reads the level below, not all nc**m words.
    levels = [lw.reshape(nc ** (m - 1), nc)]
    for pos in range(m - 2, -1, -1):
        levels.insert(0, lse(levels[0], axis=1).reshape(nc**pos, nc))

    def advance(uniforms: np.ndarray) -> np.ndarray:
        prefix = np.zeros(uniforms.shape[0], dtype=np.int64)
        for pos, level in enumerate(levels):
            prefix = prefix * nc + _draw(_cdf(level[prefix]), uniforms[:, pos])
        return digits_of_indices(prefix, nc, m)

    return advance


def _path_sampler(
    weight: CylinderWeight, horizon: int, master_seed: int, workers: int = 1
) -> Callable[[int, int], np.ndarray]:
    """``draw(lo, hi)`` -> the ``(hi - lo, horizon, 2)`` cells of paths
    ``lo .. hi-1``, with the route chosen and its tables built once here
    (on ``workers`` threads, which change no byte).  Under shifts and skew
    products a window's rows carry it to the product of their ``q``, so any
    such chain over a window of depth ``2 .. horizon`` goes column first.
    Path ``i`` draws all its uniforms from stream ``i`` up front, so it is
    the same whatever chunk it is drawn in.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    system = weight.system
    core = unwrap_shift(weight)
    table = core.depth1_log_table()
    window, q = core, 1.0
    while isinstance(window, WrappedWeight):
        window, q = window.base, q * window.q
    n_draws = horizon
    if table is not None:
        advance = _iid_route(system, table)
    elif isinstance(window, ConstantCellWeight) and 2 <= window.depth <= horizon:
        advance = _column_first_route(core, window, q, horizon, workers)
        n_draws = horizon - window.depth + 3
    else:
        advance = _enumerate_route(core, horizon)

    def draw(lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi:
            raise ValueError("need 0 <= lo <= hi")
        return system.cells_array[advance(path_uniforms(master_seed, lo, hi, n_draws))]

    return draw


def sample_paths(
    weight: CylinderWeight,
    horizon: int,
    master_seed: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """The ``(hi - lo, horizon, 2)`` cells of paths ``lo .. hi-1`` drawn from
    ``weight``'s exact cylinder process, path ``i`` on RNG stream ``i``.

    Depth-1 weights draw i.i.d. cells, windows of depth ``k >= 2`` under
    any chain of shifts and skew products (tilts) the column word and then
    its rows, and other weights each cell from ``P(c | u) = Z(uc) / Z(u)``
    (Z = total weight of the depth-``horizon`` extensions) over all
    enumerated extensions.
    """
    return _path_sampler(weight, horizon, master_seed)(lo, hi)


def sample_path(
    weight: CylinderWeight,
    horizon: int,
    master_seed: int = 0,
    sample_index: int = 0,
) -> np.ndarray:
    """The ``(horizon, 2)`` cells of path ``sample_index`` of :func:`sample_paths`."""
    return sample_paths(weight, horizon, master_seed, sample_index, sample_index + 1)[0]


def sampled_log_masses(
    psi: CylinderWeight,
    weight: CylinderWeight,
    n: int,
    horizon: int,
    n_samples: int,
    master_seed: int = 0,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Depth-``n`` log masses under ``psi`` of the paths ``sample_paths(weight,
    horizon, master_seed, 0, n_samples)``.

    Returns each path's cylinder log-weight ``log psi(w|n)`` and ball
    log-mass (the :func:`ball_mass` of its depth-``n`` ball, NaN when
    ``horizon < g(n)``).  ``log Z_{g-n}`` and the sampler's tables are
    computed once; paths are drawn and evaluated in worker-independent
    chunks.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    if horizon < n:
        raise ValueError("horizon must be >= depth")
    g = depth_map(psi.system, n)
    with_ball = horizon >= g
    m = g - n
    log_z = log_total_mass(psi, m) if (with_ball and m > 0) else 0.0

    draw = _path_sampler(weight, horizon, master_seed, workers)

    def chunk(lo: int, hi: int) -> np.ndarray:
        paths = draw(lo, hi)  # (B, horizon, 2)
        lw = psi.log_weight_arrays(paths[:, :n, 0], paths[:, :n, 1])
        if not with_ball:
            return np.column_stack([lw, np.full(lw.shape, np.nan)])
        if m > 0:
            return np.column_stack(
                [lw, lw + row_sum_log_any(psi, paths[:, n:g, 0], 1.0) - log_z]
            )
        return np.column_stack([lw, lw])

    masses = run_chunked_arrays(chunk, n_samples, workers=workers).reshape(-1, 2)
    return masses[:, 0], masses[:, 1]


def birkhoff_averages(psi: CylinderWeight, log_cylinders, n: int) -> np.ndarray:
    """Birkhoff averages of ``psi``'s potential from paths' depth-``n``
    cylinder log weights, each the sum over ``n - k + 1`` windows of ``k =
    psi.dependence_depth`` cells; NaN when k is None or ``n < k``."""
    k = psi.dependence_depth
    if k is None or n < k:
        return np.full(np.shape(log_cylinders), np.nan)
    return np.asarray(log_cylinders) / (n - k + 1)


# ---------------------------------------------------------------------------
# Monte Carlo local dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean/stderr of a local-dimension statistic."""

    mean: float
    stderr: float
    n_samples: int
    depth: int
    q: float
    variant: str
    statistics: np.ndarray


def local_dimension_mc(
    psi: CylinderWeight,
    aux: AuxiliaryWeight,
    n_samples: int,
    depth: int,
    master_seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Sample local dimensions of ``psi``'s measure under the tilt ``aux``.

    Variant ``psiQ`` draws paths from the tilt and evaluates
    ``log mu(B_n) / (-n log r2)`` with full anisotropic balls (the sampling
    horizon extends to g(n)); variant ``psiTildeQ`` evaluates the cylinder
    statistic ``log psi(w|n) / (-n log r2)`` at horizon n.  Sample index i
    always uses RNG stream i, so results are reproducible for any worker
    count.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = depth
    use_ball = aux.variant == VARIANT_PSI_Q
    horizon = depth_map(psi.system, n) if use_ball else n
    cylinder, ball = sampled_log_masses(
        psi, aux, n, horizon, n_samples, master_seed, workers
    )
    stats = (ball if use_ball else cylinder) / (-n * math.log(psi.system.r2))
    mean, stderr = mean_and_stderr(stats)
    return McEstimate(
        mean=mean,
        stderr=stderr,
        n_samples=n_samples,
        depth=depth,
        q=aux.q,
        variant=aux.variant,
        statistics=stats,
    )
