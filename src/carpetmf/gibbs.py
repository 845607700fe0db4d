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
normalized weight itself.  Sampling draws cell paths whose cylinder
probabilities are the exact weight conditionals (closed form for depth-1
weights, backward transfer tables for wider windows, enumeration otherwise),
with one counter-based RNG stream per sample index so runs are reproducible
for any worker count.

The streams are numpy's Philox4x64-10 under the key
``SeedSequence(master_seed).generate_state(2, uint64)``: uniform ``j`` of
path ``i`` is word ``j % 4`` of the block at counter ``(i, j // 4, 0, 0)``,
lowest word first, read as ``(word >> 11) * 2**-53``.  A path's uniforms
depend neither on its chunk nor on how many are drawn, and path indices stop
at ``2**64``, where the path word would carry into the block word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import weights as weights_module
from .numerics import NEG_INF, lse, mean_and_stderr, run_chunked_arrays
from .pressure import log_total_mass, row_sum
from .symbolic import CellSystem, check_budget, depth_map, digits_of_indices
from .weights import (
    ConstantCellWeight,
    CylinderWeight,
    SkewProductWeight,
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
        self.base = base
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
    lmar = row_sum(psi, column_word[n:], 1.0)
    if lmar == NEG_INF:
        return NEG_INF
    lz = log_total_mass(psi, m)
    return lw + lmar - lz


# ---------------------------------------------------------------------------
# Path sampling
# ---------------------------------------------------------------------------


def path_uniforms(master_seed: int, lo: int, hi: int, n_draws: int) -> np.ndarray:
    """``(hi - lo, n_draws)`` uniforms of paths ``lo .. hi-1``, laid out as
    the module docstring says: one generator per block of four draws serves
    every path of the range."""
    if master_seed < 0:
        raise ValueError("master seed must be >= 0")
    if hi > 2**64:
        raise ValueError("path indices must be < 2**64")
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    out = np.empty((hi - lo, -(-n_draws // 4) * 4))
    start = int(lo) - 1  # numpy steps the counter before each block
    for b in range(out.shape[1] // 4):
        bits = np.random.Philox(key=key, counter=((b << 64) + start) % 2**256)
        out[:, 4 * b : 4 * b + 4] = np.random.Generator(bits).random((hi - lo, 4))
    return out[:, :n_draws]


#: A route's draw: ``(B, n_draws)`` uniforms -> ``(B, horizon)`` cell indices.
Advance = Callable[[np.ndarray], np.ndarray]


def _cdf(log_probs: np.ndarray) -> np.ndarray:
    """Normalized cumulative probabilities along the last axis."""
    peak = np.max(log_probs, axis=-1, keepdims=True)
    if np.any(peak == NEG_INF):
        raise ValueError("no admissible continuation has positive weight")
    p = np.exp(log_probs - peak)
    p /= p.sum(axis=-1, keepdims=True)
    return np.cumsum(p, axis=-1)


def _draw_rows(log_probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw from each row of ``(B, K)`` log-probabilities."""
    # Counting the cdf entries <= u is searchsorted(side="right") per row.
    idx = np.sum(_cdf(log_probs) <= uniforms[:, None], axis=1)
    return np.minimum(idx, log_probs.shape[1] - 1)


def _iid_route(system: CellSystem, table: np.ndarray) -> Advance:
    """Depth-1 weights: i.i.d. cells from one normalized cell cdf."""
    cells = system.cells_array
    cdf = _cdf(table[cells[:, 0], cells[:, 1]])

    def advance(uniforms: np.ndarray) -> np.ndarray:
        return np.minimum(np.searchsorted(cdf, uniforms, side="right"), system.n_cells - 1)

    return advance


def _window_route(weight: ConstantCellWeight, m: int) -> Advance:
    """Window weights (depth k >= 2): one set of backward completion tables;
    a path takes ``m - k + 2`` uniforms."""
    nc = weight.system.n_cells
    k = weight.depth
    tables = weight.backward_completion_tables(m)  # R[j], j = 0 .. m-k+1
    drop = nc ** (k - 2)
    flat = weight.window_log.reshape(nc ** (k - 1), nc)
    head = tables[m - k + 1]
    conts = [t.reshape(drop, nc) for t in tables]

    def advance(uniforms: np.ndarray) -> np.ndarray:
        B = uniforms.shape[0]
        # The first k-1 cells carry no window of their own: draw the block
        # jointly from the total weight of its completions.
        state = _draw_rows(np.broadcast_to(head, (B, head.size)), uniforms[:, 0])
        idx = np.empty((B, m), dtype=np.int64)
        idx[:, : k - 1] = digits_of_indices(state, nc, k - 1)
        for pos in range(k - 1, m):
            tail = state % drop
            c = _draw_rows(flat[state] + conts[m - pos - 1][tail], uniforms[:, pos - k + 2])
            idx[:, pos] = c
            state = tail * nc + c
        return idx

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
            prefix = prefix * nc + _draw_rows(level[prefix], uniforms[:, pos])
        return digits_of_indices(prefix, nc, m)

    return advance


def _path_sampler(
    weight: CylinderWeight, horizon: int, master_seed: int
) -> Callable[[int, int], np.ndarray]:
    """``draw(lo, hi)`` -> the ``(hi - lo, horizon, 2)`` cells of paths
    ``lo .. hi-1``, with the route chosen and its tables built once here.

    Path ``i`` draws all its uniforms from stream ``i`` up front, so it is
    the same whatever chunk it is drawn in.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    system = weight.system
    core = unwrap_shift(weight)
    table = core.depth1_log_table()
    n_draws = horizon
    if table is not None:
        advance = _iid_route(system, table)
    elif isinstance(core, ConstantCellWeight) and horizon >= core.depth - 1:
        advance = _window_route(core, horizon)
        n_draws = horizon - core.depth + 2
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

    The cylinder conditionals ``P(c | u) = Z(uc) / Z(u)`` (Z = total weight
    of the depth-``horizon`` extensions) come from the normalized cell
    weights for depth-1 weights, backward completion tables for window
    weights, and enumeration of all extensions otherwise.
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

    draw = _path_sampler(weight, horizon, master_seed)

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
