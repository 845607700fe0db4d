"""Almost-multiplicative cylinder weights, evaluated in log space.

A cylinder weight assigns every admissible product word a positive value (its
log is stored; ``-inf`` means the cylinder carries no weight).  Three
constructions are provided:

* :func:`make_constant_cell` — exponentials of Birkhoff sums of a potential
  that only sees a sliding window of ``depth`` cells (with separate truncated
  tables for words shorter than the window);
* :func:`make_matrix_cocycle` — norms of products of strictly positive
  matrices driven by the cell sequence, with the positive-cone norm
  ``|B| = 1^T B 1`` (dimension 1 is the depth-1 window of ``log m``);
* :class:`SkewProductWeight` — a column marginal times a row-fiber
  conditional built from another cylinder weight raised to an exponent q.
  The marginal is one form for every use: a product of per-letter factors
  times powers of the other weight's row sums (the config's ``theta1``
  kinds and both moment tilts of :mod:`carpetmf.gibbs`).

Every weight exposes batched evaluation over digit-row arrays and the
row-fiber power sums ``I_q(w1) = sum_{w2} psi(w1 x w2)^q``, routed so the
deep regimes never enumerate the row alphabet.  Its one structure hook is
``dependence_depth``: a depth-1 weight is Bernoulli, and
:class:`CylinderWeight` derives its ``(r1, r2)`` table (for the closed forms
and the i.i.d. sampler) and its total masses from its one-cell log weights.
Two contracts, each routed once, cover every class.  Each layer has one
row-sum entry, ``row_sum_log_batch``, for a batch of column words or a range
of their ranks, and one query, ``enumerated_rows``, for which q enumerate
rows and why.  A weight with tables supplies ``transfer_floats(q)``, its
table size at q (None: no transfer route), and ``step_tables(qs)``, and
:class:`CylinderWeight` routes them: a depth-1 window's steps have one state,
the per-letter fiber sums, gathered letter by letter; windows of depth >= 2
and matrix cocycles at integer ``q >= 0`` share the split kernel of
:mod:`carpetmf.transfer`, entered by rank for a complete range of column
words and by digit rows for any batch.  A wrapper, a skew product or a
pressure shift, supplies ``base_qs(qs)``, the q values of its ``base`` that
its q read, and ``combine``, which turns those row sums into its own, and
:class:`WrappedWeight` routes them: one q-batched read of the base on the
base's own route, by rank for a range, and no rows of its own enumerated.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .numerics import NEG_INF, lse, scaled_powers
from .symbolic import (
    CapExceededError,
    CellSystem,
    check_budget,
    digits_of_indices,
    distinct_rows,
    row_words_range,
)
from . import symbolic  # loaded by the line above: binds it, imports nothing more

#: The routes of the two oracle entries, :func:`row_sum_log_any` and
#: :func:`carpetmf.pressure.log_total_mass`: ``auto`` is the production
#: route, ``enumerate`` the enumeration oracle it is checked against.
METHODS = ("auto", "enumerate")

#: Digit cells built at once when row sums enumerate rows (rows x depth) or
#: gather depth-1 letter sums (words x depth); bounds the transient at any
#: depth.
ENUMERATION_BLOCK = 1 << 16


class CylinderWeight:
    """Interface for log-space cylinder weights over a :class:`CellSystem`."""

    system: CellSystem

    # -- evaluation ------------------------------------------------------

    def log_weight_arrays(self, a1s: np.ndarray, a2s: np.ndarray) -> np.ndarray:
        """Vectorized log weights: ``(W, n)`` digit rows -> ``(W,)`` floats."""
        raise NotImplementedError

    # -- the structure hook (None = no fast structure) -------------------

    @property
    def dependence_depth(self) -> int | None:
        """Window size when the weight is locally constant, else None; at 1
        the depth-1 table and total masses follow from the one-cell weights."""
        return None

    def _cell_log_weights(self) -> np.ndarray:
        """``(n_cells,)`` log weights of the one-cell words, in cell order."""
        cells = self.system.cells_array
        return self.log_weight_arrays(cells[:, :1], cells[:, 1:])

    def depth1_log_table(self) -> np.ndarray | None:
        """Exact ``(r1, r2)`` per-cell log table for depth-1 weights, -inf
        off the allowed cells; None at any other depth."""
        if self.dependence_depth != 1:
            return None
        table = np.full((self.system.r1, self.system.r2), NEG_INF)
        cells = self.system.cells_array
        table[cells[:, 0], cells[:, 1]] = self._cell_log_weights()
        return table

    def transfer_floats(self, q: float) -> int | None:
        """Floats in the transfer table of one q, which must fit
        ``MAX_TRANSFER_TABLE``; None when q has no transfer route.  A weight
        that returns a size supplies :meth:`step_tables`, and names the
        table in ``_transfer_table``."""
        return None

    def step_tables(self, qs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """The split kernel's tables for a block of q of one
        :meth:`transfer_floats`: the window length ``k`` its steps read,
        ``(r1**(k-1), S)`` log start states and ``(r1**k, Q, S, C)`` log
        steps (see :func:`carpetmf.transfer.split_transfer_log`)."""
        raise NotImplementedError

    # -- transfer routing ------------------------------------------------

    def transfer_mask(self, qs: np.ndarray) -> np.ndarray:
        """Boolean mask of the q values :meth:`row_sum_log_batch` serves,
        those whose transfer table fits; callers enumerate rows for the
        others."""
        cap = symbolic.MAX_TRANSFER_TABLE
        floats = [self.transfer_floats(q) for q in qs]
        return np.array([f is not None and f <= cap for f in floats], dtype=bool)

    def enumerated_rows(self, qs: np.ndarray) -> tuple[np.ndarray, str | None]:
        """The boolean mask of the q values of ``qs`` whose row sums
        enumerate rows, on this weight's own route or on the row sums of a
        weight its transfer route reads, and why, for error messages: the
        transfer table over ``MAX_TRANSFER_TABLE`` of the smallest flagged q
        that has one (None when no table is the reason)."""
        mask = ~self.transfer_mask(qs)
        over = [q for q in qs[mask] if self.transfer_floats(q) is not None]
        if not over:
            return mask, None
        cap = symbolic.MAX_TRANSFER_TABLE
        return mask, f"{self._transfer_table(min(over))} is over MAX_TRANSFER_TABLE {cap}"

    def row_sum_log_batch(self, words, qs: np.ndarray) -> np.ndarray:
        """``(W, Q)`` array of ``log I_q`` for a 1-d array of q values inside
        :meth:`transfer_mask`, without enumerating rows.  ``words`` is a
        ``(W, n)`` batch of column words or ``(n, lo, hi)``, the depth-``n``
        column words of ranks ``lo .. hi - 1``, with the same bytes.  A
        depth-1 weight gathers the one-state steps of its letters, any other
        runs the split kernel, which reads a range from its tables without
        digit rows; the other routes build a range's digit rows."""
        depth = self.dependence_depth
        if isinstance(words, tuple) and (depth == 1 or words[0] < (depth or 1)):
            words = row_words_range(self.system, *words)
        if isinstance(words, tuple):
            return self._split_row_sums(words, qs)
        a1s = np.asarray(words, dtype=np.int64)
        if depth == 1:
            return _depth1_row_sums(self.system, self.step_tables(qs)[2], a1s)
        if a1s.shape[1] < (depth or 1):  # shorter than a window: few rows
            return _enumerate_row_sums(self, a1s, qs)
        return self._split_row_sums(a1s, qs)

    def _split_row_sums(self, words, qs: np.ndarray):
        """Row sums from the split kernel of :mod:`carpetmf.transfer` on the
        tables of :meth:`step_tables`.  ``words`` is a ``(W, n)`` batch of
        column words or ``(n, lo, hi)``, the depth-``n`` column words of
        ranks ``lo .. hi - 1``.  Consecutive q of one table size share
        their tables, in blocks of at most ``MAX_TRANSFER_TABLE`` floats."""
        from .transfer import split_transfer_log, split_transfer_range

        r1, columns, j = self.system.r1, [], 0
        for floats, run in itertools.groupby(self.transfer_floats(q) for q in qs):
            end = j + len(list(run))
            block = max(1, symbolic.MAX_TRANSFER_TABLE // floats)
            for i in range(j, end, block):
                qb = qs[i : min(i + block, end)]
                k, start, steps = self.step_tables(qb)
                args = (qb, k, r1, start, steps, self._tails)
                columns.append(
                    split_transfer_range(*words, *args)
                    if isinstance(words, tuple)
                    else split_transfer_log(words, *args)
                )
            j = end
        # Stored q-major, so a column pass reads each q as one contiguous row.
        return columns[0] if len(columns) == 1 else np.concatenate([c.T for c in columns]).T

    def log_total_mass(self, m: int) -> float | None:
        """``log sum_{|w|=m} psi(w)`` when computable without row-word
        enumeration, else None: ``m`` times the lse of the one-cell log
        weights at depth 1."""
        if m == 0:
            return 0.0
        if self.dependence_depth != 1:
            return None
        return m * float(lse(self._cell_log_weights()))

    @cached_property
    def _tails(self):
        """The split kernel's memo of tail vectors for this weight."""
        from .transfer import TailMemo

        return TailMemo()


def _clip_indices(system: CellSystem, a1s: np.ndarray, a2s: np.ndarray):
    """Cell indices for digit rows plus a per-word validity mask."""
    a1s = np.asarray(a1s, dtype=np.int64)
    a2s = np.asarray(a2s, dtype=np.int64)
    in_range = (
        (a1s >= 0) & (a1s < system.r1) & (a2s >= 0) & (a2s < system.r2)
    )
    idx = system.cell_index[
        np.clip(a1s, 0, system.r1 - 1), np.clip(a2s, 0, system.r2 - 1)
    ]
    idx = np.where(in_range, idx, -1)
    valid = (idx >= 0).all(axis=1)
    return np.clip(idx, 0, None), valid


# ---------------------------------------------------------------------------
# Locally constant (finite-window Birkhoff) weights
# ---------------------------------------------------------------------------


class ConstantCellWeight(CylinderWeight):
    """``log psi(w) = sum_i phi(w_i .. w_{i+k-1})`` for a window potential phi.

    ``window_log`` has shape ``(n_cells,) * depth`` indexed by cell positions
    in ``system.allowed``.  Words shorter than the window use
    ``truncated_log[len - 1]`` (all-zero tables unless supplied).
    """

    def __init__(
        self,
        system: CellSystem,
        depth: int,
        window_log: np.ndarray,
        truncated_log: Sequence[np.ndarray] | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("window depth must be >= 1")
        nc = system.n_cells
        window_log = np.asarray(window_log, dtype=float)
        if window_log.shape != (nc,) * depth:
            raise ValueError(
                f"window table must have shape {(nc,) * depth}, got {window_log.shape}"
            )
        if not np.all(np.isfinite(window_log)):
            raise ValueError("window table must be finite on every admissible window")
        if truncated_log is None:
            truncated_log = [np.zeros((nc,) * j) for j in range(1, depth)]
        truncated_log = [np.asarray(t, dtype=float) for t in truncated_log]
        if len(truncated_log) != depth - 1:
            raise ValueError(f"need {depth - 1} truncated tables, got {len(truncated_log)}")
        for j, t in enumerate(truncated_log, start=1):
            if t.shape != (nc,) * j:
                raise ValueError(f"truncated table for length {j} has wrong shape {t.shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError("truncated tables must be finite")
        self.system = system
        self.depth = depth
        self.window_log = window_log
        self.truncated_log = tuple(truncated_log)

    @property
    def dependence_depth(self) -> int:
        return self.depth

    # -- evaluation ------------------------------------------------------

    def log_weight_arrays(self, a1s: np.ndarray, a2s: np.ndarray) -> np.ndarray:
        W, n = np.asarray(a1s).shape
        if n == 0:
            return np.zeros(W)
        idx, valid = _clip_indices(self.system, a1s, a2s)
        k = self.depth
        if n < k:
            table = self.truncated_log[n - 1]
            vals = table[tuple(idx[:, j] for j in range(n))]
        else:
            windows = self.window_log[
                tuple(idx[:, j : j + n - k + 1] for j in range(k))
            ]  # (W, n - k + 1)
            vals = windows.sum(axis=1)
        return np.where(valid, vals, NEG_INF)

    # -- row-fiber transfer ----------------------------------------------

    @cached_property
    def _window_grid(self) -> np.ndarray:
        """``(r1**k, r2**k)`` window log values, -inf where the window leaves
        the allowed cells; rows/cols indexed by packed digits."""
        k = self.depth
        r1, r2 = self.system.r1, self.system.r2
        if (r1**k) * (r2**k) > symbolic.MAX_TRANSFER_TABLE:
            raise CapExceededError(
                f"window transfer table too large: {r1}**{k} x {r2}**{k} = "
                f"{r1**k * r2**k} floats, over MAX_TRANSFER_TABLE {symbolic.MAX_TRANSFER_TABLE}"
            )
        a1grid = digits_of_indices(np.arange(r1**k), r1, k)
        a2grid = digits_of_indices(np.arange(r2**k), r2, k)
        cidx = self.system.cell_index[a1grid[:, None, :], a2grid[None, :, :]]
        ok = (cidx >= 0).all(axis=2)
        ci = np.clip(cidx, 0, None)
        vals = self.window_log[tuple(ci[..., j] for j in range(k))]
        return np.where(ok, vals, NEG_INF)

    @cached_property
    def _start_table(self) -> np.ndarray:
        """``(r1**(k-1), r2**(k-1))`` log start states: 0 where the packed
        first ``k-1`` column digits and the packed row state give allowed
        cells, -inf otherwise."""
        k = self.depth
        r1, r2 = self.system.r1, self.system.r2
        a1grid = digits_of_indices(np.arange(r1 ** (k - 1)), r1, k - 1)
        a2grid = digits_of_indices(np.arange(r2 ** (k - 1)), r2, k - 1)
        cidx = self.system.cell_index[a1grid[:, None, :], a2grid[None, :, :]]
        return np.where((cidx >= 0).all(axis=2), 0.0, NEG_INF)

    def transfer_floats(self, q: float) -> int:
        # One window grid serves every q; at depth 1 it is the cell table.
        return (self.system.r1 * self.system.r2) ** self.depth

    def _transfer_table(self, q: float) -> str:
        r1, r2, k = self.system.r1, self.system.r2, self.depth
        return f"the window transfer table of {r1}**{k} x {r2}**{k} = {r1**k * r2**k} floats"

    def step_tables(self, qs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """``k``, the ``(r1**(k-1), S)`` log start states and the
        ``(r1**k, Q, S, C)`` log steps at a block of q, ``S = r2**(k-1)``.

        The state is the last ``k-1`` row digits; the window table picked by
        the packed column window steps it as a shift register of base-``r2``
        digits (``C = r2``).  At depth 1 there is one state, and each
        letter's step is the lse of its fiber (``C = 1``).
        """
        k, r1, r2 = self.depth, self.system.r1, self.system.r2
        tables = scaled_powers(qs[:, None, None], self._window_grid)
        if k == 1:
            tables = lse(tables, axis=2)
        tables = tables.reshape(qs.size, r1**k, r2 ** (k - 1), -1)
        return k, self._start_table, np.ascontiguousarray(tables.transpose(1, 0, 2, 3))

    # -- totals over full product words ----------------------------------

    def log_total_mass(self, m: int) -> float:
        k = self.depth
        nc = self.system.n_cells
        if m == 0 or k == 1:
            return super().log_total_mass(m)
        if m < k:
            return float(lse(self.truncated_log[m - 1]))
        flat = self.window_log.reshape(nc ** (k - 1), nc)  # [state, next cell]
        v = np.zeros(nc ** (k - 1))
        drop = nc ** (k - 2)
        for _ in range(m - k + 1):
            x = (v[:, None] + flat).reshape(nc, drop, nc)
            v = lse(x, axis=0).reshape(nc ** (k - 1))
        return float(lse(v))


def make_constant_cell(
    system: CellSystem,
    depth: int,
    window_table: np.ndarray,
    truncated_tables: Mapping[int, np.ndarray] | None = None,
) -> ConstantCellWeight:
    """Build a finite-window Birkhoff weight from a full window table.

    ``window_table`` is an array of shape ``(n_cells,) * depth`` (cell
    order = ``system.allowed``).  ``truncated_tables`` optionally maps word
    lengths ``j = 1..depth-1`` to ``(n_cells,) * j`` tables for short words
    (default: zero).
    """
    nc = system.n_cells
    truncated_tables = dict(truncated_tables or {})
    trunc = [truncated_tables.pop(j, np.zeros((nc,) * j)) for j in range(1, depth)]
    if truncated_tables:
        raise ValueError(f"unexpected truncated table lengths: {sorted(truncated_tables)}")
    return ConstantCellWeight(system, depth, window_table, trunc)


# ---------------------------------------------------------------------------
# Positive matrix cocycles
# ---------------------------------------------------------------------------


class MatrixCocycleWeight(CylinderWeight):
    """``psi(w) = 1^T M(w_n) ... M(w_1) 1`` for strictly positive matrices.

    Products are evaluated as scaled matrix-vector passes so a word of any
    length stays in range; only the log of the running normalizer is
    accumulated.  Row sums at integer ``q >= 0`` and total masses are exact
    matrix recursions (Kronecker powers for ``I_q``, one route per q); other
    q enumerate rows.
    """

    def __init__(self, system: CellSystem, dim: int, matrices: np.ndarray) -> None:
        matrices = np.asarray(matrices, dtype=float)
        if matrices.shape != (system.n_cells, dim, dim):
            raise ValueError(
                f"need one {dim}x{dim} matrix per allowed cell, got shape {matrices.shape}"
            )
        if not np.all(np.isfinite(matrices) & (matrices > 0)):
            raise ValueError("cocycle matrices must be finite and strictly positive")
        self.system = system
        self.dim = dim
        self.matrices = matrices

    def log_weight_arrays(self, a1s: np.ndarray, a2s: np.ndarray) -> np.ndarray:
        W, n = np.asarray(a1s).shape
        if n == 0:
            return np.zeros(W)
        idx, valid = _clip_indices(self.system, a1s, a2s)
        u = np.ones((W, self.dim))
        acc = np.zeros(W)
        for i in range(n):
            Mi = self.matrices[idx[:, i]]  # (W, d, d); first cell acts first
            u = np.einsum("wij,wj->wi", Mi, u)
            norm = u.sum(axis=1)
            acc += np.log(norm)
            u /= norm[:, None]
        return np.where(valid, acc, NEG_INF)

    def transfer_floats(self, q: float) -> int | None:
        # The Kronecker powers exist at integer q >= 0.
        if q < 0 or not float(q).is_integer():
            return None
        return max(self.system.n_cells, self.system.r1) * self.dim ** (2 * int(q))

    def _transfer_table(self, q: float) -> str:
        return f"the Kronecker table at q = {q:g} of {self.transfer_floats(q)} floats"

    def step_tables(self, qs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """The :meth:`_letter_tables` of a block of equal-size q as dense
        steps that read one letter (``k = 1``); the state starts at
        ``1^{(x)q}``."""
        steps = np.stack([self._letter_tables(q) for q in qs], axis=1)
        return 1, np.zeros((1, steps.shape[-1])), steps

    def _letter_tables(self, q: float) -> np.ndarray:
        """``(r1, D, D)`` log tables with ``D = dim**q``:
        ``T[a1][s, t] = log (sum_{a2 in fiber(a1)} M(a1, a2)^{(x)q})[t, s]``,
        for a q inside :meth:`transfer_mask`.

        Exact because ``(1^T P 1)^q = (1^{(x)q})^T P^{(x)q} 1^{(x)q}`` and
        Kronecker powers of products are products of Kronecker powers.
        """
        nc, d = self.system.n_cells, self.dim
        r1 = self.system.r1
        D = d ** int(q)
        log_mt = np.log(self.matrices).transpose(0, 2, 1)  # [cell, s, t] = log M[t, s]
        power = np.zeros((nc, 1, 1))
        for _ in range(int(q)):
            p = power.shape[1]
            power = (
                power[:, :, None, :, None] + log_mt[:, None, :, None, :]
            ).reshape(nc, p * d, p * d)
        columns = self.system.cells_array[:, 0]
        tables = np.full((r1, D, D), NEG_INF)
        for a1 in range(r1):
            fiber = power[columns == a1]
            if fiber.shape[0]:
                tables[a1] = lse(fiber, axis=0)
        return tables

    def log_total_mass(self, m: int) -> float | None:
        if m == 0:
            return 0.0
        # 1^T (sum_c M_c)^m 1 by scaled matrix-vector passes.
        total = self.matrices.sum(axis=0)
        u = np.ones(self.dim)
        acc = 0.0
        for _ in range(m):
            u = total @ u
            norm = float(u.sum())
            acc += math.log(norm)
            u /= norm
        return acc


def make_matrix_cocycle(
    system: CellSystem, dim: int, matrices: np.ndarray
) -> CylinderWeight:
    """Build a positive-cone cocycle weight from per-cell matrices.  A
    dimension-1 cocycle is exactly multiplicative: it is built as the
    depth-1 window of ``log m``."""
    cocycle = MatrixCocycleWeight(system, dim, matrices)
    if dim == 1:
        return ConstantCellWeight(system, 1, np.log(cocycle.matrices[:, 0, 0]))
    return cocycle


def _depth1_row_sums(system: CellSystem, steps: np.ndarray, a1s: np.ndarray) -> np.ndarray:
    """``(W, Q)`` sums of the letters' one-state ``(r1, Q, 1, 1)`` log steps,
    gathered for blocks of q."""
    Q = steps.shape[1]
    letter = np.full((Q, system.r1 + 1), NEG_INF)
    letter[:, :-1] = steps[:, :, 0, 0].T
    pos = np.where((a1s >= 0) & (a1s < system.r1), a1s, system.r1)
    block = max(1, ENUMERATION_BLOCK // max(1, pos.size))
    # np.take lays out each (q, word) row of letters contiguously, so it sums
    # in the same order as for a single q.
    sums = [
        np.take(letter[j : j + block], pos, axis=1).sum(axis=2) for j in range(0, Q, block)
    ]
    return np.concatenate(sums).T


# ---------------------------------------------------------------------------
# Wrappers: skew products and pressure shifts
# ---------------------------------------------------------------------------


class WrappedWeight(CylinderWeight):
    """A weight whose row sums are those of its ``base``, read in one
    q-batched call on the base's own route (by rank for a range) and never
    from rows of its own.  A subclass supplies ``base_qs(qs)``, the base q
    values ``qs`` read (any that all share, then one per q), and
    ``combine(n, words, sums, qs)``, the ``(W, Q)`` row sums at ``qs`` from
    the base's ``sums`` at ``base_qs(qs)``, of ``words``: a ``(W, n)`` batch
    or ``(n, lo, hi)``, the depth-``n`` column words of ranks ``lo .. hi - 1``."""

    base: CylinderWeight
    q: float = 1.0  # the exponent its rows take of its base's rows

    def transfer_mask(self, qs: np.ndarray) -> np.ndarray:
        return np.ones(len(qs), dtype=bool)

    def enumerated_rows(self, qs: np.ndarray) -> tuple[np.ndarray, str | None]:
        inner, refusal = self.base.enumerated_rows(self.base_qs(qs))
        shared = inner.size - len(qs)
        return inner[:shared].any() | inner[shared:], refusal

    def _base_sums(self, a1s: np.ndarray, qs: np.ndarray):
        """Distinct words of ``a1s``, their inverse, base row sums at ``base_qs(qs)``."""
        words, inverse = distinct_rows(np.asarray(a1s, dtype=np.int64), self.system.r1)
        return words, inverse, row_sum_log_any(self.base, words, self.base_qs(qs))

    def row_sum_log_batch(self, words, qs: np.ndarray) -> np.ndarray:
        if isinstance(words, tuple):
            sums = row_sum_log_ranks(self.base, *words, self.base_qs(qs))
            return self.combine(words[0], words, sums, qs)
        words, inverse, sums = self._base_sums(words, qs)
        return self.combine(words.shape[1], words, sums, qs)[inverse]


class SkewProductWeight(WrappedWeight):
    """``psi(w1 x w2) = theta1(w1) * rho(w1 x w2)^q / I_{rho,q}(w1)``, with
    ``rho`` the ``base``, and the column marginal

    ``log theta1(w1) = sum_i letters[w1_i] + sum_j e_j log I_{rho,p_j}(w1)``.

    ``letters`` is a per-letter log table (a scalar serves every letter) and
    ``moments`` a tuple of ``(p_j, e_j)`` pairs.  The row fibers carry the
    ``rho^q``-conditional distribution while the column marginal is exactly
    ``theta1``, so ``I_{psi,1} = theta1``.  At ``q = 1`` this is the plain
    skew product; the moment tilts of :mod:`carpetmf.gibbs` are the same
    weight at the tilt's q.  Every evaluation takes all the row sums of
    ``rho`` it needs from one q-batched call.
    """

    def __init__(
        self,
        base: CylinderWeight,
        letters: float | np.ndarray = 0.0,
        moments: Sequence[tuple[float, float]] = (),
        q: float = 1.0,
    ) -> None:
        r1 = base.system.r1
        letters = np.asarray(letters, dtype=float)
        if letters.shape not in ((), (r1,)):
            raise ValueError(f"need one value per column letter ({r1}), got shape {letters.shape}")
        if not np.all(np.isfinite(letters)):
            raise ValueError("column letter table must be finite")
        self.system = base.system
        self.base = base
        self.letters = np.broadcast_to(letters, (r1,)).copy()
        self.moments = tuple((float(p), float(e)) for p, e in moments)
        self.q = float(q)

    def base_qs(self, rs: np.ndarray) -> np.ndarray:
        # Every r reads rho's row sums at q and each p_j; r itself at q * r.
        return np.array([self.q, *(p for p, _ in self.moments), *(self.q * rs)])

    def _log_theta(self, words, li: np.ndarray) -> np.ndarray:
        """``log theta1`` of ``words`` (see :meth:`combine`) from rho's row
        sums ``li``.  With one letter value, a range sums one row of it,
        which broadcasts over the range's words, and builds no digit rows."""
        letters, r1 = self.letters, self.system.r1
        if isinstance(words, tuple):
            one = (letters == letters[0]).all()
            words = np.zeros((1, words[0]), int) if one else row_words_range(self.system, *words)
        padded = np.append(letters, NEG_INF)  # out-of-range letters weigh 0
        lt = padded[np.where((words >= 0) & (words < r1), words, r1)].sum(axis=1)
        for j, (_, e) in enumerate(self.moments, start=1):
            lt = lt + scaled_powers(e, li[:, j])
        return lt

    def combine(self, n: int, words, li: np.ndarray, rs: np.ndarray) -> np.ndarray:
        """``I_r = theta1^r I_{rho,qr} / I_{rho,q}^r``, 0 where theta1 or
        ``I_{rho,qr}`` is."""
        liq, lt = li[:, :1], self._log_theta(words, li)[:, None]
        liqr = li[:, 1 + len(self.moments) :]
        dead = np.isneginf(liqr) | np.isneginf(lt)
        with np.errstate(invalid="ignore"):
            out = scaled_powers(rs, lt) - scaled_powers(rs, liq) + liqr
        return np.where(dead, NEG_INF, out)

    def log_weight_arrays(self, a1s: np.ndarray, a2s: np.ndarray) -> np.ndarray:
        lr = scaled_powers(self.q, self.base.log_weight_arrays(a1s, a2s))
        # Enumerated rows repeat their word: rho is read once per distinct word.
        words, inverse, li = self._base_sums(a1s, np.empty(0))
        liq, lt = li[inverse, 0], self._log_theta(words, li)[inverse]
        with np.errstate(invalid="ignore"):
            out = lt + lr - liq
        return np.where(np.isneginf(lr) | np.isneginf(lt), NEG_INF, out)

    @property
    def dependence_depth(self) -> int | None:
        # rho's row sums factor over letters exactly when rho is depth 1.
        return 1 if self.base.dependence_depth == 1 else None


class ShiftedWeight(WrappedWeight):
    """``log psi_hat(w) = log psi(w) - len(w) * shift`` (Gibbs normalization)."""

    def __init__(self, base: CylinderWeight, shift: float) -> None:
        self.system = base.system
        self.base = base
        self.shift = float(shift)

    def log_weight_arrays(self, a1s: np.ndarray, a2s: np.ndarray) -> np.ndarray:
        n = np.asarray(a1s).shape[1]
        return self.base.log_weight_arrays(a1s, a2s) - n * self.shift

    @property
    def dependence_depth(self) -> int | None:
        return self.base.dependence_depth

    def base_qs(self, qs: np.ndarray) -> np.ndarray:
        return qs

    def combine(self, n: int, words, sums: np.ndarray, qs: np.ndarray) -> np.ndarray:
        return sums - n * qs * self.shift

    def log_total_mass(self, m: int) -> float | None:
        inner = self.base.log_total_mass(m)
        if inner is None:
            return None
        return inner - m * self.shift


def unwrap_shift(weight: CylinderWeight) -> CylinderWeight:
    """The weight under any pressure shifts."""
    while isinstance(weight, ShiftedWeight):
        weight = weight.base
    return weight


def normalize_to_gibbs(psi: CylinderWeight, pressure_estimate: float) -> ShiftedWeight:
    """Subtract ``n * pressure_estimate`` from log weights.

    Shifting an already-shifted weight merges the shifts, so normalizing by
    ``p`` and then by ``-p`` returns to bit-identical log weights.
    """
    if isinstance(psi, ShiftedWeight):
        return ShiftedWeight(psi.base, psi.shift + pressure_estimate)
    return ShiftedWeight(psi, pressure_estimate)


# ---------------------------------------------------------------------------
# Generic row sums and almost-multiplicativity estimation
# ---------------------------------------------------------------------------


def row_sum_log_any(
    weight: CylinderWeight,
    a1s: np.ndarray,
    q: float | np.ndarray,
    method: str = "auto",
) -> np.ndarray:
    """``log I_q`` for a batch of column words.

    ``q`` is a scalar (result ``(W,)``) or a 1-d array (result ``(W, Q)``).
    Under ``method="auto"``, the production route, the q values inside
    :meth:`CylinderWeight.transfer_mask` take the weight's transfer route
    and the others enumerate rows; ``method="enumerate"`` enumerates rows
    at every q, the oracle the transfer routes are checked against.  Each
    distinct q is computed once, and the q values that enumerate share one
    enumeration of the rows and their log weights.
    """
    return _routed_row_sums(weight, np.asarray(a1s, dtype=np.int64), q, method)


def row_sum_log_ranks(
    weight: CylinderWeight, n: int, lo: int, hi: int, q: float | np.ndarray
) -> np.ndarray:
    """:func:`row_sum_log_any` of the depth-``n`` column words of ranks
    ``lo .. hi - 1``: only the q values that enumerate rows build the words'
    digit rows."""
    return _routed_row_sums(weight, (n, lo, hi), q, "auto")


def _routed_row_sums(weight, words, q, method) -> np.ndarray:
    """The routing of :func:`row_sum_log_any` over ``words``, a ``(W, n)``
    batch or ``(n, lo, hi)``: the q values inside the transfer mask read
    :meth:`CylinderWeight.row_sum_log_batch` of ``words``, the others
    enumerate the rows of the words' digit rows, which a range builds only
    then."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    inverse = slice(None)
    if qs.size > 1 and not (np.diff(qs) > 0).all():
        qs, inverse = np.unique(qs, return_inverse=True)
    enumerated = np.full(qs.size, method == "enumerate") | ~weight.transfer_mask(qs)
    a1s = words
    if enumerated.any() and isinstance(words, tuple):
        a1s = row_words_range(weight.system, *words)
    if not qs.size:
        out = np.empty((words[2] - words[1] if isinstance(words, tuple) else len(words), 0))
    elif not enumerated.any():
        out = weight.row_sum_log_batch(words, qs)
    elif enumerated.all():
        out = _enumerate_row_sums(weight, a1s, qs)
    else:
        out = np.empty((len(a1s), qs.size))
        out[:, ~enumerated] = weight.row_sum_log_batch(words, qs[~enumerated])
        out[:, enumerated] = _enumerate_row_sums(weight, a1s, qs[enumerated])
    return out[:, 0] if np.ndim(q) == 0 else out[:, inverse]


def _enumerate_row_sums(weight, a1s, qs) -> np.ndarray:
    """``(W, Q)`` row sums by enumerating all ``r2**n`` rows of each word.

    Row digits are built ``ENUMERATION_BLOCK // n`` rows, so
    ``ENUMERATION_BLOCK`` digit cells, at a time: their transient has a
    fixed bound however large the batch or deep the word.  The log weights
    held for the lse span at most that many rows or one word.
    """
    W, n = a1s.shape
    if n == 0:
        return np.zeros((W, qs.size))
    r2 = weight.system.r2
    total = r2**n
    # The batch builds W * r2**n words of n digit cells each.
    cells = W * total * n
    check_budget(
        cells, f"row enumeration of {W} column words x {r2}**{n} rows builds {cells} digit cells"
    )
    out = np.empty((W, qs.size))
    rows = max(1, ENUMERATION_BLOCK // n)
    words_per_block = max(1, rows // total)
    for lo in range(0, W, words_per_block):
        hi = min(W, lo + words_per_block)
        lw = np.concatenate(
            [
                weight.log_weight_arrays(
                    a1s[pairs // total], digits_of_indices(pairs % total, r2, n)
                )
                for pairs in (
                    np.arange(start, min(start + rows, hi * total))
                    for start in range(lo * total, hi * total, rows)
                )
            ]
        )
        lw = lw.reshape(hi - lo, total)
        out[lo:hi] = np.column_stack([lse(scaled_powers(q, lw), axis=1) for q in qs])
    return out
