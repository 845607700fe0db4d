"""Test-only oracles, kept out of the package: the plain enumerations of
words, product words and their operations, one-word log weights and row
sums, the almost-multiplicativity scan and the float point projection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from carpetmf.symbolic import (
    CellSystem,
    admissible_word_count,
    admissible_words_range,
    check_budget,
    row_word_count,
)
from carpetmf.weights import CylinderWeight, row_sum_log_any


@dataclass(frozen=True)
class ProductWord:
    """Finite word of cells, stored as paired digit tuples of equal length."""

    w1: tuple[int, ...]
    w2: tuple[int, ...]

    def __post_init__(self) -> None:
        w1 = tuple(int(a) for a in self.w1)
        w2 = tuple(int(a) for a in self.w2)
        if len(w1) != len(w2):
            raise ValueError("component words must have equal length")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)

    def __len__(self) -> int:
        return len(self.w1)

    @classmethod
    def from_cells(cls, cells: Sequence[tuple[int, int]]) -> "ProductWord":
        return cls(tuple(c[0] for c in cells), tuple(c[1] for c in cells))

    def cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.w1, self.w2))


def enumerate_row_words(system: CellSystem, n: int) -> Iterator[tuple[int, ...]]:
    """All column words of length ``n`` in lexicographic order."""
    total = row_word_count(system, n)
    check_budget(total, f"{total} column words of depth {n}")
    yield from itertools.product(range(system.r1), repeat=n)


def enumerate_admissible(system: CellSystem, n: int) -> Iterator[ProductWord]:
    """All admissible product words of length ``n``, lexicographic in cells."""
    total = admissible_word_count(system, n)
    check_budget(total, f"{total} product words of depth {n}")
    for cells in itertools.product(system.allowed, repeat=n):
        yield ProductWord.from_cells(cells)


def concat(word: ProductWord, other: ProductWord) -> ProductWord:
    return ProductWord(word.w1 + other.w1, word.w2 + other.w2)


def is_allowed(system: CellSystem, a1: int, a2: int) -> bool:
    if not (0 <= a1 < system.r1 and 0 <= a2 < system.r2):
        return False
    return bool(system.cell_index[a1, a2] >= 0)


def is_admissible(word: ProductWord, system: CellSystem) -> bool:
    return all(is_allowed(system, a1, a2) for a1, a2 in word.cells())


def log_weight(psi: CylinderWeight, word: ProductWord | Sequence[tuple[int, int]]) -> float:
    """Log weight of one product cylinder (0.0 for the empty word)."""
    if not isinstance(word, ProductWord):
        word = ProductWord.from_cells(tuple(word))
    if len(word) == 0:
        return 0.0
    a1s = np.array([word.w1], dtype=np.int64)
    a2s = np.array([word.w2], dtype=np.int64)
    return float(psi.log_weight_arrays(a1s, a2s)[0])


@dataclass(frozen=True)
class AmEstimate:
    """Scanned lower bound for the almost-multiplicativity constant log C."""

    log_c: float
    split: tuple[int, int]
    max_depth: int


def estimate_am_constant(psi: CylinderWeight, max_depth: int) -> AmEstimate:
    """Max of ``|log psi(uv) - log psi(u) - log psi(v)|`` over admissible
    ``u, v`` with ``|u| + |v| <= max_depth`` (a certified lower bound for the
    almost-multiplicativity constant, reported with the split attaining it).
    """
    if max_depth < 2:
        raise ValueError("max_depth must be >= 2")
    system = psi.system
    nc = system.n_cells
    best = 0.0
    best_split = (1, 1)
    for nu in range(1, max_depth):
        for nv in range(1, max_depth - nu + 1):
            pairs = nc ** (nu + nv)
            check_budget(pairs, f"{pairs} word pairs at split ({nu}, {nv})")
            a1u, a2u = _all_admissible(system, nu)
            a1v, a2v = _all_admissible(system, nv)
            lwu = psi.log_weight_arrays(a1u, a2u)
            lwv = psi.log_weight_arrays(a1v, a2v)
            Wu, Wv = a1u.shape[0], a1v.shape[0]
            a1c = np.concatenate(
                [np.repeat(a1u, Wv, axis=0), np.tile(a1v, (Wu, 1))], axis=1
            )
            a2c = np.concatenate(
                [np.repeat(a2u, Wv, axis=0), np.tile(a2v, (Wu, 1))], axis=1
            )
            lwc = psi.log_weight_arrays(a1c, a2c).reshape(Wu, Wv)
            with np.errstate(invalid="ignore"):
                defect = np.abs(lwc - (lwu[:, None] + lwv[None, :]))
            finite = (
                np.isfinite(lwc)
                & np.isfinite(lwu)[:, None]
                & np.isfinite(lwv)[None, :]
            )
            if np.any(finite):
                local = float(np.max(defect[finite]))
                if local > best:
                    best = local
                    best_split = (nu, nv)
    return AmEstimate(log_c=best, split=best_split, max_depth=max_depth)


def _all_admissible(system: CellSystem, n: int) -> tuple[np.ndarray, np.ndarray]:
    return admissible_words_range(system, n, 0, admissible_word_count(system, n))


def row_sum(psi: CylinderWeight, w1: Sequence[int], q: float) -> float:
    """``log I_q(w1)`` for a single column word."""
    a1s = np.asarray(w1, dtype=np.int64).reshape(1, -1)
    return float(row_sum_log_any(psi, a1s, q)[0])


def project_point(
    system: CellSystem, cells, precision: int | None = None
) -> tuple[float, float]:
    """Point of ``[0, 1)^2`` under the digit-expansion projection.

    ``x = sum a1_k r1**-k``, ``y = sum a2_k r2**-k`` truncated at
    ``precision`` digits (default: the full path), so the truncation error
    is below ``r1**-precision`` and ``r2**-precision`` componentwise.
    """
    cells = np.asarray(cells, dtype=np.int64)
    p = len(cells) if precision is None else precision
    x_num = y_num = 0
    for a1, a2 in cells[:p].tolist():
        x_num = x_num * system.r1 + a1
        y_num = y_num * system.r2 + a2
    if p == 0:
        return 0.0, 0.0
    return x_num / system.r1**p, y_num / system.r2**p
