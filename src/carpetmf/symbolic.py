"""Product symbolic spaces over two digit alphabets.

A *cell system* couples a coarse column alphabet ``{0..r1-1}`` with a finer
row alphabet ``{0..r2-1}`` (``2 <= r1 <= r2``) through a set of allowed cells.
Infinite words over the allowed cells project to a self-affine carpet; at
finite depth the natural metric balls are anisotropic: a ball of row depth
``n`` constrains the column word to the larger depth ``g(n)`` given by
:func:`depth_map`.

Enumeration helpers build words by rank, in the lexicographic order of their
digit (or cell) sequences; callers refuse to start when the requested volume
exceeds :data:`ENUMERATION_CAP` (:func:`check_budget`), so accidental
combinatorial explosions fail fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Largest number of items (words, digit cells, grid cells) any enumeration
#: may build; every check reads it at call time through :func:`check_budget`.
ENUMERATION_CAP = 1 << 24

#: Largest transient table a transfer recursion may allocate, and the most
#: floats a weight's memo of transfer tail vectors holds.  Both readers,
#: :mod:`carpetmf.weights` and :mod:`carpetmf.transfer`, read it here at call
#: time, so a patch of this one name reaches both.
MAX_TRANSFER_TABLE = 1 << 22


class CapExceededError(RuntimeError):
    """Requested enumeration or table is larger than its budget."""


def check_budget(volume: int, what: str) -> None:
    """Raise :class:`CapExceededError` when an enumeration would build
    ``volume`` items, more than :data:`ENUMERATION_CAP`.  ``what`` names
    them, volume and unit included; the message appends the budget."""
    if volume > ENUMERATION_CAP:
        raise CapExceededError(f"{what}, over the enumeration cap {ENUMERATION_CAP}")


@dataclass(frozen=True)
class CellSystem:
    """Base sizes ``r1 <= r2`` plus the allowed cells of the product alphabet.

    ``allowed`` is normalized to a sorted tuple of ``(a1, a2)`` pairs; all
    derived lookups (fibers, index grids) follow that order.
    """

    r1: int
    r2: int
    allowed: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not (2 <= self.r1 <= self.r2):
            raise ValueError("cell system needs 2 <= r1 <= r2")
        cells = tuple(sorted({(int(a1), int(a2)) for a1, a2 in self.allowed}))
        if len(cells) < 2:
            raise ValueError("cell system needs at least two allowed cells")
        for a1, a2 in cells:
            if not (0 <= a1 < self.r1 and 0 <= a2 < self.r2):
                raise ValueError(f"cell {(a1, a2)} outside digit ranges")
        object.__setattr__(self, "allowed", cells)

    # ------------------------------------------------------------------
    # Derived structure (cached; safe on a frozen dataclass)
    # ------------------------------------------------------------------

    @cached_property
    def s(self) -> float:
        """Anisotropy exponent ``log r1 / log r2`` in ``(0, 1]``."""
        return math.log(self.r1) / math.log(self.r2)

    @property
    def n_cells(self) -> int:
        return len(self.allowed)

    @cached_property
    def row_alphabet(self) -> tuple[int, ...]:
        """Column letters that carry at least one allowed cell."""
        return tuple(sorted({a1 for a1, _ in self.allowed}))

    @cached_property
    def _fibers(self) -> dict[int, tuple[int, ...]]:
        fib: dict[int, list[int]] = {}
        for a1, a2 in self.allowed:
            fib.setdefault(a1, []).append(a2)
        return {a1: tuple(sorted(v)) for a1, v in fib.items()}

    def row_fiber(self, a1: int) -> tuple[int, ...]:
        """Row letters allowed above column letter ``a1`` (may be empty)."""
        return self._fibers.get(int(a1), ())

    @cached_property
    def cell_index(self) -> np.ndarray:
        """``(r1, r2)`` int array: position in ``allowed``, -1 if forbidden."""
        idx = np.full((self.r1, self.r2), -1, dtype=np.int64)
        for i, (a1, a2) in enumerate(self.allowed):
            idx[a1, a2] = i
        return idx

    @cached_property
    def cells_array(self) -> np.ndarray:
        """``(n_cells, 2)`` array of the allowed cells in canonical order."""
        return np.array(self.allowed, dtype=np.int64)


def depth_map(system: CellSystem, n: int) -> int:
    """Smallest ``m`` with ``r1**-m <= r2**-n`` (exact integer arithmetic).

    This is ``ceil(n * log r2 / log r1)`` computed without float comparisons,
    so ties like ``r1**m == r2**n`` round the right way at any depth.
    """
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n == 0:
        return 0
    r1, r2 = system.r1, system.r2
    target = r2**n
    m = max(n, int(n * math.log(r2) / math.log(r1)) - 2)
    power = r1**m
    while power < target:
        power *= r1
        m += 1
    while m > n and power // r1 >= target:
        power //= r1
        m -= 1
    return m


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def digits_of_indices(indices: np.ndarray, base: int, n: int) -> np.ndarray:
    """Expand flat indices to ``(len(indices), n)`` digit rows, MSB first."""
    rem = np.array(indices, dtype=np.int64, copy=True)
    out = np.empty((rem.size, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = rem % base
        rem //= base
    return out


def pack_digits(digits: np.ndarray, base: int) -> np.ndarray:
    """Inverse of :func:`digits_of_indices` along the last axis."""
    digits = np.asarray(digits, dtype=np.int64)
    n = digits.shape[-1]
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for j in range(n):
        out = out * base + digits[..., j]
    return out


def distinct_rows(digits: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a ``(W, n)`` digit array and each row's index
    among them.  Rows of digits in ``0 .. base - 1`` are packed to one
    integer each when that fits 63 bits (rows in increasing order, such as a
    range of word ranks, are then distinct as they stand); other rows are
    compared whole."""
    n = digits.shape[1]
    if base**n < 2**63 and (digits.size == 0 or (digits.min() >= 0 and digits.max() < base)):
        packed = pack_digits(digits, base)
        if (np.diff(packed) > 0).all():
            return digits, np.arange(packed.size)
        _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
        return digits[first], inverse
    rows, inverse = np.unique(digits, axis=0, return_inverse=True)
    return rows, inverse.ravel()


def row_word_count(system: CellSystem, n: int) -> int:
    return system.r1**n


def row_words_range(system: CellSystem, n: int, start: int, stop: int) -> np.ndarray:
    """Column words with lexicographic ranks ``[start, stop)`` as digit rows."""
    return digits_of_indices(np.arange(start, stop, dtype=np.int64), system.r1, n)


def admissible_word_count(system: CellSystem, n: int) -> int:
    return system.n_cells**n


def admissible_words_range(
    system: CellSystem, n: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Admissible product words ranked ``[start, stop)`` as digit-row pairs.

    The rank order is lexicographic in the cell sequence, with cells compared
    as ``(a1, a2)`` pairs — i.e. the order of ``system.allowed``.
    """
    cell_rows = digits_of_indices(
        np.arange(start, stop, dtype=np.int64), system.n_cells, n
    )
    cells = system.cells_array[cell_rows]  # (W, n, 2)
    return cells[..., 0], cells[..., 1]
