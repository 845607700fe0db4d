"""Test-only oracles: the plain enumerations of words and the word
operations that only tests use, kept out of the package."""

from __future__ import annotations

import itertools
from typing import Iterator

from carpetmf.symbolic import (
    CellSystem,
    ProductWord,
    admissible_word_count,
    check_budget,
    row_word_count,
)


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


def is_admissible(word: ProductWord, system: CellSystem) -> bool:
    return all(system.is_allowed(a1, a2) for a1, a2 in word.cells())
