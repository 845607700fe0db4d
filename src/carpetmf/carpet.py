"""Geometric realization on the torus.

Cell paths project to points of the unit square through the base-``r1`` /
base-``r2`` digit expansions; depth-``n`` balls project onto an anisotropic
grid of ``r1**g(n) x r2**n`` almost-square cells.  This module renders the
measure on that grid, box-counts its moments, and evaluates the separation
predicates (P1, P2, P3) that gate the carpet upper bound.

Boundary convention: each symbolic ball's mass is assigned wholly to its
half-open grid cell; cell boundaries on the torus carry no mass here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .numerics import NEG_INF, lse, scaled_powers
from .pressure import log_total_mass
from .symbolic import (
    CapExceededError,
    CellSystem,
    check_budget,
    depth_map,
    digits_of_indices,
    pack_digits,
)
from .weights import CylinderWeight, row_sum_log_any, row_sum_log_ranks


# ---------------------------------------------------------------------------
# Birkhoff averages along paths
# ---------------------------------------------------------------------------


def birkhoff_averages_on_carpet(
    psi: CylinderWeight, paths, steps: int | None = None
) -> np.ndarray:
    """Birkhoff average of the weight's potential along each ``(B, n, 2)``
    path.

    For a depth-``k`` window potential the sum over ``steps`` shift steps is
    the log-weight of the first ``steps + k - 1`` cells, so one
    ``log_weight_arrays`` call evaluates the whole batch.  A path's digits
    are the base-``r1`` / base-``r2`` digits of its projected point, so the
    average is also the one read off the carpet.
    """
    paths = np.asarray(paths, dtype=np.int64)
    if paths.ndim != 3 or paths.shape[2] != 2:
        raise ValueError("expected a (B, n, 2) array of paths")
    k = psi.dependence_depth or 1
    if steps is None:
        steps = paths.shape[1] - (k - 1)
    if steps < 1:
        raise ValueError("need at least one shift step")
    length = steps + k - 1
    if length > paths.shape[1]:
        raise ValueError(f"path too short: need {length} cells for {steps} steps")
    return psi.log_weight_arrays(paths[:, :length, 0], paths[:, :length, 1]) / steps


# ---------------------------------------------------------------------------
# Measure rendering on the almost-square grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CarpetRender:
    """Log masses of the charged depth-``n`` balls on the projected grid.

    Cell ``(column, row)`` is the ball whose column cylinder projects to
    ``[column / r1**g, (column+1) / r1**g)`` and whose row cylinder projects
    to ``[row / r2**n, (row+1) / r2**n)``.  Only the charged cells are held:
    ``cells`` are their flat indices ``column * row_count + row`` in
    increasing order, ``cell_log_masses`` their log masses.  Memory scales
    with the support, not the grid.
    """

    system: CellSystem
    depth: int
    cells: np.ndarray
    cell_log_masses: np.ndarray

    @property
    def column_depth(self) -> int:
        return depth_map(self.system, self.depth)

    @property
    def column_count(self) -> int:
        return self.system.r1**self.column_depth

    @property
    def row_count(self) -> int:
        return self.system.r2**self.depth

    @cached_property
    def log_masses(self) -> np.ndarray:
        """Dense ``(column_count, row_count)`` view, ``-inf`` on empty cells."""
        grid = np.full(self.column_count * self.row_count, NEG_INF)
        grid[self.cells] = self.cell_log_masses
        return grid.reshape(self.column_count, self.row_count)

    def total_log_mass(self) -> float:
        return lse(self.cell_log_masses)


#: Grid cells a render chunk fills at a time, on average: chunks are
#: equal ranges of column-word rank, and each holds whole column words.
RENDER_BLOCK = 1 << 14


def render_measure(psi: CylinderWeight, n: int) -> CarpetRender:
    """The charged cells of the depth-``n`` grid with the ball masses of a
    normalized weight.

    Each grid cell receives ``log psi([w1] x [w2]) + log I_1(suffix) - log Z``
    -- exactly the per-ball mass surrogate used by the sampler, so grids and
    sampled masses agree cell for cell.

    Cell ``(pack(w1) * n_suffix + suffix) * r2**n + pack(w2)`` ascends with
    the column word ``w1``, then the suffix, then the row word ``w2``.  So
    chunks over column-word rank, each column word's fiber product walked in
    mixed radix, fill contiguous runs of the output arrays in grid order.
    The chunks run on the calling thread: the fill is too short for a
    thread pool to pay for itself.
    """
    system = psi.system
    if n < 1:
        raise ValueError("depth must be >= 1")
    g = depth_map(system, n)
    m = g - n
    n_cols = system.r1**g
    n_rows = system.r2**n
    check_budget(n_cols * n_rows, f"grid r1**{g} x r2**{n} = {n_cols * n_rows} cells")
    # Normalized log marginal of every column suffix (all r1**m words, by rank).
    if m == 0:
        suffix_marginals = np.zeros(1)
    else:
        marginals = row_sum_log_ranks(psi, m, 0, system.r1**m, 1.0)
        suffix_marginals = marginals - log_total_mass(psi, m)
    n_suffix = suffix_marginals.size
    # A suffix of zero marginal charges no cell.
    suffixes = np.flatnonzero(np.isfinite(suffix_marginals))
    suffix_logs = suffix_marginals[suffixes]
    suffix_rows = suffixes * n_rows
    letters = np.array(system.row_alphabet, dtype=np.int64)
    sizes = np.array([len(system.row_fiber(a)) for a in system.row_alphabet], dtype=np.int64)
    firsts = np.cumsum(sizes) - sizes  # a letter's cells are contiguous in system.allowed
    total = system.n_cells**n * suffixes.size
    cells = np.empty(total, dtype=np.int64)
    values = np.empty(total)

    def words_below(rank: int) -> int:
        """Admissible words whose column word ranks below ``rank``."""
        count, prefix = 0, 1
        for k, d in enumerate(digits_of_indices(np.array([rank]), letters.size, n)[0].tolist()):
            count += prefix * int(firsts[d]) * system.n_cells ** (n - 1 - k)
            prefix *= int(sizes[d])
        return count

    def fill_chunk(start: int, stop: int) -> bool:
        digits = digits_of_indices(np.arange(start, stop, dtype=np.int64), letters.size, n)
        counts = sizes[digits].prod(axis=1)
        word_starts = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(stop - start), counts)
        local = np.arange(owner.size) - word_starts[owner]
        # The fiber product in mixed radix, last cell fastest: row words ascend.
        cell_rows = np.empty((owner.size, n), dtype=np.int64)
        rest = local
        for k in range(n - 1, -1, -1):
            d = digits[owner, k]
            rest, cell_rows[:, k] = np.divmod(rest, sizes[d])
            cell_rows[:, k] += firsts[d]
        words = letters[digits]
        a2s = system.cells_array[cell_rows, 1]
        lw = psi.log_weight_arrays(words[owner], a2s)
        base = pack_digits(words, system.r1)[owner] * (n_suffix * n_rows)
        base += pack_digits(a2s, system.r2)
        # Each column word's run holds its fiber product once per suffix.
        at = (words_below(start) + word_starts[owner]) * suffixes.size + local
        at = at[:, None] + counts[owner][:, None] * np.arange(suffixes.size)
        cells[at] = base[:, None] + suffix_rows
        chunk_values = lw[:, None] + suffix_logs
        values[at] = chunk_values
        return bool(np.isfinite(chunk_values).all())

    n_words = letters.size**n
    n_chunks = min(n_words, -(-total // RENDER_BLOCK))
    ranges = [(n_words * i // n_chunks, n_words * (i + 1) // n_chunks) for i in range(n_chunks)]
    finite = [fill_chunk(start, stop) for start, stop in ranges]  # every chunk fills
    if not all(finite):
        charged = np.isfinite(values)
        cells, values = cells[charged], values[charged]
    return CarpetRender(system, n, cells, values)


#: Pixels of the graymap built and written at a time, in bands of whole
#: image rows.
PGM_BAND = 1 << 16


def write_pgm16(
    render: CarpetRender, path: str | Path, comments: Sequence[str] = ()
) -> Path:
    """Write the grid as a binary 16-bit portable graymap.

    Empty cells map to gray 0; charged cells map affinely from
    ``[min finite, max finite]`` log mass onto ``[1, 65535]``.  The image
    origin is bottom-left (row index increases upward).
    """
    path = Path(path)
    cells, values = render.cells, render.cell_log_masses
    width, height = render.column_count, render.row_count
    lo = float(values.min()) if values.size else 0.0
    span = float(values.max()) - lo if values.size else 0.0
    # The image as the file stores it: big-endian, rows top to bottom while
    # grid rows index y upward, so cell (column, row) is pixel
    # (height - 1 - row, column).  Each band covers grid rows [bottom, top);
    # a column's cells in the band are one run of the cells, which ascend.
    band_rows = max(1, PGM_BAND // width)
    band = np.empty((band_rows, width), dtype=">u2")
    column_starts = np.arange(width, dtype=np.int64) * height
    stop = np.searchsorted(cells, column_starts + height)
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        for line in comments:
            fh.write(f"# {line}\n".encode())
        fh.write(b"# origin: bottom-left; gray 0 = empty cell\n")
        fh.write(f"{width} {height}\n65535\n".encode())
        for top in range(height, 0, -band_rows):
            bottom = max(0, top - band_rows)
            image = band[: top - bottom]
            image.fill(0)
            start = np.searchsorted(cells, column_starts + bottom)
            counts = stop - start
            picked = np.repeat(start - (np.cumsum(counts) - counts), counts)
            picked += np.arange(picked.size)
            columns, rows = np.divmod(cells[picked], height)
            if span > 0.0:
                image[top - 1 - rows, columns] = np.round(
                    1.0 + (values[picked] - lo) * (65534.0 / span)
                )
            else:
                image[top - 1 - rows, columns] = 65535.0
            fh.write(image.data)
            stop = start
    return path


#: Lines of the grid CSV formatted and written at once.
CSV_BLOCK = 1024


def write_grid_csv(
    render: CarpetRender, path: str | Path, comments: Sequence[str] = ()
) -> Path:
    """Write the charged grid cells as ``columnIndex,rowIndex,logMass``."""
    path = Path(path)
    # Each distinct log mass is formatted once, keyed by its bit pattern, so
    # 0.0 and -0.0, whose reprs differ, stay apart.
    texts: dict[int, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(f"# grid {render.column_count} x {render.row_count}, depth {render.depth}\n")
        fh.write("columnIndex,rowIndex,logMass\n")
        for start in range(0, render.cells.size, CSV_BLOCK):
            block = slice(start, start + CSV_BLOCK)
            columns, rows = np.divmod(render.cells[block], render.row_count)
            keys = render.cell_log_masses[block].view(np.int64).tolist()
            new = list(set(keys).difference(texts))
            masses = np.array(new, dtype=np.int64).view(np.float64).tolist()
            texts.update(zip(new, map(repr, masses)))
            fh.write("".join([
                f"{c},{r},{texts[k]}\n" for c, r, k in zip(columns.tolist(), rows.tolist(), keys)
            ]))
    return path


def box_count_tau(render: CarpetRender, q_grid: Iterable[float]) -> np.ndarray:
    """Coarse moment scaling of the rendered grid.

    Returns ``-(1/n) log_{r2} sum mass**q`` over the charged cells for each
    ``q``, with the empty cells contributing nothing at every ``q`` (so
    ``q = 0`` counts charged cells).
    """
    charged = render.cell_log_masses
    n = render.depth
    scale = n * np.log(render.system.r2)
    qs = np.asarray(tuple(q_grid), dtype=float)
    out = np.empty(qs.size)
    for i, q in enumerate(qs):
        if charged.size == 0:
            out[i] = np.inf
            continue
        out[i] = -lse(scaled_powers(float(q), charged)) / scale
    return out


# ---------------------------------------------------------------------------
# Separation predicates
# ---------------------------------------------------------------------------


def check_P1(system: CellSystem) -> bool:
    """Distinct occupied column letters differ by at least 2."""
    occupied = system.row_alphabet
    return all(b - a >= 2 for a, b in zip(occupied, occupied[1:]))


def check_P2(system: CellSystem) -> bool:
    """At least one of the boundary column letters 0, r1-1 is unoccupied."""
    occupied = set(system.row_alphabet)
    return 0 not in occupied or (system.r1 - 1) not in occupied


#: Largest terminal P3 defect that counts as the limit condition holding.
P3_TOLERANCE = 1e-9

#: Growth of the P3 defect between probed depths that still counts as
#: non-increasing (rounding of the boundary row sums).
P3_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class P3Report:
    """Finite-depth evidence for the boundary-row balance condition.

    ``holds`` is an indication, not a proof: it requires both boundary
    letters to be occupied, the per-depth defects (max over the probed
    ``q``) to be non-increasing along the schedule (up to
    ``P3_MONOTONE_SLACK``), and the terminal defect to sit below
    ``P3_TOLERANCE``.
    """

    holds: bool
    terminal_defect: float
    subset_holds: bool
    depths: tuple[int, ...]
    defects: tuple[float, ...]


def p3_scan(
    psi: CylinderWeight,
    q_set: Sequence[float] = (0.5, 1.0, 2.0),
    depth_schedule: Sequence[int] = (2, 4, 6, 8),
) -> P3Report:
    """Probe the P3 limit condition on constant boundary words.

    For each ``q > 0`` in ``q_set`` and depth ``n`` in the schedule, the
    defect is ``|log I_q(0^n) - log I_q((r1-1)^n)| / n``; the limit condition
    demands it to vanish.  Any empty boundary fiber leaves the defect
    infinite and the verdict negative.  The scan stops at the first depth
    whose probe would exceed the enumeration cap and reports the depths
    probed before it (it raises :class:`CapExceededError` when that is the
    first depth).
    """
    if any(q <= 0 for q in q_set):
        raise ValueError("the P3 condition concerns q > 0 only")
    system = psi.system
    depths = tuple(int(n) for n in depth_schedule)
    if not depths or list(depths) != sorted(set(depths)):
        raise ValueError("depth schedule must be strictly increasing and nonempty")
    subset = 0 in system.row_alphabet and (system.r1 - 1) in system.row_alphabet
    columns = []
    for n in depths:
        try:
            left, right = (
                row_sum_log_any(psi, np.full((1, n), letter, dtype=np.int64), q_set)[0]
                for letter in (0, system.r1 - 1)
            )
        except CapExceededError:
            if not columns:
                raise
            break  # deeper probes only grow; report the depths probed so far
        empty = np.isneginf(left) | np.isneginf(right)
        columns.append(np.where(empty, np.inf, np.abs(left - right) / n))
    depths = depths[: len(columns)]
    per_q = np.column_stack(columns)
    monotone = bool(np.all(per_q[:, 1:] <= per_q[:, :-1] + P3_MONOTONE_SLACK))
    terminal = float(per_q[:, -1].max())
    defects = tuple(float(v) for v in per_q.max(axis=0))
    holds = subset and monotone and terminal <= P3_TOLERANCE
    return P3Report(
        holds=holds,
        terminal_defect=terminal,
        subset_holds=subset,
        depths=depths,
        defects=defects,
    )
