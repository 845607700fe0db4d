"""Built-in reference systems, grids, and defaults.

The 2 x 4 five-cell system below is the desk-scale workhorse: its depth-1
probability weights admit closed forms for every quantity the package
computes, so it anchors the verification suite and serves as the default
experiment when no configuration file is given.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import sorted_unique
from .symbolic import CellSystem
from .weights import ConstantCellWeight, make_constant_cell

__all__ = [
    "DEFAULT_DEPTH_SCHEDULE",
    "DEFAULT_MASTER_SEED",
    "default_config",
    "default_q_grid",
    "pcg64_uniform",
    "q_grid_from_spec",
    "random_depth2_weight",
    "reference_system",
    "reference_weight",
    "zero_potential_weight",
]

#: Depth schedule used for extrapolation when nothing else is requested.
DEFAULT_DEPTH_SCHEDULE: tuple[int, ...] = (4, 6, 8, 10, 12)

#: Dyadic offsets added on both sides of each refinement center of a q-grid.
REFINE_OFFSETS = (0.03125, 0.0625, 0.125)

#: Half-width of the uniform window values of :func:`random_depth2_weight`.
WINDOW_SPREAD = 0.5

#: Master seed for sampling defaults (any fixed value works; this one is
#: the release date of the first frozen verification run).
DEFAULT_MASTER_SEED = 20260814

#: Allowed cells of the reference system: two occupied column letters with
#: fibers of size 2 and 3.
_REFERENCE_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2))

#: Probability masses on the reference cells (sum to 1, so the depth-1
#: weight is exactly normalized).
_REFERENCE_MASSES = (0.2, 0.3, 0.1, 0.15, 0.25)


def reference_system() -> CellSystem:
    """The 2 x 4 system with fibers {0,1} over 0 and {0,1,2} over 1."""
    return CellSystem(r1=2, r2=4, allowed=_REFERENCE_CELLS)


def reference_weight() -> ConstantCellWeight:
    """Depth-1 probability weight on the reference system."""
    return make_constant_cell(reference_system(), 1, np.log(np.array(_REFERENCE_MASSES)))


def zero_potential_weight(system: CellSystem | None = None) -> ConstantCellWeight:
    """Counting weight (potential identically zero) on a cell system."""
    system = reference_system() if system is None else system
    return make_constant_cell(system, 1, np.zeros(system.n_cells))


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: PCG's default 128-bit LCG multiplier.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).pool``: the 32-bit words of ``seed``,
    lowest first, hashed into four pool words."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [0] if seed == 0 else []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * 0x931E8875) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state64(pool: list[int], count: int) -> list[int]:
    """numpy's ``SeedSequence.generate_state(count, uint64)``: pairs of
    32-bit words, low word first."""
    const = 0x8B51F9DD
    halves = []
    for i in range(2 * count):
        value = pool[i % len(pool)] ^ const
        const = (const * 0x58F38DED) & _MASK32
        value = (value * const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(count)]


def pcg64_uniform(
    seed: int, low: float, high: float, size: int | tuple[int, ...]
) -> np.ndarray:
    """numpy's ``default_rng(seed).uniform(low, high, size)``, bit for bit,
    in pure Python (O'Neill, PCG, HMC-CS-2014-0905).

    The seed is hashed as numpy's ``SeedSequence`` does, four 64-bit words
    seed PCG64's setseq-128 LCG (state and stream), each step's state is read
    through the XSL-RR output, and the top 53 bits of each output give
    ``u``; a draw is ``low + (high - low) * u``.  The package's seeded test
    data come from here, so no command loads numpy's random module.
    """
    span = high - low
    if span < 0:
        raise ValueError("high - low < 0")
    state_hi, state_lo, stream_hi, stream_lo = _generate_state64(_seed_pool(int(seed)), 4)
    inc = ((stream_hi << 64 | stream_lo) << 1 | 1) & _MASK128
    state = (inc + (state_hi << 64 | state_lo)) & _MASK128  # one step from 0, plus the seed
    state = (state * _PCG_MULTIPLIER + inc) & _MASK128
    shape = (size,) if isinstance(size, int) else tuple(size)
    draws = []
    for _ in range(math.prod(shape)):
        state = (state * _PCG_MULTIPLIER + inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        word = ((word >> rot) | (word << (64 - rot))) & _MASK64
        draws.append(low + span * ((word >> 11) * 2.0**-53))
    return np.array(draws, dtype=float).reshape(shape)


def random_depth2_weight(seed: int = 7, system: CellSystem | None = None) -> ConstantCellWeight:
    """Seeded random depth-2 window potential on a cell system.

    Window values are uniform on ``[-WINDOW_SPREAD, WINDOW_SPREAD]`` over
    all cell pairs; the depth-1 truncation table stays at zero.  Used
    wherever a genuinely non-factorizing weight is needed.
    """
    system = reference_system() if system is None else system
    nc = system.n_cells
    window = pcg64_uniform(seed, -WINDOW_SPREAD, WINDOW_SPREAD, (nc, nc))
    return make_constant_cell(system, 2, window)


def q_grid_from_spec(spec) -> np.ndarray:
    """The sorted distinct points of a config's ``grids.qGrid``: its list
    of points, or ``count`` evenly spaced points from ``start`` to ``stop``
    plus ``REFINE_OFFSETS`` on both sides of each ``refine`` center."""
    if not isinstance(spec, dict):
        return sorted_unique(spec)
    base = np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["count"]))
    extras = [
        center + sign * offset
        for center in spec.get("refine", [])
        for sign in (-1.0, 1.0)
        for offset in REFINE_OFFSETS
    ]
    return sorted_unique(np.concatenate([base, np.asarray(extras, dtype=float)]))


def default_q_grid() -> np.ndarray:
    """The default config's q-grid: 81 points on [-10, 10] plus dyadic
    refinements near 0 and 1.

    The base step is 1/4 and the refinement offsets are dyadic, so every
    grid point is an exact binary float and unions deduplicate cleanly.
    """
    return q_grid_from_spec(default_config()["grids"]["qGrid"])


def default_config() -> dict:
    """Reference experiment as a plain config dictionary."""
    return {
        "cellSystem": {
            "r1": 2,
            "r2": 4,
            "allowed": [list(cell) for cell in _REFERENCE_CELLS],
        },
        "weight": {
            "kind": "constantCell",
            "depth": 1,
            "values": list(_REFERENCE_MASSES),
        },
        "grids": {
            "qGrid": {"start": -10.0, "stop": 10.0, "count": 81, "refine": [0.0, 1.0]},
            "depthSchedule": list(DEFAULT_DEPTH_SCHEDULE),
        },
        "sampling": {
            "nSamples": 400,
            "depth": 16,
            "masterSeed": DEFAULT_MASTER_SEED,
            "q": 1.0,
            "variant": "psiTildeQ",
        },
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
