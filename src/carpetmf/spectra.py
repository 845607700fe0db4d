"""Multifractal spectra via concave conjugation, and empirical L^q spectra.

The parametric Legendre transform of a concave pressure curve f produces the
spectrum points ``(alpha(q), q * alpha(q) - f(q))`` with ``alpha = f'`` taken
by grid differentiation.  A direct infimum evaluation of
``f*(alpha) = inf_q (alpha q - f(q))`` over the same grid cross-checks every
point, and the double transform measures how far the curve is from its own
concave envelope (the involution defect).

Dimensions may come out negative (level sets that are empty for the measure);
those points are flagged rather than clipped.

The empirical L^q spectrum ``tau_n`` of the ball measure takes its moment
sums from two kinds of the column-word pass in :mod:`carpetmf.pressure`:
``sum I_q`` over the depth-n column words and ``sum I_1^q`` over the column
extensions.  Box counting a rendered grid
(:func:`carpetmf.carpet.box_count_tau`) is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import NEG_INF, grid_derivative
from .pressure import PressureCurve, column_log_sums, log_total_mass, require_concave
from .symbolic import CellSystem, depth_map
from .weights import CylinderWeight

FLAG_OK = "ok"
FLAG_EMPTY = "empty"
FLAG_BOUNDARY = "boundary"

SOURCE_BIRKHOFF_SYMBOLIC = "birkhoffSymbolic"
SOURCE_BIRKHOFF_CARPET = "birkhoffCarpet"
SOURCE_GIBBS_SYMBOLIC = "gibbsSymbolic"


@dataclass(frozen=True)
class Spectrum:
    """Parametric spectrum points with per-point validity flags.

    ``alpha`` holds Birkhoff/local-dimension levels; for the carpet-mapped
    spectrum it holds the carpet levels ``-alpha * log r2`` instead (the
    ``source_kind`` says which).  ``infimum_defect`` is the worst disagreement
    between the parametric dimensions and the direct infimum evaluation on
    the same grid; ``level_tolerance`` is the derivative error scale used for
    boundary flagging.
    """

    source_kind: str
    q: np.ndarray
    alpha: np.ndarray
    dimension: np.ndarray
    flags: tuple[str, ...]
    infimum_defect: float
    level_tolerance: float


def _legendre_arrays(q: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    alpha = grid_derivative(q, f)
    dimension = q * alpha - f
    return alpha, dimension


def _direct_infimum(q: np.ndarray, f: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``inf_q (level * q - f(q))`` evaluated on the grid, per level."""
    return np.min(levels[:, None] * q[None, :] - f[None, :], axis=1)


def _level_tolerance(q: np.ndarray, f: np.ndarray) -> float:
    """Derivative error scale: (max grid step)^2 times the peak curvature."""
    d1 = grid_derivative(q, f)
    curvature = float(np.max(np.abs(grid_derivative(q, d1))))
    step = float(np.max(np.diff(q)))
    return max(float(np.finfo(float).eps), step * step * curvature)


def legendre(curve: PressureCurve) -> Spectrum:
    """Concave conjugate of a pressure curve, in parametric form.

    Every grid point yields ``(alpha, dim)``; points with ``dim`` below
    ``-tol`` are flagged ``empty`` (no mass at that level), points with
    ``|dim| <= tol`` are flagged ``boundary``.  A ``T`` curve gives the
    symbolic Birkhoff spectrum, a ``beta`` curve the symbolic Gibbs one.
    """
    source_kind = SOURCE_BIRKHOFF_SYMBOLIC if curve.kind == "T" else SOURCE_GIBBS_SYMBOLIC
    q = curve.q_grid
    f = curve.extrapolated
    require_concave(q, f, "conjugating a non-concave curve")
    alpha, dimension = _legendre_arrays(q, f)
    tol = _level_tolerance(q, f)
    direct = _direct_infimum(q, f, alpha)
    defect = float(np.max(np.abs(direct - dimension)))
    flags = tuple(
        FLAG_EMPTY if d < -tol else (FLAG_BOUNDARY if abs(d) <= tol else FLAG_OK)
        for d in dimension
    )
    return Spectrum(
        source_kind=source_kind,
        q=q.copy(),
        alpha=alpha,
        dimension=dimension,
        flags=flags,
        infimum_defect=defect,
        level_tolerance=tol,
    )


def legendre_involution_check(curve: PressureCurve) -> float:
    """Defect ``max_grid |f**(q) - f(q)|`` of the double concave conjugate.

    The conjugate is represented by its parametric samples; the second
    transform is the lower envelope of the tangent lines they induce.  For a
    genuinely concave curve this vanishes up to derivative error.
    """
    q = curve.q_grid
    f = curve.extrapolated
    alpha, dimension = _legendre_arrays(q, f)
    # f**(q) = inf_alpha (q * alpha - f*(alpha)) over the sampled levels.
    double = np.min(q[:, None] * alpha[None, :] - dimension[None, :], axis=1)
    return float(np.max(np.abs(double - f)))


def birkhoff_spectrum_carpet(curve: PressureCurve, system: CellSystem) -> Spectrum:
    """Map the symbolic Birkhoff spectrum onto carpet-level coordinates.

    Each parametric point ``(alpha, dim)`` becomes ``(-alpha * log r2, dim)``;
    dimensions and flags are carried over bit-exactly.
    """
    if curve.kind != "T":
        raise ValueError("the carpet Birkhoff spectrum is built from a 'T' curve")
    base = legendre(curve)
    return replace(
        base,
        source_kind=SOURCE_BIRKHOFF_CARPET,
        alpha=-base.alpha * math.log(system.r2),
    )


def mcmullen_dimension(system: CellSystem) -> float:
    """``log_{r1} sum_{a1} N(a1)^s`` with N = row-fiber sizes (q = 0 value)."""
    sizes = np.array([len(system.row_fiber(a1)) for a1 in system.row_alphabet], float)
    return math.log(float(np.sum(sizes**system.s))) / math.log(system.r1)


# ---------------------------------------------------------------------------
# Empirical L^q spectrum of the approximate Gibbs measure
# ---------------------------------------------------------------------------


def lq_spectrum_empirical(
    psi: CylinderWeight, q: float | np.ndarray, n: int, workers: int = 1
) -> float | np.ndarray:
    """``tau_n(q) = -(1/n) log_{r2} sum_B mu_n(B)^q`` over depth-n balls.

    ``mu_n`` assigns a ball (w1 x w2, column extension u) the product of the
    cylinder weight of ``w1 x w2`` and the row-marginal fraction
    ``I_1(u) / Z_m`` of ``u``, so the ball sum factorizes exactly:
    ``sum_B mu(B)^q = [sum_{w1} I_q(w1)] * [sum_u I_1(u)^q] / Z_m^q``, the
    ``rows`` and ``marginal`` kinds of :func:`column_log_sums`.  ``q`` is a
    scalar (scalar result) or an array (one value per q).  Box counting a
    rendered grid is its oracle.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    qs = np.asarray(q, dtype=float).ravel()
    m = depth_map(psi.system, n) - n
    log_sum = column_log_sums(psi, qs, n, ("rows",), workers)["rows"]
    if m > 0:
        log_ext = column_log_sums(psi, qs, m, ("marginal",), workers)["marginal"]
        log_z = log_total_mass(psi, m, workers=workers)
        log_sum = log_sum + (log_ext - qs * log_z)
    if np.any(log_sum == NEG_INF):
        raise ValueError("measure charges no ball at this depth")
    tau = -log_sum / (n * math.log(psi.system.r2))
    return float(tau[0]) if np.ndim(q) == 0 else tau
