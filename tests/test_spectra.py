"""Legendre transforms, spectra, L^q moments, and support dimension."""

from __future__ import annotations

import math

import numpy as np
import pytest

from carpetmf import (
    CellSystem,
    PressureCurve,
    birkhoff_spectrum_carpet,
    closed_form_T,
    closed_form_beta,
    depth_map,
    legendre,
    legendre_involution_check,
    log_total_mass,
    lq_spectrum_empirical,
    make_constant_cell,
    mcmullen_dimension,
    pressure_curves,
)
from carpetmf import verify
from carpetmf.gibbs import ball_mass
from carpetmf.numerics import central_derivative, lse
from carpetmf.reference import default_q_grid
from carpetmf.spectra import FLAG_BOUNDARY, FLAG_EMPTY, FLAG_OK
from carpetmf.symbolic import digits_of_indices

from oracles import row_sum


def synthetic_curve(q_grid: np.ndarray, values: np.ndarray, kind: str = "T") -> PressureCurve:
    return PressureCurve(
        kind=kind,
        q_grid=q_grid,
        finite_values={4: values.copy()},
        extrapolated=values.copy(),
        error_estimate=np.zeros_like(values),
        monotone_within_error=True,
    )


def closed_T_curve(psi, q_grid: np.ndarray) -> PressureCurve:
    vals = np.array([closed_form_T(psi, float(q)) for q in q_grid])
    return synthetic_curve(np.asarray(q_grid, dtype=float), vals, kind="T")


# -- parametric Legendre transform --------------------------------------------


def test_legendre_parabola():
    q = np.linspace(-3, 3, 61)
    spec = legendre(synthetic_curve(q, -q * q / 2))
    step = q[1] - q[0]
    # f(q) = -q^2/2 conjugates to f*(alpha) = -alpha^2/2; at alpha = 1, -1/2.
    at = int(np.argmin(np.abs(spec.alpha - 1.0)))
    assert spec.alpha[at] == pytest.approx(1.0, abs=step**2)
    assert spec.dimension[at] == pytest.approx(-0.5, abs=step**2)
    np.testing.assert_allclose(spec.dimension, -spec.alpha**2 / 2, atol=step**2)


def test_legendre_constant_curve():
    q = np.linspace(-5, 5, 41)
    c = -1.6536
    spec = legendre(synthetic_curve(q, np.full_like(q, c)))
    np.testing.assert_allclose(spec.alpha, 0.0, atol=1e-14)
    np.testing.assert_allclose(spec.dimension, -c, atol=1e-14)
    assert all(f == FLAG_OK for f in spec.flags)


def test_legendre_reference_max_at_zero(ref_weight):
    spec = legendre(closed_T_curve(ref_weight, default_q_grid()))
    peak = int(np.argmax(spec.dimension))
    assert abs(spec.q[peak]) <= 0.05  # attained at the grid q nearest 0
    assert spec.dimension[peak] == pytest.approx(
        math.log2(math.sqrt(2) + math.sqrt(3)), abs=1e-6
    )
    assert np.max(spec.dimension) <= -closed_form_T(ref_weight, 0.0) + spec.level_tolerance


def test_legendre_flags(ref_weight):
    # the reference spectrum is positive everywhere on the default grid
    spec = legendre(closed_T_curve(ref_weight, default_q_grid()))
    assert all(f == FLAG_OK for f in spec.flags)
    assert np.all(spec.dimension > 0)
    # alpha = f'(q) is nonincreasing in q for a concave curve
    assert np.all(np.diff(spec.alpha) <= spec.level_tolerance)
    # a curve whose conjugate is negative flags every level as empty
    q = np.linspace(-3, 3, 61)
    sunk = legendre(synthetic_curve(q, -q * q / 2 + 2.0))
    assert all(f == FLAG_EMPTY for f in sunk.flags)
    np.testing.assert_array_less(sunk.dimension, 0.0)
    # the zero curve sits exactly on the boundary at every level
    flat = legendre(synthetic_curve(q, np.zeros_like(q)))
    assert all(f == FLAG_BOUNDARY for f in flat.flags)


def test_legendre_direct_infimum_agreement(ref_weight):
    grid = default_q_grid()
    spec = legendre(closed_T_curve(ref_weight, grid))
    assert spec.infimum_defect <= 2 * float(np.max(np.diff(grid)))


def test_legendre_rejects_convex_input():
    q = np.linspace(-2, 2, 21)
    with pytest.raises(ValueError):
        legendre(synthetic_curve(q, q * q))


# -- involution ----------------------------------------------------------------


def test_involution_parabola():
    q = np.linspace(-3, 3, 61)
    step = q[1] - q[0]
    assert legendre_involution_check(synthetic_curve(q, -q * q / 2)) <= step**2


def test_involution_reference(ref_weight):
    assert legendre_involution_check(closed_T_curve(ref_weight, default_q_grid())) <= 1e-3


def test_involution_constant_curve():
    q = np.linspace(-3, 3, 25)
    curve = synthetic_curve(q, np.full_like(q, -1.6536))
    assert legendre_involution_check(curve) <= 1e-15


# -- carpet reparametrization ----------------------------------------------------


def test_carpet_spectrum_mapping(ref_weight, ref_system):
    curve = closed_T_curve(ref_weight, default_q_grid())
    sym = legendre(curve)
    mapped = birkhoff_spectrum_carpet(curve, ref_system)
    # beta = -alpha * log r2, dimensions and flags carried over bit-exactly
    assert np.array_equal(mapped.alpha, -sym.alpha * math.log(4))
    assert np.array_equal(mapped.dimension, sym.dimension)
    assert mapped.flags == sym.flags
    # spot: the q = 1 point maps T'(1) to -T'(1) log 4
    at = int(np.argmin(np.abs(sym.q - 1.0)))
    t1 = central_derivative(lambda x: closed_form_T(ref_weight, x), 1.0, h=1 / 64)
    assert sym.alpha[at] == pytest.approx(t1, abs=1e-3)
    assert mapped.alpha[at] == pytest.approx(-t1 * math.log(4), abs=4e-3)


def test_carpet_spectrum_constant_curve(ref_system):
    counting = make_constant_cell(ref_system, 1, np.zeros(5))
    q = np.linspace(-2, 2, 17)
    curve = closed_T_curve(counting, q)
    mapped = birkhoff_spectrum_carpet(curve, ref_system)
    np.testing.assert_allclose(mapped.alpha, 0.0, atol=1e-13)
    np.testing.assert_allclose(
        mapped.dimension, math.log2(math.sqrt(2) + math.sqrt(3)), atol=1e-13
    )


def test_carpet_spectrum_requires_T_kind(ref_weight, ref_system):
    beta_curve = pressure_curves(ref_weight, np.linspace(-1, 1, 5), (3, 5), ("beta",))["beta"]
    with pytest.raises(ValueError):
        birkhoff_spectrum_carpet(beta_curve, ref_system)


# -- empirical L^q spectrum -------------------------------------------------------


def literal_tau(psi, q: float, n: int) -> float:
    """Brute-force moment sum over every ball of depth n."""
    system = psi.system
    g = depth_map(system, n)
    terms = []
    for col in range(system.r1**g):
        w1 = [(col >> k) % system.r1 for k in range(g - 1, -1, -1)]
        for row in range(system.r2**n):
            w2 = [(row >> (2 * k)) % system.r2 for k in range(n - 1, -1, -1)]
            lm = ball_mass(psi, w1, w2)
            if lm > float("-inf"):
                terms.append(q * lm)
    return -lse(np.array(terms)) / (n * math.log(system.r2))


def batched_tau(psi, q: float, n: int, checked_columns=(0, 37, 255)) -> float:
    """:func:`literal_tau` with the balls of each column word in one batch:
    one ``log_weight_arrays`` call over its ``r2**n`` rows, one extension
    row sum, and the total mass once.  ``ball_mass`` must give the same
    mass on a few balls of each checked column word."""
    system = psi.system
    g = depth_map(system, n)
    rows = digits_of_indices(np.arange(system.r2**n), system.r2, n)
    lz = log_total_mass(psi, g - n)
    terms = []
    for col in range(system.r1**g):
        w1 = digits_of_indices(np.array([col]), system.r1, g)[0]
        lw = psi.log_weight_arrays(np.broadcast_to(w1[:n], rows.shape), rows)
        lm = lw + row_sum(psi, w1[n:], 1.0) - lz
        if col in checked_columns:
            for row in (0, 7, rows.shape[0] - 1):
                assert ball_mass(psi, w1, rows[row]) == lm[row]
        terms.append(q * lm[lm > float("-inf")])
    return -lse(np.concatenate(terms)) / (n * math.log(system.r2))


def test_lq_spectrum_q1_zero(ref_weight):
    for n in (1, 2, 4):
        assert lq_spectrum_empirical(ref_weight, 1.0, n) == pytest.approx(0.0, abs=1e-12)


def test_lq_spectrum_q0_counting(ref_weight, ref_system):
    # tau_n(0) counts charged balls: 5^n row/cell choices times 2^n marginal
    # suffixes for the reference, all of positive mass.
    for n in (1, 2, 3):
        charged = 5**n * 2**n
        want = -math.log(charged) / (n * math.log(4))
        assert lq_spectrum_empirical(ref_weight, 0.0, n) == pytest.approx(want, abs=1e-12)


def test_lq_spectrum_matches_literal_enumeration(ref_weight):
    # r2 = 4 lets the row loop above use 2-bit digit arithmetic; n = 2 keeps
    # the literal double loop at 16 * 256 ball evaluations.
    for q in (0.5, 2.0):
        want = literal_tau(ref_weight, q, 2)
        assert lq_spectrum_empirical(ref_weight, q, 2) == pytest.approx(want, rel=1e-12)


def test_lq_spectrum_q2_depth4_oracle(ref_weight):
    got = lq_spectrum_empirical(ref_weight, 2.0, 4)
    want = batched_tau(ref_weight, 2.0, 4)
    assert got == pytest.approx(want, rel=1e-12)


def test_lq_spectrum_return_types(ref_weight):
    # A scalar q gives a Python float, so a check on it gives a Python bool:
    # the verify report counts a failed criterion by `passed is False`.
    assert type(lq_spectrum_empirical(ref_weight, 2.0, 2)) is float
    assert lq_spectrum_empirical(ref_weight, np.array([0.5, 2.0]), 2).shape == (2,)
    passed, _ = verify._criterion_tau_derivative()
    assert passed is True


def test_derivative_match_at_one(ref_weight):
    h = 1 / 16
    n = 8
    tau_prime = (
        lq_spectrum_empirical(ref_weight, 1.0 + h, n)
        - lq_spectrum_empirical(ref_weight, 1.0 - h, n)
    ) / (2 * h)
    beta_prime = central_derivative(lambda x: closed_form_beta(ref_weight, x), 1.0, h=h)
    assert abs(beta_prime - tau_prime) <= 0.05


# -- support dimension --------------------------------------------------------------


def test_support_dimension_reference(ref_weight, ref_system):
    curve = pressure_curves(ref_weight, np.array([0.0]), (4, 6), ("T",))["T"]
    want = math.log2(math.sqrt(2) + math.sqrt(3))
    assert -curve.value_at(0.0) == pytest.approx(want, abs=1e-10)
    assert mcmullen_dimension(ref_system) == pytest.approx(want, abs=1e-14)


def test_support_dimension_full_grid():
    sys_ = CellSystem(2, 4, tuple((a1, a2) for a1 in range(2) for a2 in range(4)))
    psi = make_constant_cell(sys_, 1, np.zeros(8))
    curve = pressure_curves(psi, np.array([0.0]), (3, 5), ("T",))["T"]
    assert -curve.value_at(0.0) == pytest.approx(2.0, abs=1e-12)
    assert mcmullen_dimension(sys_) == pytest.approx(2.0, abs=1e-14)


def test_support_dimension_routes_agree(depth2_weight, ref_system):
    curve = pressure_curves(depth2_weight, np.array([0.0]), (4, 6, 8), ("beta",))["beta"]
    assert -curve.value_at(0.0) == pytest.approx(
        mcmullen_dimension(ref_system), abs=1e-9
    )


def test_gibbs_spectrum_touches_diagonal(ref_weight):
    grid = np.array([0.875, 0.9375, 1.0, 1.0625, 1.125])
    vals = np.array([closed_form_beta(ref_weight, float(q)) for q in grid])
    spec = legendre(synthetic_curve(grid, vals, kind="beta"))
    at = int(np.argmin(np.abs(spec.q - 1.0)))
    # beta(1) = 0 forces dimension = q*alpha - beta = alpha at q = 1
    assert spec.dimension[at] == pytest.approx(spec.alpha[at], abs=1e-12)


def test_monotone_extrapolated_curves(ref_weight, depth2_weight):
    # the reference curves are exactly monotone; the random depth-2 weight
    # genuinely is not, and the informational flag reports that honestly
    grid = np.linspace(-3, 3, 25)
    for kind in ("T", "beta"):
        assert pressure_curves(ref_weight, grid, (4, 6), (kind,))[kind].monotone_within_error
        deep = pressure_curves(depth2_weight, grid, (4, 6), (kind,))[kind]
        assert deep.monotone_within_error is False
