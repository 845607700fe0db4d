"""Row sums, the two pressure functions, closed forms, and extrapolation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from carpetmf import (
    CapExceededError,
    CellSystem,
    closed_form_T,
    closed_form_beta,
    extrapolate_pressure,
    finite_T,
    finite_beta,
    finite_pressure,
    make_auxiliary,
    make_constant_cell,
    make_matrix_cocycle,
    pressure_curves,
    row_sum_log_any,
    VARIANT_PSI_Q,
    VARIANT_PSI_TILDE_Q,
)
from carpetmf import pressure, verify
from carpetmf.numerics import concavity_defect
from carpetmf.reference import default_q_grid
from carpetmf.weights import CylinderWeight

from oracles import estimate_am_constant, row_sum


def closed_T_reference(q: float) -> float:
    """Independent evaluation of the depth-1 closed form for the reference."""
    i_q = (0.2**q + 0.3**q, 0.1**q + 0.15**q + 0.25**q)
    return -math.log2(math.sqrt(i_q[0]) + math.sqrt(i_q[1]))


def closed_beta_reference(q: float) -> float:
    i_1 = (0.5, 0.5)
    i_q = (0.2**q + 0.3**q, 0.1**q + 0.15**q + 0.25**q)
    return -math.log2(sum(a ** (q * 0.5) * b**0.5 for a, b in zip(i_1, i_q)))


# -- row sums ------------------------------------------------------------------


def test_row_sum_examples(ref_weight):
    assert row_sum(ref_weight, [0], 1.0) == pytest.approx(math.log(0.5), abs=1e-14)
    assert row_sum(ref_weight, [0, 1], 1.0) == pytest.approx(math.log(0.25), abs=1e-14)


def test_row_sum_empty_fiber_row():
    sys_ = CellSystem(3, 3, ((0, 0), (0, 2), (2, 1)))  # letter 1 unoccupied
    psi = make_constant_cell(sys_, 1, np.log([0.4, 0.3, 0.3]))
    for q in (-1.5, 0.0, 1.0, 2.0):
        assert row_sum(psi, [1], q) == float("-inf")
        assert row_sum(psi, [0, 1, 2], q) == float("-inf")


def test_row_sum_transfer_equals_enumeration(ref_system, depth2_weight):
    rng = np.random.default_rng(1)
    mats = np.exp(rng.uniform(-0.5, 0.5, (5, 2, 2)))
    cocycle = make_matrix_cocycle(ref_system, 2, mats)
    for psi in (depth2_weight, cocycle):
        for n in (1, 3, 5):
            for idx in range(2**n):
                w1 = [(idx >> k) & 1 for k in range(n)]
                for q in (-1.0, 0.7, 2.0):
                    fast = row_sum(psi, w1, q)
                    slow = row_sum_log_any(psi, [w1], q, method="enumerate")[0]
                    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_criterion_5_catches_a_wrong_pass(monkeypatch):
    # Criterion 5 checks the pass's T_n and beta_n against their definition
    # over enumerated row sums, so a pass that is off by 1e-9 in log fails it.
    real = pressure.column_log_sums

    def shifted(*args, **kwargs):
        return {kind: logs + 1e-9 for kind, logs in real(*args, **kwargs).items()}

    assert verify._criterion_transfer_oracle()[0]
    monkeypatch.setattr(pressure, "column_log_sums", shifted)
    assert not verify._criterion_transfer_oracle()[0]


# -- finite pressures -----------------------------------------------------------


def test_finite_pressure_counting(ref_system):
    psi = make_constant_cell(ref_system, 1, np.zeros(5))
    for n in (1, 2, 5):
        assert finite_pressure(psi, n) == pytest.approx(math.log(5), abs=1e-12)


def test_finite_pressure_probability_cells(ref_weight):
    for n in (1, 3, 6):
        assert finite_pressure(ref_weight, n) == pytest.approx(0.0, abs=1e-12)


def test_finite_pressure_all_ones_cocycle(ref_system):
    # 1^T J^n 1 = 2^{n+1} on each of the 5^n admissible words, so
    # n*P_n = n*log 10 + log 2 and the two-point extrapolation is exact.
    psi = make_matrix_cocycle(ref_system, 2, np.ones((5, 2, 2)))
    values = {}
    for n in range(1, 9):
        p_n = finite_pressure(psi, n)
        assert p_n == pytest.approx(math.log(10) + math.log(2) / n, rel=1e-13)
        values[n] = p_n
    ext = extrapolate_pressure(values)
    assert ext.value == pytest.approx(math.log(10), abs=1e-12)


def test_finite_T_closed_form_values(ref_weight, zero_weight):
    for n in (1, 2, 4):
        assert finite_T(ref_weight, 1.0, n) == pytest.approx(-0.5, abs=1e-12)
        assert finite_T(ref_weight, 2.0, n) == pytest.approx(
            -math.log2(math.sqrt(0.13) + math.sqrt(0.095)), abs=1e-12
        )
    # phi == 0 before normalization: the curve is the constant -log2(sqrt2+sqrt3)
    counting = make_constant_cell(zero_weight.system, 1, np.zeros(5))
    for q in (-3.0, 0.0, 1.0, 7.5):
        assert finite_T(counting, q, 3) == pytest.approx(
            -math.log2(math.sqrt(2) + math.sqrt(3)), abs=1e-12
        )
    # at q = 0 normalization cannot matter
    assert finite_T(zero_weight, 0.0, 3) == pytest.approx(
        -math.log2(math.sqrt(2) + math.sqrt(3)), abs=1e-12
    )


def test_finite_beta_examples(ref_weight):
    for n in (1, 2, 5):
        assert finite_beta(ref_weight, 1.0, n) == pytest.approx(0.0, abs=1e-12)
        assert finite_beta(ref_weight, 2.0, n) == pytest.approx(
            -math.log2(0.5 * (math.sqrt(0.13) + math.sqrt(0.095))), abs=1e-12
        )
    assert finite_beta(ref_weight, 0.0, 4) == finite_T(ref_weight, 0.0, 4)


def test_finite_beta_q0_equals_T(depth2_weight):
    for n in (2, 4, 6):
        assert finite_beta(depth2_weight, 0.0, n) == pytest.approx(
            finite_T(depth2_weight, 0.0, n), abs=1e-13
        )


# -- closed forms ---------------------------------------------------------------


def test_closed_form_T(ref_weight, zero_weight):
    counting = make_constant_cell(ref_weight.system, 1, np.zeros(5))
    assert closed_form_T(counting, 4.2) == pytest.approx(
        -math.log2(math.sqrt(2) + math.sqrt(3)), abs=1e-14
    )
    assert closed_form_T(ref_weight, 1.0) == pytest.approx(-0.5, abs=1e-14)
    for q in (-2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
        assert closed_form_T(ref_weight, q) == pytest.approx(closed_T_reference(q), abs=1e-13)


def test_closed_form_T_single_row():
    sys_ = CellSystem(2, 4, ((0, 0), (0, 1)))
    psi = make_constant_cell(sys_, 1, np.log([0.2, 0.3]))
    for q in (-1.0, 0.5, 2.0):
        expected = -0.5 * math.log2(0.2**q + 0.3**q)
        assert closed_form_T(psi, q) == pytest.approx(expected, abs=1e-13)
        assert finite_T(psi, q, 4) == pytest.approx(expected, abs=1e-12)


def test_closed_form_requires_depth1(depth2_weight):
    for q in (1.0, default_q_grid()):
        with pytest.raises(ValueError, match="depth-1"):
            closed_form_T(depth2_weight, q)
        with pytest.raises(ValueError, match="depth-1"):
            closed_form_beta(depth2_weight, q)


def test_closed_forms_build_one_table_per_call(ref_weight, monkeypatch):
    # A whole q-grid reads one depth-1 table, on a window and on a tilt.
    tilt = make_auxiliary(ref_weight, 2.0, closed_form_beta(ref_weight, 2.0), VARIANT_PSI_Q)
    table = CylinderWeight.depth1_log_table
    calls = []
    monkeypatch.setattr(
        CylinderWeight, "depth1_log_table", lambda self: calls.append(self) or table(self)
    )
    grid = default_q_grid()
    for psi in (ref_weight, tilt):
        for closed in (closed_form_T, closed_form_beta):
            assert closed(psi, grid).shape == grid.shape
            assert calls == [psi]
            calls.clear()


def test_closed_form_beta(ref_weight):
    assert closed_form_beta(ref_weight, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert closed_form_beta(ref_weight, 0.0) == closed_form_T(ref_weight, 0.0)
    assert closed_form_beta(ref_weight, 2.0) == pytest.approx(1.5804053914503158, abs=1e-12)
    for q in (-2.0, 0.25, 3.0):
        assert closed_form_beta(ref_weight, q) == pytest.approx(closed_beta_reference(q), abs=1e-13)


def test_depth1_factorization_invariant(ref_weight):
    for q in np.linspace(-6, 6, 25):
        want = closed_form_T(ref_weight, float(q))
        for n in (1, 3, 5):
            got = finite_T(ref_weight, float(q), n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# -- extrapolation ----------------------------------------------------------------


def test_extrapolate_constant_sequence():
    ext = extrapolate_pressure({4: 1.25, 6: 1.25, 8: 1.25, 10: 1.25})
    assert ext.value == pytest.approx(1.25, abs=1e-14)
    assert 0.0 <= ext.error <= 1e-12


def test_extrapolate_recovers_linear_offset():
    c, a = -0.73, 2.31
    values = {n: c + a / n for n in (3, 7)}
    ext = extrapolate_pressure(values)
    assert ext.value == pytest.approx(c, abs=1e-13)
    values = {n: c + a / n for n in (4, 6, 8, 10, 12)}
    ext = extrapolate_pressure(values)
    assert ext.value == pytest.approx(c, abs=1e-13)
    assert ext.error <= 1e-12
    assert ext.depths == (10, 12)


def test_extrapolate_needs_two_depths():
    with pytest.raises(ValueError):
        extrapolate_pressure({5: 1.0})


def test_extrapolate_against_deep_oracle(depth2_weight):
    # Raw pressure of the seeded depth-2 potential: extrapolating the
    # schedule must land within the almost-multiplicativity sandwich of the
    # deep brute-force value, |P - P_14| <= log C / 14.
    values = {n: finite_pressure(depth2_weight, n) for n in (6, 8, 10, 12)}
    ext = extrapolate_pressure(values)
    deep = finite_pressure(depth2_weight, 14)
    log_c = estimate_am_constant(depth2_weight, 6).log_c
    assert abs(ext.value - deep) <= log_c / 14 + 10 * ext.error


# -- identities and sandwich -------------------------------------------------------


def test_prop_identities_depth1_exact(ref_weight):
    # With any plugged level constant L, the finite slices obey
    # beta_{psi_q,n}(r) = beta_n(qr) - r*L exactly for depth-1 weights
    # (and the psi-tilde variant with T in place of beta).
    for q, r in ((2.0, 0.5), (-1.0, 2.0), (3.0, 1.0 / 3.0)):
        aux = make_auxiliary(ref_weight, q, closed_form_beta(ref_weight, q), VARIANT_PSI_Q)
        aux_t = make_auxiliary(ref_weight, q, closed_form_T(ref_weight, q), VARIANT_PSI_TILDE_Q)
        for n in (2, 4):
            lhs = finite_beta(aux, r, n)
            rhs = finite_beta(ref_weight, q * r, n) - r * closed_form_beta(ref_weight, q)
            assert abs(lhs - rhs) <= 1e-10
            lhs_t = finite_beta(aux_t, r, n)
            rhs_t = finite_T(ref_weight, q * r, n) - r * closed_form_T(ref_weight, q)
            assert abs(lhs_t - rhs_t) <= 1e-10


def test_prop_identities_depth2_decay(depth2_weight):
    q, r = 1.5, 0.75
    level = extrapolate_pressure(
        {n: finite_beta(depth2_weight, q, n) for n in (6, 8, 10, 12)}
    ).value
    limit = extrapolate_pressure(
        {n: finite_beta(depth2_weight, q * r, n) for n in (6, 8, 10, 12)}
    ).value - r * level
    aux = make_auxiliary(depth2_weight, q, level, VARIANT_PSI_Q)
    defects = {n: abs(finite_beta(aux, r, n) - limit) for n in (4, 6, 8, 12)}
    c_hat = max(n * d for n, d in defects.items())
    assert all(defects[n] <= c_hat / n + 1e-13 for n in defects)
    assert defects[12] < defects[4]


def test_sandwich_with_scanned_constant(ref_system, depth2_weight):
    rng = np.random.default_rng(3)
    mats = np.exp(rng.uniform(-0.4, 0.4, (5, 2, 2)))
    for psi in (depth2_weight, make_matrix_cocycle(ref_system, 2, mats)):
        log_c = estimate_am_constant(psi, 6).log_c
        p = {n: finite_pressure(psi, n) for n in range(1, 9)}
        for n in range(2, 9):
            for m in range(1, n):
                defect = abs(n * p[n] - m * p[m] - (n - m) * p[n - m])
                assert defect <= log_c + 1e-12


# -- pressure curves ----------------------------------------------------------------


def test_curve_depth1_matches_closed_form(ref_weight):
    grid = default_q_grid()
    curve = pressure_curves(ref_weight, grid, (4, 6), ("T",))["T"]
    want = np.array([closed_form_T(ref_weight, float(q)) for q in curve.q_grid])
    np.testing.assert_allclose(curve.extrapolated, want, rtol=1e-10, atol=1e-10)
    assert curve.monotone_within_error


def test_curve_single_point_grid(ref_weight):
    t0 = pressure_curves(ref_weight, np.array([0.0]), (4, 6), ("T",))["T"]
    b0 = pressure_curves(ref_weight, np.array([0.0]), (4, 6), ("beta",))["beta"]
    assert t0.extrapolated[0] == pytest.approx(b0.extrapolated[0], abs=1e-12)


def test_curve_with_empty_fiber_row():
    sys_ = CellSystem(3, 3, ((0, 0), (0, 2), (2, 1)))
    psi = make_constant_cell(sys_, 1, np.log([0.4, 0.3, 0.3]))
    curve = pressure_curves(psi, np.linspace(-2, 2, 9), (3, 5), ("T",))["T"]
    assert np.all(np.isfinite(curve.extrapolated))


def test_curve_slices_concave(ref_weight, depth2_weight, ref_system):
    rng = np.random.default_rng(9)
    mats = np.exp(rng.uniform(-0.5, 0.5, (5, 2, 2)))
    grid = np.linspace(-4, 4, 33)
    for psi in (ref_weight, depth2_weight, make_matrix_cocycle(ref_system, 2, mats)):
        for curve in pressure_curves(psi, grid, (4, 6)).values():
            for n, vals in curve.finite_values.items():
                scale = max(1.0, float(np.max(np.abs(vals))))
                assert concavity_defect(curve.q_grid, vals) <= 1e-9 * scale


def test_curve_accessors(ref_weight):
    curve = pressure_curves(ref_weight, np.linspace(-1, 1, 9), (4, 6), ("beta",))["beta"]
    assert curve.depths == (4, 6)
    assert curve.value_at(0.0) == pytest.approx(closed_form_beta(ref_weight, 0.0), abs=1e-10)
    assert curve.finite_values[4][6] == pytest.approx(  # q_grid[6] == 0.5
        finite_beta(ref_weight, 0.5, 4), abs=1e-13
    )
    with pytest.raises(KeyError):
        curve.value_at(0.3)


def test_curve_infeasible_depths(monkeypatch):
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 2**10)
    sys_ = CellSystem(2, 4, ((0, 0), (1, 1)))
    psi = make_constant_cell(sys_, 1, np.zeros(2))
    with pytest.raises(CapExceededError):
        pressure_curves(psi, np.array([0.0]), (40, 50), ("T",))["T"]
