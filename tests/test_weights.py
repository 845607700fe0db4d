"""The three weight families, normalization, and almost-multiplicativity."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from carpetmf import (
    CellSystem,
    ConstantCellWeight,
    SkewProductWeight,
    finite_T,
    finite_beta,
    finite_pressure,
    log_total_mass,
    make_constant_cell,
    make_matrix_cocycle,
    normalize_to_gibbs,
    sample_paths,
)
from carpetmf.symbolic import digits_of_indices
from carpetmf.weights import row_sum_log_any, row_sum_log_ranks

from oracles import concat, enumerate_admissible, estimate_am_constant, log_weight, row_sum

NEG_INF = float("-inf")


def all_admissible_arrays(system, n):
    words = list(enumerate_admissible(system, n))
    return (
        np.array([w.w1 for w in words], dtype=np.int64),
        np.array([w.w2 for w in words], dtype=np.int64),
    )


# -- constant-cell (finite-window Birkhoff) weights --------------------------


def test_constant_cell_zero_table(ref_system):
    psi = make_constant_cell(ref_system, 1, np.zeros(5))
    for w in ([(0, 0)], [(1, 2), (0, 1), (1, 0)], [(1, 1)] * 6):
        assert log_weight(psi, w) == 0.0


def test_constant_cell_two_values(ref_system):
    table = np.array([math.log(0.2), math.log(0.3), 0.0, 0.0, 0.0])
    psi = make_constant_cell(ref_system, 1, table)
    assert log_weight(psi, [(0, 0), (0, 1)]) == pytest.approx(math.log(0.06), abs=1e-12)


def test_constant_cell_depth2_loop_oracle(ref_system):
    rng = np.random.default_rng(42)
    nc = ref_system.n_cells
    window = rng.uniform(-1.0, 1.0, (nc, nc))
    psi = make_constant_cell(ref_system, 2, window)
    assert psi.dependence_depth == 2
    cells = [(0, 1), (1, 2), (1, 0), (0, 0), (1, 1)]
    expected = 0.0  # independent summation: one window value per position
    for i in range(len(cells) - 1):
        ia = ref_system.cell_index[cells[i][0], cells[i][1]]
        ib = ref_system.cell_index[cells[i + 1][0], cells[i + 1][1]]
        expected += window[ia, ib]
    assert log_weight(psi, cells) == pytest.approx(expected, abs=1e-12)


def test_constant_cell_truncated_tables(ref_system):
    nc = ref_system.n_cells
    window = np.full((nc, nc), 0.25)
    # default truncation: words shorter than the window depth weigh 1 (log 0)
    psi = make_constant_cell(ref_system, 2, window)
    assert log_weight(psi, [(0, 1)]) == 0.0
    # explicit depth-1 truncation table is honored
    psi2 = make_constant_cell(ref_system, 2, window, truncated_tables={1: np.full(nc, -0.5)})
    assert log_weight(psi2, [(0, 1)]) == pytest.approx(-0.5, abs=0)


def test_constant_cell_support(ref_system):
    psi = make_constant_cell(ref_system, 1, np.zeros(5))
    assert log_weight(psi, []) == 0.0
    assert log_weight(psi, [(0, 2)]) == NEG_INF  # (0,2) is not an allowed cell
    assert log_weight(psi, [(0, 0), (0, 2), (1, 1)]) == NEG_INF


def test_off_grid_and_forbidden_digits_weigh_nothing(ref_system, ref_weight, depth2_weight):
    # Words with a negative digit, a digit >= r or a forbidden cell weigh
    # exactly -inf; the others keep the bytes they have in a batch of their own.
    rng = np.random.default_rng(7)
    cocycle = make_matrix_cocycle(ref_system, 2, rng.uniform(0.1, 1.0, (5, 2, 2)))
    a1s = rng.integers(-2, ref_system.r1 + 2, (400, 3))
    a2s = rng.integers(-2, ref_system.r2 + 2, (400, 3))
    a1s[0, 0], a2s[1, 2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    a1s[2:50], a2s[2:50] = 1, 2  # allowed words, 48 of them
    allowed = set(ref_system.allowed)
    valid = np.array([all(cell in allowed for cell in zip(*w)) for w in zip(a1s, a2s)])
    assert 48 <= valid.sum() < 400 and not valid[:2].any()
    for psi in (ref_weight, depth2_weight, cocycle):
        got = psi.log_weight_arrays(a1s, a2s)
        assert np.all(got[~valid] == NEG_INF)
        alone = psi.log_weight_arrays(a1s[valid], a2s[valid])
        assert np.isfinite(alone).all() and got[valid].tobytes() == alone.tobytes()


def test_constant_cell_table_shape_errors(ref_system):
    with pytest.raises(ValueError):
        make_constant_cell(ref_system, 1, np.zeros(4))
    with pytest.raises(ValueError):
        make_constant_cell(ref_system, 2, np.zeros((5, 4)))


# -- matrix cocycles ----------------------------------------------------------


def test_matrix_cocycle_dim1_reduces_to_constant_cell(ref_system):
    rng = np.random.default_rng(3)
    phi = rng.uniform(-1.0, 1.0, 5)
    cocycle = make_matrix_cocycle(ref_system, 1, np.exp(phi).reshape(5, 1, 1))
    birkhoff = make_constant_cell(ref_system, 1, phi)
    a1s, a2s = all_admissible_arrays(ref_system, 4)
    got = cocycle.log_weight_arrays(a1s, a2s)
    want = birkhoff.log_weight_arrays(a1s, a2s)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_dim1_cocycle_is_a_depth1_window(ref_system):
    # A dimension-1 cocycle is exactly multiplicative: the factory builds
    # the depth-1 window of log m, with its row sums, total masses and
    # sample paths to the byte.
    m = np.random.default_rng(5).uniform(0.05, 1.0, (5, 1, 1))
    cocycle = make_matrix_cocycle(ref_system, 1, m)
    window = make_constant_cell(ref_system, 1, np.log(m[:, 0, 0]))
    assert isinstance(cocycle, ConstantCellWeight) and cocycle.depth == 1
    words = digits_of_indices(np.arange(2**6), 2, 6)
    qs = np.array([-1.5, 0.0, 0.5, 1.0, 2.0, 3.0])


    def outputs(psi):
        return (
            row_sum_log_any(psi, words, qs).tobytes(),
            row_sum_log_ranks(psi, 6, 3, 50, qs).tobytes(),
            [log_total_mass(psi, n) for n in range(6)],
            sample_paths(psi, 8, 3, 0, 100).tobytes(),
        )

    assert outputs(cocycle) == outputs(window)


def test_matrix_cocycle_all_ones_power(ref_system):
    # J^n = 2^{n-1} J for the 2x2 all-ones matrix, so 1^T J^n 1 = 2^{n+1}.
    J = np.ones((5, 2, 2))
    psi = make_matrix_cocycle(ref_system, 2, J)
    for n in range(1, 9):
        word = [(1, 1)] * n
        assert log_weight(psi, word) == pytest.approx(
            (n - 1) * math.log(2) + math.log(4), rel=1e-13
        )


def test_matrix_cocycle_matches_plain_product(ref_system):
    rng = np.random.default_rng(11)
    mats = np.exp(rng.uniform(-0.7, 0.7, (5, 2, 2)))
    psi = make_matrix_cocycle(ref_system, 2, mats)
    a1s, a2s = all_admissible_arrays(ref_system, 6)
    got = psi.log_weight_arrays(a1s, a2s)
    idx = ref_system.cell_index[a1s, a2s]
    for row in range(0, len(idx), 97):  # spot rows; full loop is O(5^6)
        prod = np.eye(2)
        for k in idx[row]:
            prod = mats[k] @ prod  # M(w_n) ... M(w_1) applied left to right
        assert got[row] == pytest.approx(math.log(prod.sum()), rel=1e-12)


def test_matrix_cocycle_rejects_nonpositive(ref_system):
    bad = np.ones((5, 2, 2))
    bad[2, 0, 1] = 0.0
    with pytest.raises(ValueError):
        make_matrix_cocycle(ref_system, 2, bad)


def test_matrix_cocycle_exact_submultiplicativity(ref_system):
    rng = np.random.default_rng(5)
    mats = np.exp(rng.uniform(-1.0, 1.0, (5, 2, 2)))
    psi = make_matrix_cocycle(ref_system, 2, mats)
    words = list(enumerate_admissible(ref_system, 2))
    for u, v in itertools.product(words[:25], words[:25]):
        defect = log_weight(psi, concat(u, v).cells()) - log_weight(psi, u.cells()) - log_weight(psi, v.cells())
        assert defect <= 1e-12  # one-sided: operator-norm style bound


# -- skew products -------------------------------------------------------------


def test_skew_product_rowsum_theta_recovers_rho(ref_weight, ref_system):
    skew = SkewProductWeight(ref_weight, moments=((1.0, 1.0),))
    a1s, a2s = all_admissible_arrays(ref_system, 3)
    np.testing.assert_allclose(
        skew.log_weight_arrays(a1s, a2s),
        ref_weight.log_weight_arrays(a1s, a2s),
        rtol=0,
        atol=1e-12,
    )


def test_skew_product_uniform_theta_hand_value(ref_weight, ref_system, ref_masses):
    skew = SkewProductWeight(ref_weight, -math.log(ref_system.r1))
    row_sums = {0: 0.5, 1: 0.5}
    for cells in ([(0, 1), (1, 2)], [(1, 0), (0, 0)]):
        hand = -2 * math.log(2)
        for a1, a2 in cells:
            hand += math.log(ref_masses[(a1, a2)]) - math.log(row_sums[a1])
        assert log_weight(skew, cells) == pytest.approx(hand, abs=1e-12)


def test_skew_product_single_row_support():
    sys_ = CellSystem(2, 4, ((0, 0), (0, 1)))  # only row letter 0 occupied
    rho = make_constant_cell(sys_, 1, np.array([math.log(0.4), math.log(0.6)]))
    skew = SkewProductWeight(rho, np.array([math.log(0.7), math.log(0.3)]))
    for cells in ([(0, 0)], [(0, 1), (0, 0)]):
        n = len(cells)
        expected = (
            n * math.log(0.7)
            + sum(math.log((0.4, 0.6)[a2]) for _, a2 in cells)
            - row_sum(rho, [0] * n, 1.0)
        )
        assert log_weight(skew, cells) == pytest.approx(expected, abs=1e-12)


# -- normalization -------------------------------------------------------------


def test_normalize_probability_cells_noop(ref_weight, ref_system):
    estimate = finite_pressure(ref_weight, 4)
    assert estimate == pytest.approx(0.0, abs=1e-12)
    norm = normalize_to_gibbs(ref_weight, estimate)
    a1s, a2s = all_admissible_arrays(ref_system, 3)
    np.testing.assert_allclose(
        norm.log_weight_arrays(a1s, a2s),
        ref_weight.log_weight_arrays(a1s, a2s),
        rtol=0,
        atol=1e-12,
    )


def test_normalize_counting_weight(ref_system):
    psi = make_constant_cell(ref_system, 1, np.zeros(5))
    p = finite_pressure(psi, 3)
    assert p == pytest.approx(math.log(5), abs=1e-12)
    norm = normalize_to_gibbs(psi, p)
    assert log_weight(norm, [(1, 2)]) == pytest.approx(math.log(1 / 5), abs=1e-12)


def test_normalize_shift_round_trip(depth2_weight, ref_system):
    shifted = normalize_to_gibbs(normalize_to_gibbs(depth2_weight, 0.37), -0.37)
    a1s, a2s = all_admissible_arrays(ref_system, 4)
    np.testing.assert_allclose(
        shifted.log_weight_arrays(a1s, a2s),
        depth2_weight.log_weight_arrays(a1s, a2s),
        rtol=0,
        atol=1e-12,
    )


def test_normalization_shifts_pressures_affinely(depth2_weight, ref_system):
    # psi' = psi * e^{-n Phat} scales I_q by e^{-n q Phat}; following that
    # through the two outer sums shifts T by q*Phat/log r2 and beta by
    # q*Phat/log r1 -- exactly, at every finite depth.
    phat = 0.8125
    norm = normalize_to_gibbs(depth2_weight, phat)
    lr1 = math.log(ref_system.r1)
    lr2 = math.log(ref_system.r2)
    for q in (-2.0, -0.5, 0.0, 1.0, 3.0):
        for n in (2, 4, 5):
            t_raw = finite_T(depth2_weight, q, n)
            t_norm = finite_T(norm, q, n)
            assert t_norm - t_raw == pytest.approx(q * phat / lr2, abs=1e-11)
            b_raw = finite_beta(depth2_weight, q, n)
            b_norm = finite_beta(norm, q, n)
            assert b_norm - b_raw == pytest.approx(q * phat / lr1, abs=1e-11)


# -- almost-multiplicativity estimates ----------------------------------------


def test_am_constant_depth1_exact(ref_weight):
    # depth-1 weights are exactly multiplicative; the scan sees only
    # floating-point cancellation noise
    est = estimate_am_constant(ref_weight, 5)
    assert 0.0 <= est.log_c <= 1e-12


def test_am_constant_depth2_bounded_by_oscillation(ref_system):
    rng = np.random.default_rng(8)
    window = rng.uniform(-0.6, 0.6, (5, 5))
    psi = make_constant_cell(ref_system, 2, window)
    est = estimate_am_constant(psi, 6)
    assert 0.0 < est.log_c <= window.max() - window.min()
    assert est.max_depth == 6
    assert sum(est.split) <= 6


def test_am_constant_rank_one_cocycles(ref_system):
    # d = 1 cocycles are exactly multiplicative.
    mono = make_matrix_cocycle(ref_system, 1, np.full((5, 1, 1), 0.37))
    assert estimate_am_constant(mono, 5).log_c <= 1e-12
    # A constant rank-one cocycle M = a b^T concatenates with the fixed
    # defect log((1^T a)(b^T 1) / (b^T a)); for the all-ones J this is log 2.
    J = np.ones((5, 2, 2))
    est = estimate_am_constant(make_matrix_cocycle(ref_system, 2, J), 5)
    assert est.log_c == pytest.approx(math.log(2), abs=1e-12)


def test_am_constant_matches_independent_scan(ref_system, depth2_weight):
    est = estimate_am_constant(depth2_weight, 4)
    words = {
        n: list(enumerate_admissible(ref_system, n)) for n in (1, 2, 3)
    }
    worst = 0.0
    for nu in (1, 2, 3):
        for nv in range(1, 4 - nu + 1):
            for u in words[nu]:
                for v in words[nv]:
                    d = abs(
                        log_weight(depth2_weight, concat(u, v).cells())
                        - log_weight(depth2_weight, u.cells())
                        - log_weight(depth2_weight, v.cells())
                    )
                    worst = max(worst, d)
    assert est.log_c == pytest.approx(worst, abs=1e-12)


def test_am_self_consistency(ref_system, depth2_weight):
    # every scanned pair obeys the two-sided bound with the scanned constant
    skew = SkewProductWeight(depth2_weight, -math.log(2))
    rng = np.random.default_rng(21)
    mats = np.exp(rng.uniform(-0.5, 0.5, (5, 2, 2)))
    for psi in (depth2_weight, make_matrix_cocycle(ref_system, 2, mats), skew):
        log_c = estimate_am_constant(psi, 4).log_c
        words = list(enumerate_admissible(ref_system, 2))
        for u, v in itertools.product(words, words):
            d = (
                log_weight(psi, concat(u, v).cells())
                - log_weight(psi, u.cells())
                - log_weight(psi, v.cells())
            )
            assert abs(d) <= log_c + 1e-12
