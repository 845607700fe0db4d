"""Auxiliary tilts, ball masses, path sampling, and Monte Carlo estimates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from carpetmf import (
    VARIANT_PSI_Q,
    VARIANT_PSI_TILDE_Q,
    ball_mass,
    closed_form_T,
    closed_form_beta,
    depth_map,
    finite_pressure,
    local_dimension_mc,
    log_total_mass,
    make_auxiliary,
    sample_path,
    sample_paths,
    sampled_log_masses,
)
from carpetmf.numerics import central_derivative
from carpetmf.reference import zero_potential_weight

from oracles import log_weight, row_sum

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
ROW_SIZES = {0: 2, 1: 3}


@pytest.fixture(scope="module")
def ref_path_batch(ref_weight):
    """2000 independent paths of depth 100 from the reference measure."""
    return sample_paths(ref_weight, 100, 5, 0, 2000)  # (2000, 100, 2)


# -- auxiliary weights --------------------------------------------------------


def test_tilt_at_q1_level0_is_identity(ref_weight, ref_system):
    aux = make_auxiliary(ref_weight, 1.0, 0.0, VARIANT_PSI_Q)
    for cell in ref_system.allowed:
        assert log_weight(aux, [cell]) == pytest.approx(
            log_weight(ref_weight, [cell]), abs=1e-12
        )
    words = [[(0, 1), (1, 2), (1, 0)], [(1, 1), (0, 0)]]
    for w in words:
        assert log_weight(aux, w) == pytest.approx(log_weight(ref_weight, w), abs=1e-12)


def test_tilt_q0_multinomial():
    # At q = 0 both tilts collapse to the same row-counting multinomial:
    # each cell in row a1 gets sqrt(N_a1) / ((sqrt2 + sqrt3) N_a1).
    zero = zero_potential_weight()
    level = closed_form_T(zero, 0.0)
    for variant in (VARIANT_PSI_Q, VARIANT_PSI_TILDE_Q):
        aux = make_auxiliary(zero, 0.0, level, variant)
        for a1, n_row in ROW_SIZES.items():
            want = math.log(math.sqrt(n_row) / (SQRT2 + SQRT3) / n_row)
            for a2 in range(n_row):
                assert log_weight(aux, [(a1, a2)]) == pytest.approx(want, abs=1e-13)
    # the two variants agree exactly at q = 0
    a = make_auxiliary(zero, 0.0, level, VARIANT_PSI_Q)
    b = make_auxiliary(zero, 0.0, level, VARIANT_PSI_TILDE_Q)
    for a1, n_row in ROW_SIZES.items():
        for a2 in range(n_row):
            assert log_weight(a, [(a1, a2)]) == log_weight(b, [(a1, a2)])


def test_tilde_tilt_q2_table(ref_weight, ref_system, ref_masses):
    # psi-tilde_q(cell) = r1^{T(q)} I_q(a1)^{s-1} psi(cell)^q with q = 2.
    i2 = {0: 0.13, 1: 0.095}
    t2 = closed_form_T(ref_weight, 2.0)
    aux = make_auxiliary(ref_weight, 2.0, t2, VARIANT_PSI_TILDE_Q)
    s = ref_system.s
    for cell in ref_system.allowed:
        want = (
            t2 * math.log(2)
            + (s - 1.0) * math.log(i2[cell[0]])
            + 2.0 * math.log(ref_masses[cell])
        )
        assert log_weight(aux, [cell]) == pytest.approx(want, abs=1e-13)


def test_tilt_pressure_vanishes_at_its_level(ref_weight):
    # With the exact level plugged in, the tilt is a probability weight and
    # its finite pressure is zero at every depth.
    for q in (-1.0, 0.7, 2.0):
        psi_q = make_auxiliary(ref_weight, q, closed_form_beta(ref_weight, q), VARIANT_PSI_Q)
        tilde = make_auxiliary(ref_weight, q, closed_form_T(ref_weight, q), VARIANT_PSI_TILDE_Q)
        for n in (4, 6, 8):
            assert finite_pressure(psi_q, n) == pytest.approx(0.0, abs=1e-10)
            assert finite_pressure(tilde, n) == pytest.approx(0.0, abs=1e-10)


def test_tilt_level_shift_is_affine(ref_weight):
    base = make_auxiliary(ref_weight, 1.5, 0.0, VARIANT_PSI_Q)
    shifted = make_auxiliary(ref_weight, 1.5, 0.25, VARIANT_PSI_Q)
    w = [(0, 1), (1, 0), (1, 2)]
    assert log_weight(shifted, w) == pytest.approx(
        log_weight(base, w) + 3 * 0.25 * math.log(2), abs=1e-12
    )


def test_tilt_rejects_unknown_variant(ref_weight):
    with pytest.raises(ValueError):
        make_auxiliary(ref_weight, 1.0, 0.0, "psi")


# -- ball masses ----------------------------------------------------------------


def test_ball_mass_depth1_reference(ref_weight, ref_system, ref_masses):
    # g(1) = 2 and every column letter carries marginal 1/2, so the depth-1
    # ball mass is just cell probability times one half.
    assert depth_map(ref_system, 1) == 2
    for (a1, a2), mass in ref_masses.items():
        for extra in (0, 1):
            got = ball_mass(ref_weight, [a1, extra], [a2])
            assert got == pytest.approx(math.log(mass * 0.5), abs=1e-12)


def test_ball_mass_depth1_zero_weight(zero_weight):
    # uniform cell measure: cell mass 1/5, column-extension fraction N_u/5
    for a1, n_row in ROW_SIZES.items():
        for a2 in range(n_row):
            for extra, n_extra in ROW_SIZES.items():
                got = ball_mass(zero_weight, [a1, extra], [a2])
                assert got == pytest.approx(math.log(0.2 * n_extra / 5), abs=1e-12)


def test_ball_mass_forbidden_prefix(ref_weight):
    assert ball_mass(ref_weight, [0, 0], [2]) == float("-inf")


def test_ball_mass_column_length_checked(ref_weight):
    with pytest.raises(ValueError):
        ball_mass(ref_weight, [0], [0])
    with pytest.raises(ValueError):
        ball_mass(ref_weight, [0, 1, 0], [0])


def test_ball_mass_empty_word(ref_weight):
    assert ball_mass(ref_weight, [], []) == 0.0


def test_log_total_mass_probability(ref_weight):
    for m in (1, 2, 5):
        assert log_total_mass(ref_weight, m) == pytest.approx(0.0, abs=1e-12)


def test_ball_masses_sum_to_one(ref_weight, ref_system):
    # all depth-2 balls partition the mass: sum over admissible squares and
    # column extensions is exactly one
    n = 2
    g = depth_map(ref_system, n)
    total = 0.0
    for c1 in range(2):
        for c2 in range(2):
            for c3 in range(2):
                for c4 in range(2):
                    col = [c1, c2, c3, c4]
                    for r1_ in range(4):
                        for r2_ in range(4):
                            lm = ball_mass(ref_weight, col, [r1_, r2_])
                            if lm > float("-inf"):
                                total += math.exp(lm)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert g == 4


# -- sampled paths -----------------------------------------------------------------


def test_sample_path_shapes_and_validation(ref_weight):
    cells = sample_path(ref_weight, 9, master_seed=1, sample_index=0)
    assert cells.shape == (9, 2)
    for j in range(1, 7):
        cylinder, ball = sampled_log_masses(ref_weight, ref_weight, j, 9, 3, master_seed=1)
        assert cylinder.shape == ball.shape == (3,)
        assert np.all(np.isfinite(cylinder))
        # ball masses exist exactly where the horizon covers g(j)
        assert np.isfinite(ball).all() == (depth_map(ref_weight.system, j) <= 9)
        assert np.isnan(ball).all() == (depth_map(ref_weight.system, j) > 9)
    with pytest.raises(ValueError):
        sampled_log_masses(ref_weight, ref_weight, 5, 4, 3)
    with pytest.raises(ValueError):
        sampled_log_masses(ref_weight, ref_weight, 0, 4, 3)
    with pytest.raises(ValueError):
        sample_path(ref_weight, 0)


def test_sample_path_deterministic(ref_weight):
    a = sample_path(ref_weight, 20, master_seed=3, sample_index=7)
    b = sample_path(ref_weight, 20, master_seed=3, sample_index=7)
    assert np.array_equal(a, b)
    c = sample_path(ref_weight, 20, master_seed=3, sample_index=8)
    d = sample_path(ref_weight, 20, master_seed=4, sample_index=7)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # path i of a batch is stream i, whatever the chunking and worker count
    cylinder, ball = sampled_log_masses(ref_weight, ref_weight, 4, 8, 1100, 3, workers=3)
    single, _ = sampled_log_masses(ref_weight, ref_weight, 4, 8, 8, 3)
    assert np.array_equal(cylinder[:8], single)
    again = sampled_log_masses(ref_weight, ref_weight, 4, 8, 1100, 3, workers=1)
    assert np.array_equal(cylinder, again[0]) and np.array_equal(ball, again[1])


def test_sample_path_birkhoff_matches_prefix_weights(ref_weight, ref_masses):
    cells = sample_path(ref_weight, 12, master_seed=2, sample_index=1)
    running = 0.0
    for j in range(1, 13):
        running += math.log(ref_masses[tuple(int(x) for x in cells[j - 1])])
        cylinder, _ = sampled_log_masses(ref_weight, ref_weight, j, 12, 2, master_seed=2)
        assert cylinder[1] == pytest.approx(running, abs=1e-12)


def test_sample_path_masses_match_direct_ball(ref_weight, ref_system):
    paths = [sample_path(ref_weight, 8, master_seed=9, sample_index=i) for i in range(3)]
    for j in range(1, 5):
        g = depth_map(ref_system, j)
        _, ball = sampled_log_masses(ref_weight, ref_weight, j, 8, 3, master_seed=9)
        for cells, got in zip(paths, ball):
            want = ball_mass(ref_weight, cells[:g, 0], cells[:j, 1])
            assert got == pytest.approx(want, abs=1e-12)


def test_sampled_ball_masses_match_oracle_depth2(depth2_weight, ref_system):
    # window route: batched suffix marginals and one log Z against ball_mass
    for j in (1, 2, 3):
        g = depth_map(ref_system, j)
        cylinder, ball = sampled_log_masses(depth2_weight, depth2_weight, j, g, 5, 21)
        for i in range(5):
            cells = sample_path(depth2_weight, g, master_seed=21, sample_index=i)
            want = ball_mass(depth2_weight, cells[:g, 0], cells[:j, 1])
            assert ball[i] == pytest.approx(want, abs=1e-12)
            assert cylinder[i] == depth2_weight.log_weight_arrays(
                cells[None, :j, 0], cells[None, :j, 1]
            )[0]


def test_sampled_cell_frequencies(ref_path_batch, ref_masses):
    # 200k iid cells; every empirical frequency within four standard errors
    cells = ref_path_batch.reshape(-1, 2)
    n = len(cells)
    for (a1, a2), prob in ref_masses.items():
        freq = float(np.mean((cells[:, 0] == a1) & (cells[:, 1] == a2)))
        z = abs(freq - prob) / math.sqrt(prob * (1 - prob) / n)
        assert z <= 4.0, f"cell {(a1, a2)}: freq {freq}, z {z:.2f}"


def test_sampled_depth2_column_marginal(ref_path_batch):
    # disjoint depth-2 windows are iid; each of the four column pairs has
    # marginal (1/2)^2 = 1/4 under the reference row sums
    pairs = ref_path_batch[:, :, 0].reshape(ref_path_batch.shape[0], 50, 2)
    idx = pairs[..., 0] * 2 + pairs[..., 1]
    counts = np.bincount(idx.ravel(), minlength=4)
    n = counts.sum()
    assert n == 100000
    for ct in counts:
        z = abs(ct / n - 0.25) / math.sqrt(0.25 * 0.75 / n)
        assert z <= 4.0


def test_tilted_row_frequencies_q0():
    # at q = 0 the tilt picks rows with probability sqrt(N_row)/(sqrt2+sqrt3)
    zero = zero_potential_weight()
    aux0 = make_auxiliary(zero, 0.0, closed_form_T(zero, 0.0), VARIANT_PSI_TILDE_Q)
    rows = np.concatenate(
        [
            sample_path(aux0, 100, master_seed=23, sample_index=i)[:, 0]
            for i in range(1000)
        ]
    )
    p0 = SQRT2 / (SQRT2 + SQRT3)
    z = abs(float(np.mean(rows == 0)) - p0) / math.sqrt(p0 * (1 - p0) / rows.size)
    assert z <= 4.0


# -- tilt/ball ratio identity -------------------------------------------------------


def test_tilted_ball_ratio_identity(ref_weight, ref_system):
    # Along any path, log mu_q(B_n) - q log mu(B_n) equals
    # g(n) beta(q) log r1 - (log u_n - s log u_g) with
    # log u_m = log I_q(w1|m) - q log I_1(w1|m); exact for depth-1 weights.
    q = 2.0
    beta_q = closed_form_beta(ref_weight, q)
    aux = make_auxiliary(ref_weight, q, beta_q, VARIANT_PSI_Q)
    cells = sample_path(aux, depth_map(ref_system, 12), master_seed=99, sample_index=0)
    s = ref_system.s
    for n in range(1, 13):
        g = depth_map(ref_system, n)
        col = cells[:g, 0]
        row = cells[:n, 1]
        lmq = ball_mass(aux, col, row)
        lm = ball_mass(ref_weight, col, row)
        u_n = row_sum(ref_weight, col[:n], q) - q * row_sum(ref_weight, col[:n], 1.0)
        u_g = row_sum(ref_weight, col, q) - q * row_sum(ref_weight, col, 1.0)
        defect = lmq - q * lm - g * beta_q * math.log(2) + (u_n - s * u_g)
        assert abs(defect) <= 1e-10, f"n={n}: defect {defect:.3e}"


def test_row_ratio_decay_along_typical_paths(ref_weight, ref_system):
    # (1/n)|log u_n - s log u_g| is the subadditive correction in the ratio
    # identity; its path average shrinks like a CLT rate.  Forty paths keep
    # the means monotone at these depths.
    q = 2.0
    aux = make_auxiliary(ref_weight, q, closed_form_T(ref_weight, q), VARIANT_PSI_TILDE_Q)
    depths = (4, 8, 16, 32)
    sums = dict.fromkeys(depths, 0.0)
    for i in range(40):
        full = sample_path(aux, 64, master_seed=11, sample_index=i)[:, 0]
        for n in depths:
            col = full[: 2 * n]
            u_n = row_sum(ref_weight, col[:n], q) - q * row_sum(ref_weight, col[:n], 1.0)
            u_g = row_sum(ref_weight, col, q) - q * row_sum(ref_weight, col, 1.0)
            sums[n] += abs(u_n - ref_system.s * u_g) / n
    means = [sums[n] / 40 for n in depths]
    assert all(means[i + 1] < means[i] for i in range(len(means) - 1)), means
    assert means[-1] <= 0.03


# -- Monte Carlo local dimensions -----------------------------------------------------


def test_local_dimension_mc_validation(ref_weight):
    aux = make_auxiliary(ref_weight, 1.0, 0.0, VARIANT_PSI_Q)
    with pytest.raises(ValueError):
        local_dimension_mc(ref_weight, aux, 1, 8)
    with pytest.raises(ValueError):
        local_dimension_mc(ref_weight, aux, 10, 0)


def test_local_dimension_mc_statistics_consistent(ref_weight):
    aux = make_auxiliary(ref_weight, 2.0, closed_form_T(ref_weight, 2.0), VARIANT_PSI_TILDE_Q)
    est = local_dimension_mc(ref_weight, aux, 400, 16, master_seed=41)
    assert est.n_samples == 400 and est.depth == 16
    assert est.q == 2.0 and est.variant == VARIANT_PSI_TILDE_Q
    assert est.statistics.shape == (400,)
    assert est.mean == float(np.mean(est.statistics))
    assert est.stderr == float(np.std(est.statistics, ddof=1) / math.sqrt(400))
    # the cylinder statistic concentrates on T'(q)
    target = central_derivative(lambda x: closed_form_T(ref_weight, x), 2.0, h=1 / 64)
    assert abs(est.mean - target) <= 3 * est.stderr


def test_local_dimension_mc_deterministic_across_workers(ref_weight):
    aux = make_auxiliary(ref_weight, 0.5, closed_form_beta(ref_weight, 0.5), VARIANT_PSI_Q)
    one = local_dimension_mc(ref_weight, aux, 120, 8, master_seed=13, workers=1)
    four = local_dimension_mc(ref_weight, aux, 120, 8, master_seed=13, workers=4)
    assert np.array_equal(one.statistics, four.statistics)
    assert one.mean == four.mean and one.stderr == four.stderr
