"""Cell systems, words, the anisotropic depth map, and enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetmf import CapExceededError, CellSystem, depth_map
from carpetmf.carpet import p3_scan, render_measure
from carpetmf.gibbs import sample_paths
from carpetmf.pressure import finite_pressure, log_total_mass, pressure_curves
from carpetmf.reference import reference_system, reference_weight
from carpetmf.symbolic import (
    admissible_word_count,
    admissible_words_range,
    digits_of_indices,
    pack_digits,
    row_word_count,
    row_words_range,
)
from carpetmf.weights import make_matrix_cocycle, row_sum_log_any

from oracles import (
    ProductWord,
    concat,
    enumerate_admissible,
    enumerate_row_words,
    estimate_am_constant,
    is_admissible,
)

DIAGONAL = CellSystem(2, 2, ((0, 0), (1, 1)))


def smallest_depth(r1: int, r2: int, n: int) -> int:
    """Independent oracle: the least m with r1^m >= r2^n, by exact integers."""
    target = r2**n
    m, power = 0, 1
    while power < target:
        power *= r1
        m += 1
    return m


# -- depth map ---------------------------------------------------------------


def test_depth_map_examples():
    assert depth_map(CellSystem(2, 4, ((0, 0), (1, 1))), 3) == 6
    assert depth_map(CellSystem(2, 3, ((0, 0), (1, 1))), 1) == 2
    assert depth_map(CellSystem(2, 3, ((0, 0), (1, 1))), 2) == 4
    assert depth_map(DIAGONAL, 0) == 0


@settings(max_examples=300, deadline=None)
@given(r1=st.integers(2, 7), r2_extra=st.integers(0, 9), n=st.integers(0, 64))
def test_depth_map_matches_integer_oracle(r1, r2_extra, n):
    r2 = r1 + r2_extra
    sys_ = CellSystem(r1, r2, ((0, 0), (1, 1)))
    assert depth_map(sys_, n) == smallest_depth(r1, r2, n)


@settings(max_examples=200, deadline=None)
@given(r1=st.integers(2, 7), r2_extra=st.integers(0, 9), n=st.integers(1, 64))
def test_depth_map_growth(r1, r2_extra, n):
    r2 = r1 + r2_extra
    sys_ = CellSystem(r1, r2, ((0, 0), (1, 1)))
    g_n, g_next = depth_map(sys_, n), depth_map(sys_, n + 1)
    assert g_n >= n
    assert g_next >= g_n
    ratio = math.log(r2) / math.log(r1)
    assert g_next - g_n in (math.floor(ratio), math.ceil(ratio))


def test_depth_map_tie_resolves_to_equality():
    # r1^m == r2^n exactly: the smallest m *admitting equality* is chosen.
    assert depth_map(CellSystem(2, 8, ((0, 0), (1, 1))), 5) == 15
    assert depth_map(CellSystem(3, 9, ((0, 0), (1, 1))), 7) == 14


def test_depth_ratio_envelope():
    # |n/g(n) - s| <= c/n with a c measurable once and valid for all n:
    # n(s - n/g) = ns(g - n/s)/g <= s * n/g <= s <= 1 since g >= n/s - 1.
    for r1, r2 in ((2, 3), (2, 4), (3, 5), (4, 11)):
        sys_ = CellSystem(r1, r2, ((0, 0), (1, 1)))
        s = sys_.s
        for n in range(1, 300):
            assert n * abs(n / depth_map(sys_, n) - s) <= 1.0


# -- CellSystem --------------------------------------------------------------


def test_cell_system_fields(ref_system):
    assert ref_system.r1 == 2 and ref_system.r2 == 4
    assert ref_system.s == pytest.approx(0.5, abs=0)
    assert ref_system.row_alphabet == (0, 1)
    assert ref_system.row_fiber(0) == (0, 1)
    assert ref_system.row_fiber(1) == (0, 1, 2)
    assert ref_system.n_cells == 5


def test_cell_system_fiber_empty_iff_unoccupied():
    sys_ = CellSystem(3, 3, ((0, 0), (2, 1)))
    assert sys_.row_alphabet == (0, 2)
    assert sys_.row_fiber(1) == ()
    assert sys_.row_fiber(0) == (0,)


def test_cell_system_s_range():
    for r1, r2 in ((2, 2), (2, 64), (5, 7)):
        sys_ = CellSystem(r1, r2, ((0, 0), (1, 1)))
        assert 0 < sys_.s <= 1


def test_cell_system_rejections():
    with pytest.raises(ValueError):
        CellSystem(1, 4, ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        CellSystem(4, 2, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        CellSystem(2, 4, ((0, 0),))  # at least two allowed cells
    with pytest.raises(ValueError):
        CellSystem(2, 4, ((0, 0), (2, 1)))  # digit out of range
    with pytest.raises(ValueError):
        CellSystem(2, 4, ((0, 0), (0, 4)))


# -- ProductWord -------------------------------------------------------------


def test_product_word_contracts(ref_system):
    w = ProductWord((0, 1), (1, 2))
    assert len(w) == 2
    assert w.cells() == ((0, 1), (1, 2))
    assert is_admissible(w, ref_system)
    assert not is_admissible(ProductWord((0,), (2,)), ref_system)
    assert concat(w, w).w1 == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        ProductWord((0, 1), (1,))


# -- enumeration -------------------------------------------------------------


def test_enumerate_admissible_counts(ref_system):
    assert sum(1 for _ in enumerate_admissible(DIAGONAL, 2)) == 4
    assert sum(1 for _ in enumerate_admissible(ref_system, 3)) == 125
    # nearest valid stand-in for a one-cell alphabet: the two-cell diagonal
    # shift, whose words are exactly the 2^5 letter choices.
    words = list(enumerate_admissible(DIAGONAL, 5))
    assert len(words) == 32
    assert all(w.w1 == w.w2 for w in words)


def test_enumerate_admissible_order_and_uniqueness(ref_system):
    words = list(enumerate_admissible(ref_system, 2))
    keys = [tuple(zip(w.w1, w.w2)) for w in words]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(is_admissible(w, ref_system) for w in words)


def test_enumerate_row_words(ref_system):
    assert [w for w in enumerate_row_words(ref_system, 2)] == [
        (0, 0), (0, 1), (1, 0), (1, 1)
    ]
    sys3 = CellSystem(3, 3, ((0, 0), (1, 1)))
    assert list(enumerate_row_words(sys3, 1)) == [(0,), (1,), (2,)]
    assert sum(1 for _ in enumerate_row_words(ref_system, 10)) == 1024


def test_enumeration_cap(ref_system, monkeypatch):
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 2**20)
    with pytest.raises(CapExceededError):
        list(enumerate_row_words(ref_system, 30))
    with pytest.raises(CapExceededError):
        list(enumerate_admissible(ref_system, 12))


def _cocycle():
    """Dim-2 cocycle: no transfer route at q = 0.5, no sampler table."""
    system = reference_system()
    matrices = np.random.default_rng(3).uniform(0.05, 1.0, (system.n_cells, 2, 2))
    return make_matrix_cocycle(system, 2, matrices)


# (site, call, volume it would build) on the 2 x 4 reference system with
# its five cells, under a budget of 1000 items.
BUDGET_SITES = [
    (
        "row sums",
        lambda: row_sum_log_any(reference_weight(), np.zeros((1, 5)), 1.0, method="enumerate"),
        4**5 * 5,
    ),
    ("total mass", lambda: log_total_mass(reference_weight(), 5, method="enumerate"), 5**5),
    (
        "pressure preflight",
        lambda: pressure_curves(_cocycle(), [0.5], (2, 5)),
        2**5 * 4**5 * 5,
    ),
    ("pressure depth filter", lambda: pressure_curves(reference_weight(), [1.0], (2, 10)), 2**10),
    ("sampler", lambda: sample_paths(_cocycle(), 5, 0, 0, 1), 5**5),
    ("render grid", lambda: render_measure(reference_weight(), 3), 2**6 * 4**3),
    ("am constant", lambda: estimate_am_constant(reference_weight(), 5), 5**5),
    ("column words", lambda: list(enumerate_row_words(reference_system(), 10)), 2**10),
    ("product words", lambda: list(enumerate_admissible(reference_system(), 5)), 5**5),
    ("p3 probe", lambda: p3_scan(_cocycle(), (0.5,), (5, 6)), 4**5 * 5),
]


@pytest.mark.parametrize(
    "call, volume", [row[1:] for row in BUDGET_SITES], ids=[row[0] for row in BUDGET_SITES]
)
def test_one_budget_names_volume_and_cap(monkeypatch, call, volume):
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 1000)
    with pytest.raises(CapExceededError, match=rf"\b{volume} .*, over the enumeration cap 1000$"):
        call()


def test_range_partitions_cover_enumeration(ref_system):
    n = 3
    total = row_word_count(ref_system, n)
    chunks = [row_words_range(ref_system, n, a, min(a + 3, total)) for a in range(0, total, 3)]
    stacked = np.concatenate(chunks)
    full = np.array(list(enumerate_row_words(ref_system, n)))
    assert np.array_equal(stacked, full)

    total = admissible_word_count(ref_system, n)
    a1_parts, a2_parts = [], []
    for a in range(0, total, 7):
        a1s, a2s = admissible_words_range(ref_system, n, a, min(a + 7, total))
        a1_parts.append(a1s)
        a2_parts.append(a2s)
    a1s = np.concatenate(a1_parts)
    a2s = np.concatenate(a2_parts)
    full = list(enumerate_admissible(ref_system, n))
    assert np.array_equal(a1s, np.array([w.w1 for w in full]))
    assert np.array_equal(a2s, np.array([w.w2 for w in full]))


def test_digit_packing_round_trip():
    indices = np.arange(5**4)
    digits = digits_of_indices(indices, 5, 4)
    assert digits.shape == (625, 4)
    assert np.array_equal(pack_digits(digits, 5), indices)
    # lexicographic digit rows correspond to increasing packed indices
    assert np.array_equal(digits[0], [0, 0, 0, 0])
    assert np.array_equal(digits[-1], [4, 4, 4, 4])


def test_admissible_count_matches_transfer_count(ref_system):
    # The (1,..,1)-weighted transfer sum at q=0 / phi==0 counts words, so
    # exp(n * P_n) of the raw counting weight must equal the enumerated count.
    import carpetmf.weights as weights

    counting = weights.make_constant_cell(
        ref_system, 1, np.zeros(ref_system.n_cells)
    )
    for sys_, psi in ((ref_system, counting), (DIAGONAL, weights.make_constant_cell(DIAGONAL, 1, np.zeros(2)))):
        for n in (1, 2, 4, 6):
            by_transfer = math.exp(n * finite_pressure(psi, n))
            assert round(by_transfer) == admissible_word_count(sys_, n)
            assert abs(by_transfer - round(by_transfer)) < 1e-6
