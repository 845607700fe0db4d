"""Carpet projection, measure rendering, box counting, and separation checks."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carpetmf import carpet
from carpetmf import (
    CapExceededError,
    CarpetRender,
    CellSystem,
    ball_mass,
    box_count_tau,
    check_P1,
    check_P2,
    depth_map,
    lq_spectrum_empirical,
    make_constant_cell,
    make_matrix_cocycle,
    normalize_to_gibbs,
    p3_scan,
    render_measure,
    sample_path,
    sample_paths,
    write_grid_csv,
    write_pgm16,
)
from carpetmf.numerics import NEG_INF
from carpetmf.pressure import log_total_mass
from carpetmf.symbolic import admissible_word_count, admissible_words_range, pack_digits
from carpetmf.weights import CylinderWeight, row_sum_log_ranks

from oracles import birkhoff_averages_on_carpet, log_weight, project_point

P3_REFERENCE_DEFECT = 0.31365755885504143  # log(0.13 / 0.095)


# -- projection ------------------------------------------------------------------


def test_project_point_examples(ref_system):
    assert project_point(ref_system, [(0, 0)]) == (0.0, 0.0)
    assert project_point(ref_system, [(1, 3)]) == (0.5, 0.75)
    assert project_point(ref_system, [(1, 3), (1, 3)]) == (0.75, 0.9375)


def test_project_point_truncation_bound(ref_system, ref_weight):
    path = sample_path(ref_weight, 20, master_seed=6, sample_index=0)
    x_full, y_full = project_point(ref_system, path)
    for p in (5, 10, 15):
        x_p, y_p = project_point(ref_system, path, precision=p)
        assert 0.0 <= x_full - x_p < 2.0**-p
        assert 0.0 <= y_full - y_p < 4.0**-p


def test_birkhoff_averages_are_path_log_weights_at_depth45(ref_system, ref_weight):
    # The average of a path is its log weight over its steps, bit for bit,
    # on paths whose points need more than 64 bits of digits (4**45 > 2**63).
    rng = np.random.default_rng(45)
    paths = ref_system.cells_array[rng.integers(0, ref_system.n_cells, (64, 45))]
    paths[0] = ref_system.cells_array[-1]  # the last cell at every digit
    want = ref_weight.log_weight_arrays(paths[:, :, 0], paths[:, :, 1]) / 45
    assert birkhoff_averages_on_carpet(ref_weight, paths).tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [1, 17, 29])
def test_birkhoff_averages_depth2_window_at_depth30(ref_system, depth2_weight, steps):
    rng = np.random.default_rng(30)
    paths = ref_system.cells_array[rng.integers(0, ref_system.n_cells, (64, 30))]
    head = paths[:, : steps + 1]
    want = depth2_weight.log_weight_arrays(head[:, :, 0], head[:, :, 1]) / steps
    got = birkhoff_averages_on_carpet(depth2_weight, paths, steps)
    assert got.tobytes() == want.tobytes()


def test_birkhoff_average_on_carpet(ref_weight, ref_masses):
    path = sample_path(ref_weight, 25, master_seed=12, sample_index=0)
    logs = [math.log(ref_masses[tuple(int(x) for x in cell)]) for cell in path]
    (got,) = birkhoff_averages_on_carpet(ref_weight, path[None])
    assert got == pytest.approx(float(np.mean(logs)), abs=1e-12)
    # truncated-step variant averages the first few digits only
    (first5,) = birkhoff_averages_on_carpet(ref_weight, path[None], steps=5)
    assert first5 == pytest.approx(float(np.mean(logs[:5])), abs=1e-12)


def test_birkhoff_average_depth2_window(depth2_weight, ref_weight):
    # a depth-2 window needs steps + 1 cells; the average is the window
    # log-weight of the recovered digits over the step count
    path = sample_path(ref_weight, 10, master_seed=14, sample_index=1)
    (got,) = birkhoff_averages_on_carpet(depth2_weight, path[None], steps=9)
    want = log_weight(depth2_weight, [tuple(int(x) for x in c) for c in path]) / 9
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        birkhoff_averages_on_carpet(depth2_weight, path[None], steps=10)


@pytest.mark.parametrize("steps", [None, 5])
def test_birkhoff_averages_batch_matches_each_path(ref_weight, depth2_weight, steps):
    # One log_weight_arrays call over a batch gives each path's own bytes.
    paths = sample_paths(ref_weight, 12, 5, 0, 40)
    for psi in (ref_weight, depth2_weight):
        want = np.concatenate([birkhoff_averages_on_carpet(psi, p, steps) for p in paths[:, None]])
        assert birkhoff_averages_on_carpet(psi, paths, steps).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="paths"):
        birkhoff_averages_on_carpet(ref_weight, paths[0])


# -- rendering -----------------------------------------------------------------------


def test_render_matches_ball_masses(ref_weight, ref_system):
    n = 2
    render = render_measure(ref_weight, n)
    g = depth_map(ref_system, n)
    assert render.column_depth == g
    assert render.column_count == 2**g and render.row_count == 4**n
    for col in range(render.column_count):
        w1 = [(col >> k) & 1 for k in range(g - 1, -1, -1)]
        for row in range(render.row_count):
            w2 = [(row >> (2 * k)) & 3 for k in range(n - 1, -1, -1)]
            want = ball_mass(ref_weight, w1, w2)
            got = render.log_masses[col, row]
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)


def test_render_total_mass(ref_weight):
    for n in (1, 2, 3):
        assert render_measure(ref_weight, n).total_log_mass() == pytest.approx(
            0.0, abs=1e-9
        )


def test_render_cap(ref_weight, monkeypatch):
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 2**10)
    with pytest.raises(CapExceededError):
        render_measure(ref_weight, 6)


def test_render_uniform_full_grid(tmp_path):
    # every cell of the full 2 x 4 alphabet charged with equal mass: the
    # graymap saturates all pixels at 65535
    sys_ = CellSystem(2, 4, tuple((a1, a2) for a1 in range(2) for a2 in range(4)))
    psi = normalize_to_gibbs(make_constant_cell(sys_, 1, np.zeros(8)), math.log(8))
    render = render_measure(psi, 1)
    assert np.all(np.isfinite(render.log_masses))
    np.testing.assert_allclose(render.log_masses, render.log_masses[0, 0], atol=1e-12)
    out = write_pgm16(render, tmp_path / "uniform.pgm")
    _, _, _, pixels = parse_pgm(out)
    assert np.all(pixels == 65535)


def test_render_single_column_system():
    sys_ = CellSystem(2, 4, ((0, 0), (0, 1)))
    psi = normalize_to_gibbs(make_constant_cell(sys_, 1, np.zeros(2)), math.log(2))
    render = render_measure(psi, 2)
    charged_cols = np.isfinite(render.log_masses).any(axis=1)
    assert charged_cols[0] and not charged_cols[1:].any()


def test_rendered_histogram_matches_sampler(ref_weight, ref_system):
    # 40000 depth-6 windows cut from 2500 sampled paths, i.i.d. because the
    # reference weight has depth 1.  The empirical depth-3 ball histogram
    # never charges an empty cell, and its Pearson statistic over the 1000
    # charged cells stays below the Wilson-Hilferty 1 - 5e-4 quantile of
    # chi-square with 999 degrees of freedom (1152.7).  Under the exact
    # multinomial law (expected counts 5 to 135) the statistic exceeds it
    # with probability about 6e-4: 116 of 200000 simulated histograms.
    paths = sample_paths(ref_weight, 96, 17, 0, 2500)
    wins = paths.reshape(2500 * 16, 6, 2)
    render = render_measure(ref_weight, 3)
    g3 = depth_map(ref_system, 3)
    col_idx = np.zeros(len(wins), dtype=np.int64)
    for k in range(g3):
        col_idx = col_idx * 2 + wins[:, k, 0]
    row_idx = np.zeros(len(wins), dtype=np.int64)
    for k in range(3):
        row_idx = row_idx * 4 + wins[:, k, 1]
    flat = col_idx * render.row_count + row_idx
    counts = np.bincount(flat, minlength=render.column_count * render.row_count)
    probs = np.exp(render.log_masses).ravel()
    charged = probs > 0
    expected = len(wins) * probs[charged]
    pearson = float(np.sum((counts[charged] - expected) ** 2 / expected))
    dof = int(charged.sum()) - 1
    z = 3.2905267  # the standard normal 1 - 5e-4 quantile
    bound = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
    assert charged.sum() == 5**3 * 2**3
    assert pearson <= bound
    assert counts[~charged].sum() == 0


# -- file formats ---------------------------------------------------------------------


def parse_pgm(path):
    data = path.read_bytes()
    assert data.startswith(b"P5\n")
    pos = 3
    comments = []
    while data[pos : pos + 1] == b"#":
        end = data.index(b"\n", pos)
        comments.append(data[pos:end].decode())
        pos = end + 1
    end = data.index(b"\n", pos)
    width, height = map(int, data[pos:end].split())
    pos = end + 1
    end = data.index(b"\n", pos)
    maxval = int(data[pos:end])
    raw = data[end + 1 :]
    assert len(raw) == width * height * 2
    pixels = np.frombuffer(raw, dtype=">u2").reshape(height, width)
    return comments, width, height, pixels


def test_pgm_format_round_trip(ref_weight, ref_system, tmp_path):
    n = 2
    render = render_measure(ref_weight, n)
    out = write_pgm16(render, tmp_path / "render_n2.pgm", comments=["demo"])
    comments, width, height, pixels = parse_pgm(out)
    assert width == 2 ** depth_map(ref_system, n)
    assert height == 4**n
    assert any("origin: bottom-left" in c for c in comments)
    assert any("demo" in c for c in comments)
    grid = render.log_masses
    finite = np.isfinite(grid)
    # bottom-left origin: image row 0 is the top, grid row index increases up
    image_view = pixels[::-1, :].T
    assert np.array_equal(image_view == 0, ~finite)
    lo, hi = grid[finite].min(), grid[finite].max()
    assert image_view[grid == lo].min() == 1
    assert image_view[grid == hi].max() == 65535
    # affine map: gray = 1 + (mass - lo) * 65534 / (hi - lo), rounded
    want = np.round(1.0 + (grid[finite] - lo) * (65534.0 / (hi - lo)))
    assert np.array_equal(image_view[finite].astype(float), want)


def test_grid_csv_round_trip(ref_weight, tmp_path):
    render = render_measure(ref_weight, 2)
    out = write_grid_csv(render, tmp_path / "render_n2.csv", comments=["demo"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# demo"
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "columnIndex,rowIndex,logMass"
    finite = np.isfinite(render.log_masses)
    assert len(body) - 1 == int(finite.sum())
    for ln in body[1:]:
        c, r, lm = ln.split(",")
        assert float(lm) == render.log_masses[int(c), int(r)]


# -- the sparse render against a dense fill ------------------------------------------


def dense_fill(psi, n):
    """The whole ``(r1**g, r2**n)`` grid of log masses, -inf on empty cells,
    filled in one block: the dense oracle of ``render_measure``."""
    system = psi.system
    g = depth_map(system, n)
    m = g - n
    if m == 0:
        suffix = np.zeros(1)
    else:
        suffix = row_sum_log_ranks(psi, m, 0, system.r1**m, 1.0) - log_total_mass(psi, m)
    a1s, a2s = admissible_words_range(system, n, 0, admissible_word_count(system, n))
    grid = np.full((system.r1**g, system.r2**n), NEG_INF)
    cols = pack_digits(a1s, system.r1)[:, None] * suffix.size + np.arange(suffix.size)
    rows = pack_digits(a2s, system.r2)[:, None]
    grid[cols, rows] = psi.log_weight_arrays(a1s, a2s)[:, None] + suffix[None, :]
    return grid


def dense_pgm(grid, comments):
    """Graymap bytes of a dense grid: the oracle of ``write_pgm16``."""
    finite = np.isfinite(grid)
    gray = np.zeros(grid.shape, dtype=np.uint16)
    if finite.any():
        lo, hi = float(grid[finite].min()), float(grid[finite].max())
        if hi > lo:
            scaled = 1.0 + (grid[finite] - lo) * (65534.0 / (hi - lo))
        else:
            scaled = np.full(int(finite.sum()), 65535.0)
        gray[finite] = np.round(scaled).astype(np.uint16)
    image = gray.T[::-1, :]
    head = "P5\n" + "".join(f"# {line}\n" for line in comments)
    head += "# origin: bottom-left; gray 0 = empty cell\n"
    head += f"{image.shape[1]} {image.shape[0]}\n65535\n"
    return head.encode() + image.astype(">u2").tobytes()


def dense_csv(grid, depth, comments):
    """Grid CSV bytes of a dense grid, one cell formatted at a time: the
    oracle of ``write_grid_csv``."""
    lines = [f"# {line}\n" for line in comments]
    lines.append(f"# grid {grid.shape[0]} x {grid.shape[1]}, depth {depth}\n")
    lines.append("columnIndex,rowIndex,logMass\n")
    for c, r in zip(*np.nonzero(np.isfinite(grid))):
        lines.append(f"{c},{r},{float(grid[c, r])!r}\n")
    return "".join(lines).encode()


class ZeroedCells(CylinderWeight):
    """A depth-1 weight from an ``(r1, r2)`` log table that may hold -inf on
    allowed cells.  No weight the package builds gives an admissible word
    zero mass, so this one's renders are the ones with uncharged cells."""

    dependence_depth = 1

    def __init__(self, system, table):
        self.system = system
        self.table = table

    def log_weight_arrays(self, a1s, a2s):
        return self.table[a1s, a2s].sum(axis=1)


@st.composite
def render_weights(draw):
    """Depth-1 windows with few distinct values (so masses repeat), depth-1
    tables with zero-mass cells, depth-2 windows and dim-2 cocycles on random
    systems with some empty cells."""
    r1 = draw(st.integers(2, 3))
    r2 = draw(st.integers(r1, 4))
    cells = [(a1, a2) for a1 in range(r1) for a2 in range(r2)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    allowed = tuple(cell for cell, k in zip(cells, keep) if k)
    assume(len(allowed) >= 2)
    system = CellSystem(r1, r2, allowed)
    nc = system.n_cells
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("depth1", "zeroed", "depth2", "cocycle")))
    if kind == "depth1":
        return make_constant_cell(system, 1, rng.choice([-1.0, -0.5, 0.0], nc))
    if kind == "zeroed":
        table = np.full((r1, r2), NEG_INF)
        table[system.cells_array[:, 0], system.cells_array[:, 1]] = rng.choice(
            [-1.0, 0.0, NEG_INF], nc
        )
        assume(np.isfinite(table).any())  # a measure of total mass 0 has no masses
        return ZeroedCells(system, table)
    if kind == "depth2":
        return make_constant_cell(system, 2, rng.uniform(-1.0, 1.0, (nc, nc)))
    return make_matrix_cocycle(system, 2, rng.uniform(0.05, 1.0, (nc, 2, 2)))


@settings(max_examples=60, deadline=None)
@given(psi=render_weights(), n=st.integers(1, 3))
def test_sparse_render_matches_the_dense_fill(psi, n, tmp_path_factory):
    # Small chunks, so that several chunks fill the grid-order arrays.
    with mock.patch.object(carpet, "RENDER_BLOCK", 4):
        render = render_measure(psi, n)
    grid = dense_fill(psi, n)
    assert render.log_masses.tobytes() == grid.tobytes()
    assert np.all(np.diff(render.cells) > 0)
    out = tmp_path_factory.mktemp("render")
    comments = ["config sha256 x"]
    pgm = write_pgm16(render, out / "render.pgm", comments)
    assert pgm.read_bytes() == dense_pgm(grid, comments)
    csv = write_grid_csv(render, out / "render.csv", comments)
    assert csv.read_bytes() == dense_csv(grid, n, comments)


def test_grid_csv_tells_signed_zeros_apart(ref_system, tmp_path):
    # Formatting each distinct value once must not merge 0.0 and -0.0.
    render = CarpetRender(ref_system, 1, np.array([0, 1, 5]), np.array([0.0, -0.0, 0.0]))
    out = write_grid_csv(render, tmp_path / "zeros.csv")
    body = out.read_text().splitlines()[-3:]
    assert body == ["0,0,0.0", "0,1,-0.0", "1,1,0.0"]


def test_render_memory_scales_with_the_charged_cells(ref_weight, tmp_path):
    # The reference at depth 5 charges 100,000 of the 2**10 x 4**5 cells: the
    # render holds 1.6 MB of cell indices and log masses.  Filling it in grid
    # order, the graymap in bands and the CSV in blocks, and the total, peak
    # at about 2.55 MB; whole-size fill and image temporaries peaked at 6.9 MB.
    tracemalloc.start()
    try:
        render = render_measure(ref_weight, 5)
        write_pgm16(render, tmp_path / "render_n5.pgm")
        write_grid_csv(render, tmp_path / "render_n5.csv")
        total = render.total_log_mass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = render.cells.nbytes + render.cell_log_masses.nbytes
    assert render.cells.size == 5**5 * 2**5 and held == 1_600_000
    assert total == pytest.approx(0.0, abs=1e-9)
    assert peak < 2 * held


# -- box counting ---------------------------------------------------------------------


def test_box_count_normalized_q1(ref_weight):
    for n in (1, 2, 3):
        render = render_measure(ref_weight, n)
        assert box_count_tau(render, [1.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_box_count_q0_counts_charged_cells(ref_weight):
    for n in (1, 2):
        render = render_measure(ref_weight, n)
        want = -math.log(5**n * 2**n) / (n * math.log(4))
        assert box_count_tau(render, [0.0])[0] == pytest.approx(want, abs=1e-12)


def test_box_count_matches_moment_spectrum(ref_weight, depth2_weight, ref_system):
    # Box counting the rendered grid is the oracle of the factorized sum.
    mats = np.random.default_rng(11).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    cocycle = make_matrix_cocycle(ref_system, 2, mats)
    cases = [(ref_weight, (0.5, 1.0, 2.0, 3.0))]
    cases += [(psi, (-1.0, 0.0, 0.5, 2.0)) for psi in (depth2_weight, cocycle)]
    for psi, qs in cases:
        want = box_count_tau(render_measure(psi, 3), qs)
        got = lq_spectrum_empirical(psi, np.array(qs), 3)
        for q, value, oracle in zip(qs, got, want):
            assert value == pytest.approx(oracle, rel=1e-12)
            # The vector call gives every q the bits of its scalar call.
            assert value == lq_spectrum_empirical(psi, q, 3)


def test_box_count_depth_stability(ref_weight):
    # depth-1 weights scale exactly, so two depths agree far inside the
    # coarse 0.05 stability band
    t3 = lq_spectrum_empirical(ref_weight, 2.0, 3)
    t5 = lq_spectrum_empirical(ref_weight, 2.0, 5)
    assert abs(t3 - t5) <= 0.05


def test_box_count_empty_render():
    sys_ = CellSystem(3, 3, ((0, 0), (2, 1)))
    psi = make_constant_cell(sys_, 1, np.array([-1.0, -2.0]))
    render = render_measure(psi, 1)
    # charged cells only contribute; uncharged q = 0 count excludes them
    count = np.isfinite(render.log_masses).sum()
    assert box_count_tau(render, [0.0])[0] == pytest.approx(
        -math.log(count) / math.log(3), abs=1e-12
    )


# -- separation predicates ------------------------------------------------------------


def test_p1_examples(ref_system):
    assert check_P1(CellSystem(3, 3, ((0, 0), (2, 1)))) is True
    assert check_P1(CellSystem(3, 3, ((0, 0), (1, 1)))) is False
    assert check_P1(ref_system) is False


def test_p2_examples(ref_system):
    assert check_P2(CellSystem(3, 3, ((0, 0), (1, 1)))) is True
    assert check_P2(CellSystem(3, 3, ((0, 0), (2, 1)))) is False
    assert check_P2(ref_system) is False


def test_p3_symmetric_rows_exact():
    sys_ = CellSystem(2, 4, ((0, 0), (0, 1), (1, 0), (1, 1)))
    psi = make_constant_cell(sys_, 1, np.zeros(4))
    report = p3_scan(psi)
    assert report.holds is True
    assert report.terminal_defect == 0.0


def test_p3_reference_defect(ref_weight):
    report = p3_scan(ref_weight)
    assert report.subset_holds is True
    assert not report.holds
    assert report.terminal_defect == pytest.approx(P3_REFERENCE_DEFECT, abs=1e-12)
    # depth-1 weights have depth-independent defects
    for d in report.defects:
        assert d == pytest.approx(P3_REFERENCE_DEFECT, abs=1e-12)
    assert report.depths == (2, 4, 6, 8)


def test_p3_missing_boundary_letter():
    sys_ = CellSystem(3, 3, ((0, 0), (1, 1)))
    psi = make_constant_cell(sys_, 1, np.zeros(2))
    report = p3_scan(psi)
    assert report.subset_holds is False
    assert not report.holds
    assert math.isinf(report.terminal_defect)


def test_p3_scan_validation(ref_weight):
    with pytest.raises(ValueError):
        p3_scan(ref_weight, q_set=(0.0, 1.0))
    with pytest.raises(ValueError):
        p3_scan(ref_weight, q_set=(-1.0,))
    with pytest.raises(ValueError):
        p3_scan(ref_weight, depth_schedule=(4, 2))
    with pytest.raises(ValueError):
        p3_scan(ref_weight, depth_schedule=())


def test_p3_scan_stops_at_cap(ref_system, monkeypatch):
    # q = 0.5 has no transfer route on a dim-2 cocycle: the probe enumerates
    # 4**n rows of n digits per boundary word, 24,576 cells at n = 6.
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 2**14)
    matrices = np.random.default_rng(3).uniform(0.05, 1.0, (ref_system.n_cells, 2, 2))
    psi = make_matrix_cocycle(ref_system, 2, matrices)
    report = p3_scan(psi, depth_schedule=(2, 4, 6, 8))
    assert report.depths == (2, 4)
    assert len(report.defects) == 2
    full = p3_scan(psi, depth_schedule=(2, 4))
    assert full == report
    with pytest.raises(CapExceededError, match="24576 digit cells"):
        p3_scan(psi, depth_schedule=(6, 8))
