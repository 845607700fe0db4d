"""End-to-end acceptance suite.

Each test restates one shipping criterion with its oracle recomputed inside
the test body from the frozen reference numbers (never from the library's own
closed forms, except where the criterion is exactly about those closed
forms), and asserts the stated tolerance together with a wall-clock budget.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from carpetmf import (
    VARIANT_PSI_Q,
    VARIANT_PSI_TILDE_Q,
    PressureCurve,
    birkhoff_averages_on_carpet,
    birkhoff_spectrum_carpet,
    extrapolate_pressure,
    finite_T,
    finite_beta,
    finite_pressure,
    legendre,
    legendre_involution_check,
    local_dimension_mc,
    lq_spectrum_empirical,
    make_auxiliary,
    make_constant_cell,
    mcmullen_dimension,
    normalize_to_gibbs,
    row_sum_log_any,
    sample_paths,
)
from carpetmf import pressure as pressure_module
from carpetmf.cli import main
from carpetmf.numerics import mean_and_stderr
from carpetmf.reference import (
    DEFAULT_MASTER_SEED,
    default_q_grid,
    random_depth2_weight,
    reference_weight,
    zero_potential_weight,
)
from carpetmf.symbolic import row_word_count

# Frozen reference data: cells of a 2 x 4 product alphabet with masses
# row 0 -> (0.2, 0.3) and row 1 -> (0.1, 0.15, 0.25); s = 1/2.
ROW_FIBERS = {0: (0.2, 0.3), 1: (0.1, 0.15, 0.25)}
S = 0.5


# The same cells with masses regrouped so the fibers sum to 0.6 and 0.4 (the
# reference fibers both sum to 0.5, where the psiQ and psiTildeQ tilts agree).
SKEWED_FIBERS = {0: (0.3, 0.3), 1: (0.1, 0.15, 0.15)}


def iq(a1: int, q: float, fibers=ROW_FIBERS) -> float:
    return sum(m**q for m in fibers[a1]) if q != 0 else len(fibers[a1])


def oracle_T(q: float, fibers=ROW_FIBERS) -> float:
    return -math.log2(sum(iq(a, q, fibers) ** S for a in fibers))


def oracle_beta(q: float, fibers=ROW_FIBERS) -> float:
    return -math.log2(
        sum(iq(a, 1.0, fibers) ** (q * (1 - S)) * iq(a, q, fibers) ** S for a in fibers)
    )


def oracle_derivative(fn, q: float, h: float = 1.0 / 64) -> float:
    return (fn(q + h) - fn(q - h)) / (2 * h)


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds:.0f}s budget"


def curve_from_oracle(grid) -> PressureCurve:
    grid = np.asarray(grid, dtype=float)
    vals = np.array([oracle_T(float(q)) for q in grid])
    return PressureCurve(
        kind="T",
        q_grid=grid,
        finite_values={4: vals},
        extrapolated=vals,
        error_estimate=np.zeros(grid.size),
        monotone_within_error=True,
    )


def test_criterion_1_closed_form_exactness():
    with budget(1.0):
        psi = reference_weight()
        for q in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
            want = oracle_T(q)
            for n in (4, 8):
                got = finite_T(psi, q, n)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        assert finite_T(psi, 1.0, 4) == pytest.approx(-0.5, abs=1e-12)
        spot2 = -math.log2(math.sqrt(0.13) + math.sqrt(0.095))
        assert finite_T(psi, 2.0, 4) == pytest.approx(spot2, abs=1e-12)
        assert spot2 == pytest.approx(0.5804053914503158, abs=1e-12)


def test_criterion_2_support_dimension():
    with budget(1.0):
        want = math.log2(math.sqrt(2) + math.sqrt(3))
        zero = zero_potential_weight()
        for psi in (reference_weight(), zero):
            assert -finite_T(psi, 0.0, 4) == pytest.approx(want, abs=1e-10)
            assert -finite_beta(psi, 0.0, 4) == pytest.approx(want, abs=1e-10)
        assert mcmullen_dimension(zero.system) == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(1.6536399006263591, abs=1e-12)


def test_criterion_3_normalization():
    with budget(30.0):
        psi = reference_weight()
        for n in (4, 8):
            assert abs(finite_beta(psi, 1.0, n)) <= 1e-9
        raw = random_depth2_weight()
        # calibrate the pressure on odd depths, test the residual on even
        # ones; a shared schedule would cancel the residual algebraically
        estimate = extrapolate_pressure(
            {n: finite_pressure(raw, n) for n in (5, 7, 9, 11)}
        )
        norm = normalize_to_gibbs(raw, estimate.value)
        residual = extrapolate_pressure(
            {n: finite_beta(norm, 1.0, n) for n in (6, 8, 10, 12)}
        )
        assert abs(residual.value) <= 1e-3


def test_criterion_4_tilt_identities():
    with budget(60.0):
        psi = reference_weight()
        worst = 0.0
        for q, r in ((2.0, 0.5), (-1.0, 2.0), (3.0, 1.0 / 3.0)):
            level = oracle_beta(q)
            aux = make_auxiliary(psi, q, level, VARIANT_PSI_Q)
            worst = max(
                worst, abs(finite_beta(aux, r, 4) - (finite_beta(psi, q * r, 4) - r * level))
            )
            level = oracle_T(q)
            aux = make_auxiliary(psi, q, level, VARIANT_PSI_TILDE_Q)
            worst = max(
                worst, abs(finite_beta(aux, r, 4) - (finite_T(psi, q * r, 4) - r * level))
            )
        assert worst <= 1e-10

        # depth-2 weight: against the extrapolated limit levels the identity
        # holds up to an almost-multiplicativity defect of order c_hat / n
        raw = random_depth2_weight()
        deep = normalize_to_gibbs(
            raw,
            extrapolate_pressure({n: finite_pressure(raw, n) for n in (8, 10, 12)}).value,
        )
        q, r = 2.0, 0.5
        schedule = (4, 6, 8, 10, 12)
        level = extrapolate_pressure(
            {n: finite_beta(deep, q, n) for n in schedule}
        ).value
        limit_qr = extrapolate_pressure(
            {n: finite_beta(deep, q * r, n) for n in schedule}
        ).value
        aux = make_auxiliary(deep, q, level, VARIANT_PSI_Q)
        defects = {
            n: abs(finite_beta(aux, r, n) - (limit_qr - r * level)) for n in schedule
        }
        c_hat = max(n * d for n, d in defects.items())
        for a, b in zip(schedule, schedule[1:]):
            assert defects[b] <= defects[a] + 1e-12, f"defects grow: {defects}"
        for n, d in defects.items():
            assert d <= c_hat / n + 1e-15, f"measured c_hat {c_hat:.3e} violated at n={n}"


def _criterion_5_worst() -> float:
    """Worst relative disagreement of the transfer row sums with row
    enumeration, and of ``finite_T``/``finite_beta`` with their definition
    over the enumerated row sums."""
    qs = (-1.0, 0.7, 1.0, 2.0)
    worst = 0.0
    for psi in (reference_weight(), random_depth2_weight()):
        system = psi.system
        assert psi.transfer_mask(np.array(qs)).all()
        for n in (2, 4, 6):
            words = np.stack(
                [np.array(w, dtype=np.int64) for w in np.ndindex(*(system.r1,) * n)]
            )
            assert words.shape[0] == row_word_count(system, n)
            fast = row_sum_log_any(psi, words, qs)
            slow = row_sum_log_any(psi, words, qs, method="enumerate")
            finite = np.isfinite(fast) | np.isfinite(slow)
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(fast[finite] - slow[finite])
                        / np.maximum(1.0, np.abs(slow[finite]))
                    )
                ),
            )
            # T_n = -log2(sum I_q^s) / n and
            # beta_n = -log2(sum I_1^(q(1-s)) I_q^s) / n, with s = 1/2.
            log_i1 = slow[:, qs.index(1.0)]
            for q in (0.7, 2.0):
                log_iq = slow[:, qs.index(q)]
                want = {
                    finite_T: -math.log2(np.sum(np.exp(S * log_iq))) / n,
                    finite_beta: -math.log2(
                        np.sum(np.exp(q * (1 - S) * log_i1 + S * log_iq))
                    ) / n,
                }
                for fn, b in want.items():
                    a = fn(psi, q, n)
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


def test_criterion_5_transfer_vs_enumeration():
    with budget(10.0):
        assert _criterion_5_worst() <= 1e-12


def test_criterion_5_catches_a_wrong_pass(monkeypatch):
    real = pressure_module.column_log_sums

    def shifted(*args, **kwargs):
        return {kind: logs + 1e-9 for kind, logs in real(*args, **kwargs).items()}

    monkeypatch.setattr(pressure_module, "column_log_sums", shifted)
    assert _criterion_5_worst() > 1e-12


def test_criterion_6_legendre_involution():
    with budget(1.0):
        grid = np.linspace(-3.0, 3.0, 61)
        step = float(grid[1] - grid[0])
        parabola = PressureCurve(
            kind="T",
            q_grid=grid,
            finite_values={4: -grid**2 / 2.0},
            extrapolated=-grid**2 / 2.0,
            error_estimate=np.zeros(grid.size),
            monotone_within_error=True,
        )
        assert legendre_involution_check(parabola) <= step**2
        assert legendre_involution_check(curve_from_oracle(default_q_grid())) <= 1e-3


def test_criterion_7_mc_local_dimension():
    with budget(60.0):
        reference = reference_weight()
        cells = [(a1, a2) for a1, fiber in SKEWED_FIBERS.items() for a2 in range(len(fiber))]
        masses = dict(zip(cells, sum(SKEWED_FIBERS.values(), ())))
        skewed = make_constant_cell(
            reference.system,
            1,
            np.array([math.log(masses[cell]) for cell in reference.system.allowed]),
        )
        n_samples, depth = 10_000, 30
        cases = [(reference, ROW_FIBERS, q) for q in (0.0, 1.0, 2.0)]
        cases.append((skewed, SKEWED_FIBERS, 2.0))
        for psi, fibers, q in cases:
            for variant, oracle in ((VARIANT_PSI_TILDE_Q, oracle_T), (VARIANT_PSI_Q, oracle_beta)):
                aux = make_auxiliary(psi, q, oracle(q, fibers), variant)
                est = local_dimension_mc(
                    psi, aux, n_samples, depth, master_seed=DEFAULT_MASTER_SEED
                )
                target = oracle_derivative(lambda x: oracle(x, fibers), q)
                assert abs(est.mean - target) <= 3 * est.stderr, (
                    f"{variant} q={q}, fibers {fibers}: mean {est.mean:.5f} vs {target:.5f} "
                    f"(pull {abs(est.mean - target) / est.stderr:.2f})"
                )


def test_criterion_8_tau_derivative_match():
    with budget(30.0):
        psi = reference_weight()
        n, h = 10, 1.0 / 16
        tau_prime = (
            lq_spectrum_empirical(psi, 1.0 + h, n) - lq_spectrum_empirical(psi, 1.0 - h, n)
        ) / (2 * h)
        beta_prime = oracle_derivative(oracle_beta, 1.0)
        assert abs(beta_prime - tau_prime) <= 0.05


def test_criterion_9_carpet_birkhoff():
    with budget(60.0):
        psi = reference_weight()
        n_samples, depth = 600, 30
        for q in (0.0, 2.0):
            target = -oracle_derivative(oracle_T, q) * math.log(4)
            aux = make_auxiliary(psi, q, oracle_T(q), VARIANT_PSI_TILDE_Q)
            averages = birkhoff_averages_on_carpet(
                psi, sample_paths(aux, depth, DEFAULT_MASTER_SEED, 0, n_samples)
            )
            mean, stderr = mean_and_stderr(averages)
            assert abs(mean - target) <= 3 * stderr, (
                f"q={q}: mean {mean:.5f} vs {target:.5f} "
                f"(pull {abs(mean - target) / stderr:.2f})"
            )
        curve = curve_from_oracle(default_q_grid())
        sym = legendre(curve)
        mapped = birkhoff_spectrum_carpet(curve, psi.system)
        assert np.array_equal(mapped.alpha, -sym.alpha * math.log(4))
        assert np.array_equal(mapped.dimension, sym.dimension)


def test_criterion_10_cli_determinism(tmp_path):
    with budget(60.0):
        config = {
            "cellSystem": {
                "r1": 2,
                "r2": 4,
                "allowed": [[0, 0], [0, 1], [1, 0], [1, 1], [1, 2]],
            },
            "weight": {
                "kind": "constantCell",
                "depth": 1,
                "values": [0.2, 0.3, 0.1, 0.15, 0.25],
            },
            "grids": {"qGrid": [0.0, 1.0, 2.0], "depthSchedule": [2, 4]},
            "sampling": {"nSamples": 20, "depth": 4, "masterSeed": 7},
            "output": {"directory": str(tmp_path / "out"), "formats": ["csv", "json"]},
        }
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps(config))
        runner = CliRunner()
        commands = [
            ["pressure"],
            ["spectrum"],
            ["sample"],
            ["render", "--depth", "2"],
            ["boxcount", "--depth", "2"],
        ]

        def run_all(workers: str) -> dict[str, bytes]:
            for cmd in commands:
                result = runner.invoke(
                    main, [*cmd, "--config", str(cfgfile), "--workers", workers]
                )
                assert result.exit_code == 0, result.output
            out = tmp_path / "out"
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first = run_all("1")
        second = run_all("4")
        assert sorted(first) == sorted(second)
        assert len(first) >= 10
        for name, blob in first.items():
            assert second[name] == blob, f"{name} differs between worker counts"
