"""Self-verification suite: ten desk-scale checks with time budgets.

Each criterion exercises one pillar of the engine against an independent
route — closed forms against finite sums, transfer recursions against brute
enumeration, Monte Carlo means against derivative oracles, and reruns
against byte-identical outputs.  ``run_all`` executes every criterion and
reports measured defects.  Criteria 3 and 5 are functions of a weight, which
``run_all(config)`` runs on the configured one; the reference-bound criteria
are then reported as not applicable rather than passed.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import carpet, gibbs, pressure, spectra
from .config import ExperimentConfig
from .numerics import (
    central_derivative,
    lse,
    mean_and_stderr,
    run_chunked_arrays,
    scaled_powers,
    sorted_unique,
)
from .reference import (
    DEFAULT_MASTER_SEED,
    default_config,
    default_q_grid,
    pcg64_uniform,
    random_depth2_weight,
    reference_system,
    reference_weight,
    zero_potential_weight,
)
from .symbolic import CapExceededError, check_budget, row_word_count, row_words_range
from .weights import CylinderWeight, make_constant_cell, make_matrix_cocycle, row_sum_log_any

#: Reference cell masses regrouped so the two fibers sum to 0.6 and 0.4.
_SKEWED_MASSES = (0.3, 0.3, 0.1, 0.15, 0.15)

#: Depths at which criterion 5 enumerates every row of every column word.
_ORACLE_DEPTHS = (3, 5)


@dataclass
class CriterionResult:
    """Outcome of one verification criterion."""

    index: int
    name: str
    passed: bool | None  # None = not applicable in this run
    detail: str
    elapsed: float
    budget: float

    def __post_init__(self) -> None:
        # Bodies may compute a verdict as a numpy bool; ``is False`` tests
        # downstream need the Python one.
        if self.passed is not None:
            self.passed = bool(self.passed)

    @property
    def status(self) -> str:
        if self.passed is None:
            return "n/a"
        return "pass" if self.passed else "FAIL"


def _rel_err(value: float, target: float) -> float:
    return abs(value - target) / max(1.0, abs(target))


# ---------------------------------------------------------------------------
# Criterion bodies (reference system)
# ---------------------------------------------------------------------------


def _criterion_closed_form() -> tuple[bool, str]:
    psi = reference_weight()
    qs = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    closed = dict(zip(qs, pressure.closed_form_T(psi, np.array(qs)).tolist()))
    worst = 0.0
    for q in qs:
        for n in (4, 8):
            worst = max(worst, _rel_err(pressure.finite_T(psi, q, n), closed[q]))
    spot1 = abs(closed[1.0] - (-0.5))
    spot2 = abs(closed[2.0] - (-math.log2(math.sqrt(0.13) + math.sqrt(0.095))))
    ok = worst <= 1e-10 and spot1 <= 1e-12 and spot2 <= 1e-12
    return ok, f"worst rel defect {worst:.2e}, spot defects {spot1:.1e}/{spot2:.1e}"


def _criterion_support_dimension() -> tuple[bool, str]:
    psi = zero_potential_weight()
    target = math.log2(math.sqrt(2.0) + math.sqrt(3.0))
    values = [
        -pressure.finite_T(psi, 0.0, 4),
        -pressure.closed_form_T(psi, 0.0),
        -pressure.finite_beta(psi, 0.0, 4),
        spectra.mcmullen_dimension(psi.system),
    ]
    worst = max(abs(v - target) for v in values)
    return worst <= 1e-10, f"worst defect {worst:.2e} against log2(sqrt2+sqrt3)"


def _beta_limit(psi: CylinderWeight, q: float, depths) -> float:
    """``beta(q)`` of ``psi`` extrapolated over ``depths``."""
    values = {n: pressure.finite_beta(psi, q, n) for n in depths}
    return pressure.extrapolate_pressure(values).value


def _normalization_residual(raw: CylinderWeight, calibration, test) -> float:
    """Extrapolated ``beta(1)`` over the ``test`` depths of ``raw`` normalized
    by :func:`pressure.calibrate_to_gibbs` over the ``calibration`` depths.
    The two sets are disjoint: with a shared schedule the residual would
    cancel algebraically."""
    return _beta_limit(pressure.calibrate_to_gibbs(raw, calibration), 1.0, test)


def _criterion_normalization() -> tuple[bool, str]:
    exact = abs(pressure.finite_beta(reference_weight(), 1.0, 6))
    residual = _normalization_residual(random_depth2_weight(), (5, 7, 9, 11), (6, 8, 10, 12))
    ok = exact <= 1e-9 and abs(residual) <= 1e-3
    return ok, f"depth-1 residual {exact:.2e}, depth-2 extrapolated {residual:.2e}"


def _config_normalization(config: ExperimentConfig) -> tuple[bool | None, str]:
    """Criterion 3 on the configured weight: calibrated on the odd depths
    and tested on the even ones, from one below the depth schedule to one
    above it, among those with at most ``CALIBRATION_WORDS`` column words."""
    schedule, limit = config.depth_schedule, pressure.CALIBRATION_WORDS
    span = range(max(1, schedule[0] - 1), schedule[-1] + 2)
    depths = [n for n in span if row_word_count(config.system, n) <= limit]
    calibration = [n for n in depths if n % 2]
    test = [n for n in depths if not n % 2]
    if min(len(calibration), len(test)) < 2:
        return None, f"needs two odd and two even depths of <= {limit} column words: {depths}"
    residual = _normalization_residual(config.weight, calibration, test)
    detail = f"extrapolated beta(1) {residual:.2e}, calibrated on {calibration}, tested on {test}"
    return abs(residual) <= 1e-3, detail


def _identity_defect(
    psi: CylinderWeight, q: float, r: float, n: int, variant: str, level: float
) -> float:
    aux = gibbs.make_auxiliary(psi, q, level, variant)
    lhs = pressure.finite_beta(aux, r, n)
    fn = pressure.finite_beta if variant == gibbs.VARIANT_PSI_Q else pressure.finite_T
    rhs = fn(psi, q * r, n) - r * level
    return abs(lhs - rhs)


def _criterion_tilt_identities() -> tuple[bool, str]:
    psi = reference_weight()
    pairs = ((2.0, 0.5), (-1.0, 2.0), (3.0, 1.0 / 3.0))
    worst = 0.0
    for q, r in pairs:
        worst = max(
            worst,
            _identity_defect(
                psi, q, r, 4, gibbs.VARIANT_PSI_Q, pressure.closed_form_beta(psi, q)
            ),
            _identity_defect(
                psi, q, r, 4, gibbs.VARIANT_PSI_TILDE_Q, pressure.closed_form_T(psi, q)
            ),
        )
    # Depth-2 weight: the identity against the *limit* curve decays like 1/n.
    deep = pressure.calibrate_to_gibbs(random_depth2_weight(), (8, 10, 12))
    q, r = 2.0, 0.5
    schedule = (4, 6, 8, 10, 12)
    level = _beta_limit(deep, q, schedule)
    limit_qr = _beta_limit(deep, q * r, schedule)
    aux = gibbs.make_auxiliary(deep, q, level, gibbs.VARIANT_PSI_Q)
    defects = {
        n: abs(pressure.finite_beta(aux, r, n) - (limit_qr - r * level))
        for n in schedule
    }
    c_hat = max(n * d for n, d in defects.items())
    decay_ok = all(
        defects[b] <= defects[a] + 1e-12 for a, b in zip(schedule, schedule[1:])
    )
    bound_ok = all(d <= c_hat / n + 1e-15 for n, d in defects.items())
    ok = worst <= 1e-10 and decay_ok and bound_ok
    return ok, (
        f"depth-1 worst defect {worst:.2e}; depth-2 c_hat {c_hat:.3e}, "
        f"terminal defect {defects[schedule[-1]]:.2e}"
    )


def _transfer_oracle_defect(psi: CylinderWeight, depths, row_qs, pressure_qs) -> float:
    """Worst relative disagreement, over ``depths``, of the row sums at
    ``row_qs`` with row enumeration, and of ``finite_T``/``finite_beta`` at
    ``pressure_qs`` with their definition over the enumerated row sums.
    ``row_qs`` holds q = 1 and every q of ``pressure_qs``."""
    system = psi.system
    worst = 0.0
    for n in depths:
        words = row_words_range(system, n, 0, row_word_count(system, n))
        fast = row_sum_log_any(psi, words, row_qs)
        slow = row_sum_log_any(psi, words, row_qs, method="enumerate")
        finite = np.isfinite(fast) | np.isfinite(slow)
        gap = np.abs(fast[finite] - slow[finite]) / np.maximum(1.0, np.abs(slow[finite]))
        worst = max(worst, float(gap.max()))
        s, scale = system.s, n * math.log(system.r1)
        log_i1 = slow[:, row_qs.index(1.0)]
        for q in pressure_qs:
            s_log_iq = scaled_powers(s, slow[:, row_qs.index(q)])
            t_n = -float(lse(s_log_iq)) / scale
            beta_n = -float(lse(scaled_powers(q * (1.0 - s), log_i1) + s_log_iq)) / scale
            worst = max(
                worst,
                _rel_err(pressure.finite_T(psi, q, n), t_n),
                _rel_err(pressure.finite_beta(psi, q, n), beta_n),
            )
    return worst


def _criterion_transfer_oracle() -> tuple[bool, str]:
    n_cells = reference_system().n_cells
    matrices = pcg64_uniform(DEFAULT_MASTER_SEED, 0.05, 1.0, (n_cells, 2, 2))
    cocycle = make_matrix_cocycle(reference_system(), 2, matrices)
    # (weight, row-sum q values, pressure q values); every row-sum q must
    # take a transfer route (the cocycle's Kronecker powers exist at integer
    # q >= 0 only), and q = 1 and the pressure q values are among them.
    cases = (
        (reference_weight(), (-1.0, 0.7, 1.0, 2.0), (0.7, 2.0)),
        (random_depth2_weight(), (-1.0, 0.7, 1.0, 2.0), (0.7, 2.0)),
        (cocycle, (0.0, 1.0, 2.0), (0.0, 1.0, 2.0)),
    )
    routed = all(psi.transfer_mask(np.array(qs)).all() for psi, qs, _ in cases)
    worst = max(_transfer_oracle_defect(psi, _ORACLE_DEPTHS, *qs) for psi, *qs in cases)
    detail = f"worst relative route disagreement {worst:.2e}"
    return routed and worst <= 1e-12, detail + ("" if routed else "; a q lost its transfer route")


def _config_transfer_oracle(config: ExperimentConfig) -> tuple[bool | None, str]:
    """Criterion 5 on the configured weight, at q = 1 and the grid's q inside
    its transfer mask (every q of a wrapper, whose route reads its base's row
    sums), and at the depths of ``_ORACLE_DEPTHS`` whose row enumeration fits
    the enumeration cap.  It is not applicable unless one of those depths is
    longer than the weight's window: shorter words enumerate their rows, and
    a word of one window takes a single transfer step."""
    psi, system = config.weight, config.system
    routed = config.q_grid[psi.transfer_mask(config.q_grid)]
    qs = tuple(float(q) for q in sorted_unique(np.append(routed, 1.0)))
    depths, refused = [], []
    for n in _ORACLE_DEPTHS:
        volume = row_word_count(system, n) * system.r2**n * n
        try:
            check_budget(volume, f"depth {n}: row enumeration builds {volume} digit cells")
        except CapExceededError as exc:
            refused.append(str(exc))
        else:
            depths.append(n)
    window = psi.dependence_depth or 1
    if not any(n > window for n in depths):
        needs = f"needs a depth over the window depth {window} whose rows fit the enumeration cap"
        return None, "; ".join([needs, *refused])
    worst = _transfer_oracle_defect(psi, depths, qs, qs)
    detail = f"worst relative route disagreement {worst:.2e} at depths {depths}, q = {list(qs)}"
    return worst <= 1e-12, "; ".join([detail, *refused])


def _exact_T_curve(grid, vals) -> pressure.PressureCurve:
    """A ``T`` curve known exactly: ``vals`` at every depth, errors at epsilon."""
    grid, vals = np.asarray(grid, dtype=float), np.asarray(vals, dtype=float)
    return pressure.PressureCurve(
        kind="T",
        q_grid=grid,
        finite_values={1: vals, 2: vals},
        extrapolated=vals,
        error_estimate=np.full(grid.size, np.finfo(float).eps),
        monotone_within_error=True,
    )


def _criterion_involution() -> tuple[bool, str]:
    grid = np.linspace(-3.0, 3.0, 61)
    parabola = _exact_T_curve(grid, -grid**2 / 2.0)
    step = float(grid[1] - grid[0])
    parabola_defect = spectra.legendre_involution_check(parabola)
    q_grid = default_q_grid()
    curve = _exact_T_curve(q_grid, pressure.closed_form_T(reference_weight(), q_grid))
    closed_defect = spectra.legendre_involution_check(curve)
    ok = parabola_defect <= step**2 and closed_defect <= 1e-3
    return ok, f"parabola defect {parabola_defect:.2e}, closed-form defect {closed_defect:.2e}"


def _mc_pull(psi: CylinderWeight, q: float, variant: str) -> float:
    """Pull of the tilted MC local dimension (10,000 paths, depth 30)
    against the closed-form derivative of the variant's pressure."""
    psi_q = variant == gibbs.VARIANT_PSI_Q
    closed = pressure.closed_form_beta if psi_q else pressure.closed_form_T
    target = central_derivative(lambda x: closed(psi, x), q, h=1.0 / 64)
    aux = gibbs.make_auxiliary(psi, q, closed(psi, q), variant)
    est = gibbs.local_dimension_mc(psi, aux, 10_000, 30, master_seed=DEFAULT_MASTER_SEED)
    return abs(est.mean - target) / est.stderr


def _criterion_mc_local_dimension() -> tuple[bool, str]:
    psi = reference_weight()
    pulls = {}
    for q in (0.0, 1.0, 2.0):
        pulls[f"T'({q:g})"] = _mc_pull(psi, q, gibbs.VARIANT_PSI_TILDE_Q)
        pulls[f"beta'({q:g})"] = _mc_pull(psi, q, gibbs.VARIANT_PSI_Q)
    # The reference fibers both sum to 1/2, where the two tilts coincide;
    # unequal fiber sums (0.6 / 0.4) tell them apart.
    skewed = make_constant_cell(reference_system(), 1, np.log(_SKEWED_MASSES))
    pulls["skewed T'(2)"] = _mc_pull(skewed, 2.0, gibbs.VARIANT_PSI_TILDE_Q)
    pulls["skewed beta'(2)"] = _mc_pull(skewed, 2.0, gibbs.VARIANT_PSI_Q)
    # Under a correct sampler each pull exceeds 3 with probability 2.7e-3: the
    # 5 distinct pulls (T' = beta' on the reference) fail by chance ~1.3%.
    ok = all(pull <= 3.0 for pull in pulls.values())
    return ok, ", ".join(f"{name} pull {pull:.2f}" for name, pull in pulls.items())


def _criterion_tau_derivative() -> tuple[bool, str]:
    psi = reference_weight()
    n = 10
    h = 1.0 / 16
    upper, lower = spectra.lq_spectrum_empirical(psi, np.array([1.0 + h, 1.0 - h]), n).tolist()
    tau_prime = (upper - lower) / (2.0 * h)
    beta_prime = central_derivative(
        lambda x: pressure.closed_form_beta(psi, x), 1.0, h=1.0 / 64
    )
    gap = abs(beta_prime - tau_prime)
    return gap <= 0.05, f"|beta'(1) - tau_{n}'(1)| = {gap:.4f}"


def _criterion_carpet_birkhoff() -> tuple[bool, str]:
    psi = reference_weight()
    system = psi.system
    n_samples, depth = 600, 30
    h = 1.0 / 64
    # One closed-form call: the curve, each q's level and its derivative stencil.
    q_grid = default_q_grid()
    stencil = [q + d for q in (0.0, 2.0) for d in (0.0, h, -h, h / 2.0, -h / 2.0)]
    values = pressure.closed_form_T(psi, np.concatenate([q_grid, stencil]))
    closed = dict(zip(stencil, values[q_grid.size :].tolist()))
    ok = True
    details = []
    for q in (0.0, 2.0):
        target = -central_derivative(closed.__getitem__, q, h=h) * math.log(system.r2)
        aux = gibbs.make_auxiliary(psi, q, closed[q], gibbs.VARIANT_PSI_TILDE_Q)

        def chunk(lo: int, hi: int) -> np.ndarray:
            paths = gibbs.sample_paths(aux, depth, DEFAULT_MASTER_SEED, lo, hi)
            return carpet.birkhoff_averages_on_carpet(psi, paths)

        averages = run_chunked_arrays(chunk, n_samples)
        mean, stderr = mean_and_stderr(averages)
        pull = abs(mean - target) / stderr
        # Two 3-sigma pulls: ~0.5% chance failures under a correct sampler.
        ok &= pull <= 3.0
        details.append(f"q={q:g} pull {pull:.2f}")
    curve = _exact_T_curve(q_grid, values[: q_grid.size])
    sym = spectra.legendre(curve)
    mapped = spectra.birkhoff_spectrum_carpet(curve, system)
    exact = np.array_equal(
        mapped.alpha, -sym.alpha * math.log(system.r2)
    ) and np.array_equal(mapped.dimension, sym.dimension)
    ok &= exact
    details.append("mapping bit-exact" if exact else "mapping NOT bit-exact")
    return ok, ", ".join(details)


def _criterion_determinism() -> tuple[bool, str]:
    """Run the CLI commands with 1 and 4 workers into the same ``--out``
    string (it is part of the stamped config hash) and compare the bytes.
    1,100 samples make ``sample`` split into two chunks."""
    from click.testing import CliRunner

    from .cli import main  # here: cli's verify command imports this module

    config = default_config()
    config["grids"] = {
        "qGrid": [float(q) for q in np.linspace(-2.0, 2.0, 17)],
        "depthSchedule": [4, 6],
    }
    config["sampling"].update(nSamples=1100, depth=8)
    commands = (
        ("pressure",),
        ("spectrum",),
        ("sample",),
        ("render", "--depth", "3"),
        ("boxcount", "--depth", "3"),
    )
    runner = CliRunner()
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "out"
        for workers in ("1", "4"):
            shutil.rmtree(out, ignore_errors=True)
            for command in commands:
                args = [*command, "--config", str(config_path), "--out", str(out)]
                result = runner.invoke(main, [*args, "--workers", workers])
                if result.exit_code != 0:
                    return False, f"{command[0]} --workers {workers} failed: {result.output}"
            outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    if sorted(outputs["1"]) != sorted(outputs["4"]):
        return False, "file sets differ between worker counts"
    mismatches = [name for name, blob in outputs["1"].items() if outputs["4"][name] != blob]
    if mismatches:
        return False, f"byte mismatch in {mismatches}"
    return True, f"{len(outputs['1'])} CLI output files byte-identical for workers 1 vs 4"


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

#: (index, name, budget seconds, body) — bodies return (passed, detail).
CRITERIA: tuple[tuple[int, str, float, Callable[[], tuple[bool, str]]], ...] = (
    (1, "closed-form T exactness", 1.0, _criterion_closed_form),
    (2, "support dimension", 1.0, _criterion_support_dimension),
    (3, "normalization residual", 30.0, _criterion_normalization),
    (4, "tilt pressure identities", 60.0, _criterion_tilt_identities),
    (5, "transfer vs enumeration", 10.0, _criterion_transfer_oracle),
    (6, "Legendre involution", 1.0, _criterion_involution),
    (7, "MC local dimension", 60.0, _criterion_mc_local_dimension),
    (8, "derivative match at q=1", 30.0, _criterion_tau_derivative),
    (9, "carpet Birkhoff mapping", 60.0, _criterion_carpet_birkhoff),
    (10, "worker determinism", 120.0, _criterion_determinism),
)


#: Bodies of the criteria that also run on a configured weight, by index:
#: they take the config and return (passed, or None if not applicable, detail).
CONFIG_BODIES = {3: _config_normalization, 5: _config_transfer_oracle}


def _reference_only(config: ExperimentConfig) -> tuple[None, str]:
    return None, "reference-system criterion; run without --config"


def run_all(config: ExperimentConfig | None = None) -> list[CriterionResult]:
    """Execute the verification suite and return per-criterion results.

    Without a config the full ten-criterion reference suite runs.  With a
    config, the bodies of ``CONFIG_BODIES`` run on the configured weight and
    the other criteria are not applicable.  A body that raises or overruns
    its time budget fails, with the cause in its detail; one that refuses
    the configured size with :class:`CapExceededError` is not applicable.
    """
    results: list[CriterionResult] = []
    for index, name, budget, body in CRITERIA:
        if config is not None:
            body = partial(CONFIG_BODIES.get(index, _reference_only), config)
        start = time.perf_counter()
        try:
            passed, detail = body()
        except Exception as exc:  # a crash fails; a refused configured size is n/a
            refused = config is not None and isinstance(exc, CapExceededError)
            passed, detail = (None if refused else False), f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if elapsed > budget:
            passed = False
            detail += f" [over budget: {elapsed:.1f}s > {budget:.0f}s]"
        results.append(CriterionResult(index, name, passed, detail, elapsed, budget))
    return results
