"""Batch command-line front end.

The six experiment commands (``pressure``, ``spectrum``, ``sample``,
``render``, ``boxcount``, ``check``) are registered by :func:`_experiment`,
which adds the common options, loads the JSON experiment config (or the
built-in reference experiment when ``--config`` is omitted) once, and runs
the command body on it.  A config error, a refused size or an invalid value
raised anywhere in the body prints one ``error: ...`` line and exits 1.  The
bodies write provenance-stamped files into the output directory; identical
configs and seeds produce byte-identical outputs for any ``--workers``.
``verify`` takes only ``--config`` and ``--workers``.

Each command imports the pipeline modules it uses when it runs, so start-up
pays only for click, numpy and the config chain.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np

from . import io_utils
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    load_raw,
    parse_config,
)
from .numerics import mean_and_stderr
from .reference import default_config
from .symbolic import CapExceededError, depth_map

if TYPE_CHECKING:
    from .pressure import PressureCurve
    from .spectra import Spectrum


def _load_experiment(
    config_path: str | None,
    out_dir: str | None,
    seed: int | None,
    depth_max: int | None,
) -> ExperimentConfig:
    data = load_raw(config_path) if config_path else default_config()
    if seed is not None:
        data.setdefault("sampling", {})["masterSeed"] = int(seed)
    if out_dir is not None:
        data.setdefault("output", {})["directory"] = str(out_dir)
    if depth_max is not None:
        grids = data.setdefault("grids", {})
        schedule = grids.get("depthSchedule", list(default_config()["grids"]["depthSchedule"]))
        clipped = [n for n in schedule if n <= depth_max]
        # Extrapolation needs two depths; fall back to the deepest pair allowed.
        grids["depthSchedule"] = clipped if len(clipped) >= 2 else [depth_max - 1, depth_max]
        sampling = data.setdefault("sampling", {})
        sampling["depth"] = min(
            int(sampling.get("depth", default_config()["sampling"]["depth"])), depth_max
        )
    return parse_config(data)


_CONFIG = click.option(
    "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
    default=None, help="JSON experiment config (default: built-in reference).",
)
_WORKERS = click.option(
    "--workers", type=click.IntRange(min=1), default=1, show_default=True,
    help="Worker threads for the outer reductions (never changes results).",
)
_EXPERIMENT_OPTIONS = (
    _CONFIG,
    _WORKERS,
    click.option(
        "--out", "out_dir", type=click.Path(file_okay=False), default=None,
        help="Output directory (overrides the config).",
    ),
    click.option(
        "--seed", type=click.IntRange(min=0), default=None,
        help="Master seed override for sampling commands.",
    ),
    click.option(
        "--depth-max", type=click.IntRange(min=2), default=None,
        help="Clip the depth schedule, sampling depth and --depth.",
    ),
)
#: ``render`` and ``boxcount``'s ball depth, clipped by ``--depth-max``.
_DEPTH = click.option(
    "--depth", type=click.IntRange(min=1), default=4, show_default=True,
    help="Ball depth n.",
)


#: ``render`` notes a weight whose rendered total log mass exceeds this.
NORMALIZED_LOG_MASS_TOL = 1e-9


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@click.group()
@click.version_option(io_utils.TOOL_VERSION, prog_name=io_utils.TOOL_NAME)
def main() -> None:
    """Multifractal spectra of product-shift cylinder weights and their
    Sierpinski-carpet realizations."""


def _experiment(name: str, *options):
    """Register ``body(cfg, out, workers, **extra)`` as the experiment
    command ``name``, with the common options and ``options``."""

    def register(body):
        def command(config_path, workers, out_dir, seed, depth_max, **extra):
            try:
                cfg = _load_experiment(config_path, out_dir, seed, depth_max)
                if "depth" in extra and depth_max is not None:
                    extra["depth"] = min(extra["depth"], depth_max)
                body(cfg, Path(cfg.output_dir), workers, **extra)
            except (ConfigError, CapExceededError, ValueError) as exc:
                _fail(str(exc))

        for option in reversed((*_EXPERIMENT_OPTIONS, *options)):
            command = option(command)
        main.command(name, help=body.__doc__)(command)
        return body

    return register


def _write_table(cfg: ExperimentConfig, stem: str, header, rows, payload: dict) -> None:
    """``<stem>.csv`` and/or ``<stem>.json``, as ``output.formats`` asks."""
    out = Path(cfg.output_dir)
    if "csv" in cfg.formats:
        comments = io_utils.provenance_comments(cfg.sha256)
        io_utils.write_csv(out / f"{stem}.csv", header, rows, comments)
    if "json" in cfg.formats:
        io_utils.write_json(out / f"{stem}.json", payload, cfg.sha256)


def _write_curve(cfg: ExperimentConfig, curve: PressureCurve) -> None:
    rows = (
        (
            float(q),
            *(float(curve.finite_values[n][i]) for n in curve.depths),
            float(curve.extrapolated[i]),
            float(curve.error_estimate[i]),
        )
        for i, q in enumerate(curve.q_grid)
    )
    payload = {
        "kind": curve.kind,
        "qGrid": curve.q_grid,
        "finiteValues": {str(n): curve.finite_values[n] for n in curve.depths},
        "extrapolated": curve.extrapolated,
        "errorEstimate": curve.error_estimate,
        "monotoneWithinError": curve.monotone_within_error,
    }
    header = ["q", *(f"value_n{n}" for n in curve.depths), "extrapolated", "error"]
    _write_table(cfg, f"pressure_{curve.kind}", header, rows, payload)


@_experiment("pressure")
def cmd_pressure(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    """Pressure curves T and beta over the q-grid, with extrapolation."""
    from .pressure import pressure_curves

    curves = pressure_curves(cfg.weight, cfg.q_grid, cfg.depth_schedule, workers=workers)
    t_curve, b_curve = curves["T"], curves["beta"]
    _write_curve(cfg, t_curve)
    _write_curve(cfg, b_curve)
    try:
        support = -t_curve.value_at(0.0)
        click.echo(f"support dimension -T(0) = {support!r}")
    except KeyError:
        click.echo("support dimension: q = 0 not on the grid")
    try:
        residual = b_curve.value_at(1.0)
        click.echo(f"beta(1) residual = {residual!r}")
    except KeyError:
        click.echo("beta(1) residual: q = 1 not on the grid")
    click.echo(f"wrote pressure curves to {out}")


def _write_spectrum(cfg: ExperimentConfig, stem: str, spec: Spectrum) -> None:
    from .spectra import SOURCE_BIRKHOFF_CARPET

    label = "beta" if spec.source_kind == SOURCE_BIRKHOFF_CARPET else "alpha"
    rows = [
        (float(q), float(a), float(d), flag)
        for q, a, d, flag in zip(spec.q, spec.alpha, spec.dimension, spec.flags)
    ]
    payload = {
        "sourceKind": spec.source_kind,
        "q": spec.q,
        "alpha": spec.alpha,
        "dimension": spec.dimension,
        "flags": list(spec.flags),
        "infimumDefect": spec.infimum_defect,
        "levelTolerance": spec.level_tolerance,
    }
    _write_table(cfg, stem, ["q", label, "dimension", "flag"], rows, payload)


@_experiment("spectrum")
def cmd_spectrum(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    """Legendre spectra: Birkhoff, Gibbs local-dimension, and carpet-mapped."""
    from .pressure import pressure_curves
    from .spectra import birkhoff_spectrum_carpet, legendre

    curves = pressure_curves(cfg.weight, cfg.q_grid, cfg.depth_schedule, workers=workers)
    t_curve, b_curve = curves["T"], curves["beta"]
    spectra_out = {
        "spectrum_birkhoff": legendre(t_curve),
        "spectrum_gibbs": legendre(b_curve),
        "spectrum_carpet": birkhoff_spectrum_carpet(t_curve, cfg.system),
    }
    for stem, spec in spectra_out.items():
        _write_spectrum(cfg, stem, spec)
    if "csv" in cfg.formats:  # the plot reads the CSVs
        io_utils.write_plot_script(
            out / "spectrum.gp",
            [
                ("spectrum_birkhoff.csv", 2, 3, "Birkhoff levels"),
                ("spectrum_gibbs.csv", 2, 3, "Gibbs local dimensions"),
            ],
            title="Multifractal spectra",
            xlabel="level",
            ylabel="dimension",
            comments=io_utils.provenance_comments(cfg.sha256),
        )
    plot = " and plot script" if "csv" in cfg.formats else ""
    click.echo(f"wrote 3 spectra{plot} to {out}")


@_experiment("sample")
def cmd_sample(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    """Draw tilted sample paths; dump per-path statistics and a summary.

    The tilt is psiQ at level beta(q) or psiTildeQ at level T(q), the
    extrapolated pressure over the last three depths of the schedule.
    Paths run to the horizon g(depth).  For both variants localDimension is
    the ball statistic log mu(B_depth) / (-depth log r2); the variant picks
    only the tilt and its level.  (gibbs.local_dimension_mc, which verify
    criterion 7 runs, reads the cylinder statistic under psiTildeQ.)
    birkhoffAverage is gibbs.birkhoff_averages of the depth-cell cylinders,
    NaN unless the weight's dependence_depth is at most depth.
    """
    from .gibbs import VARIANT_PSI_Q, birkhoff_averages, make_auxiliary, sampled_log_masses
    from .pressure import pressure_curves

    psi, q, depth = cfg.weight, cfg.sample_q, cfg.sample_depth
    kind = "beta" if cfg.sample_variant == VARIANT_PSI_Q else "T"
    level = pressure_curves(psi, [q], cfg.depth_schedule[-3:], (kind,), workers)[kind].value_at(q)
    aux = make_auxiliary(psi, q, level, cfg.sample_variant)
    horizon = depth_map(cfg.system, depth)
    cylinder, ball = sampled_log_masses(
        psi, aux, depth, horizon, cfg.n_samples, cfg.master_seed, workers
    )
    with np.errstate(invalid="ignore"):
        local = np.where(np.isfinite(ball), ball / (-depth * math.log(cfg.system.r2)), np.nan)
    birkhoff = birkhoff_averages(psi, cylinder, depth)
    io_utils.write_csv(
        out / "samples.csv",
        ["sampleIndex", "birkhoffAverage", "localDimension"],
        zip(range(cfg.n_samples), birkhoff, local),
        io_utils.provenance_comments(cfg.sha256),
    )
    summary: dict = {
        "q": q,
        "variant": cfg.sample_variant,
        "depth": depth,
        "horizon": horizon,
        "nSamples": cfg.n_samples,
        "levelConstant": level,
        "masterSeed": cfg.master_seed,
    }
    for name, values in (("LocalDimension", local), ("BirkhoffAverage", birkhoff)):
        finite = values[np.isfinite(values)]
        if len(finite) >= 2:
            summary[f"mean{name}"], summary[f"stderr{name}"] = mean_and_stderr(finite)
    io_utils.write_json(out / "summary.json", summary, cfg.sha256)
    click.echo(f"wrote {cfg.n_samples} samples to {out}")


@_experiment("render", _DEPTH)
def cmd_render(cfg: ExperimentConfig, out: Path, workers: int, depth: int) -> None:
    """Render the measure on the r1**g(n) x r2**n grid (PGM + CSV)."""
    from .carpet import render_measure, write_grid_csv, write_pgm16

    del workers  # the fill runs on the calling thread
    render = render_measure(cfg.weight, depth)
    out.mkdir(parents=True, exist_ok=True)
    comments = io_utils.provenance_comments(cfg.sha256)
    write_pgm16(render, out / f"render_n{depth}.pgm", comments)
    write_grid_csv(render, out / f"render_n{depth}.csv", comments)
    total = float(render.total_log_mass())
    click.echo(
        f"rendered {render.column_count} x {render.row_count} grid "
        f"(total log mass {total!r}) into {out}"
    )
    if abs(total) > NORMALIZED_LOG_MASS_TOL:
        click.echo(
            "note: the rendered measure is not normalized; set "
            '"normalize": true in the weight block for a probability measure'
        )


@_experiment("boxcount", _DEPTH)
def cmd_boxcount(cfg: ExperimentConfig, out: Path, workers: int, depth: int) -> None:
    """Coarse moment scaling tau_n(q) of the measure on depth-n balls."""
    from .spectra import lq_spectrum_empirical

    taus = lq_spectrum_empirical(cfg.weight, cfg.q_grid, depth, workers=workers)
    io_utils.write_csv(
        out / f"boxcount_n{depth}.csv",
        ["q", "tau"],
        zip((float(q) for q in cfg.q_grid), taus),
        io_utils.provenance_comments(cfg.sha256),
    )
    click.echo(f"wrote moment curve at depth {depth} to {out}")


@_experiment("check")
def cmd_check(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    """Evaluate the separation predicates P1, P2 and probe P3."""
    from .carpet import check_P1, check_P2, p3_scan

    del workers
    schedule = [n for n in cfg.depth_schedule if n <= 16] or [2, 4]
    report = p3_scan(cfg.weight, depth_schedule=schedule)
    payload = {
        "P1": check_P1(cfg.system),
        "P2": check_P2(cfg.system),
        "P3": {
            "verdict": "indicative" if report.holds else "indeterminate",
            "subsetHolds": report.subset_holds,
            "terminalDefect": report.terminal_defect,
            "depths": list(report.depths),
            "defects": list(report.defects),
        },
    }
    io_utils.write_json(out / "check.json", payload, cfg.sha256)
    click.echo(json.dumps(io_utils.jsonable(payload), indent=2, sort_keys=True))


@main.command("verify")
@_CONFIG
@_WORKERS
def cmd_verify(config_path, workers) -> None:
    """Run the verification suite; exit 0 only if every criterion passes."""
    from .verify import run_all

    del workers  # every criterion fixes its own worker count
    try:
        cfg = load_config(config_path) if config_path else None
    except (ConfigError, CapExceededError, ValueError) as exc:
        _fail(str(exc))
    results = run_all(cfg)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        line = f"[{r.status:>4}] {r.index:>2}. {r.name:<{width}}  {r.elapsed:6.2f}s  {r.detail}"
        click.echo(line)
        if r.passed is False:
            failed += 1
    applicable = sum(1 for r in results if r.passed is not None)
    click.echo(
        f"{applicable - failed}/{applicable} applicable criteria passed"
        + (f", {len(results) - applicable} not applicable" if applicable < len(results) else "")
    )
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
