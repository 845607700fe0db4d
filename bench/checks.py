"""Output checks for benchmark runs.

Every check reads the files and stdout the timed runs produced and compares
them with a value computed along an independent route in this process.  A
check returns the reasons it failed; the runner charges each to the latest
timed run of the command whose output the check reads.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

from carpetmf.config import ExperimentConfig, load_config
from carpetmf.pressure import closed_form_T, closed_form_beta, log_total_mass

#: Absolute tolerance for values that must agree to rounding.
TOL = 1e-12

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float table of a provenance-stamped CSV (``#`` comments)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)


def _column(header: list[str], table: np.ndarray, name: str) -> np.ndarray:
    return table[:, header.index(name)]


def _value_columns(header: list[str]) -> list[str]:
    return [h for h in header if h.startswith("value_n")]


def counting_T0(cfg: ExperimentConfig) -> float:
    """``-log_r1 sum_a1 |fiber(a1)|^s``, straight from the allowed cells."""
    system = cfg.system
    fibers = np.bincount([a1 for a1, _ in system.allowed], minlength=system.r1)
    fibers = fibers[fibers > 0].astype(float)
    return -math.log(float(np.sum(fibers**system.s))) / math.log(system.r1)


def check_closed_form(cfg: ExperimentConfig, out: Path, stdout: dict) -> list[str]:
    """Depth-1 weight: every finite column and the extrapolation equal the
    closed forms of T and beta at every q."""
    failures = []
    closed = {"T": closed_form_T, "beta": closed_form_beta}
    for kind, fn in closed.items():
        header, table = read_csv(out / f"pressure_{kind}.csv")
        target = np.array([fn(cfg.weight, float(q)) for q in _column(header, table, "q")])
        for name in [*_value_columns(header), "extrapolated"]:
            worst = float(np.max(np.abs(_column(header, table, name) - target)))
            if not worst <= 1e-10 * max(1.0, float(np.max(np.abs(target)))):
                failures.append(f"{kind} {name} off closed form by {worst:.2e}")
    return failures


def check_counting_T0(cfg: ExperimentConfig, out: Path, stdout: dict) -> list[str]:
    """``T_n(0)`` equals the counting value at every scheduled depth."""
    header, table = read_csv(out / "pressure_T.csv")
    rows = table[_column(header, table, "q") == 0.0]
    if rows.shape[0] != 1:
        return ["q = 0 missing from pressure_T.csv"]
    target = counting_T0(cfg)
    failures = []
    for name in _value_columns(header):
        value = float(rows[0, header.index(name)])
        if not abs(value - target) <= TOL:
            failures.append(f"T {name} at q=0 is {value!r}, want {target!r}")
    return failures


def check_beta1_enumerate(cfg: ExperimentConfig, out: Path, stdout: dict) -> list[str]:
    """``beta_k(1)`` at the smallest depth equals the enumerated total mass."""
    header, table = read_csv(out / "pressure_beta.csv")
    rows = table[_column(header, table, "q") == 1.0]
    if rows.shape[0] != 1:
        return ["q = 1 missing from pressure_beta.csv"]
    k = min(int(h[len("value_n"):]) for h in _value_columns(header))
    lz = log_total_mass(cfg.weight, k, method="enumerate")
    target = -lz / (k * math.log(cfg.system.r1))
    value = float(rows[0, header.index(f"value_n{k}")])
    if not abs(value - target) <= 1e-10 * max(1.0, abs(target)):
        return [f"beta_{k}(1) is {value!r}, enumeration gives {target!r}"]
    return []


def check_samples(cfg: ExperimentConfig, out: Path, stdout: dict) -> list[str]:
    """``samples.csv`` holds ``nSamples`` rows, all finite."""
    _, table = read_csv(out / "samples.csv")
    if table.shape[0] != cfg.n_samples:
        return [f"{table.shape[0]} sample rows, want {cfg.n_samples}"]
    if not np.all(np.isfinite(table)):
        return ["non-finite value in samples.csv"]
    return []


_TOTAL_LOG_MASS = re.compile(r"total log mass (\S+)\)")


def check_render_mass(cfg: ExperimentConfig, out: Path, stdout: dict) -> list[str]:
    """A normalized weight renders with total log mass 0."""
    match = _TOTAL_LOG_MASS.search(stdout.get("render", ""))
    if match is None:
        return ["no total log mass in render output"]
    value = float(match.group(1))
    if not abs(value) <= 1e-9:
        return [f"total log mass {value!r} of a normalized weight"]
    return []


def check_verify(cfg: ExperimentConfig, out: Path, stdout: dict) -> list[str]:
    """``verify`` passes all ten reference criteria."""
    if "10/10 applicable criteria passed" not in stdout.get("verify", ""):
        return ["verify did not report 10/10"]
    return []


#: Check name -> (command whose output it reads, check).
CHECKS = {
    "closed_form": ("pressure", check_closed_form),
    "counting_T0": ("pressure", check_counting_T0),
    "beta1_enumerate": ("pressure", check_beta1_enumerate),
    "samples": ("sample", check_samples),
    "render_mass": ("render", check_render_mass),
    "verify": ("verify", check_verify),
}


def run_checks(names, config_path: Path, out: Path, stdout: dict) -> list[tuple[str, str]]:
    """Run the named checks on the workload config at ``config_path``;
    returns ``(command, reason)`` per failure.  A check that raises is
    itself a failure."""
    failures = []
    for name in names:
        command, check = CHECKS[name]
        try:
            reasons = check(load_config(config_path), out, stdout)
        except (OSError, ValueError, IndexError) as exc:
            reasons = [f"check {name} raised {type(exc).__name__}: {exc}"]
        failures += [(command, reason) for reason in reasons]
    return failures
