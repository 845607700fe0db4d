"""Seeded workload configs for the carpetmf benchmark.

Each workload is one JSON experiment config plus the CLI commands run on it;
why each was chosen is recorded in ``BENCHMARK.json``.  The config is built
from the workload seed alone; the program under test only ever sees the JSON
file the benchmark writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from carpetmf.reference import default_config, random_depth2_weight

#: Output directory string passed as ``--out`` on every run.  It is part of
#: the config hash stamped into every CSV, so it must never vary between the
#: runs whose outputs are compared.
OUT = "out"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    #: CLI argument lists, one per command, in run order (without the
    #: common ``--config/--out/--workers`` options).
    commands: tuple[tuple[str, ...], ...]
    #: Output checks (see checks.py) run on the timed runs' outputs.
    checks: tuple[str, ...]


#: Commands that take no ``--config``: ``verify`` runs the built-in
#: reference suite, which is what its 10/10 check is about.
CONFIG_FREE = frozenset({"verify"})


def _ref_d1(seed: int, smoke: bool) -> Workload:
    config = default_config()
    config["sampling"]["masterSeed"] = seed
    depth = 3 if smoke else 5
    if smoke:
        config["grids"] = {"qGrid": [-1.0, 0.0, 1.0, 2.0], "depthSchedule": [2, 3, 4]}
        config["sampling"].update(nSamples=8, depth=4)
    return Workload(
        name="ref-d1",
        config=config,
        commands=(
            ("pressure",),
            ("spectrum",),
            ("sample",),
            ("render", "--depth", str(depth)),
            ("boxcount", "--depth", str(depth)),
            ("check",),
            ("verify",),
        ),
        checks=("closed_form", "counting_T0", "render_mass", "verify", "samples"),
    )


def _window_d2(seed: int, smoke: bool) -> Workload:
    config = default_config()
    window = random_depth2_weight(seed).window_log
    config["weight"] = {
        "kind": "constantCell",
        "depth": 2,
        "values": [float(v) for v in np.exp(window).ravel()],
    }
    config["grids"] = {
        "qGrid": [-2.0, 0.0, 1.0, 2.0, 4.0],
        "depthSchedule": [4, 5, 6] if smoke else [8, 10, 12, 14],
    }
    config["sampling"].update(nSamples=4 if smoke else 16, depth=2 if smoke else 3)
    config["sampling"]["masterSeed"] = seed
    return Workload(
        name="window-d2",
        config=config,
        commands=(("pressure",), ("sample",), ("render",), ("boxcount",), ("check",)),
        checks=("counting_T0", "beta1_enumerate", "samples"),
    )


def _cocycle_d2(seed: int, smoke: bool) -> Workload:
    config = default_config()
    rng = np.random.default_rng(seed)
    n_cells = len(config["cellSystem"]["allowed"])
    config["weight"] = {
        "kind": "matrixCocycle",
        "dimension": 2,
        "matrices": [[float(v) for v in rng.uniform(0.05, 1.0, 4)] for _ in range(n_cells)],
    }
    config["grids"] = {
        "qGrid": [1.0, 2.0],
        "depthSchedule": [2, 3, 4] if smoke else [4, 5, 6, 7],
    }
    config["sampling"]["masterSeed"] = seed
    return Workload(
        name="cocycle-d2",
        config=config,
        commands=(("pressure",), ("render",), ("check",)),
        checks=("beta1_enumerate",),
    )


BUILDERS = {"ref-d1": _ref_d1, "window-d2": _window_d2, "cocycle-d2": _cocycle_d2}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` generated from ``seed`` (tiny sizes if ``smoke``)."""
    workload = BUILDERS[name](int(seed), smoke)
    workload.config.setdefault("output", {})["directory"] = OUT
    return workload
