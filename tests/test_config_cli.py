"""Config validation, experiment construction, and the batch CLI."""

from __future__ import annotations

import copy
import importlib
import json
import math
import re
import shutil
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from click.testing import CliRunner

from carpetmf import (
    VARIANT_PSI_Q,
    SkewProductWeight,
    finite_beta,
    log_total_mass,
    make_auxiliary,
    make_constant_cell,
    sample_paths,
)
from carpetmf import pressure, verify
from carpetmf.cli import main
from carpetmf.config import (
    ConfigError,
    ExperimentConfig,
    config_sha256,
    load_config,
    load_raw,
    parse_config,
)
from carpetmf.reference import default_config, random_depth2_weight
from carpetmf.symbolic import CapExceededError

from oracles import birkhoff_averages_on_carpet, log_weight

SHA_HEX = re.compile(r"^[0-9a-f]{64}$")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def small_config(**overrides) -> dict:
    data = {
        "cellSystem": default_config()["cellSystem"],
        "weight": default_config()["weight"],
        "grids": {"qGrid": [0.0, 0.5, 1.0, 2.0], "depthSchedule": [2, 4]},
        "sampling": {"nSamples": 5, "depth": 4, "masterSeed": 7},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    data.update(copy.deepcopy(overrides))
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def data_lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


# -- parsing and hashing ------------------------------------------------------


def test_default_config_parses():
    cfg = parse_config(default_config())
    assert cfg.system.r1 == 2 and cfg.system.r2 == 4
    assert cfg.system.n_cells == 5
    assert cfg.depth_schedule == (4, 6, 8, 10, 12)
    assert 0.0 in cfg.q_grid and 1.0 in cfg.q_grid
    assert np.all(np.diff(cfg.q_grid) > 0)
    assert cfg.n_samples == 400
    assert SHA_HEX.match(cfg.sha256)


def test_q_grid_refinement():
    cfg = parse_config(small_config(grids={"qGrid": {"start": -1.0, "stop": 1.0, "count": 5, "refine": [0.0]}}))
    for offset in (0.03125, 0.0625, 0.125):
        assert offset in cfg.q_grid and -offset in cfg.q_grid


def test_sha_ignores_key_order():
    a = small_config()
    b = {k: a[k] for k in reversed(list(a))}
    assert parse_config(a).sha256 == parse_config(b).sha256
    assert config_sha256({"x": 1, "y": 2}) == config_sha256({"y": 2, "x": 1})


def test_sha_distinguishes_content():
    a = parse_config(small_config())
    b = parse_config(small_config(sampling={"nSamples": 6, "depth": 4, "masterSeed": 7}))
    assert a.sha256 != b.sha256


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(surprise=1), "surprise"),
        (lambda d: d["weight"].update(values=[0.2, 0.3, 0.1, 0.15]), "weight.values"),
        (lambda d: d["weight"].update(values=[0.2, 0.3, 0.1, 0.15, 0.0]), "weight"),
        (lambda d: d["cellSystem"].update(allowed=[[0, 0], [0, 9]]), "cellSystem"),
        (lambda d: d["grids"].update(depthSchedule=[4, 2]), "grids.depthSchedule"),
        (lambda d: d["weight"].update(matrices=[[1.0]]), "not used by kind"),
        # The sampling horizon is always g(depth); no key sets it.
        (lambda d: d["sampling"].update(horizon=8),
         "sampling: Additional properties are not allowed ('horizon' was unexpected)"),
    ],
)
def test_rejections_name_the_block(mutate, fragment):
    data = small_config()
    data["weight"] = dict(data["weight"])
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert fragment in str(err.value)


def test_truncated_table_keys_validated():
    weight = {
        "kind": "constantCell",
        "depth": 2,
        "values": [1.0] * 25,
        "truncated": {"x": [1.0] * 5},
    }
    with pytest.raises(ConfigError, match="non-integer length key"):
        parse_config(small_config(weight=weight))
    weight["truncated"] = {"2": [1.0] * 25}
    with pytest.raises(ConfigError, match="outside 1..1"):
        parse_config(small_config(weight=weight))
    weight["truncated"] = {"1": [1.0] * 4}
    with pytest.raises(ConfigError, match=r"truncated\[1\]"):
        parse_config(small_config(weight=weight))


def test_matrix_shape_validated():
    weight = {"kind": "matrixCocycle", "dimension": 2, "matrices": [[1.0, 1.0]] * 5}
    with pytest.raises(ConfigError, match="4 row-major entries"):
        parse_config(small_config(weight=weight))
    weight = {"kind": "matrixCocycle", "dimension": 1, "matrices": [[1.0]] * 4}
    with pytest.raises(ConfigError, match="one matrix per allowed cell"):
        parse_config(small_config(weight=weight))


def test_load_raw_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "a": ,\n}')
    with pytest.raises(ConfigError) as err:
        load_raw(bad)
    assert "line 2" in str(err.value)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level must be an object"):
        load_raw(array)


# -- weight construction -------------------------------------------------------


def test_build_constant_cell(ref_masses):
    cfg = parse_config(small_config())
    for cell, mass in ref_masses.items():
        assert log_weight(cfg.weight, [cell]) == pytest.approx(math.log(mass), abs=1e-12)


def test_build_matrix_cocycle_dimension_one(ref_masses):
    weight = {
        "kind": "matrixCocycle",
        "dimension": 1,
        "matrices": [[m] for m in (0.2, 0.3, 0.1, 0.15, 0.25)],
    }
    cfg = parse_config(small_config(weight=weight))
    w = [(0, 1), (1, 2), (1, 0)]
    want = sum(math.log(ref_masses[c]) for c in w)
    assert log_weight(cfg.weight, w) == pytest.approx(want, abs=1e-12)


def test_build_skew_product(ref_system):
    values = [0.2, 0.3, 0.1, 0.15, 0.25]
    weight = {
        "kind": "skewProduct",
        "rho": {"values": values},
        "theta1": {"kind": "uniform"},
    }
    cfg = parse_config(small_config(weight=weight))
    rho = make_constant_cell(ref_system, 1, np.log(values))
    want = SkewProductWeight(rho, -math.log(2))
    w = [(0, 1), (1, 2)]
    assert log_weight(cfg.weight, w) == pytest.approx(log_weight(want, w), abs=1e-12)
    # explicit uniform letter table gives the same weight
    letters = dict(weight, theta1={"kind": "letters", "values": [0.5, 0.5]})
    cfg2 = parse_config(small_config(weight=letters))
    assert log_weight(cfg2.weight, w) == pytest.approx(log_weight(want, w), abs=1e-12)


#: A JSON number too large for a float: it parses to inf.
HUGE = json.loads("1e400")
SKEW_RHO = {"values": [0.2, 0.3, 0.1, 0.15, 0.25]}


@pytest.mark.parametrize(
    "weight, message",
    [
        (
            {"kind": "matrixCocycle", "dimension": 1, "matrices": [[HUGE]] + [[1.0]] * 4},
            "weight: cocycle matrices must be finite and strictly positive",
        ),
        (
            {"kind": "skewProduct", "rho": SKEW_RHO,
             "theta1": {"kind": "letters", "values": [HUGE, 1.0]}},
            "weight.theta1: column letter table must be finite",
        ),
        (
            {"kind": "skewProduct", "rho": {"values": [HUGE, 0.3, 0.1, 0.15, 0.25]},
             "theta1": {"kind": "uniform"}},
            "weight.rho: window table must be finite on every admissible window",
        ),
    ],
    ids=["matrixCocycle", "theta1.letters", "rho.values"],
)
def test_non_finite_tables_rejected(weight, message):
    with pytest.raises(ConfigError) as err:
        parse_config(small_config(weight=weight))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "theta1, stray",
    [
        ({"kind": "uniform", "values": [0.5, 0.5], "q": -3}, ["q", "values"]),
        ({"kind": "letters", "values": [0.5, 0.5], "q": 2}, ["q"]),
        ({"kind": "rowSum", "values": [0.5, 0.5]}, ["values"]),
    ],
    ids=["uniform", "letters", "rowSum"],
)
def test_theta1_rejects_unused_keys(theta1, stray):
    weight = {"kind": "skewProduct", "rho": SKEW_RHO, "theta1": theta1}
    with pytest.raises(ConfigError) as err:
        parse_config(small_config(weight=weight))
    kind = theta1["kind"]
    assert str(err.value) == f"weight.theta1: key(s) {stray} are not used by kind {kind!r}"


def test_build_normalized_weight():
    weight = {
        "kind": "constantCell",
        "depth": 1,
        "values": [2.0, 3.0, 1.0, 1.5, 2.5],
        "normalize": True,
    }
    cfg = parse_config(small_config(weight=weight))
    assert abs(finite_beta(cfg.weight, 1.0, 4)) <= 1e-9


# -- CLI -----------------------------------------------------------------------------


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_cli_version():
    result = invoke("--version")
    assert result.exit_code == 0
    assert "carpetmf, version 0.1.0" in result.output


def test_cli_pressure(tmp_path):
    cfgfile = write_config(tmp_path, small_config())
    result = invoke("pressure", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    residual = float(result.output.split("beta(1) residual = ")[1].splitlines()[0])
    assert abs(residual) <= 1e-9
    assert "support dimension" in result.output
    for stem in ("pressure_T", "pressure_beta"):
        csv = tmp_path / "out" / f"{stem}.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "# carpetmf 0.1.0"
        assert lines[1].startswith("# config ") and SHA_HEX.match(lines[1].split()[-1])
        body = data_lines(csv)
        assert body[0] == "q,value_n2,value_n4,extrapolated,error"
        assert len(body) == 1 + 4
        payload = json.loads((tmp_path / "out" / f"{stem}.json").read_text())
        assert payload["meta"]["tool"] == "carpetmf"
        assert payload["meta"]["version"] == "0.1.0"
        assert SHA_HEX.match(payload["meta"]["configSha256"])


def test_cli_pressure_depth_max(tmp_path):
    result = invoke("pressure", "--depth-max", "6", "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    body = data_lines(tmp_path / "out" / "pressure_T.csv")
    assert body[0] == "q,value_n4,value_n6,extrapolated,error"


def test_cli_pressure_depth_max_keeps_two_depths(tmp_path):
    # Clipping the default schedule (4, 6, ...) at 5 leaves one depth; the
    # clip falls back to the deepest feasible pair.
    result = invoke("pressure", "--depth-max", "5", "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    body = data_lines(tmp_path / "out" / "pressure_T.csv")
    assert body[0] == "q,value_n4,value_n5,extrapolated,error"


def test_cli_pressure_cocycle_default_schedule(tmp_path):
    rng = np.random.default_rng(11)
    data = default_config()
    data["weight"] = {
        "kind": "matrixCocycle",
        "dimension": 2,
        "matrices": rng.uniform(0.05, 1.0, (5, 4)).tolist(),
    }
    data["grids"]["qGrid"] = [1.0, 2.0, 3.0]
    cfgfile = write_config(tmp_path, data)
    result = invoke("pressure", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    body = data_lines(tmp_path / "out" / "pressure_beta.csv")
    assert body[0].split(",")[1:6] == [f"value_n{n}" for n in (4, 6, 8, 10, 12)]
    cfg = load_config(cfgfile)
    beta4 = float(next(ln for ln in body[1:] if float(ln.split(",")[0]) == 1.0).split(",")[1])
    want = -log_total_mass(cfg.weight, 4, method="enumerate") / (4 * math.log(2))
    assert beta4 == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "command", ["pressure", "spectrum", "sample", "render", "boxcount", "check", "verify"]
)
def test_cli_rejects_malformed_config(tmp_path, command):
    cfgfile = write_config(tmp_path, small_config(surprise=1))
    out = () if command == "verify" else ("--out", str(tmp_path / "out"))
    result = invoke(command, "--config", str(cfgfile), *out)
    assert result.exit_code == 1
    assert "error:" in result.stderr and "surprise" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", [("--out", "x"), ("--seed", "1"), ("--depth-max", "2")])
def test_cli_verify_takes_only_config_and_workers(option):
    result = invoke("verify", *option)
    assert result.exit_code == 2
    assert f"No such option '{option[0]}'" in result.stderr


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("pressure", {"grids": {"qGrid": [0.0, 1.0, NAN, 2.0]}}, "grids.qGrid.2: nan"),
        ("pressure", {"grids": {"qGrid": [0.0, INF]}}, "grids.qGrid.1: inf"),
        ("pressure", {"grids": {"qGrid": {"start": NAN, "stop": 1, "count": 3}}},
         "grids.qGrid.start: nan"),
        ("pressure", {"grids": {"qGrid": {"start": 0, "stop": -INF, "count": 3}}},
         "grids.qGrid.stop: -inf"),
        ("pressure", {"grids": {"qGrid": {"start": 0, "stop": 1, "count": 3, "refine": [INF]}}},
         "grids.qGrid.refine.0: inf"),
        ("sample", {"sampling": {"nSamples": 5, "depth": 4, "q": NAN}}, "sampling.q: nan"),
        ("pressure", {"weight": {"kind": "skewProduct", "rho": SKEW_RHO,
                                 "theta1": {"kind": "rowSum", "q": INF}}},
         "weight.theta1.q: inf"),
    ],
    ids=["qGrid-nan", "qGrid-inf", "start", "stop", "refine", "sampling.q", "theta1.q"],
)
def test_cli_rejects_non_finite_q(tmp_path, command, overrides, message):
    # JSON readers accept NaN and Infinity; validation names the key.
    cfgfile = write_config(tmp_path, small_config(**overrides))
    result = invoke(command, "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert result.stderr == f"error: {message} is not a finite number\n"


def test_cli_workers_deterministic(tmp_path):
    cfgfile = write_config(tmp_path, small_config())
    invoke("pressure", "--config", str(cfgfile), "--out", str(tmp_path / "a"), "--workers", "1")
    invoke("pressure", "--config", str(cfgfile), "--out", str(tmp_path / "b"), "--workers", "4")
    for stem in ("pressure_T", "pressure_beta"):
        a = (tmp_path / "a" / f"{stem}.csv").read_bytes()
        b = (tmp_path / "b" / f"{stem}.csv").read_bytes()
        # only the config hash differs (output.directory is hashed); the
        # numeric payload must match byte for byte
        assert data_lines(tmp_path / "a" / f"{stem}.csv") == data_lines(
            tmp_path / "b" / f"{stem}.csv"
        )
        assert len(a) == len(b)


def test_cli_spectrum(tmp_path):
    cfgfile = write_config(tmp_path, small_config())
    result = invoke("spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    for stem in ("spectrum_birkhoff", "spectrum_gibbs", "spectrum_carpet"):
        assert (tmp_path / "out" / f"{stem}.csv").exists()
        assert (tmp_path / "out" / f"{stem}.json").exists()
    assert (tmp_path / "out" / "spectrum.gp").exists()
    body = data_lines(tmp_path / "out" / "spectrum_gibbs.csv")
    assert body[0] == "q,alpha,dimension,flag"
    rows = {float(ln.split(",")[0]): ln.split(",") for ln in body[1:]}
    q1 = rows[1.0]
    # beta(1) = 0 puts the Gibbs spectrum on the diagonal at q = 1
    assert abs(float(q1[2]) - float(q1[1])) <= 1e-6
    carpet_body = data_lines(tmp_path / "out" / "spectrum_carpet.csv")
    assert carpet_body[0] == "q,beta,dimension,flag"


def test_cli_spectrum_json_only(tmp_path):
    # The plot script reads the spectrum CSVs, so it goes out only with them.
    json_only = small_config(output={"directory": "out", "formats": ["json"]})
    cfgfile = write_config(tmp_path, json_only)
    result = invoke("spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "spectrum_birkhoff.json",
        "spectrum_carpet.json",
        "spectrum_gibbs.json",
    ]
    assert "plot script" not in result.output


def test_cli_sample(tmp_path):
    cfgfile = write_config(tmp_path, small_config())
    result = invoke("sample", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    body = data_lines(tmp_path / "out" / "samples.csv")
    assert body[0] == "sampleIndex,birkhoffAverage,localDimension"
    assert len(body) == 1 + 5
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["nSamples"] == 5 and summary["depth"] == 4
    assert "meanLocalDimension" in summary and "stderrLocalDimension" in summary


def test_cli_sample_workers_deterministic(tmp_path):
    # 1,100 samples split into two chunks; both runs write to the same --out
    # string, which is part of the stamped config hash.
    cfgfile = write_config(
        tmp_path, small_config(sampling={"nSamples": 1100, "depth": 4, "masterSeed": 7})
    )
    out = tmp_path / "out"
    outputs = []
    for workers in ("1", "3"):
        shutil.rmtree(out, ignore_errors=True)
        result = invoke(
            "sample", "--config", str(cfgfile), "--out", str(out), "--workers", workers
        )
        assert result.exit_code == 0, result.output
        outputs.append(
            {name: (out / name).read_bytes() for name in ("samples.csv", "summary.json")}
        )
    assert len(data_lines(out / "samples.csv")) == 1 + 1100
    assert outputs[0]["samples.csv"] == outputs[1]["samples.csv"]
    assert outputs[0]["summary.json"] == outputs[1]["summary.json"]


def _depth2_tilts() -> dict[str, dict]:
    """The window-d2 weight, ``random_depth2_weight(1)``, a skew product
    over it and a dim-2 cocycle on the reference system, as config weights."""
    window = np.exp(random_depth2_weight(1).window_log).ravel()
    matrices = np.random.default_rng(1).uniform(0.05, 1.0, (5, 4))
    return {
        "window": {"kind": "constantCell", "depth": 2, "values": window.tolist()},
        "skew": {
            "kind": "skewProduct",
            "rho": {"depth": 2, "values": window.tolist()},
            "theta1": {"kind": "uniform"},
        },
        "cocycle": {"kind": "matrixCocycle", "dimension": 2, "matrices": matrices.tolist()},
    }


def test_cli_sample_window_tilt_past_the_enumeration_cap(tmp_path):
    # psiQ tilts at sampling depth 6, horizon g(6) = 12: the tilt of a
    # window, or of a skew product over it, draws from its 2**12 column
    # words, on any worker count; a cocycle's would enumerate 5**12 words
    # and is refused.  Every run of a weight writes to the same --out
    # string, which is part of the stamped config hash.
    sampling = {"nSamples": 40, "depth": 6, "masterSeed": 7, "q": 2.0, "variant": "psiQ"}
    out = tmp_path / "out"
    outputs = []
    for kind, weight in _depth2_tilts().items():
        cfgfile = write_config(tmp_path, small_config(weight=weight, sampling=sampling), kind)
        for workers in ("1",) if kind == "cocycle" else ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            result = invoke(
                "sample", "--config", str(cfgfile), "--out", str(out), "--workers", workers
            )
            if kind == "cocycle":
                assert result.exit_code == 1
                assert result.stderr.strip() == (
                    "error: sampling this weight needs 244140625 extension evaluations, "
                    "over the enumeration cap 16777216"
                )
                continue
            assert result.exit_code == 0, result.output
            outputs.append([(out / name).read_bytes() for name in ("samples.csv", "summary.json")])
    assert len(outputs) == 4 and outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert outputs[0] != outputs[2]
    assert all(len(samples.decode().splitlines()) == 3 + 40 for samples, _ in outputs)


@pytest.mark.parametrize("kind", ["window", "skew1", "cocycle"])
def test_cli_sample_birkhoff_average_of_a_window(tmp_path, kind):
    # The Birkhoff average of a weight of dependence depth k is the sum over
    # the depth - k + 1 windows of the first depth cells over their count:
    # the CSV column is birkhoff_averages_on_carpet of the same paths, byte
    # for byte, for a depth-2 window and a depth-1 skew product alike.  With
    # fewer cells than one window, or no finite window (a dim-2 cocycle), it
    # is NaN.
    letters = {"kind": "letters", "values": [0.7, 0.3]}
    skew1 = {"kind": "skewProduct", "rho": SKEW_RHO, "theta1": letters}
    weight = dict(_depth2_tilts(), skew1=skew1)[kind]
    for depth in (3, 1):
        sampling = {"nSamples": 9, "depth": depth, "masterSeed": 7, "q": 2.0, "variant": "psiQ"}
        cfgfile = write_config(tmp_path, small_config(weight=weight, sampling=sampling))
        out = tmp_path / f"out{depth}"
        result = invoke("sample", "--config", str(cfgfile), "--out", str(out))
        assert result.exit_code == 0, result.output
        column = np.array([float(ln.split(",")[1]) for ln in data_lines(out / "samples.csv")[1:]])
        psi = load_config(cfgfile).weight
        k = {"window": 2, "skew1": 1, "cocycle": None}[kind]
        assert psi.dependence_depth == k
        if k is None or depth < k:
            assert np.all(np.isnan(column))
            continue
        assert np.all(np.isfinite(column))
        summary = json.loads((out / "summary.json").read_text())
        aux = make_auxiliary(psi, 2.0, summary["levelConstant"], VARIANT_PSI_Q)
        paths = sample_paths(aux, summary["horizon"], 7, 0, 9)[:, :depth]
        assert column.tobytes() == birkhoff_averages_on_carpet(psi, paths).tobytes()


@pytest.mark.parametrize("variant, kind", [("psiQ", "beta"), ("psiTildeQ", "T")])
def test_cli_sample_level_is_the_extrapolated_pressure(tmp_path, variant, kind):
    # The tilt's level is the pressure curve of its kind over the last three
    # depths of the schedule, read at the sampling q, bit for bit; it is
    # also the two-point extrapolation of the finite pressures there.
    q, depths = 0.37, (2, 3, 4, 5)
    sampling = {"nSamples": 4, "depth": 3, "masterSeed": 7, "q": q, "variant": variant}
    data = small_config(
        weight=_depth2_tilts()["window"],
        grids={"qGrid": [0.0, 1.0], "depthSchedule": list(depths)},
        sampling=sampling,
    )
    cfgfile = write_config(tmp_path, data)
    result = invoke("sample", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    level = json.loads((tmp_path / "out" / "summary.json").read_text())["levelConstant"]
    psi = load_config(cfgfile).weight
    curve = pressure.pressure_curves(psi, [q], depths[-3:], (kind,))[kind]
    finite = {"T": pressure.finite_T, "beta": pressure.finite_beta}[kind]
    by_depth = {n: finite(psi, q, n) for n in depths[-3:]}
    assert level == curve.value_at(q) == pressure.extrapolate_pressure(by_depth).value


def test_cli_sample_level_skips_a_depth_over_the_cap(tmp_path):
    # Depth 25 has 2**25 column words, over the enumeration cap: pressure
    # drops it, and sample tilts at the level pressure reports.
    data = small_config(
        grids={"qGrid": [0.0, 1.0, 2.0], "depthSchedule": [4, 6, 25]},
        sampling={"nSamples": 5, "depth": 4, "masterSeed": 7, "q": 2.0, "variant": "psiQ"},
    )
    cfgfile = write_config(tmp_path, data)
    out = tmp_path / "out"
    for command in ("pressure", "sample"):
        result = invoke(command, "--config", str(cfgfile), "--out", str(out))
        assert result.exit_code == 0, result.output
    curve = json.loads((out / "pressure_beta.json").read_text())
    assert sorted(curve["finiteValues"]) == ["4", "6"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["levelConstant"] == curve["extrapolated"][curve["qGrid"].index(2.0)]


def test_cli_sample_empty(tmp_path):
    cfgfile = write_config(
        tmp_path, small_config(sampling={"nSamples": 0, "depth": 4, "masterSeed": 7})
    )
    result = invoke("sample", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    body = data_lines(tmp_path / "out" / "samples.csv")
    assert body == ["sampleIndex,birkhoffAverage,localDimension"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "meanLocalDimension" not in summary


def test_cli_sample_seed_changes_output(tmp_path):
    cfgfile = write_config(tmp_path, small_config())
    invoke("sample", "--config", str(cfgfile), "--out", str(tmp_path / "a"), "--seed", "1")
    invoke("sample", "--config", str(cfgfile), "--out", str(tmp_path / "b"), "--seed", "2")
    invoke("sample", "--config", str(cfgfile), "--out", str(tmp_path / "c"), "--seed", "1")
    a = data_lines(tmp_path / "a" / "samples.csv")
    b = data_lines(tmp_path / "b" / "samples.csv")
    c = data_lines(tmp_path / "c" / "samples.csv")
    assert a != b
    assert a == c


def test_cli_render_and_boxcount(tmp_path):
    cfgfile = write_config(tmp_path, small_config())
    result = invoke(
        "render", "--config", str(cfgfile), "--out", str(tmp_path / "out"), "--depth", "2"
    )
    assert result.exit_code == 0, result.output
    assert "not normalized" not in result.output  # the reference is a probability
    pgm = (tmp_path / "out" / "render_n2.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")
    assert b"16 16\n65535\n" in pgm
    csv = data_lines(tmp_path / "out" / "render_n2.csv")
    assert csv[0] == "columnIndex,rowIndex,logMass"
    # 5^2 admissible squares, each extended by 2^(g-n) = 4 column suffixes
    assert len(csv) == 1 + 5**2 * 4

    result = invoke(
        "boxcount", "--config", str(cfgfile), "--out", str(tmp_path / "out"), "--depth", "2"
    )
    assert result.exit_code == 0, result.output
    body = data_lines(tmp_path / "out" / "boxcount_n2.csv")
    assert body[0] == "q,tau"
    taus = {float(ln.split(",")[0]): float(ln.split(",")[1]) for ln in body[1:]}
    assert abs(taus[1.0]) <= 1e-12


def test_cli_boxcount_past_the_render_cap(tmp_path):
    # The reference grid at depth 8 would hold 2**16 x 4**8 cells, past the
    # render cap; boxcount sums the moments without rendering it.
    result = invoke("boxcount", "--out", str(tmp_path / "out"), "--depth", "8")
    assert result.exit_code == 0, result.output
    body = data_lines(tmp_path / "out" / "boxcount_n8.csv")
    taus = {float(ln.split(",")[0]): float(ln.split(",")[1]) for ln in body[1:]}
    assert abs(taus[1.0]) <= 1e-12
    # tau(0) counts the charged balls: 5^8 squares times 2^8 column suffixes.
    assert taus[0.0] == pytest.approx(-math.log(5**8 * 2**8) / (8 * math.log(4)), abs=1e-12)


def test_cli_render_notes_unnormalized_weight(tmp_path):
    data = small_config(weight={"kind": "constantCell", "depth": 1, "values": [1.0] * 5})
    cfgfile = write_config(tmp_path, data)
    outputs = []
    for normalize in (False, True):
        data["weight"]["normalize"] = normalize
        cfgfile = write_config(tmp_path, data)
        result = invoke(
            "render", "--config", str(cfgfile), "--out", str(tmp_path / "out"), "--depth", "2"
        )
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    # The counting weight has total mass 5**g(2); normalized, it has mass 1.
    assert "note: the rendered measure is not normalized" in outputs[0]
    assert "not normalized" not in outputs[1]
    assert "note" not in (tmp_path / "out" / "render_n2.csv").read_text()


def test_cli_check_custom_system(tmp_path):
    data = small_config(
        cellSystem={"r1": 3, "r2": 3, "allowed": [[0, 0], [1, 1]]},
        weight={"kind": "constantCell", "depth": 1, "values": [1.0, 1.0]},
    )
    cfgfile = write_config(tmp_path, data)
    result = invoke("check", "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "check.json").read_text())
    assert payload["P1"] is False  # rows 0 and 1 are adjacent
    assert payload["P2"] is True  # top boundary row 2 is unoccupied
    assert payload["P3"]["subsetHolds"] is False
    assert payload["P3"]["verdict"] == "indeterminate"
    assert payload["meta"]["tool"] == "carpetmf"


def test_cli_check_reference(tmp_path):
    result = invoke("check", "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "check.json").read_text())
    assert payload["P1"] is False and payload["P2"] is False
    assert payload["P3"]["subsetHolds"] is True
    assert payload["P3"]["verdict"] == "indeterminate"
    assert payload["P3"]["terminalDefect"] == pytest.approx(0.31365755885504143, abs=1e-12)


def test_cli_verify_scoped_config(tmp_path):
    data = small_config(
        cellSystem={"r1": 3, "r2": 3, "allowed": [[0, 0], [1, 1], [2, 2]]},
        weight={"kind": "constantCell", "depth": 1, "values": [0.5, 0.3, 0.2]},
        grids={"qGrid": [0.0, 1.0], "depthSchedule": [2, 3, 4]},
    )
    cfgfile = write_config(tmp_path, data)
    result = invoke("verify", "--config", str(cfgfile))
    assert result.exit_code == 0, result.output
    assert "not applicable" in result.output


def test_load_config_round_trip(tmp_path):
    cfgfile = write_config(tmp_path, small_config())
    cfg = load_config(cfgfile)
    assert cfg.sha256 == parse_config(small_config()).sha256


def test_cli_verify_fails_on_a_numpy_bool_verdict(monkeypatch):
    # A criterion that computes its verdict as a numpy bool must still count
    # as failed and make the command exit 1.
    forced = ((1, "forced", 1.0, lambda: (np.float64(1.0) <= 0.5, "forced")),)
    monkeypatch.setattr(verify, "CRITERIA", forced)
    result = invoke("verify")
    assert "[FAIL]" in result.output
    assert "0/1 applicable criteria passed" in result.output
    assert result.exit_code == 1


@pytest.fixture
def bench_config(monkeypatch) -> Callable[[str], ExperimentConfig]:
    """The seed-1 config of a benchmark workload, as ``bench/workloads.py``
    builds it."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    return lambda name: parse_config(workloads.build(name, 1).config)


@pytest.mark.parametrize("name", ["window-d2", "cocycle-d2"])
def test_verify_config_passes_on_bench_weights(name, bench_config):
    # Criterion 3 normalizes the configured weight before it tests the
    # residual, so a raw weight passes it.
    results = verify.run_all(bench_config(name))
    applicable = {r.index: r for r in results if r.passed is not None}
    assert sorted(applicable) == [3, 5]
    assert all(r.passed for r in applicable.values()), [r.detail for r in applicable.values()]


@pytest.mark.parametrize("name", ["window-d2", "cocycle-d2"])
def test_verify_config_criterion_5_catches_a_wrong_pass(name, monkeypatch, bench_config):
    cfg = bench_config(name)
    real = pressure.column_log_sums

    def shifted(*args, **kwargs):
        return {kind: logs + 1e-9 for kind, logs in real(*args, **kwargs).items()}

    monkeypatch.setattr(pressure, "column_log_sums", shifted)
    criterion_5 = next(r for r in verify.run_all(cfg) if r.index == 5)
    assert criterion_5.passed is False, criterion_5.detail


def test_cli_verify_config_enumerates_at_the_depths_that_fit(tmp_path):
    # 3x40 cells: enumerating every row fits the enumeration cap at depth 3
    # and not at depth 5.
    allowed = [[a, b] for a in range(3) for b in range(40) if (a + b) % 2 == 0]
    rng = np.random.default_rng(1)
    data = small_config(
        cellSystem={"r1": 3, "r2": 40, "allowed": allowed},
        weight={
            "kind": "matrixCocycle",
            "dimension": 2,
            "matrices": rng.uniform(0.05, 1.0, (len(allowed), 4)).tolist(),
        },
        grids={"qGrid": [1.0, 2.0], "depthSchedule": [4, 5, 6]},
    )
    cfgfile = write_config(tmp_path, data)
    result = invoke("verify", "--config", str(cfgfile))
    rows = [ln for ln in result.output.splitlines() if re.match(r"\[( n/a|pass|FAIL)\]", ln)]
    assert len(rows) == len(verify.CRITERIA)
    assert "at depths [3]" in rows[4] and "depth 5: row enumeration" in rows[4]
    assert result.exit_code == 0, result.output


#: 5x10 cells, two per column: a depth-4 window has 10**4 values, and its
#: 5**4 x 10**4 transfer table is over its budget.
SPARSE_5X10 = {"r1": 5, "r2": 10, "allowed": [[a, b] for a in range(5) for b in (a, a + 5)]}


def test_cli_verify_config_reports_a_refused_size(tmp_path):
    # Without the window's transfer table every q enumerates rows: the
    # pressure passes refuse depth 4, and no depth past the window fits.
    data = small_config(
        cellSystem=SPARSE_5X10,
        weight={"kind": "constantCell", "depth": 4, "values": [1.0] * 10**4},
        grids={"qGrid": [0.0, 1.0, 2.0], "depthSchedule": [4, 5, 6]},
    )
    cfgfile = write_config(tmp_path, data)
    result = invoke("verify", "--config", str(cfgfile))
    assert result.exit_code == 0, result.output
    rows = result.output.splitlines()
    assert rows[2].startswith("[ n/a]  3. ") and "depth 4: row enumeration for q = 1" in rows[2]
    assert rows[4].startswith("[ n/a]  5. ") and "over the window depth 4" in rows[4]


def test_verify_config_criterion_5_needs_a_depth_past_the_window():
    # A depth-3 window over 5x10 cells: only depth 3 fits the enumeration
    # cap, where a word is one window and the transfer route one step.
    data = small_config(
        cellSystem=SPARSE_5X10,
        weight={"kind": "constantCell", "depth": 3, "values": [1.0] * 10**3},
        grids={"qGrid": [0.0, 1.0, 2.0], "depthSchedule": [4, 5, 6]},
    )
    criterion_5 = next(r for r in verify.run_all(parse_config(data)) if r.index == 5)
    assert criterion_5.passed is None
    assert "needs a depth over the window depth 3" in criterion_5.detail
    assert "depth 5: row enumeration builds" in criterion_5.detail


def test_verify_runner_reports_a_raising_body(monkeypatch):
    # A crash fails a criterion and names the cause; a configured weight's
    # refusal of its size is not applicable.
    def refuse(*args):
        raise CapExceededError("too big")

    def crash(*args):
        raise ZeroDivisionError("oops")

    monkeypatch.setattr(verify, "CRITERIA", ((1, "refuse", 1.0, refuse), (2, "crash", 1.0, crash)))
    monkeypatch.setattr(verify, "CONFIG_BODIES", {1: refuse, 2: crash})
    assert [r.passed for r in verify.run_all()] == [False, False]
    configured = verify.run_all(parse_config(small_config()))
    assert [(r.passed, r.detail) for r in configured] == [
        (None, "raised CapExceededError: too big"),
        (False, "raised ZeroDivisionError: oops"),
    ]


@pytest.mark.parametrize("command", ["pressure", "verify"])
def test_cli_reports_a_weight_it_cannot_normalize(tmp_path, command):
    # normalize: true computes the pressure while the config loads.  The rho
    # window's transfer table is over its budget, so the pass would enumerate
    # rho's rows, and its preflight refuses that at the first depth.
    data = small_config(
        cellSystem=SPARSE_5X10,
        weight={
            "kind": "skewProduct",
            "normalize": True,
            "rho": {"depth": 4, "values": [1.0] * 10**4},
            "theta1": {"kind": "rowSum", "q": 2.0},
        },
        grids={"qGrid": [0.0, 1.0], "depthSchedule": [4, 5]},
    )
    cfgfile = write_config(tmp_path, data)
    out = () if command == "verify" else ("--out", str(tmp_path / "out"))
    result = invoke(command, "--config", str(cfgfile), *out)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: depth 4: row enumeration for q = 1 builds 25000000")
    # ... and says that the window's table is why q = 1 enumerates.
    assert result.stderr.rstrip().endswith(
        "; rows are enumerated because the window transfer table of 5**4 x 10**4 = 6250000 "
        "floats is over MAX_TRANSFER_TABLE 4194304"
    )
