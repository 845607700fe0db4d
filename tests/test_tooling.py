"""The benchmark harness under ``bench/`` reaches into ``carpetmf`` by name.

``bench/tracer.py`` wraps module functions and weight methods listed in its
``FUNCTIONS`` and ``METHODS`` tables, its recorders read arguments by
position, and the other bench modules import package names directly.  These
tests read those files without running them and check that every name and
argument position still resolves, so a refactor of the package cannot
silently break ``bench/run.py --trace 1``.

The start-up tests check, in fresh interpreters, which modules loading a
config and running ``pressure``, ``sample`` or ``verify`` import (none loads
OpenSSL, and neither ``sample`` nor ``verify`` loads ``numpy.random``), and
that the lazy package namespace still resolves every public name.  Source
checks keep worker pools in ``numerics``, every ``verify`` result on the
one guarded runner, the Birkhoff averages of sampled paths on one rule, and
one row-sum entry per weight layer.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from carpetmf.pressure import log_total_mass
from carpetmf.reference import reference_weight
from carpetmf.weights import CylinderWeight, row_sum_log_any

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src"


def _tracer() -> ast.Module:
    return ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))


def _table(name: str) -> list[tuple]:
    """The literal tuple assigned to ``name`` in ``bench/tracer.py``, with
    the recorder callables (plain names) read as their names."""
    for node in _tracer().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return [
                tuple(e.value if isinstance(e, ast.Constant) else e.id for e in row.elts)
                for row in node.value.elts
            ]
    raise AssertionError(f"bench/tracer.py has no {name} table")


def _recorder_reads() -> dict[str, list[tuple[int, str]]]:
    """``recorder -> [(index, name)]`` of each ``_arg(args, kwargs, index,
    name)`` call in ``bench/tracer.py``'s recorders."""
    reads = {}
    for node in _tracer().body:
        if isinstance(node, ast.FunctionDef):
            calls = [
                call
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
            ]
            if calls:
                reads[node.name] = [(c.args[2].value, c.args[3].value) for c in calls]
    return reads


def _package_imports() -> list[tuple[str, str, str]]:
    """``(bench file, module, name)`` of every ``from carpetmf... import``."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("carpetmf"):
                out += [(path.name, node.module, alias.name) for alias in node.names]
    return out


def test_tracer_functions_resolve():
    rows = _table("FUNCTIONS")
    assert rows
    for module, attr, span, _ in rows:
        target = getattr(importlib.import_module(f"carpetmf.{module}"), attr, None)
        assert callable(target), f"tracer span {span}: carpetmf.{module}.{attr} is gone"


def test_tracer_methods_resolve():
    rows = _table("METHODS")
    assert rows
    for method, span, _ in rows:
        assert callable(getattr(CylinderWeight, method, None)), f"tracer span {span}"


def test_tracer_argument_positions():
    # A recorder reads an argument at the same position whether it was
    # passed by position or by keyword; a shifted parameter would corrupt
    # the traced counts without an error.
    from carpetmf import gibbs, weights

    reads = _recorder_reads()
    targets = [
        (f"{module}.{attr}", getattr(importlib.import_module(f"carpetmf.{module}"), attr), record)
        for module, attr, _, record in _table("FUNCTIONS")
    ]
    for method, _, record in _table("METHODS"):
        for module in (weights, gibbs):
            for cls in vars(module).values():
                if isinstance(cls, type) and method in vars(cls):
                    targets.append((f"{cls.__name__}.{method}", vars(cls)[method], record))
    used = set()
    for label, target, record in targets:
        params = list(inspect.signature(target).parameters)
        for index, name in reads.get(record, ()):
            assert index < len(params) and params[index] == name, (
                f"{record} reads argument {index} of {label} as {name!r}; "
                f"its parameters are {params}"
            )
            used.add(record)
    assert used == set(reads)


def _parameters(path: Path) -> Iterator[tuple[str, int, list[str]]]:
    """``(name, line, parameter names)`` of every function in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            yield getattr(node, "name", "<lambda>"), node.lineno, names


def test_no_function_takes_a_cap():
    # One enumeration budget, symbolic.ENUMERATION_CAP, read where it is
    # checked: no function of the package takes its own.
    for path in sorted((SRC / "carpetmf").glob("*.py")):
        for _, line, names in _parameters(path):
            assert "cap" not in names, f"{path.name}:{line} takes cap"


def test_only_the_oracle_entries_take_a_method():
    # Enumeration is an oracle call, not a mode: the row-sum and total-mass
    # entries take method="enumerate" (and their router passes it on); the
    # pressure layer has one route per weight and q.
    takers = sorted(
        name
        for path in sorted((SRC / "carpetmf").glob("*.py"))
        for name, _, names in _parameters(path)
        if "method" in names
    )
    assert takers == ["_routed_row_sums", "log_total_mass", "row_sum_log_any"]
    psi = reference_weight()
    for call in (
        lambda method: row_sum_log_any(psi, np.zeros((1, 2), dtype=np.int64), 1.0, method=method),
        lambda method: log_total_mass(psi, 2, method=method),
    ):
        assert call("auto") == pytest.approx(call("enumerate"), rel=1e-12)
        with pytest.raises(ValueError, match="unknown method 'transfer'"):
            call("transfer")


def _resolves(module: str, name: str) -> bool:
    """``from module import name`` works: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_imports_resolve():
    imports = _package_imports()
    assert ("checks.py", "carpetmf.pressure", "log_total_mass") in imports
    for filename, module, name in imports:
        assert _resolves(module, name), (
            f"bench/{filename} imports {name} from {module}, which no longer has it"
        )


def test_only_numerics_starts_worker_pools():
    # Every chunked loop goes through numerics.map_chunks, whose fixed chunk
    # layout keeps outputs independent of --workers, and whose pool the
    # tracer follows into worker threads.
    package = Path(__file__).resolve().parent.parent / "src" / "carpetmf"
    for path in sorted(package.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                assert "ThreadPoolExecutor" not in names, (
                    f"{path.name} imports ThreadPoolExecutor; use numerics.map_chunks"
                )


def test_verify_results_come_from_one_runner():
    # Reference and config criteria report through the one guarded loop, so
    # a crash or an overrun of the budget fails either of them the same way.
    tree = ast.parse((SRC / "carpetmf" / "verify.py").read_text(encoding="utf-8"))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "CriterionResult"
    ]
    builders = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(node in calls for node in ast.walk(fn))
    ]
    assert len(calls) == 1 and builders == ["run_all"], builders



def _package_calls(tree: ast.Module) -> set[str]:
    """``module.name`` of every call in a package module to a name it
    imported from a sibling module, by ``from .module import name`` or as
    ``module.name`` after ``from . import module``."""
    imported, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules |= {alias.asname or alias.name for alias in node.names}
            else:
                imported |= {alias.asname or alias.name: node.module for alias in node.names}
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            calls.add(f"{imported[func.id]}.{func.id}")
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
            calls.add(f"{func.value.id}.{func.attr}")
    return calls


def test_sampled_paths_have_one_birkhoff_rule():
    # sample's birkhoffAverage column and verify criterion 9 both divide by
    # the windows of gibbs.birkhoff_averages; the path-array form of the
    # rule is a test oracle, and verify reads nothing of carpet.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "carpetmf").glob("*.py"))
    }
    for name, tree in trees.items():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "birkhoff_averages_on_carpet" not in defined, name
    for name in ("cli.py", "verify.py"):
        assert "gibbs.birkhoff_averages" in _package_calls(trees[name]), name
    verify_imports = [
        {node.module, *(alias.name for alias in node.names)}
        for node in ast.walk(trees["verify.py"])
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert not any("carpet" in names for names in verify_imports)


#: The routing :class:`CylinderWeight` runs for every weight that supplies
#: step tables, and :class:`WrappedWeight` for every wrapper.
ROUTING = (
    "transfer_mask",
    "enumerated_rows",
    "row_sum_log_batch",
    "_split_row_sums",
)


def test_transfer_weights_supply_only_their_tables():
    # Windows and cocycles define their step tables and table sizes, and
    # wrappers (skew products, tilts and pressure shifts) the base q values
    # they read and how they combine them; the routing around each contract
    # is written once, on a base class, and never reads a depth-1 table.
    # A dimension-1 cocycle is built as a depth-1 window, so the cocycle
    # class has no depth-1 case of its own.
    trees = {
        module: ast.parse((SRC / "carpetmf" / f"{module}.py").read_text(encoding="utf-8"))
        for module in ("weights", "gibbs")
    }
    classes = {
        node.name: node
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    methods = {
        name: {fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)}
        for name, node in classes.items()
    }
    for cls in ("ConstantCellWeight", "MatrixCocycleWeight"):
        assert {"step_tables", "transfer_floats"} <= methods[cls], cls
    for cls in ("ShiftedWeight", "SkewProductWeight"):
        assert {"base_qs", "combine"} <= methods[cls], cls
    wrappers = ("ShiftedWeight", "SkewProductWeight", "AuxiliaryWeight")
    for cls in ("ConstantCellWeight", "MatrixCocycleWeight", *wrappers):
        assert not methods[cls] & set(ROUTING), (cls, methods[cls] & set(ROUTING))
    assert set(ROUTING) <= methods["CylinderWeight"]
    assert set(ROUTING) - {"_split_row_sums"} <= methods["WrappedWeight"]
    assert not methods["MatrixCocycleWeight"] & {"depth1_log_table", "dependence_depth"}
    # dependence_depth is the one depth-1 hook: the depth-1 table and total
    # mass come from the one-cell log weights, on the base class only.
    assert [cls for cls, names in methods.items() if "depth1_log_table" in names] == [
        "CylinderWeight"
    ]
    assert not any("_letter_marginal" in names for names in methods.values())
    assert "log_total_mass" not in methods["SkewProductWeight"]
    for cls in ("CylinderWeight", "WrappedWeight"):
        for fn in classes[cls].body:
            if isinstance(fn, ast.FunctionDef) and fn.name in ROUTING:
                reads = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
                assert "depth1_log_table" not in reads, (cls, fn.name)
    functions = {node.name for node in trees["weights"].body if isinstance(node, ast.FunctionDef)}
    assert "_split_kernel" not in functions
    assert not any("_kronecker_floats" in names for names in methods.values())
    # One row-sum entry per layer and one query for the q that enumerate
    # rows: no module defines or calls the entries they replaced, and the
    # column pass asks that query, never the mask under it.
    retired = {"row_sum_log_range", "row_enumeration_mask", "transfer_refusal"}
    for path in sorted((SRC / "carpetmf").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        assert not names & retired, (path.name, names & retired)
    pressure = ast.parse((SRC / "carpetmf" / "pressure.py").read_text(encoding="utf-8"))
    called = {
        node.func.attr
        for node in ast.walk(pressure)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "enumerated_rows" in called and "transfer_mask" not in called
    # The column pass fixes its reads before the pass: its chunk body
    # defines no helper of its own.
    (column_pass,) = [
        node
        for node in pressure.body
        if isinstance(node, ast.FunctionDef) and node.name == "column_log_sums"
    ]
    (partial,) = [
        node for node in column_pass.body if isinstance(node, ast.FunctionDef)
    ]
    assert partial.name == "partial"
    nested = [
        node
        for node in ast.walk(partial)
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not partial
    ]
    assert not nested, [getattr(node, "name", "<lambda>") for node in nested]


# -- start-up: what a command imports ---------------------------------------------

#: Modules a command may not load unless it uses them.
PIPELINE = ("carpetmf.gibbs", "carpetmf.carpet", "carpetmf.spectra", "carpetmf.verify")


def _loaded_after(code: str, cwd: Path) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``code`` runs."""
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": pythonpath}
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_config_load_skips_jsonschema_and_the_pipeline(tmp_path):
    from carpetmf.reference import default_config

    (tmp_path / "config.json").write_text(json.dumps(default_config()))
    loaded = _loaded_after(
        "import carpetmf.cli\nfrom carpetmf.config import load_config\n"
        "load_config('config.json')",
        tmp_path,
    )
    assert "carpetmf.config" in loaded
    assert "jsonschema" not in loaded
    assert "numpy.ma" not in loaded
    assert not loaded & {"carpetmf.pressure", "carpetmf.transfer", *PIPELINE}


def test_pressure_command_skips_the_pipeline(tmp_path):
    loaded = _loaded_after(
        "from carpetmf.cli import main\n"
        "main(['pressure', '--depth-max', '4', '--out', 'out'], standalone_mode=False)",
        tmp_path,
    )
    assert "carpetmf.pressure" in loaded and (tmp_path / "out" / "pressure_T.csv").is_file()
    assert not loaded & set(PIPELINE)


def test_config_path_loads_no_openssl(tmp_path):
    # hashlib would load OpenSSL's libcrypto (_hashlib, about 4 MB of RSS);
    # the config hash takes the interpreter's builtin SHA-256 instead.
    from carpetmf.reference import default_config

    (tmp_path / "config.json").write_text(json.dumps(default_config()))
    loaded = _loaded_after(
        "import carpetmf.cli\nfrom carpetmf.config import load_config\n"
        "load_config('config.json')\n"
        "carpetmf.cli.main(['pressure', '--config', 'config.json', '--depth-max', '4',"
        " '--out', 'out'], standalone_mode=False)",
        tmp_path,
    )
    assert (tmp_path / "out" / "pressure_T.csv").is_file()
    assert "_hashlib" not in loaded


@pytest.mark.parametrize("weight", ["reference", "window"])
def test_sample_command_loads_no_numpy_random(tmp_path, weight):
    # The sampler's streams are numpy uint64 arithmetic: numpy.random (and
    # OpenSSL, which it loads through secrets and hmac) stays out of sample.
    from carpetmf.reference import default_config, random_depth2_weight

    config = default_config()
    config["grids"] = {"qGrid": [0.0, 1.0, 2.0], "depthSchedule": [2, 3, 4]}
    config["sampling"].update(nSamples=8, depth=2)
    if weight == "window":
        values = np.exp(random_depth2_weight(1).window_log).ravel().tolist()
        config["weight"] = {"kind": "constantCell", "depth": 2, "values": values}
    (tmp_path / "config.json").write_text(json.dumps(config))
    loaded = _loaded_after(
        "import carpetmf.cli\n"
        "carpetmf.cli.main(['sample', '--config', 'config.json', '--out', 'out'],"
        " standalone_mode=False)",
        tmp_path,
    )
    assert (tmp_path / "out" / "samples.csv").is_file()
    assert "carpetmf.gibbs" in loaded
    assert not loaded & {"numpy.random", "_hashlib"}


def test_verify_command_loads_no_numpy_random(tmp_path):
    # The seeded test data come from reference.pcg64_uniform, numpy's PCG64
    # stream in pure Python: numpy.random (and OpenSSL with it) stays out of
    # verify, and out of the package's sources.
    loaded = _loaded_after(
        "import carpetmf.cli\n"
        "carpetmf.cli.main(['verify'], standalone_mode=False)",
        tmp_path,
    )
    assert "carpetmf.verify" in loaded
    assert not loaded & {"numpy.random", "_hashlib"}
    for path in sorted((SRC / "carpetmf").glob("*.py")):
        assert "np.random" not in path.read_text(encoding="utf-8"), path.name


def test_serial_pressure_loads_no_thread_pool(tmp_path):
    # concurrent.futures (and logging with it) loads only when a pass runs
    # on threads; a one-chunk pressure pass runs on the calling thread.  The
    # dim-2 cocycle's row sums take the split kernel, which loads
    # carpetmf.transfer and nothing else of the package.  No set routine of
    # numpy (np.unique, np.union1d) loads numpy.ma into the pass.
    from carpetmf.reference import default_config

    config = default_config()
    matrices = np.random.default_rng(1).uniform(0.05, 1.0, (5, 4))
    config["weight"] = {"kind": "matrixCocycle", "dimension": 2, "matrices": matrices.tolist()}
    config["grids"] = {"qGrid": [1.0, 2.0], "depthSchedule": [2, 3, 4]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    loaded = _loaded_after(
        "import carpetmf.cli\nfrom carpetmf.config import load_config\n"
        "load_config('config.json')\n"
        "carpetmf.cli.main(['pressure', '--config', 'config.json', '--depth-max', '4',"
        " '--out', 'out'], standalone_mode=False)",
        tmp_path,
    )
    assert (tmp_path / "out" / "pressure_T.csv").is_file()
    assert "carpetmf.transfer" in loaded
    assert not loaded & {"concurrent.futures", "numpy.ma", *PIPELINE}


def test_render_runs_serially(tmp_path):
    # The render fill runs on the calling thread whatever --workers says, so
    # the reference render loads no thread pool; its depth-1 row sums
    # gather letter steps and load no split kernel.
    loaded = _loaded_after(
        "import carpetmf.cli\n"
        "carpetmf.cli.main(['render', '--depth', '5', '--workers', '2', '--out', 'out'],"
        " standalone_mode=False)",
        tmp_path,
    )
    assert (tmp_path / "out" / "render_n5.pgm").is_file()
    assert "carpetmf.carpet" in loaded
    assert not loaded & {"concurrent.futures", "carpetmf.transfer"}


def test_depth1_pressure_loads_no_split_kernel(tmp_path):
    # The reference weight is a depth-1 window: its row sums gather the
    # one-state steps of its letters, without carpetmf.transfer.
    loaded = _loaded_after(
        "import carpetmf.cli\n"
        "carpetmf.cli.main(['pressure', '--depth-max', '6', '--out', 'out'],"
        " standalone_mode=False)",
        tmp_path,
    )
    assert (tmp_path / "out" / "pressure_T.csv").is_file()
    assert "carpetmf.weights" in loaded and "carpetmf.transfer" not in loaded


def test_threaded_passes_use_the_module_pool_class(monkeypatch):
    # map_ranges reads numerics.ThreadPoolExecutor when it starts a pool, so
    # a tracer that replaces it (bench/tracer.py) sees every threaded pass.
    import concurrent.futures

    from carpetmf import numerics

    assert numerics.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    started = []

    class Counting(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(numerics, "ThreadPoolExecutor", Counting)
    assert numerics.map_ranges(lambda a, b: b - a, [(0, 2), (2, 5)], workers=2) == [2, 3]
    assert started == [2]


def test_config_hash_is_sha256():
    import hashlib

    from carpetmf.config import config_sha256
    from carpetmf.reference import default_config, random_depth2_weight

    window = default_config()
    window["weight"] = {
        "kind": "constantCell",
        "depth": 2,
        "values": np.exp(random_depth2_weight(1).window_log).ravel().tolist(),
    }
    for data in (default_config(), window):
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        assert config_sha256(data) == hashlib.sha256(canonical).hexdigest()


def test_lazy_package_namespace(tmp_path):
    # A plain import binds little; every public name and submodule then
    # resolves, including through circular first imports.
    import carpetmf

    loaded = _loaded_after("import carpetmf", tmp_path)
    assert not loaded & {"carpetmf.weights", *PIPELINE}
    _loaded_after(
        "import carpetmf\n"
        "assert len(carpetmf.__all__) == 67\n"
        "for name in carpetmf.__all__: getattr(carpetmf, name)\n"
        "carpetmf.numerics.lse, carpetmf.gibbs.path_uniforms\n"
        "from carpetmf import *",
        tmp_path,
    )
    for first in ("gibbs", "verify", "carpet", "spectra", "config"):
        loaded = _loaded_after(
            f"import carpetmf.{first}\nimport carpetmf\ncarpetmf.run_all, carpetmf.sample_paths",
            tmp_path,
        )
        assert set(PIPELINE) <= loaded
    # bench/tracer.install reads every submodule from sys.modules after
    # this sequence.
    loaded = _loaded_after("import carpetmf\nfrom carpetmf import gibbs, weights", tmp_path)
    assert {f"carpetmf.{name}" for name in carpetmf._EXPORTS} <= loaded
    # Each exported class or function is defined where _EXPORTS files it.
    for module_name, names in carpetmf._EXPORTS.items():
        for name in names:
            value = getattr(carpetmf, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"carpetmf.{module_name}", name


def test_transfer_imports_first(tmp_path):
    # The split kernel reads its table budget from symbolic, so it loads as
    # the first module of the package without weights.
    loaded = _loaded_after("from carpetmf.transfer import TailMemo", tmp_path)
    assert "carpetmf.transfer" in loaded
    assert not loaded & {"carpetmf.weights", *PIPELINE}


# -- the column pass reads row sums by rank ------------------------------------


def test_column_pass_builds_no_digit_rows(monkeypatch):
    # The window-d2 benchmark weight at n = 12: once the weight's cached
    # tables exist, a column pass reads every row sum from the split
    # kernel's tables by rank, on one thread or on a pool, and never falls
    # back to digit rows or a walk of prefixes.
    import numpy as np

    from carpetmf import pressure, symbolic, transfer, weights
    from carpetmf.reference import random_depth2_weight

    psi = random_depth2_weight(1)
    qs = np.array([-2.0, 0.0, 1.0, 2.0, 4.0])
    assert psi._window_grid.size and psi._start_table.size

    def forbidden(*args, **kwargs):
        raise AssertionError("a column pass built digit rows or walked prefixes")

    for module in (symbolic, transfer, weights):
        monkeypatch.setattr(module, "digits_of_indices", forbidden)
    monkeypatch.setattr(transfer, "_walk", forbidden)
    serial = pressure.column_log_sums(psi, qs, 12, pressure.COLUMN_KINDS)
    monkeypatch.setattr(pressure, "CHUNK_WORDS", 256)  # 16 chunks on two threads
    threaded = pressure.column_log_sums(psi, qs, 12, pressure.COLUMN_KINDS, workers=2)
    for kind in pressure.COLUMN_KINDS:
        assert np.all(np.isfinite(serial[kind]))
        np.testing.assert_allclose(threaded[kind], serial[kind], rtol=1e-13)


@pytest.mark.parametrize("case", ["window", "cocycle"])
def test_column_pass_reads_each_row_q_once_per_chunk(monkeypatch, case):
    # q = 1 is read first for the I_1 terms, and its PART_BLOCK reuses those
    # row sums: one chunk routes each row q once.  The q values that
    # enumerate rows share one enumeration of the chunk's rows: none for the
    # window-d2 weight at n = 10, and for a dim-2 cocycle at n = 6 on a
    # 21-point grid its 18 negative and non-integer q, more than PART_BLOCK.
    from carpetmf import pressure, weights
    from carpetmf.reference import random_depth2_weight, reference_system
    from carpetmf.weights import make_matrix_cocycle

    if case == "window":
        psi, qs, n = random_depth2_weight(1), np.array([-2.0, 0.0, 1.0, 2.0, 4.0]), 10
    else:
        mats = np.random.default_rng(1).uniform(0.05, 1.0, (5, 2, 2))
        psi = make_matrix_cocycle(reference_system(), 2, mats)
        qs, n = np.linspace(-2.25, 2.75, 21), 6
    # A cocycle's Kronecker route serves the integer q >= 0.
    listed = [q for q in qs.tolist() if case == "cocycle" and (q < 0 or not q.is_integer())]
    assert len(listed) == (18 if case == "cocycle" else 0) and 18 > pressure.PART_BLOCK
    assert pressure.pass_chunks(psi.system.r1, n) == [(0, 2**n)]
    routed, enumerate_rows = pressure.row_sum_log_ranks, weights._enumerate_row_sums
    calls, enumerations = [], []

    def spy(weight, n, lo, hi, q):
        calls.append(np.atleast_1d(q).tolist())
        return routed(weight, n, lo, hi, q)

    def enumeration_spy(weight, a1s, q):
        enumerations.append((len(a1s), q.tolist()))
        return enumerate_rows(weight, a1s, q)

    monkeypatch.setattr(pressure, "row_sum_log_ranks", spy)
    monkeypatch.setattr(weights, "_enumerate_row_sums", enumeration_spy)
    spied = pressure.column_log_sums(psi, qs, n, pressure.COLUMN_KINDS)
    read = [q for call in calls for q in call]
    assert sorted(read) == sorted(qs.tolist()), calls
    assert enumerations == ([(2**n, listed)] if listed else []), enumerations
    monkeypatch.undo()
    plain = pressure.column_log_sums(psi, qs, n, pressure.COLUMN_KINDS)
    for kind in pressure.COLUMN_KINDS:
        assert spied[kind].tobytes() == plain[kind].tobytes()


def test_column_pass_reads_a_wrappers_base_once_per_chunk(monkeypatch):
    # I_1 is read in the same call as the first PART_BLOCK, so the psiQ
    # tilt's base is read, and its row sums combined, once per chunk.
    from carpetmf import gibbs, pressure, weights
    from carpetmf.reference import random_depth2_weight

    window = random_depth2_weight(1)
    tilt = gibbs.make_auxiliary(window, 2.0, 0.0, gibbs.VARIANT_PSI_Q)
    qs = np.array([-2.0, 0.0, 1.0, 2.0, 4.0])
    chunks = pressure.pass_chunks(window.system.r1, 17)
    assert len(chunks) == 2
    combine = weights.SkewProductWeight.combine
    calls = []

    def spy(self, *args):
        calls.append(args[1])
        return combine(self, *args)

    monkeypatch.setattr(weights.SkewProductWeight, "combine", spy)
    spied = pressure.finite_values(tilt, qs, 17)
    assert sorted(calls) == [(17, *chunk) for chunk in chunks]
    monkeypatch.undo()
    plain = pressure.finite_values(tilt, qs, 17)
    for kind in spied:
        assert spied[kind].tobytes() == plain[kind].tobytes()


# -- tools/output_sha256.py ------------------------------------------------------


def test_output_listing_comparison(monkeypatch, tmp_path, capsys):
    # Synthetic listings: a changed digest shows both lines, a file in one
    # listing only shows its own line, equal lines and blank lines none.
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and bench/
    path = Path(__file__).resolve().parent.parent / "tools" / "output_sha256.py"
    spec = importlib.util.spec_from_file_location("output_sha256", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    saved = ["aa  ref-d1/a.csv", "bb  ref-d1/b.csv", "cc  window-d2/c.json", ""]
    current = ["aa  ref-d1/a.csv", "bd  ref-d1/b.csv", "dd  cocycle-d2/d.csv"]
    assert tool.differences(saved, saved) == []
    assert tool.differences(saved, current) == [
        "+ dd  cocycle-d2/d.csv",
        "- bb  ref-d1/b.csv",
        "+ bd  ref-d1/b.csv",
        "- cc  window-d2/c.json",
    ]
    # --compare prints only the differing lines and exits 1 if there are any;
    # these saved listings name no dispatch, as none did before they could.
    listing = tmp_path / "listing.txt"
    listing.write_text("\n".join(saved), encoding="utf-8")
    monkeypatch.setattr(tool, "listing", lambda: iter(current))
    assert tool.main(["--compare", str(listing)]) == 1
    assert capsys.readouterr().out.splitlines() == tool.differences(saved, current)
    monkeypatch.setattr(tool, "listing", lambda: iter(saved))
    assert tool.main(["--compare", str(listing)]) == 0
    assert capsys.readouterr().out == ""
    # The listing opens with the dispatch it ran under; `#` lines are not
    # compared as digests.
    assert tool.main([]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("# numpy ") and " dispatch " in printed[0]
    assert printed[1:] == saved
    assert tool.differences([printed[0], *saved], saved) == []
    # A saved listing of the same dispatch compares its digests ...
    listing.write_text("\n".join(printed), encoding="utf-8")
    monkeypatch.setattr(tool, "listing", lambda: iter(current))
    assert tool.main(["--compare", str(listing)]) == 1
    assert capsys.readouterr().out.splitlines() == tool.differences(saved, current)
    # ... and one of another dispatch says so and lists no file.  (A saved
    # listing with no dispatch line, as above, compares its digests.)
    other = "# numpy 0.0 dispatch X86_V3"
    listing.write_text("\n".join([other, *saved]), encoding="utf-8")
    assert tool.main(["--compare", str(listing)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("dispatch differs: ") and "X86_V3" in out and "ref-d1" not in out
