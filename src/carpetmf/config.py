"""Experiment configuration: schema, validation, and object construction.

Configs are JSON documents with five blocks (``cellSystem``, ``weight``,
``grids``, ``sampling``, ``output``); unknown keys are rejected and every
numeric table is length-checked against the declared alphabet and depth,
with errors naming the offending block.  The canonical serialization of the
fully-defaulted config is hashed so every output file can carry a short
provenance stamp.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

try:  # the builtin SHA-256: hashlib loads OpenSSL's libcrypto
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from .reference import DEFAULT_DEPTH_SCHEDULE, default_config, q_grid_from_spec
from .symbolic import CellSystem, row_word_count
from .weights import (
    CylinderWeight,
    SkewProductWeight,
    make_constant_cell,
    make_matrix_cocycle,
)

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "ExperimentConfig",
    "build_system",
    "build_weight",
    "config_sha256",
    "load_config",
    "load_raw",
    "parse_config",
    "validate_raw",
]

_POSITIVE_ARRAY = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "number", "exclusiveMinimum": 0},
}

CONFIG_SCHEMA: dict = {
    "type": "object",
    "additionalProperties": False,
    "required": ["cellSystem", "weight"],
    "properties": {
        "cellSystem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r1", "r2", "allowed"],
            "properties": {
                "r1": {"type": "integer", "minimum": 2},
                "r2": {"type": "integer", "minimum": 2},
                "allowed": {
                    "type": "array",
                    "minItems": 2,
                    "items": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": {"type": "integer", "minimum": 0},
                    },
                },
            },
        },
        "weight": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["constantCell", "matrixCocycle", "skewProduct"]},
                "depth": {"type": "integer", "minimum": 1},
                "values": _POSITIVE_ARRAY,
                "truncated": {
                    "type": "object",
                    "additionalProperties": _POSITIVE_ARRAY,
                },
                "dimension": {"type": "integer", "minimum": 1},
                "matrices": {"type": "array", "minItems": 1, "items": _POSITIVE_ARRAY},
                "rho": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["values"],
                    "properties": {
                        "depth": {"type": "integer", "minimum": 1},
                        "values": _POSITIVE_ARRAY,
                    },
                },
                "theta1": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["uniform", "letters", "rowSum"]},
                        "values": _POSITIVE_ARRAY,
                        "q": {"type": "number"},
                    },
                },
                "normalize": {"type": "boolean"},
            },
        },
        "grids": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "qGrid": {
                    "oneOf": [
                        {"type": "array", "minItems": 1, "items": {"type": "number"}},
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["start", "stop", "count"],
                            "properties": {
                                "start": {"type": "number"},
                                "stop": {"type": "number"},
                                "count": {"type": "integer", "minimum": 1},
                                "refine": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                },
                            },
                        },
                    ]
                },
                "depthSchedule": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer", "minimum": 1},
                },
            },
        },
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "nSamples": {"type": "integer", "minimum": 0},
                "depth": {"type": "integer", "minimum": 1},
                "masterSeed": {"type": "integer", "minimum": 0},
                "q": {"type": "number"},
                "variant": {"enum": ["psiQ", "psiTildeQ"]},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string", "minLength": 1},
                "formats": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"enum": ["csv", "json"]},
                },
            },
        },
    },
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending block."""


# -- schema validation ---------------------------------------------------------
#
# A walker over the JSON Schema keywords that CONFIG_SCHEMA uses, with the
# semantics, messages and error choice of a draft 2020-12 validator.  A bool
# is neither an integer nor a number; an integral float such as 2.0 is an
# integer.

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or (isinstance(v, float) and v.is_integer())),
}


class _SchemaError(NamedTuple):
    path: tuple
    keyword: str
    message: str
    off_type: bool  # the value lacks its subschema's ``type``, or there is none
    context: tuple = ()  # a failed ``oneOf``'s errors, branch by branch


def _schema_errors(value, schema: dict, path: tuple = ()) -> Iterator[_SchemaError]:
    """Every violation of ``schema`` by ``value``, keyword by keyword in the
    schema's key order."""

    def is_a(kind: str) -> bool:
        return _TYPE_CHECKS[kind](value)

    def error(keyword: str, message: str, context=()) -> _SchemaError:
        off_type = "type" not in schema or not is_a(schema["type"])
        return _SchemaError(path, keyword, message, off_type, tuple(context))

    for keyword, arg in schema.items():
        if keyword == "type":
            if not is_a(arg):
                yield error(keyword, f"{value!r} is not of type {arg!r}")
        elif keyword == "enum":
            if value not in arg:
                yield error(keyword, f"{value!r} is not one of {arg!r}")
        elif keyword == "oneOf":
            branches = [list(_schema_errors(value, branch, path)) for branch in arg]
            valid = [branch for branch, errs in zip(arg, branches) if not errs]
            if not valid:
                message = f"{value!r} is not valid under any of the given schemas"
                yield error(keyword, message, [e for errs in branches for e in errs])
            elif len(valid) > 1:
                listed = ", ".join(repr(b) for b in valid[1:] + valid[:1])
                yield error(keyword, f"{value!r} is valid under each of {listed}")
        elif keyword == "minimum":
            if is_a("number") and value < arg:
                yield error(keyword, f"{value!r} is less than the minimum of {arg!r}")
        elif keyword == "exclusiveMinimum":
            if is_a("number") and value <= arg:
                message = f"{value!r} is less than or equal to the minimum of {arg!r}"
                yield error(keyword, message)
        elif keyword in ("minItems", "minLength"):
            sized = is_a("array") if keyword == "minItems" else is_a("string")
            if sized and len(value) < arg:
                message = "should be non-empty" if arg == 1 else "is too short"
                yield error(keyword, f"{value!r} {message}")
        elif keyword == "maxItems":
            if is_a("array") and len(value) > arg:
                message = "is expected to be empty" if arg == 0 else "is too long"
                yield error(keyword, f"{value!r} {message}")
        elif keyword == "items":
            if is_a("array"):
                for i, item in enumerate(value):
                    yield from _schema_errors(item, arg, (*path, i))
        elif keyword == "required":
            if is_a("object"):
                for name in arg:
                    if name not in value:
                        yield error(keyword, f"{name!r} is a required property")
        elif keyword == "properties":
            if is_a("object"):
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, (*path, name))
        elif keyword == "additionalProperties":
            if not is_a("object"):
                continue
            extras = [name for name in value if name not in schema.get("properties", {})]
            if isinstance(arg, dict):
                for name in extras:
                    yield from _schema_errors(value[name], arg, (*path, name))
            elif arg is False and extras:
                names = ", ".join(repr(name) for name in sorted(extras, key=str))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                yield error(keyword, message)
        else:
            raise ValueError(f"schema keyword {keyword!r} is not supported")


def _relevance(error: _SchemaError) -> tuple:
    """Larger is more relevant: shallower, then the later sibling, then any
    keyword before ``oneOf``, then a value of the wrong type."""
    return (-len(error.path), error.path, error.keyword != "oneOf", error.off_type)


def _best_error(errors) -> _SchemaError | None:
    """The error to report: the most relevant one; for a failed ``oneOf``,
    the least relevant (deepest) error of its branches, unless two tie."""
    best = max(errors, key=_relevance, default=None)
    while best is not None and best.context:
        first, *rest = sorted(best.context, key=_relevance)[:2]
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        best = first
    return best


def validate_raw(data: dict) -> None:
    """Check a raw config against ``CONFIG_SCHEMA``; raise
    ``ConfigError("path: message")`` for its most relevant violation, with a
    dotted path (``<root>`` for the top level)."""
    error = _best_error(_schema_errors(data, CONFIG_SCHEMA))
    if error is not None:
        path = ".".join(str(p) for p in error.path) or "<root>"
        raise ConfigError(f"{path}: {error.message}")


#: The keys of the q values, which the pipeline reads without a later check
#: (JSON readers accept ``NaN`` and ``Infinity``).
Q_KEYS = (("grids", "qGrid"), ("sampling", "q"), ("weight", "theta1", "q"))


def _floats(value, path: tuple = ()) -> Iterator[tuple[tuple, float]]:
    """``(path, number)`` of every float in a JSON value."""
    if isinstance(value, float):
        yield path, value
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _floats(item, (*path, key))


def _reject_non_finite_q(data: dict) -> None:
    """Raise ``ConfigError("path: nan is not a finite number")`` for the
    first non-finite number under a key of ``Q_KEYS``."""
    for keys in Q_KEYS:
        value = data
        for key in keys:
            value = value.get(key) if isinstance(value, dict) else None
        for path, number in _floats(value, keys):
            if not math.isfinite(number):
                raise ConfigError(f"{'.'.join(map(str, path))}: {number!r} is not a finite number")


def config_sha256(data: dict) -> str:
    """Hash of the canonical (sorted, compact) JSON serialization."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode()).hexdigest()


def build_system(block: dict) -> CellSystem:
    try:
        return CellSystem(
            r1=block["r1"],
            r2=block["r2"],
            allowed=tuple((a1, a2) for a1, a2 in block["allowed"]),
        )
    except ValueError as exc:
        raise ConfigError(f"cellSystem: {exc}") from exc


def _table_or_error(values, expected: int, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (expected,):
        raise ConfigError(f"{label}: expected {expected} positive values, got {arr.size}")
    return np.log(arr)


def _reject_stray(block: dict, kind: str, used: set[str], label: str = "weight") -> None:
    stray = set(block) - used - {"kind", "normalize"}
    if stray:
        raise ConfigError(
            f"{label}: key(s) {sorted(stray)} are not used by kind {kind!r}"
        )


def _build_constant_cell(block: dict, system: CellSystem) -> CylinderWeight:
    _reject_stray(block, "constantCell", {"depth", "values", "truncated"})
    depth = int(block.get("depth", 1))
    nc = system.n_cells
    if "values" not in block:
        raise ConfigError("weight: constantCell requires a 'values' table")
    window = _table_or_error(block["values"], nc**depth, "weight.values")
    truncated = {}
    for key, values in (block.get("truncated") or {}).items():
        try:
            length = int(key)
        except ValueError as exc:
            raise ConfigError(f"weight.truncated: non-integer length key {key!r}") from exc
        if not 1 <= length < depth:
            raise ConfigError(
                f"weight.truncated: length {length} outside 1..{depth - 1}"
            )
        table = _table_or_error(values, nc**length, f"weight.truncated[{key}]")
        truncated[length] = table.reshape((nc,) * length)
    try:
        return make_constant_cell(system, depth, window.reshape((nc,) * depth), truncated)
    except ValueError as exc:
        raise ConfigError(f"weight: {exc}") from exc


def _build_matrix_cocycle(block: dict, system: CellSystem) -> CylinderWeight:
    _reject_stray(block, "matrixCocycle", {"dimension", "matrices"})
    if "dimension" not in block or "matrices" not in block:
        raise ConfigError("weight: matrixCocycle requires 'dimension' and 'matrices'")
    dim = int(block["dimension"])
    mats = block["matrices"]
    if len(mats) != system.n_cells:
        raise ConfigError(
            f"weight.matrices: expected one matrix per allowed cell "
            f"({system.n_cells}), got {len(mats)}"
        )
    stack = np.empty((system.n_cells, dim, dim))
    for i, flat in enumerate(mats):
        arr = np.asarray(flat, dtype=float)
        if arr.shape != (dim * dim,):
            raise ConfigError(
                f"weight.matrices[{i}]: expected {dim * dim} row-major entries, "
                f"got {arr.size}"
            )
        stack[i] = arr.reshape(dim, dim)
    try:
        return make_matrix_cocycle(system, dim, stack)
    except ValueError as exc:
        raise ConfigError(f"weight: {exc}") from exc


def _build_skew_product(block: dict, system: CellSystem) -> CylinderWeight:
    _reject_stray(block, "skewProduct", {"rho", "theta1"})
    if "rho" not in block or "theta1" not in block:
        raise ConfigError("weight: skewProduct requires 'rho' and 'theta1'")
    rho_block = block["rho"]
    depth = int(rho_block.get("depth", 1))
    nc = system.n_cells
    window = _table_or_error(rho_block["values"], nc**depth, "weight.rho.values")
    try:
        rho = make_constant_cell(system, depth, window.reshape((nc,) * depth))
    except ValueError as exc:
        raise ConfigError(f"weight.rho: {exc}") from exc
    theta = block["theta1"]
    kind = theta["kind"]
    letters, moments = 0.0, ()
    if kind == "uniform":
        _reject_stray(theta, kind, set(), "weight.theta1")
        letters = -math.log(system.r1)
    elif kind == "letters":
        _reject_stray(theta, kind, {"values"}, "weight.theta1")
        if "values" not in theta:
            raise ConfigError("weight.theta1: letters kind requires 'values'")
        letters = _table_or_error(theta["values"], system.r1, "weight.theta1.values")
    else:
        _reject_stray(theta, kind, {"q"}, "weight.theta1")
        moments = ((float(theta.get("q", 1.0)), 1.0),)
    try:
        return SkewProductWeight(rho, letters, moments)
    except ValueError as exc:
        raise ConfigError(f"weight.theta1: {exc}") from exc


def build_weight(
    block: dict, system: CellSystem, depth_schedule: tuple[int, ...] = DEFAULT_DEPTH_SCHEDULE
) -> CylinderWeight:
    """Construct the cylinder weight described by a config block.

    With ``normalize: true`` the raw pressure is extrapolated over the depth
    schedule and the weight is shifted to (approximately) zero pressure.
    """
    kind = block["kind"]
    builders = {
        "constantCell": _build_constant_cell,
        "matrixCocycle": _build_matrix_cocycle,
        "skewProduct": _build_skew_product,
    }
    weight = builders[kind](block, system)
    if block.get("normalize", False):
        from .pressure import CALIBRATION_WORDS, calibrate_to_gibbs

        feasible = [n for n in depth_schedule if row_word_count(system, n) <= CALIBRATION_WORDS]
        if len(feasible) < 2:
            raise ConfigError("weight.normalize: depth schedule too shallow to estimate pressure")
        weight = calibrate_to_gibbs(weight, feasible[-3:])
    return weight


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: constructed objects plus provenance hash."""

    raw: dict
    system: CellSystem
    weight: CylinderWeight
    q_grid: np.ndarray
    depth_schedule: tuple[int, ...]
    n_samples: int
    sample_depth: int
    master_seed: int
    sample_q: float
    sample_variant: str
    output_dir: str
    formats: tuple[str, ...]
    sha256: str


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dictionary and build the experiment objects."""
    validate_raw(data)
    _reject_non_finite_q(data)
    filled = dict(default_config())
    filled.update({k: v for k, v in data.items()})
    system = build_system(filled["cellSystem"])

    grids = filled.get("grids", {})
    schedule = tuple(int(n) for n in grids.get("depthSchedule", DEFAULT_DEPTH_SCHEDULE))
    if list(schedule) != sorted(set(schedule)):
        raise ConfigError("grids.depthSchedule: must be strictly increasing")
    q_grid = q_grid_from_spec(grids.get("qGrid", default_config()["grids"]["qGrid"]))

    weight = build_weight(filled["weight"], system, schedule)

    sampling = {**default_config()["sampling"], **filled.get("sampling", {})}
    output = {**default_config()["output"], **filled.get("output", {})}
    canonical = {
        "cellSystem": filled["cellSystem"],
        "weight": filled["weight"],
        "grids": {
            "qGrid": [float(q) for q in q_grid],
            "depthSchedule": list(schedule),
        },
        "sampling": sampling,
        "output": output,
    }
    return ExperimentConfig(
        raw=canonical,
        system=system,
        weight=weight,
        q_grid=q_grid,
        depth_schedule=schedule,
        n_samples=int(sampling["nSamples"]),
        sample_depth=int(sampling["depth"]),
        master_seed=int(sampling["masterSeed"]),
        sample_q=float(sampling["q"]),
        sample_variant=str(sampling["variant"]),
        output_dir=str(output["directory"]),
        formats=tuple(output["formats"]),
        sha256=config_sha256(canonical),
    )


def load_raw(path: str | Path) -> dict:
    """Read a JSON config file into a dict, with line/column diagnostics."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    return parse_config(load_raw(path))
