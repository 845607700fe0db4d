"""The in-house config schema walker.

A table pins the ``path: message`` of each schema keyword, and an oracle
test checks that the walker and a draft 2020-12 ``jsonschema`` validator
accept and reject the same mutated configs, with the same message.
"""

from __future__ import annotations

import copy

import pytest

from carpetmf.config import (
    CONFIG_SCHEMA,
    ConfigError,
    _schema_errors,
    parse_config,
    validate_raw,
)
from carpetmf.reference import default_config


def _constant_cell_config() -> dict:
    data = default_config()
    data["weight"] = {
        "kind": "constantCell",
        "depth": 2,
        "values": [0.5] * 25,
        "truncated": {"1": [1.0] * 5},
        "normalize": False,
    }
    data["grids"] = {"qGrid": [0.0, 1.0, 2.0], "depthSchedule": [2, 4]}
    data["output"]["formats"] = ["csv", "json"]
    return data


def _cocycle_config() -> dict:
    data = default_config()
    data["weight"] = {"kind": "matrixCocycle", "dimension": 2, "matrices": [[1.0] * 4] * 5}
    return data


def _skew_config() -> dict:
    data = default_config()
    data["weight"] = {
        "kind": "skewProduct",
        "rho": {"depth": 1, "values": [1.0] * 5},
        "theta1": {"kind": "rowSum", "values": [1.0, 2.0], "q": 1.5},
    }
    return data


VALID = [default_config, _constant_cell_config, _cocycle_config, _skew_config]


def _error(data) -> str | None:
    try:
        validate_raw(data)
    except ConfigError as exc:
        return str(exc)
    return None


# -- one row per keyword -----------------------------------------------------------


def _set(path: str, value):
    def mutate(data):
        *parents, last = path.split(".")
        node = data
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value

    return mutate


KEYWORD_TABLE = [
    ("type", _set("cellSystem.r1", True), "cellSystem.r1: True is not of type 'integer'"),
    ("type", _set("weight", "x"), "weight: 'x' is not of type 'object'"),
    (
        "type",
        _set("grids.depthSchedule.0", 2.5),
        "grids.depthSchedule.0: 2.5 is not of type 'integer'",
    ),
    ("type", _set("sampling.q", "1"), "sampling.q: '1' is not of type 'number'"),
    ("type", _set("sampling.q", False), "sampling.q: False is not of type 'number'"),
    ("required", lambda d: d.pop("weight"), "<root>: 'weight' is a required property"),
    ("required", lambda d: d["cellSystem"].pop("r2"), "cellSystem: 'r2' is a required property"),
    (
        "additionalProperties",
        _set("surprise", 1),
        "<root>: Additional properties are not allowed ('surprise' was unexpected)",
    ),
    (
        "additionalProperties",
        lambda d: d["output"].update(b=1, a=2),
        "output: Additional properties are not allowed ('a', 'b' were unexpected)",
    ),
    (
        "additionalProperties",
        _set("weight.truncated", {"1": []}),
        "weight.truncated.1: [] should be non-empty",
    ),
    (
        "items",
        _set("cellSystem.allowed.1.1", "a"),
        "cellSystem.allowed.1.1: 'a' is not of type 'integer'",
    ),
    ("minItems", _set("cellSystem.allowed", [[0, 0]]), "cellSystem.allowed: [[0, 0]] is too short"),
    ("minItems", _set("grids.depthSchedule", []), "grids.depthSchedule: [] should be non-empty"),
    (
        "maxItems",
        _set("cellSystem.allowed.1", [0, 1, 2]),
        "cellSystem.allowed.1: [0, 1, 2] is too long",
    ),
    ("minimum", _set("cellSystem.r1", 1), "cellSystem.r1: 1 is less than the minimum of 2"),
    (
        "exclusiveMinimum",
        _set("weight.values.1", 0),
        "weight.values.1: 0 is less than or equal to the minimum of 0",
    ),
    ("minLength", _set("output.directory", ""), "output.directory: '' should be non-empty"),
    (
        "enum",
        _set("weight.kind", "x"),
        "weight.kind: 'x' is not one of ['constantCell', 'matrixCocycle', 'skewProduct']",
    ),
    (
        "oneOf",
        _set("grids.qGrid", "a"),
        "grids.qGrid: 'a' is not valid under any of the given schemas",
    ),
    (
        "oneOf",
        _set("grids.qGrid", {"start": 0, "stop": 1}),
        "grids.qGrid: 'count' is a required property",
    ),
    ("oneOf", _set("grids.qGrid", [1.0, None]), "grids.qGrid.1: None is not of type 'number'"),
    (
        "enum",
        _set("output.formats.0", "pgm"),
        "output.formats.0: 'pgm' is not one of ['csv', 'json']",
    ),
]


@pytest.mark.parametrize("keyword, mutate, expected", KEYWORD_TABLE)
def test_keyword_messages(keyword, mutate, expected):
    data = _constant_cell_config()
    mutate(data)
    assert _error(data) == expected
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert str(err.value) == expected


def test_valid_configs_pass():
    for make in VALID:
        assert _error(make()) is None


def test_integral_float_is_an_integer():
    data = _constant_cell_config()
    data["cellSystem"]["r1"] = 2.0
    data["grids"]["depthSchedule"] = [2.0, 4]
    assert _error(data) is None


def test_shallowest_error_wins():
    # Two errors: the top-level one is reported, as a JSON Schema validator
    # would; among siblings at one depth, the later key.
    data = _constant_cell_config()
    data["weight"]["depth"] = 0
    data["surprise"] = 1
    assert _error(data).startswith("<root>: ")
    data = _constant_cell_config()
    data["cellSystem"]["r1"] = 0
    data["weight"]["depth"] = 0
    assert _error(data).startswith("weight.depth: ")


def test_unsupported_keyword_is_refused():
    with pytest.raises(ValueError, match="maximum"):
        list(_schema_errors({"a": 3}, {"properties": {"a": {"maximum": 2}}}))


# -- the oracle ------------------------------------------------------------------------

#: Replacement values: bools, integral and fractional floats, strings,
#: nulls, out-of-range numbers, and empty and non-empty containers.
REPLACEMENTS = (
    True, False, 2.0, 2.5, 0, -1, 0.0, -0.5, 10**6, "2", "", None, [], [1], {}, {"a": 1}
)


def _paths(node, path=()):
    """Every path into a config; of each array only the first and last item."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list) and node:
        for i in sorted({0, len(node) - 1}):
            yield from _paths(node[i], (*path, i))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _mutations(data):
    for path in _paths(data):
        node = _at(data, path)
        if path:
            for value in REPLACEMENTS:
                yield path, "replace", value
        if isinstance(node, dict):
            yield path, "add", ("bogus", 1)
            yield path, "add", ("7", [1.0])  # a truncated-table key
            for key in node:
                yield path, "drop", key
        if isinstance(node, list):
            yield path, "shorten", None
            yield path, "lengthen", None
    for form in (
        [],
        [0.5],
        {"start": 0, "stop": 1, "count": 3},
        {"start": 0, "stop": 1, "count": 0},
        {"start": 0, "stop": 1},
        {"start": "0", "stop": 1, "count": 3},
        {"start": 0, "stop": 1, "count": 3, "refine": [0.5, "x"]},
        {"start": 0, "stop": 1, "count": 3, "extra": 1},
        [0.5, {"start": 0}],
        "linspace",
        5,
    ):
        yield ("grids", "qGrid"), "replace", form


def _apply(data, path, op, arg):
    data = copy.deepcopy(data)
    if op == "replace":
        _at(data, path[:-1])[path[-1]] = copy.deepcopy(arg)
        return data
    node = _at(data, path)
    if op == "add":
        node[arg[0]] = arg[1]
    elif op == "drop":
        del node[arg]
    elif op == "shorten":
        node.pop()
    else:
        node.append(copy.deepcopy(node[-1]) if node else 1)
    return data


def test_walker_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    # What jsonschema.validate does after checking the schema itself, which
    # it would repeat on every call.
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    validator = cls(CONFIG_SCHEMA)

    def oracle(data) -> str | None:
        error = jsonschema.exceptions.best_match(validator.iter_errors(data))
        if error is None:
            return None
        return f"{'.'.join(str(p) for p in error.absolute_path) or '<root>'}: {error.message}"

    checked = rejected = 0
    for make in VALID:
        base = make()
        for path, op, arg in _mutations(base):
            data = _apply(base, path, op, arg)
            assert _error(data) == oracle(data), (path, op, arg)
            checked += 1
            rejected += oracle(data) is not None
    assert checked > 1000 and 0.5 * checked < rejected < checked
