"""In-process traced pass over a workload's commands, and span aggregation.

Run as a script, this module executes the given CLI commands in one
interpreter through ``cli.main(args, standalone_mode=False)``: first a plain
pass, then a pass with span-recording wrappers installed at every name the
calling modules look up (module functions are replaced wherever they were
imported, weight methods on each class).  Nothing under ``src/`` changes.

    python bench/tracer.py PLAN.json

``PLAN.json`` names the commands, the two working directories, whether to
time the ``verify`` criteria, and the result file.  The result holds each
command's exit code and wall time for both passes, each verification
criterion's elapsed time (run between the passes, untraced), and every span
as ``{name, start, end, parent, attrs}``.

Imported, it provides :func:`aggregate`, which turns spans into
``module.function.count`` metrics.  A span's self time is its duration minus
the part of it its child spans cover.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.attrs: dict = {}
        self.start = self.end = 0.0


class Tracer:
    """Wraps callables so each call records a span in ``self.spans``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def wrap(self, name: str, fn, record=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, _CURRENT.get())
            token = _CURRENT.set(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append(span)
            if record is not None:
                record(span, args, kwargs, result)
            return result

        return traced

    def dump(self) -> list[dict]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)),
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


class _ContextExecutor(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose tasks run under the submitting span, so spans in
    worker threads get the right parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# -- per-call attributes ---------------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _words_range(span, args, kwargs, result):
    span.attrs["words"] = int(_arg(args, kwargs, 3, "stop")) - int(_arg(args, kwargs, 2, "start"))


def _row_sum_any(span, args, kwargs, result):
    import numpy as np

    a1s = np.asarray(_arg(args, kwargs, 1, "a1s"))
    words, n = a1s.shape
    span.attrs["words"] = int(words)
    route = span.attrs.setdefault("route", "enumerate")
    if route == "enumerate" and n:
        span.attrs["rows"] = int(words) * _arg(args, kwargs, 0, "weight").system.r2 ** int(n)


def _mark_route(span, args, kwargs, result):
    parent = span.parent
    if parent is not None and parent.name == "weights.row_sum_log_any":
        parent.attrs.setdefault("route", "enumerate" if result is None else "transfer")


def _cells(span, args, kwargs, result):
    import numpy as np

    span.attrs["cells"] = int(np.size(_arg(args, kwargs, 1, "a1s")))


def _depth(span, args, kwargs, result):
    span.attrs["n"] = int(_arg(args, kwargs, 2, "n"))


def _items(span, args, kwargs, result):
    span.attrs["items"] = int(_arg(args, kwargs, 1, "total"))


def _grid_cells(span, args, kwargs, result):
    span.attrs["cells"] = int(result.log_masses.size)


def _file_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(result)


#: (module, function, span name, attribute recorder)
FUNCTIONS = (
    ("config", "parse_config", "config.parse_config", None),
    ("symbolic", "row_words_range", "symbolic.row_words_range", _words_range),
    ("symbolic", "admissible_words_range", "symbolic.admissible_words_range", _words_range),
    ("weights", "row_sum_log_any", "weights.row_sum_log_any", _row_sum_any),
    ("pressure", "finite_T", "pressure.finite_T", _depth),
    ("pressure", "finite_beta", "pressure.finite_beta", _depth),
    ("pressure", "log_total_mass", "pressure.log_total_mass", None),
    ("numerics", "chunked_logsumexp", "numerics.chunked_logsumexp", _items),
    ("numerics", "lse", "numerics.lse", None),
    ("gibbs", "sample_path", "gibbs.sample_path", None),
    ("gibbs", "ball_mass", "gibbs.ball_mass", None),
    ("gibbs", "make_auxiliary", "gibbs.make_auxiliary", None),
    ("carpet", "render_measure", "carpet.render_measure", _grid_cells),
    ("carpet", "write_pgm16", "carpet.write_pgm16", _file_bytes),
    ("carpet", "write_grid_csv", "carpet.write_grid_csv", _file_bytes),
    ("carpet", "box_count_tau", "carpet.box_count_tau", None),
    ("carpet", "p3_scan", "carpet.p3_scan", None),
    ("spectra", "legendre", "spectra.legendre", None),
    ("spectra", "birkhoff_spectrum_carpet", "spectra.birkhoff_spectrum_carpet", None),
    ("io_utils", "write_csv", "io_utils.write_csv", _file_bytes),
    ("io_utils", "write_json", "io_utils.write_json", _file_bytes),
)

#: (method, span name, attribute recorder), wrapped on every weight class
#: that defines the method itself.
METHODS = (
    ("row_sum_log_batch", "weights.row_sum_log_batch", _mark_route),
    ("log_weight_arrays", "weights.log_weight_arrays", _cells),
)


def install(tracer: Tracer) -> None:
    """Replace each traced function at every module name bound to it."""
    import carpetmf  # noqa: F401  (loads every submodule)
    from carpetmf import gibbs, weights

    modules = [m for name, m in sys.modules.items() if name.startswith("carpetmf.")]
    for module_name, attr, span_name, record in FUNCTIONS:
        original = getattr(sys.modules[f"carpetmf.{module_name}"], attr)
        wrapper = tracer.wrap(span_name, original, record)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for module in modules:
        if getattr(module, "ThreadPoolExecutor", None) is concurrent.futures.ThreadPoolExecutor:
            module.ThreadPoolExecutor = _ContextExecutor
    classes = {
        id(cls): cls
        for module in (weights, gibbs)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, weights.CylinderWeight)
    }
    for cls in classes.values():
        for method, span_name, record in METHODS:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(span_name, vars(cls)[method], record))


# -- aggregation -------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-name ``calls``, ``self_s`` and summed attributes, plus route
    counts of ``row_sum_log_any`` and the ``finite_T``/``finite_beta``
    inclusive time per depth (``pressure.finite_T.n<k>.s``).

    ``calls`` and attribute sums count only the outermost span of a name, so
    a weight method that delegates to another weight's method counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for i, s in enumerate(spans):
        name = s["name"]
        duration = s["end"] - s["start"]
        add(f"{name}.self_s", duration - _covered(children.get(i, []), s["start"], s["end"]))
        add(f"{name}.s", duration)
        parent = s["parent"]
        if parent is not None and spans[parent]["name"] == name:
            continue
        add(f"{name}.calls", 1)
        attrs = s["attrs"]
        for key in ("words", "cells", "items", "bytes"):
            if key in attrs:
                add(f"{name}.{key}", attrs[key])
        if "n" in attrs:
            add(f"{name}.n{attrs['n']}.s", duration)
        if "route" in attrs:
            route = f"weights.row_sum.{attrs['route']}"
            add(f"{route}.calls", 1)
            if "rows" in attrs:
                add(f"{route}.rows", attrs["rows"])
                out[f"{route}.rows_per_call_max"] = max(
                    out.get(f"{route}.rows_per_call_max", 0), attrs["rows"]
                )
    return out


# -- script entry ------------------------------------------------------------


def _invoke(main, args: list[str], stdout_path: Path) -> int:
    with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a crashing command is a failed operation, not an abort
            traceback.print_exc(file=fh)
            return 1
    return 0


def _run_pass(main, commands: list[list[str]], cwd: Path, tracer: Tracer | None) -> list:
    cwd.mkdir(parents=True, exist_ok=True)
    os.chdir(cwd)
    results = []
    for args in commands:
        stdout_path = cwd / f"{args[0]}.stdout"
        start = time.perf_counter()
        if tracer is None:
            code = _invoke(main, args, stdout_path)
        else:
            code = tracer.wrap(f"cli.{args[0]}", _invoke)(main, args, stdout_path)
        results.append((args[0], code, time.perf_counter() - start))
    return results


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from carpetmf import cli

    commands = plan["commands"]
    untraced = _run_pass(cli.main, commands, Path(plan["untraced_dir"]), None)
    criteria = []
    if plan["verify"]:
        from carpetmf import verify

        criteria = [(r.index, r.elapsed, r.passed) for r in verify.run_all()]
    tracer = Tracer()
    install(tracer)
    traced = _run_pass(cli.main, commands, Path(plan["traced_dir"]), tracer)
    result = {"untraced": untraced, "traced": traced, "verify": criteria,
              "spans": tracer.dump()}
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
