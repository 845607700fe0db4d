"""carpetmf benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload ref-d1 --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout.  The workload config is generated
from ``--seed`` and written under ``.bench_work/``; every command is a fresh
``python -m carpetmf.cli`` subprocess with ``--workers min(2, nproc)``, run
one after another.  The timed runs are one pass over the command list plus
``--seconds`` of repeat runs of the commands whose times are end-to-end
metrics in ``BENCHMARK.json``, before and after the determinism pass.  A
command's time is the median of its runs; ``workload_s`` is the sum of those
medians, the time of one pass.

In the determinism pass every command except ``verify`` runs once more,
untimed, with ``--workers 1``, and its files and stdout must match the timed
ones byte for byte.  The outputs are then checked against independent routes
(checks.py).  Each command invocation is one operation; it fails on a
nonzero exit, a kill, a timeout, a failed check or a determinism mismatch.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from an in-process traced pass (tracer.py).  Metric names and units
come from ``BENCHMARK.json``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

if not (SRC / "carpetmf" / "__init__.py").is_file():
    sys.exit(f"error: no carpetmf sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Deadline for the children of one run; the run must end within 180 s.
RUN_BUDGET_S = 165.0
#: Address-space limit applied in every child (render needs ~1 GiB RSS).
CHILD_AS_BYTES = 4 << 30
#: Fresh-interpreter set-up probes at each end of a run (before the timed
#: phase and after the determinism pass), after one warm-up.
SETUP_PROBES_PER_SLOT = 2
#: ``-X importtime`` probes per traced run.
IMPORT_PROBES = 3

SETUP_CODE = (
    "import sys, carpetmf.cli; from carpetmf.config import load_config; "
    "load_config(sys.argv[1])"
)


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


@dataclass
class Outcome:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    timed_out: bool


@dataclass
class Ledger:
    """Every operation attempted, by id, and the reasons each failed."""

    labels: list[str] = field(default_factory=list)
    failed: dict[int, list[str]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.labels)

    def record(self, label: str, code: int, timed_out: bool = False) -> int:
        """Count one operation; returns its id."""
        op = len(self.labels)
        self.labels.append(label)
        if timed_out:
            self.fail(op, "timed out")
        elif code != 0:
            self.fail(op, f"exit code {code}")
        return op

    def fail(self, op: int, reason: str) -> None:
        self.failed.setdefault(op, []).append(reason)


class Runner:
    """Starts children one at a time under a timeout and an address-space
    limit, and reaps each with ``wait4`` for its own peak RSS."""

    def __init__(self, env: dict, deadline: float) -> None:
        self.env = env
        self.deadline = deadline

    def run(self, argv: list[str], cwd: Path, label: str) -> Outcome:
        cwd.mkdir(parents=True, exist_ok=True)
        stdout_path = cwd / f"{label}.stdout"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:  # out of time: count it as timed out, start nothing
            return Outcome(code=-signal.SIGKILL, wall=0.0, rss_mb=0.0, stdout="", timed_out=True)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            _kill_group(proc.pid)

        with open(stdout_path, "w+b") as out, open(cwd / f"{label}.stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdout=out, stderr=err,
                start_new_session=True, preexec_fn=_limit_child,
            )
            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            code=proc.returncode,
            wall=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
            timed_out=killed.is_set(),
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- passes ------------------------------------------------------------------


def cli_args(command: tuple[str, ...], config_path: Path, workers: int) -> list[str]:
    args = list(command)
    if command[0] not in workloads.CONFIG_FREE:
        args += ["--config", str(config_path), "--out", workloads.OUT]
    return args + ["--workers", str(workers)]


def _snapshot(out: Path) -> dict[str, int]:
    if not out.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in out.iterdir()}


@dataclass
class Invocations:
    """Runs of each command in one directory: wall times, the latest
    outcome, and the output files each command wrote."""

    walls: dict[str, list[float]] = field(default_factory=dict)
    latest: dict[str, Outcome] = field(default_factory=dict)
    latest_op: dict[str, int] = field(default_factory=dict)
    writes: dict[str, set] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def run(self, runner, ledger, phase, command, config_path, workers, cwd) -> None:
        name = command[0]
        before = _snapshot(cwd / workloads.OUT)
        argv = [sys.executable, "-m", "carpetmf.cli", *cli_args(command, config_path, workers)]
        outcome = runner.run(argv, cwd, name)
        after = _snapshot(cwd / workloads.OUT)
        self.latest_op[name] = ledger.record(f"{phase} {name}", outcome.code, outcome.timed_out)
        self.walls.setdefault(name, []).append(outcome.wall)
        self.latest[name] = outcome
        self.writes.setdefault(name, set()).update(k for k, v in after.items() if before.get(k) != v)
        self.peak_rss_mb = max(self.peak_rss_mb, outcome.rss_mb)

    def median(self, name: str) -> float:
        return statistics.median(self.walls[name])


def repeat_runs(runs: Invocations, run_one, commands, seconds: float) -> float:
    """Spend up to ``seconds`` on repeat runs, each time of the command with
    the least sampled time (ties in command order) whose median still fits.
    Returns the time spent."""
    start = time.perf_counter()
    while True:
        remaining = seconds - (time.perf_counter() - start)
        fits = [c for c in commands if runs.median(c[0]) <= remaining]
        if not fits:
            return time.perf_counter() - start
        run_one(min(fits, key=lambda c: sum(runs.walls[c[0]])))


def compare_outputs(ledger, timed: Invocations, timed_dir: Path, other_dir: Path,
                    other_ops: dict[str, int], other_stdout: dict[str, str] | None) -> None:
    """Charge the operation in ``other_ops`` of each command whose files (or
    stdout) differ from the timed run's."""
    for name, op in other_ops.items():
        for filename in sorted(timed.writes[name]):
            a, b = timed_dir / workloads.OUT / filename, other_dir / workloads.OUT / filename
            if not b.is_file() or a.read_bytes() != b.read_bytes():
                ledger.fail(op, f"{filename} differs from the timed output")
        if other_stdout is not None and other_stdout[name] != timed.latest[name].stdout:
            ledger.fail(op, "stdout differs from the timed output")


# -- set-up and import probes --------------------------------------------------


def setup_probes(runner, ledger, config_path, cwd, count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters importing the CLI and
    parsing the workload config."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    times = []
    for _ in range(count):
        outcome = runner.run(argv, cwd, "setup")
        ledger.record("setup probe", outcome.code, outcome.timed_out)
        times.append(outcome.wall)
    return times


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", re.M)


def import_probes(runner, ledger, cwd) -> dict[str, float]:
    """Median cumulative import time of carpetmf (with the CLI) and of
    scipy.special, from ``python -X importtime``.  A submodule's line nests
    its parent package's import when that comes first, so each group takes
    the larger of its two lines."""
    argv = [sys.executable, "-X", "importtime", "-c", "import carpetmf.cli"]
    groups = {"import.carpetmf.s": ("carpetmf", "carpetmf.cli"),
              "import.scipy_special.s": ("scipy", "scipy.special")}
    samples: dict[str, list[float]] = {k: [] for k in groups}
    for i in range(IMPORT_PROBES + 1):
        outcome = runner.run(argv, cwd, "importtime")
        ledger.record("import probe", outcome.code, outcome.timed_out)
        stderr = (cwd / "importtime.stderr").read_text(encoding="utf-8", errors="replace")
        cumulative = {m: int(us) for us, m in _IMPORT_LINE.findall(stderr)}
        if i:
            for key, modules in groups.items():
                samples[key].append(max(cumulative.get(m, 0) for m in modules) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


# -- the run -------------------------------------------------------------------


def run(workload, seconds: float, trace: bool, workers: int,
        repeat=frozenset()) -> tuple[dict, dict, Ledger]:
    """Run one workload; returns (end-to-end values, per-layer values, ledger).
    ``repeat`` names the commands that get repeat samples."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1), encoding="utf-8")
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(work / "tmp")}
    runner = Runner(env, deadline)
    ledger = Ledger()
    e2e: dict[str, float] = {}
    layers: dict[str, float] = {}

    probe_dir = work / "probe"
    setup: list[float] = []
    if trace:
        layers.update(import_probes(runner, ledger, probe_dir))
    else:
        setup_probes(runner, ledger, config_path, probe_dir, 1)  # warm-up: .pyc, page cache
        setup += setup_probes(runner, ledger, config_path, probe_dir, SETUP_PROBES_PER_SLOT)

    timed_dir = work / "w2"
    timed = Invocations()

    def timed_run(command) -> None:
        timed.run(runner, ledger, "timed", command, config_path, workers, timed_dir)

    # One pass, then repeat samples before and after the determinism pass
    # (at most half of the budget before), so that they spread over the run.
    for command in workload.commands:
        timed_run(command)
    repeated = [c for c in workload.commands if c[0] in repeat]
    spent = repeat_runs(timed, timed_run, repeated, seconds / 2)

    # Determinism: rerun with one worker under the same --out string.
    det_dir = work / "w1"
    det = Invocations()
    for command in workload.commands:
        if command[0] != "verify":
            det.run(runner, ledger, "workers1", command, config_path, 1, det_dir)
    compare_outputs(ledger, timed, timed_dir, det_dir, det.latest_op,
                    {k: o.stdout for k, o in det.latest.items()})
    repeat_runs(timed, timed_run, repeated, seconds - spent)

    names = [c[0] for c in workload.commands]
    for name in names:
        e2e[f"{name}_s"] = timed.median(name)
        print(f"samples {name:10s}", " ".join(f"{w:.3f}" for w in timed.walls[name]))
    e2e["workload_s"] = sum(timed.median(name) for name in names)
    e2e["peak_rss_mb"] = timed.peak_rss_mb
    if not trace:
        setup += setup_probes(runner, ledger, config_path, probe_dir, SETUP_PROBES_PER_SLOT)
        e2e["setup_s"] = statistics.median(setup)

    stdout = {k: o.stdout for k, o in timed.latest.items()}
    failures = checks.run_checks(workload.checks, config_path, timed_dir / workloads.OUT, stdout)
    for name, reason in failures:
        ledger.fail(timed.latest_op[name], reason)

    if trace:
        layers.update(traced_run(runner, ledger, workload, config_path, workers, work, timed))
    return e2e, layers, ledger


def traced_run(runner, ledger, workload, config_path, workers, work, timed: Invocations) -> dict:
    """One child runs the commands in-process, untraced then traced.  The
    verification suite runs untraced in between, for per-criterion times;
    tracing it would mix its calls into the commands' counts."""
    commands = [c for c in workload.commands if c[0] != "verify"]
    plan = {
        "commands": [cli_args(c, config_path, workers) for c in commands],
        "verify": len(commands) < len(workload.commands),
        "untraced_dir": str(work / "t0"),
        "traced_dir": str(work / "t1"),
        "result": str(work / "trace.json"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    outcome = runner.run([sys.executable, str(BENCH / "tracer.py"), str(plan_path)],
                         work, "tracer")
    ledger.record("tracer child", outcome.code, outcome.timed_out)
    if outcome.code != 0 or outcome.timed_out:
        return {}
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    traced_ops = {}
    for phase in ("untraced", "traced"):
        for name, code, _ in result[phase]:
            traced_ops[name] = ledger.record(f"in-process {phase} {name}", code)
    compare_outputs(ledger, timed, work / "w2", work / "t1", traced_ops, None)
    layers = tracer.aggregate(result["spans"])
    if result["verify"]:
        op = ledger.record("in-process verify", 0)
        for index, elapsed, passed in result["verify"]:
            layers[f"verify.c{index}.s"] = elapsed
            if passed is False:
                ledger.fail(op, f"criterion {index} failed")
    traced_s = sum(t for _, _, t in result["traced"])
    untraced_s = sum(t for _, _, t in result["untraced"])
    layers["trace.workload_s"] = traced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    return layers


# -- reporting -------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def report(spec: dict, e2e: dict, layers: dict, ledger: Ledger, trace: bool) -> dict:
    """Print the human table and return the result object."""
    attempted = max(1, ledger.attempted)
    failed = len(ledger.failed)
    for op, reasons in sorted(ledger.failed.items()):
        print(f"FAILED {ledger.labels[op]}: {'; '.join(reasons)}", file=sys.stderr)
    if trace:
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        table = metrics
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        table = {name: {"value": v, "unit": units.get(name, "s")} for name, v in e2e.items()}
        table["fail_ratio"] = {"value": failed / attempted, "unit": "1"}
        metrics = {name: table[name] for name in units}
    for name, m in table.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (harness self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    workers = min(2, os.cpu_count() or 1)
    spec = load_spec()
    # Commands whose time is a listed end-to-end metric get repeat samples.
    repeat = {m["name"][: -len("_s")] for m in spec["end_to_end"] if m["name"].endswith("_s")}
    results = {}
    for name in names:
        print(f"== {name}")
        workload = workloads.build(name, args.seed, smoke=args.smoke)
        e2e, layers, ledger = run(workload, args.seconds, bool(args.trace), workers, repeat)
        results[name] = report(spec, e2e, layers, ledger, bool(args.trace))
    print("env " + json.dumps(environment(workers), sort_keys=True))
    if len(results) == 1:
        (result,) = results.values()
    else:  # one object for all workloads, metrics named "<workload>/<metric>"
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
