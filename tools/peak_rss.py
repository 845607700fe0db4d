"""Peak RSS and wall time of each benchmark workload command.

    python3 tools/peak_rss.py
    python3 tools/peak_rss.py --workload cocycle-d2 --runs 5 --src ../other/src

``bench/run.py`` reports only the largest peak RSS of a workload's commands.
This builds the ``ref-d1``, ``window-d2`` and ``cocycle-d2`` configs with
``bench/workloads.py`` (seed 1, full size), runs each workload's commands as
``python -m carpetmf.cli ... --workers min(2, nproc)`` subprocesses, as the
benchmark does, and reaps each with ``wait4`` for its own peak RSS.  Each
command runs ``--runs`` times; one line per command gives the median peak
RSS (MB) and wall time (s), and the command that sets the workload's peak
is marked ``*``.  ``--src`` measures the package sources of another
checkout with this checkout's workloads.

A child's ``ru_maxrss`` starts from its parent's peak RSS (Linux carries the
parent's high-water mark across ``fork`` and ``exec``), so this process
never imports numpy: a child interpreter writes the workload configs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("ref-d1", "window-d2", "cocycle-d2")
#: Writes ``<name>.json`` (config, commands, config-free commands) per workload.
PLAN = """
import json, sys
import workloads
for name in sys.argv[2:]:
    w = workloads.build(name, int(sys.argv[1]))
    plan = {"config": w.config, "commands": w.commands, "free": sorted(workloads.CONFIG_FREE)}
    with open(name + ".json", "w", encoding="utf-8") as f:
        json.dump(plan, f)
"""


def _measure(argv: list[str], cwd: Path, env: dict) -> tuple[float, float]:
    """Peak RSS (MB) and wall time (s) of one child run to completion."""
    with open(cwd / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"{' '.join(argv)} exited {proc.returncode}\n{err.read().decode()}")
    return usage.ru_maxrss / 1024.0, wall


def _workload(plan: dict, runs: int, env: dict, work: Path) -> list[tuple]:
    work.mkdir()
    config = work / "config.json"
    config.write_text(json.dumps(plan["config"], indent=1), encoding="utf-8")
    workers = min(2, os.cpu_count() or 1)
    rows = []
    for command in plan["commands"]:
        args = list(command)
        if command[0] not in plan["free"]:
            args += ["--config", str(config), "--out", plan["config"]["output"]["directory"]]
        args += ["--workers", str(workers)]
        argv = [sys.executable, "-m", "carpetmf.cli", *args]
        samples = [_measure(argv, work, env) for _ in range(runs)]
        rss = statistics.median(s[0] for s in samples)
        wall = statistics.median(s[1] for s in samples)
        rows.append((" ".join(command), rss, wall))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3, help="runs per command (median)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="package sources to run (default: this checkout's)")
    args = parser.parse_args(argv)
    names = list(NAMES) if args.workload == "all" else [args.workload]
    paths = [str(args.src.resolve()), str(ROOT / "bench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    print(f"{'workload':<11} {'command':<18} {'peak_rss_mb':>11} {'wall_s':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", PLAN, str(args.seed), *names],
                       cwd=tmp, env=env, check=True)
        for name in names:
            plan = json.loads(Path(tmp, f"{name}.json").read_text(encoding="utf-8"))
            rows = _workload(plan, max(1, args.runs), env, Path(tmp) / name)
            peak = max(rss for _, rss, _ in rows)
            for command, rss, wall in rows:
                mark = "*" if rss == peak else " "
                print(f"{name:<11} {command:<18} {rss:>11.2f} {wall:>7.3f} {mark}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
