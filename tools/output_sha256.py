"""sha256 of every output of the three benchmark workloads.

    python3 tools/output_sha256.py

Builds the ``ref-d1``, ``window-d2`` and ``cocycle-d2`` configs with
``bench/workloads.py`` (seed 1, full size), runs each workload's CLI
commands with ``--workers 2`` in a temporary directory, and prints one
``sha256  workload/file`` line per output file and per command stdout
(``<command>.stdout``).  The elapsed times in ``verify``'s report are
masked, so two runs of the same sources print the same lines.  Compare the
listing before and after a refactor: any line that moves names an output
that changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

SEED = 1
WORKERS = 2
#: The ``  12.34s  `` column of a ``verify`` report line.
ELAPSED = re.compile(r"(?m)^(\[[^\]]*\] +\d+\. .*?) *\d+\.\d\ds  ")


def _run_workload(name: str, work: Path) -> dict[str, bytes]:
    workload = workloads.build(name, SEED)
    work.mkdir()
    (work / "config.json").write_text(json.dumps(workload.config, indent=1), encoding="utf-8")
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}
    outputs = {}
    for command in workload.commands:
        args = list(command)
        if command[0] not in workloads.CONFIG_FREE:
            args += ["--config", "config.json", "--out", workloads.OUT]
        args += ["--workers", str(WORKERS)]
        done = subprocess.run(
            [sys.executable, "-m", "carpetmf.cli", *args], cwd=work, env=env, capture_output=True
        )
        if done.returncode != 0:
            sys.exit(f"{name}: {' '.join(args)} exited {done.returncode}\n{done.stderr.decode()}")
        stdout = done.stdout
        if command[0] == "verify":
            stdout = ELAPSED.sub(r"\1  x.xxs  ", stdout.decode()).encode()
        outputs[f"{command[0]}.stdout"] = stdout
    for path in sorted((work / workloads.OUT).iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.BUILDERS:
            outputs = _run_workload(name, Path(tmp) / name)
            for filename in sorted(outputs):
                digest = hashlib.sha256(outputs[filename]).hexdigest()
                print(f"{digest}  {name}/{filename}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
