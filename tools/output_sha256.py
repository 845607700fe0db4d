"""sha256 of every output of the three benchmark workloads.

    python3 tools/output_sha256.py
    python3 tools/output_sha256.py --compare listing.txt

Builds the ``ref-d1``, ``window-d2`` and ``cocycle-d2`` configs with
``bench/workloads.py`` (seed 1, full size), runs each workload's CLI
commands with ``--workers 2`` in a temporary directory, and prints one
``sha256  workload/file`` line per output file and per command stdout
(``<command>.stdout``), after a first line
``# numpy <version> dispatch <SIMD targets>``: the dispatch numpy found on
this host, which the CLI children inherit with the environment.  The
elapsed times in ``verify``'s report are masked, so two runs of the same
sources on one dispatch print the same lines.  Compare the listing before
and after a refactor: any line that moves names an output that changed.
``--compare FILE`` checks the run against a saved listing: it prints only
the lines that differ (``- `` the saved line, ``+ `` the new one) and exits
1 if any do.  When the saved listing names another dispatch it prints
``dispatch differs: ...`` instead and exits 2, since outputs may then move
with the host alone; a saved listing without a dispatch line is compared
as it is.
"""

from __future__ import annotations

import argparse
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

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEED = 1
WORKERS = 2
#: The start of the listing's first line, which names numpy's dispatch.
DISPATCH = "# numpy "
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


def dispatch_line() -> str:
    """``# numpy <version> dispatch <targets>``, the SIMD targets of numpy's
    dispatch found on this host (after ``NPY_DISABLE_CPU_FEATURES``)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    return f"{DISPATCH}{np.__version__} dispatch {found}"


def listing():
    """The ``sha256  workload/file`` lines, one workload at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.BUILDERS:
            outputs = _run_workload(name, Path(tmp) / name)
            for filename in sorted(outputs):
                yield f"{hashlib.sha256(outputs[filename]).hexdigest()}  {name}/{filename}"


def differences(saved: list[str], current: list[str]) -> list[str]:
    """The lines of two listings that differ, sorted by the file they name:
    ``- line`` for a saved line and ``+ line`` for a current one (a file in
    one listing only has one of the two).  ``#`` lines are skipped."""
    old = {line.split("  ", 1)[-1]: line for line in saved if _digest(line)}
    new = {line.split("  ", 1)[-1]: line for line in current if _digest(line)}
    out = []
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            out += [f"- {old[name]}"] if name in old else []
            out += [f"+ {new[name]}"] if name in new else []
    return out


def _digest(line: str) -> bool:
    """Whether a listing line names a digest (not blank, not a ``#`` line)."""
    return bool(line.strip()) and not line.startswith("#")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE", type=Path, help="a saved listing")
    args = parser.parse_args(argv)
    dispatch = dispatch_line()
    if args.compare is None:
        print(dispatch, flush=True)
        for line in listing():
            print(line, flush=True)
        return 0
    saved = args.compare.read_text(encoding="utf-8").splitlines()
    old = next((line for line in saved if line.startswith(DISPATCH)), dispatch)
    if old != dispatch:
        print(f"dispatch differs: saved {old[2:]!r}, this run {dispatch[2:]!r}")
        return 2
    changed = differences(saved, list(listing()))
    for line in changed:
        print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
