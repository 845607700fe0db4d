"""In-process depth ladders of the transfer row-sum route, the sampler and
the render fill, and the closed forms on a whole q-grid.

    python3 tools/ladders.py

Prints the best of three wall times of ``pressure.finite_values`` (both
kinds) at ``workers=1`` and ``workers=2`` for four ladders:

* ``random_depth2_weight(1)``, the window-d2 weight, at q in
  {-2, 0, 1, 2, 4} and n = 14 ... 22;
* the psiQ tilt at q = 2 of that window (``gibbs.make_auxiliary``, with
  ``beta_8(2)`` as level constant) at the same five q and n = 16, 18, 20:
  a skew product's pass, which reads its base's row sums at ``2``, ``1``
  and ``2 q``;
* the window on the default 93-point q-grid at n = 14 ... 18;
* the dim-2 cocycle of the ``cocycle-d2`` benchmark config (seed 1, built
  with ``bench/workloads.py``) at q in {1, 2} and n = 14 ... 20.

Each of these ladders uses one weight object, so the first depth also pays
the weight's cached tables (in its ``workers=1`` column); the tilt reads
its window's tables.  A ladder point whose ``workers=2`` time is above its
``workers=1`` time loses to the interpreter lock.

A fifth ladder times ``gibbs.sampled_log_masses`` as the ``sample`` command
runs it: 200 paths of the psiQ tilt at q = 2 of the same window weight, at
horizons 6, 10, 14 and 20 (sampling depth ``n = horizon / 2``, so each path
also gets its ball mass), with ``beta_8(2)`` as level constant.  Each run
builds the weight afresh, so every run pays its tables; it prints the best
of three wall times and the ``tracemalloc`` peak of one more run.

A sixth ladder times the i.i.d. route the same way: 10,000 paths of the
psiQ tilt at q = 2 of the reference weight (``closed_form_beta(2)`` as
level constant), at depth 30 and horizon 48, so no path gets a ball mass.

A seventh row times ``closed_form_T`` on the 93-point default q-grid, for
the reference weight and for that psiQ tilt: as a loop of one call per q,
and as one call on the whole grid (which builds one depth-1 table).  It
prints the best of three wall times of each, in milliseconds.

An eighth ladder times the ``render`` command's work in process: the
``carpet.render_measure`` fill of the reference weight plus both writers,
``write_pgm16`` and ``write_grid_csv``, into a temporary directory, at
depth 5 (100,000 charged cells) and depth 6 (1,000,000).  It prints the
best of three wall times and the ``tracemalloc`` peak of one more run.

Run the script on two checkouts on the same host to compare them.
"""

from __future__ import annotations

import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from carpetmf.carpet import render_measure, write_grid_csv, write_pgm16  # noqa: E402
from carpetmf.config import parse_config  # noqa: E402
from carpetmf.gibbs import VARIANT_PSI_Q, make_auxiliary, sampled_log_masses  # noqa: E402
from carpetmf.pressure import (  # noqa: E402
    closed_form_beta,
    closed_form_T,
    finite_beta,
    finite_values,
)
from carpetmf.reference import (  # noqa: E402
    default_q_grid,
    random_depth2_weight,
    reference_weight,
)

REPEATS = 3
WORKERS = (1, 2)


def _best(run) -> float:
    """Best of ``REPEATS`` wall times of ``run()``, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def _sample(horizon: int, workers: int, level: float) -> None:
    """The ``sample`` command's draw of 200 psiQ paths at q = 2 from a fresh
    weight, with the level constant ``level``."""
    window = random_depth2_weight(1)
    aux = make_auxiliary(window, 2.0, level, VARIANT_PSI_Q)
    sampled_log_masses(window, aux, horizon // 2, horizon, 200, 1, workers)


def _timed_point(run) -> str:
    """Best of ``REPEATS`` wall times of ``run()`` and the ``tracemalloc``
    peak of one more run."""
    best = _best(run)
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return f"{best:7.3f} s {peak:7.1f} MB"


def _render(psi, n: int, out: Path) -> None:
    """The ``render`` command's fill and files at depth ``n``."""
    render = render_measure(psi, n)
    write_pgm16(render, out / f"render_n{n}.pgm")
    write_grid_csv(render, out / f"render_n{n}.csv")


def main() -> int:
    window = random_depth2_weight(1)
    cocycle = parse_config(workloads.build("cocycle-d2", 1).config).weight
    level = finite_beta(window, 2.0, 8)
    tilt = make_auxiliary(window, 2.0, level, VARIANT_PSI_Q)
    five = [-2.0, 0.0, 1.0, 2.0, 4.0]
    ladders = (
        ("window depth 2, 5 q", window, five, range(14, 23, 2)),
        ("psiQ tilt q = 2 of it, 5 q", tilt, five, range(16, 21, 2)),
        ("window depth 2, default grid", window, default_q_grid(), range(14, 19, 2)),
        ("cocycle dim 2, q in {1, 2}", cocycle, [1.0, 2.0], range(14, 21, 2)),
    )
    for label, psi, q_grid, depths in ladders:
        for n in depths:
            times = "  ".join(
                f"workers={workers} "
                f"{_best(lambda: finite_values(psi, q_grid, n, workers=workers)):7.3f} s"
                for workers in WORKERS
            )
            print(f"{label:32s} n = {n:2d}  {times}", flush=True)
    for horizon in (6, 10, 14, 20):
        points = "  ".join(
            f"workers={workers} " + _timed_point(lambda: _sample(horizon, workers, level))
            for workers in WORKERS
        )
        print(f"{'sample psiQ q = 2, 200 paths':32s} horizon = {horizon:2d}  {points}", flush=True)
    reference = reference_weight()
    iid = make_auxiliary(reference, 2.0, closed_form_beta(reference, 2.0), VARIANT_PSI_Q)
    points = "  ".join(
        f"workers={workers} "
        + _timed_point(lambda: sampled_log_masses(reference, iid, 30, 48, 10_000, 1, workers))
        for workers in WORKERS
    )
    print(f"{'sample i.i.d. psiQ q = 2, 10,000':32s} n = 30  {points}", flush=True)
    grid = default_q_grid()
    for label, psi in (("reference", reference), ("its psiQ tilt q = 2", iid)):
        loop = _best(lambda: [closed_form_T(psi, float(q)) for q in grid]) * 1e3
        call = _best(lambda: closed_form_T(psi, grid)) * 1e3
        print(
            f"{'closed T ' + label:32s} {grid.size} q  per-q {loop:7.3f} ms  one call {call:7.3f} ms",
            flush=True,
        )
    with tempfile.TemporaryDirectory() as out:
        for n in (5, 6):
            point = _timed_point(lambda: _render(reference, n, Path(out)))
            print(f"{'render reference, fill + files':32s} n = {n:2d}  {point}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
