"""Self-test of the benchmark harness on tiny workload sizes.

    python3 bench/selftest.py

Run from the root of a source checkout (about two minutes on 2 cores).  It
checks that

* every end-to-end metric of ``BENCHMARK.json`` prints by name with its
  unit, and ``fail_ratio`` prints too;
* the traced run emits every named per-layer metric, with the route counts
  each workload must show;
* a deliberately corrupted output file is caught: it raises the failed
  operation count and clears ``correct``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def invoke(workload: str, trace: int, seconds: float = 1.0) -> tuple[list[str], dict]:
    """Run the harness in smoke mode; return the printed lines and result."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                         "--trace", str(trace), "--smoke"])
    lines = buffer.getvalue().splitlines()
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return lines, json.loads(lines[-1])


def check_metrics(spec_metrics: list[dict], lines: list[str], result: dict) -> None:
    for metric in spec_metrics:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        assert got is not None, f"{name} missing from the result"
        assert got["unit"] == unit, f"{name} unit {got['unit']!r}, want {unit!r}"
        assert isinstance(got["value"], (int, float)), f"{name} is not a number"
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), (
            f"{name} not printed with unit {unit}"
        )
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}, "extra metrics"


def test_end_to_end(spec: dict) -> None:
    for workload in run.workloads.BUILDERS:
        lines, result = invoke(workload, 0)
        assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
        check_metrics(spec["end_to_end"], lines, result)
        assert any(line.split()[:1] == ["fail_ratio"] for line in lines), "no fail_ratio line"
        for metric in spec["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, f"{metric['name']} is 0"
        print(f"ok  end-to-end metrics, {workload}")


def test_traced(spec: dict) -> None:
    expected = {
        "ref-d1": {"gibbs.ball_mass.calls": 8 * 4, "weights.row_sum.enumerate.calls": 0},
        "window-d2": {"weights.row_sum.enumerate.calls": 0, "gibbs.sample_path.calls": 4},
        "cocycle-d2": {
            "weights.row_sum.transfer.calls": 0,
            "weights.row_sum.enumerate.rows_per_call_max": 2**4 * 4**4,
        },
    }
    for workload, counts in expected.items():
        lines, result = invoke(workload, 1)
        assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
        check_metrics(spec["per_layer"], lines, result)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name, value in counts.items():
            assert metrics[name] == value, f"{workload}: {name} = {metrics[name]}, want {value}"
        assert metrics["pressure.finite_T.calls"] > 0 and metrics["numerics.lse.calls"] > 0
        print(f"ok  per-layer metrics, {workload}")


def test_corruption_is_counted() -> None:
    """Corrupt the timed ``pressure_T.csv`` just before the determinism
    comparison; with no repeat runs it also reaches the output checks."""
    original = run.compare_outputs

    def corrupting(ledger, timed, timed_dir, *args):
        target = timed_dir / run.workloads.OUT / "pressure_T.csv"
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("0.0,"))
        fields = lines[row].split(",")
        fields[1] = "-1.0"  # T_n(0) of the first scheduled depth
        lines[row] = ",".join(fields)
        target.write_text("".join(lines), encoding="utf-8")
        return original(ledger, timed, timed_dir, *args)

    run.compare_outputs = corrupting
    try:
        _, result = invoke("window-d2", 0, seconds=0.0)
    finally:
        run.compare_outputs = original
    assert not result["correct"], "corrupted output passed"
    # The T(0) check and the workers-1 comparison each charge an operation.
    assert result["failed"] >= 2, f"corruption raised failed to {result['failed']} only"
    print(f"ok  corrupted pressure_T.csv -> {result['failed']}/{result['attempted']} failed")


def main() -> int:
    spec = run.load_spec()
    test_end_to_end(spec)
    test_traced(spec)
    test_corruption_is_counted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
