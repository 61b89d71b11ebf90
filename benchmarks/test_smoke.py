"""Tests of the benchmark itself; no timing assertions.

Run from the root of a checkout:  python3 -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing

RUN = Path(run.__file__).resolve()
sys.path.insert(0, str(RUN.parents[1] / "src"))


def test_smoke_runs_every_workload_once_and_checks_it():
    out = subprocess.run([sys.executable, str(RUN), "--smoke"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    assert {line["workload"] for line in lines[:-1]} == {
        "spin-ensemble", "photon-pipeline", "variant-scan", "cli-session"}
    assert lines[-1] == {"correct": True, "attempted": lines[-1]["attempted"], "failed": 0,
                         "metrics": {}}


def test_exits_nonzero_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "benchmarks")
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "variant-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


class _Hanging:
    """A workload whose second operation never returns on its own."""

    name = "hanging"
    session = 1
    op_timeout_s = 0.2

    def __init__(self):
        self.tracer = tracing.Tracer(True)

    def op(self, i):
        while i == 1:
            time.sleep(0.01)
        return 1


def test_a_hanging_operation_fails_instead_of_stalling_the_run():
    loop = run.run_loop(_Hanging(), 0.5, 0, smoke=False)
    failed = [op for op, _ in loop["failures"]]
    assert failed == [1]
    assert loop["ops"] == loop["units"] + 1
    assert len(loop["latencies"]) == loop["units"]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracing.tail_percentile(5) == 50.0
    assert tracing.tail_percentile(39) == 50.0
    assert tracing.tail_percentile(40) == 75.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(10_000) == 99.9
    summary = tracing.latency_summary([i / 1000 for i in range(1, 101)])
    assert summary["tail_percentile"] == 90.0
    assert abs(summary["tail_ms"] - 90.1) < 1e-9


def test_self_time_subtracts_the_time_of_direct_children():
    tracer = tracing.Tracer(True)
    op = tracer.begin_op(0, "harness.op")
    tracer.call("variance.outer", lambda: tracer.call("space.inner", time.sleep, 0.02))
    tracer.end_op(op)
    spans = {s.name: s.end - s.start for s in tracer.spans}
    self_times = tracer.self_times()
    assert abs(self_times["space"] - spans["space.inner"]) < 1e-12
    assert abs(self_times["variance"] - (spans["variance.outer"] - spans["space.inner"])) < 1e-12
    assert abs(sum(self_times.values()) - spans["harness.op"]) < 1e-9
