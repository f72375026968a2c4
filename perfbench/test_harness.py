"""Tests of the benchmark harness itself, on smoke-size workloads.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared(trace: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_checks_every_op_and_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= len(workloads.ops(workload, 7, smoke=True))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(trace)
    assert info["info"]["machine"]["blas_threads_pinned"] == 1


def test_smoke_trace_counts_the_phase_work():
    done = _bench("--workload", "mc-angles", "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    cfg = workloads.ops("mc-angles", 7, smoke=True)[0]
    trials, bumps = cfg["trials"], cfg["n_bumps"]
    assert metrics["phase.reduce.calls"]["value"] == 3 * trials * bumps
    assert metrics["transfer.efgp_run.calls"]["value"] == 3 * trials
    # One reducer per float-angle trajectory, one shared by the pi/2 trials.
    assert metrics["phase.reducers_built"]["value"] == 2 * trials + 1
    assert metrics["transfer.bump_cache_entries"]["value"] == 3


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "phase-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _spin(cpu_seconds: float) -> None:
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        pass


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    traced_child = tracer.span("child", lambda: _spin(0.02))

    def parent():
        traced_child()
        traced_child()
        _spin(0.01)

    tracer.span("parent", parent)()
    assert tracer.calls == {"child": 2, "parent": 1}
    assert 0.04 <= tracer.self_s["child"] < 0.08
    assert 0.01 <= tracer.self_s["parent"] < 0.035


def test_checks_reject_values_off_the_reference():
    cfg = {"subcommand": "mc-exponent", "trials": 2}
    payload = {"mean_y": 0.5, "trial_means": [0.25, 0.75]}
    data = json.dumps({"payload": payload}).encode()
    ref = {"values": checks.values(cfg, data)}
    assert checks.check(cfg, data, ref) == []
    off = json.dumps({"payload": {**payload, "mean_y": 0.5 + 1e-6}}).encode()
    assert checks.check(cfg, off, ref) == ["mc-exponent: mean_y differs from the reference"]
    short = json.dumps({"payload": {**payload, "trial_means": [0.25]}}).encode()
    assert checks.check(cfg, short, None) == ["mc-exponent: 1 trial means for 2 trials"]
