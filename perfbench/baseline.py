#!/usr/bin/env python3
"""Run the benchmark repeatedly and record the medians and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Every workload is run RUNS times untraced and TRACE_RUNS times traced.
Each run is `run.py` in a fresh process, started from the repository
root, with its own seed: the reference seed, then the seeds after it, so
the first run of each kind also checks against the stored reference.
For every workload and metric the output holds each run's value, the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.
End-to-end spreads are printed next to their bounds from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUNS = 10
TRACE_RUNS = 3


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} reported failed ops:\n{done.stderr}")
    return info["info"], result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    started = time.perf_counter()
    for workload in workloads.WORKLOADS:
        entry = {}
        for trace, runs in ((0, RUNS), (1, TRACE_RUNS)):
            per_metric: dict[str, list[float]] = {}
            attempted = failed = 0
            samples = []
            for i in range(runs):
                info, result = one_run(workload, workloads.REFERENCE_SEED + i, bench["run_seconds"], trace)
                report["machine"] = info["machine"]
                samples.append(info["samples"])
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    per_metric.setdefault(name, []).append(metric["value"])
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                name: summarize(values) for name, values in per_metric.items()
            }
            entry["attempted" if trace == 0 else "attempted_traced"] = attempted
            entry["failed" if trace == 0 else "failed_traced"] = failed
            entry["samples" if trace == 0 else "samples_traced"] = samples
        report["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:16s} {name:12s} median {stats['median']:10.4f}  "
                  f"spread {stats['spread']:.4f}  bound {bounds[name]}", flush=True)
    report["elapsed_s"] = time.perf_counter() - started
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
