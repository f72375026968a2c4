#!/usr/bin/env python3
"""Benchmark of the sparsetrees CLI on four workloads.

Run from the repository root (the package is loaded from src/):

    python3 perfbench/run.py --workload mc-angles --seed 20260822 --seconds 10 --trace 0

An op is one CLI subcommand run in process through
`sparsetrees.cli.run([...])`, its report written to a scratch file; a pass
is the workload's op list (workloads.py) run once.  The load is a closed
loop from one process: each op starts after the previous one finished.
OpenBLAS is pinned to one thread here and in every child process.

--trace 0 measures the end-to-end metrics with tracing off.  Times are
CPU seconds scaled by a speed probe (see Probe):

* pass_s: median time of one warm pass;
* cold_s: median time of a fresh `python -m sparsetrees` process running
  the workload's first op, from spawn to exit;
* setup_s: median time of a fresh process that imports sparsetrees.cli
  and loads and validates every config of the workload;
* peak_rss_mb: peak RSS of a fresh process that imports sparsetrees.cli
  and runs one pass, as that process reports it.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracing.py as medians over the traced passes, plus
the bump-coefficient cache size, the decomposition's deviation over its
tolerance, the share of the traced pass the module layers cover, and the
tracing overhead (traced minus untraced scaled pass time).  Counts must
repeat exactly from pass to pass; a count that does not is a failure.

Every output is checked (checks.py); an op that fails or gives a wrong
output counts in `failed`.  --smoke runs every op at reduced size with one
sample of each metric, for testing the harness.  The last line of stdout
is the result object; the line before it records the machine, the sample
counts, every sample's scaled CPU, CPU and wall time, and byte identity
with the stored reference.
"""

import os

# OpenBLAS reads its thread count when numpy first loads it, so the pin
# precedes every numpy import, in this process and in its children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import gzip
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import numpy as np
import scipy.linalg
import workloads
from tracing import CLI, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"
CHILD_TIMEOUT_S = 150

SETUP_SCRIPT = """
import json, sys
from sparsetrees import cli, spec_from_record
parser = cli.build_parser()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    parser.parse_args([cfg["subcommand"], "--config", path])
    if "spec" in cfg:
        spec_from_record(cfg["spec"])
"""

# One pass in a fresh process, for its peak RSS.  argv[1] is the pass's
# op argv lists as JSON; the last line of stdout is each op's exit status
# (or exception) and the process's peak RSS in KiB, as JSON.  The peak is
# VmHWM, the high-water mark of the process's own memory: Linux carries
# the parent's RSS into a child's ru_maxrss across exec.
PASS_SCRIPT = """
import json, sys
from sparsetrees import cli
statuses = []
for argv in json.loads(sys.argv[1]):
    try:
        statuses.append(cli.run(argv))
    except Exception as exc:
        statuses.append(repr(exc))
with open("/proc/self/status", encoding="ascii") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"statuses": statuses, "hwm_kib": hwm_kib}))
"""


class Workload:
    """One workload's configs on disk, its reference, and its failure tally."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.probe = PROBES[workloads.PROBE[name]]
        self.configs = workloads.ops(name, seed, smoke)
        self.config_paths = []
        self.argvs = []
        for i, cfg in enumerate(self.configs):
            path = WORK / f"op{i}.json"
            write_config(path, cfg)
            ext = "csv" if cfg.get("format") == "csv" else "json"
            self.config_paths.append(path)
            self.argvs.append(
                [cfg["subcommand"], "--config", str(path), "--out", str(WORK / f"out{i}.{ext}")]
            )
        self.reference = None
        if workloads.has_reference(name, seed, smoke):
            self.reference = load_reference(name)
            if [op["config"] for op in self.reference["ops"]] != self.configs:
                raise RuntimeError(f"reference/{name}.json.gz holds other configs")
        self.attempted = 0
        self.failed = 0
        self.first_digests = None
        self.dev_over_tol = 0.0

    def warm_up(self, run) -> None:
        """Run the smoke-size ops once, so lazy imports and caches are set up."""
        for i, cfg in enumerate(workloads.ops(self.name, self.seed, smoke=True)):
            path, out = WORK / f"warm{i}.json", WORK / f"warm{i}.out"
            write_config(path, cfg)
            status, log = call_op(run, [cfg["subcommand"], "--config", str(path), "--out", str(out)])
            self.attempted += 1
            if status != 0:
                self.fail(f"warm-up op{i} exited with {status}: {log.strip()}")
            else:
                for problem in checks.check(cfg, out.read_bytes(), None):
                    self.fail(f"warm-up op{i}: {problem}")

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def run_pass(self, run) -> tuple[float, float, float]:
        """Run every op once through run; returns the pass's scaled CPU,
        CPU and wall times, each summed over the ops.

        The first pass's outputs are checked by value; every later pass
        must reproduce them byte for byte.
        """
        scaled = cpu = wall = 0.0
        statuses = []
        before = self.probe.read()
        for argv in self.argvs:
            start = time.perf_counter()
            cpu_start = time.process_time()
            statuses.append(call_op(run, argv))
            op_cpu = time.process_time() - cpu_start
            wall += time.perf_counter() - start
            after = self.probe.read()
            cpu += op_cpu
            scaled += self.probe.scale(op_cpu, before, after)
            before = after
        self.attempted += len(self.argvs)
        for i, (status, log) in enumerate(statuses):
            if status != 0:
                self.fail(f"op{i} exited with {status}: {log.strip()}")
                self.record_output(i, None)
            else:
                self.record_output(i, Path(self.argvs[i][-1]).read_bytes())
        return scaled, cpu, wall

    def record_output(self, i: int, data: bytes | None, origin: str = "") -> None:
        """Check op i's output, keeping only its digest.

        The first pass's outputs are checked by value and their digests
        kept; every later output of op i must match its digest.
        """
        if self.first_digests is None:
            self.first_digests = [None] * len(self.argvs)
        if data is None:
            return
        if self.first_digests[i] is None:
            ref = None if self.reference is None else self.reference["ops"][i]
            problems = checks.check(self.configs[i], data, ref)
            for problem in problems:
                self.fail(f"{origin}op{i}: {problem}")
            if not problems and self.configs[i]["subcommand"] == "decompose":
                self.dev_over_tol = max(self.dev_over_tol, checks.dev_over_tol(data))
            self.first_digests[i] = checks.digest(data)
        elif checks.digest(data) != self.first_digests[i]:
            self.fail(f"{origin}op{i}: output bytes differ from the first pass")

    def byte_identical_to_reference(self) -> str | None:
        if self.reference is None:
            return None
        same = sum(
            digest == op["sha256"]
            for digest, op in zip(self.first_digests, self.reference["ops"])
        )
        return f"{same}/{len(self.first_digests)}"


def call_op(run, argv: list[str]) -> tuple[object, str]:
    """One op through run; returns its exit status (or traceback) and stderr."""
    log = io.StringIO()
    try:
        with contextlib.redirect_stderr(log):
            status = run(argv)
    except Exception:  # a crashing op is a failed op, not a failed benchmark
        status = traceback.format_exc()
    return status, log.getvalue()


def write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def load_reference(name: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{name}.json.gz", "rt", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Probe:
    """A speed probe: a fixed piece of work that does not use sparsetrees.

    Its CPU time, read right before and right after a measured item,
    gauges how fast this core runs that kind of work at that moment (see
    README.md for why).  The item's CPU time is scaled to a core on which
    the probe takes ref_s, about its time on the build host.  A reading
    is the median of `repeats` runs, since the 10 ms Python loop jitters
    by tens of percent; the LAPACK probes run long enough to read once.
    """

    def __init__(self, work, repeats: int, ref_s: float) -> None:
        self.work = work
        self.repeats = repeats
        self.ref_s = ref_s

    def read(self) -> float:
        times = []
        for _ in range(self.repeats):
            start = time.process_time()
            self.work()
            times.append(time.process_time() - start)
        return statistics.median(times)

    def scale(self, cpu: float, before: float, after: float) -> float:
        """cpu scaled to the reference core speed, by the readings around it."""
        return cpu * self.ref_s / ((before + after) / 2)


def _python_loop() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


_rng = np.random.default_rng(0)
_DENSE = _rng.standard_normal((1200, 1200))
_DENSE += _DENSE.T
_DIAG, _OFF = _rng.standard_normal(2000), _rng.standard_normal(1999)

# One probe per kind of work that dominates a workload (workloads.PROBE).
PROBES = {
    "python": Probe(_python_loop, repeats=3, ref_s=0.01),
    "dense": Probe(lambda: np.linalg.eigvalsh(_DENSE), repeats=1, ref_s=0.24),
    "tridiagonal": Probe(
        lambda: scipy.linalg.eigh_tridiagonal(_DIAG, _OFF, eigvals_only=True), repeats=1, ref_s=0.1
    ),
}


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_child(
    argv: list[str], probe: Probe
) -> tuple[tuple[float, float, float], subprocess.CompletedProcess]:
    """Run a child process to its end; returns its CPU time scaled by probe,
    its CPU and wall times, and its result."""
    before = probe.read()
    cpu_start = children_cpu()
    start = time.perf_counter()
    done = subprocess.run(
        argv,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    cpu = children_cpu() - cpu_start
    return (probe.scale(cpu, before, probe.read()), cpu, wall), done


def measure_setup(work: Workload) -> tuple[float, float, float]:
    # Set-up is imports and config parsing, interpreter work on every workload.
    argv = [sys.executable, "-c", SETUP_SCRIPT, *map(str, work.config_paths)]
    times, done = timed_child(argv, PROBES["python"])
    if done.returncode != 0:
        raise RuntimeError(f"setup script failed: {done.stderr.decode(errors='replace')}")
    return times


def measure_cold(work: Workload) -> tuple[float, float, float] | None:
    """A fresh CLI process running the first op; returns its times."""
    argv = list(work.argvs[0])
    argv[-1] = str(WORK / "cold.out")
    times, done = timed_child([sys.executable, "-m", "sparsetrees", *argv], work.probe)
    work.attempted += 1
    if done.returncode != 0:
        work.fail(f"cold op0 exited with {done.returncode}: {done.stderr.decode(errors='replace')}")
        return None
    work.record_output(0, Path(argv[-1]).read_bytes(), "cold ")
    return times


def measure_peak_rss(work: Workload) -> float:
    """Peak RSS in MB of a fresh process running one pass."""
    argvs = [argv[:-1] + [str(WORK / f"rss{i}.out")] for i, argv in enumerate(work.argvs)]
    done = subprocess.run(
        [sys.executable, "-c", PASS_SCRIPT, json.dumps(argvs)],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"peak-RSS pass crashed: {done.stderr.decode(errors='replace')}")
    report = json.loads(done.stdout.decode().splitlines()[-1])
    work.attempted += len(argvs)
    for i, (argv, status) in enumerate(zip(argvs, report["statuses"])):
        if status != 0:
            work.fail(f"fresh-process op{i} exited with {status}")
        else:
            work.record_output(i, Path(argv[-1]).read_bytes(), "fresh-process ")
    return report["hwm_kib"] / 1024.0


def import_cli():
    sys.path.insert(0, str(SRC))
    import sparsetrees
    import sparsetrees.cli

    if Path(sparsetrees.__file__).resolve().parent != SRC / "sparsetrees":
        raise RuntimeError(f"sparsetrees was imported from {sparsetrees.__file__}, not src/")
    return sparsetrees.cli


def openblas_builds() -> list[dict]:
    """Runtime config string and thread count of each OpenBLAS loaded here."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    builds = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for key, restype in (("config", ctypes.c_char_p), ("num_threads", ctypes.c_int)):
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}_get_{key}{suffix}", None)
                    if fn is not None and key not in entry:
                        fn.restype = restype
                        value = fn()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
        builds.append(entry)
    return builds


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "openblas": openblas_builds(),
    }


def end_to_end(work: Workload, cli, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Rounds of one setup sample, one cold sample and one warm pass, so that
    samples of all three spread over the run.  A round skips what already
    has enough samples; passes go on until they have run for `seconds`.
    The first round also runs the fresh-process pass for the peak RSS."""
    setup_repeats = 1 if smoke else workloads.SETUP_REPEATS
    cold_repeats = 1 if smoke else workloads.COLD_REPEATS[work.name]
    work.warm_up(cli.run)
    passes, setup, cold = [], [], []
    peak_rss_mb = None
    rounds = 0
    while rounds < max(setup_repeats, cold_repeats) or sum(wall for *_, wall in passes) < seconds:
        if rounds < setup_repeats:
            setup.append(measure_setup(work))
        if rounds < cold_repeats:
            sample = measure_cold(work)
            if sample is not None:
                cold.append(sample)
        if not passes or sum(wall for *_, wall in passes) < seconds:
            passes.append(work.run_pass(cli.run))  # the first pass is checked by value
        if peak_rss_mb is None:
            peak_rss_mb = measure_peak_rss(work)
        rounds += 1
    if not cold:
        raise RuntimeError("no cold run of the first op succeeded")
    values = {
        "pass_s": statistics.median(scaled for scaled, *_ in passes),
        "cold_s": statistics.median(scaled for scaled, *_ in cold),
        "setup_s": statistics.median(scaled for scaled, *_ in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {"pass": passes, "cold": cold, "setup": setup}
    return values, {
        "samples": {name: len(triples) for name, triples in raw.items()},
        "scaled_cpu_wall_s": raw,
    }


def per_layer(work: Workload, cli, seconds: float) -> tuple[dict, dict]:
    """Alternating untraced and traced passes; the tracer's clock is CPU time."""
    work.warm_up(cli.run)
    tracer = Tracer()
    untraced, traced, layers, coverage = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(work.run_pass(cli.run))  # the first pass is checked by value
        tracer.reset()
        tracer.install()
        try:
            traced.append(work.run_pass(tracer.span(CLI, cli.run)))
        finally:
            tracer.uninstall()
        layers.append(tracer.pass_metrics())
        coverage.append(tracer.layer_self_total() / traced[-1][1])

    from sparsetrees.transfer import bump_coefficients

    values = {
        name: statistics.median(layer[name] for layer in layers) if name.endswith("self_s") else value
        for name, value in layers[0].items()
    }
    for name in layers[0]:
        if not name.endswith("self_s") and any(layer[name] != layers[0][name] for layer in layers):
            work.fail(f"{name} differs between traced passes: {[layer[name] for layer in layers]}")
    values.update(
        {
            "transfer.bump_cache_entries": bump_coefficients.cache_info().currsize,
            "decomposition.dev_over_tol": work.dev_over_tol,
            "trace.coverage": statistics.median(coverage),
            "trace.pass_cpu_s": statistics.median(cpu for _, cpu, _ in traced),
            "trace.overhead_s": statistics.median(scaled for scaled, *_ in traced)
            - statistics.median(scaled for scaled, *_ in untraced),
        }
    )
    samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    return values, {"samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, one sample each")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (SRC / "sparsetrees" / "__init__.py").is_file():
        print(f"perfbench: no sparsetrees sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]

    # Probes and the items they scale must share a core: pin this process,
    # and so every child it starts, to one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        work = Workload(args.workload, args.seed, args.smoke)
        cli = import_cli()
        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            values, info = per_layer(work, cli, seconds)
        else:
            values, info = end_to_end(work, cli, seconds, args.smoke)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if {m["name"] for m in declared} != values.keys():
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares other metrics")
    info.update(
        workload=args.workload,
        seed=args.seed,
        smoke=args.smoke,
        trace=args.trace,
        machine=machine(),
        byte_identical_to_reference=work.byte_identical_to_reference(),
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
