#!/usr/bin/env python3
"""Regenerate the stored reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py [workload ...]

Runs each op of the named workloads (all by default) once at the
reference seed and stores, per op, its config, the SHA-256 of its output
bytes and the values checks.py compares.  Outputs must pass the invariant
checks first.  Run this only when an output changes on purpose.
"""

import gzip
import json
import shutil
import sys

import checks
import run  # pins the BLAS thread count before numpy loads
import workloads


def reference(cli, name: str) -> dict:
    entries = []
    for cfg in workloads.ops(name, workloads.REFERENCE_SEED):
        config = run.WORK / "op.json"
        out = run.WORK / "out"
        run.write_config(config, cfg)
        status = cli.run([cfg["subcommand"], "--config", str(config), "--out", str(out)])
        data = out.read_bytes() if status == 0 else b""
        problems = checks.check(cfg, data, None) if status == 0 else [f"exit code {status}"]
        if problems:
            raise SystemExit(f"{name}: {cfg['subcommand']} failed its checks: {problems}")
        entries.append({"config": cfg, "sha256": checks.digest(data), "values": checks.values(cfg, data)})
    return {"workload": name, "seed": workloads.REFERENCE_SEED, "ops": entries}


def main(names: list[str]) -> None:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    try:
        cli = run.import_cli()
        for name in names or workloads.WORKLOADS:
            text = json.dumps(reference(cli, name)) + "\n"
            path = run.REFERENCE_DIR / f"{name}.json.gz"
            with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(text.encode("utf-8"))
            print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
