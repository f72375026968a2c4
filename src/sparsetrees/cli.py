"""Command line front end.

Seven subcommands cover the pipeline: tree construction statistics,
block-decomposition verification, truncated spectra, phase-flow runs,
phase-diagram classification, Monte Carlo exponent estimation, and the
theorem-condition classifier.  Every run is driven by a JSON config file
(`--config`), optionally overridden by `--seed`, `--out` and `--format`,
and produces deterministic bytes: same config and seed, same output.

Exit codes: 0 on success, 2 on validation errors, 3 on size-guard
violations.

Importing this module loads no numpy, which is imported only where arrays
are built (see the package docstring): decompose, spectrum and mc-exponent
load it, and so does an omega spec, whose jitter comes from numpy's Philox
stream; phase-diagram, and tree-stats, efgp-run and classify-theorems on a
gamma or explicit spec, never do.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from contextlib import contextmanager
from decimal import Decimal

from . import __version__
from .errors import GuardError, ValidationError
from .jacobi import ADJACENCY, DEGREE
from .phase import PhaseReducer, resolve_angle
from .reports import (
    CsvTable,
    EFGP_RUN_HEADER,
    PHASE_DIAGRAM_HEADER,
    SPECTRUM_HEADER,
    decimal_levels,
    emit,
)
from .spectral import (
    coverage_grid,
    covered_fraction,
    energy_grid,
    essential_spectrum_coverage,
    mc_exponent,
    phase_diagram,
    theorem_classifier,
)
from .transfer import boundary_theta0, efgp_run
from .trees import (
    ball_count,
    estimate_dimension,
    int_field,
    parse_gamma,
    record_field,
    spec_from_record,
    spec_to_record,
    theoretical_dimension,
    validate,
)

# The subcommands whose handlers return a CsvTable.
CSV_SUBCOMMANDS = ("spectrum", "efgp-run", "phase-diagram")


def _finite(value, name: str) -> float:
    """value as a float; bools, non-numbers, NaN and infinities are refused."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name}: must be a finite number")
    return float(value)


def _float_field(cfg: dict, name: str, *default: float) -> float:
    return _finite(record_field(cfg, name, *default), name)


def _spec_field(cfg: dict):
    return spec_from_record(record_field(cfg, "spec"))


def _phi_field(cfg: dict) -> float | PhaseReducer:
    """The phase angle: the float `phi`, or the exact reducer of the
    rational multiple of pi `phi_pi_multiple`, parsed once.  The functions
    that take it check it, naming its field."""
    phi = cfg.get("phi")
    multiple = cfg.get("phi_pi_multiple")
    if (phi is None) == (multiple is None):
        raise ValidationError("phi: give exactly one of phi, phi_pi_multiple")
    if multiple is None:
        return _finite(phi, "phi")
    return PhaseReducer.from_pi_multiple(str(multiple))


def _energy_grid(cfg: dict) -> list[float]:
    grid = record_field(cfg, "energies")
    if isinstance(grid, list) and grid:
        return [_finite(e, "energies") for e in grid]
    if isinstance(grid, dict):
        lo = _float_field(grid, "min")
        hi = _float_field(grid, "max")
        points = int_field(grid, "points")
        return energy_grid(lo, hi, points, "points")
    raise ValidationError("energies: must be a nonempty list or a min/max/points mapping")


def _variant_field(cfg: dict, allow_both: bool) -> str:
    allowed = (ADJACENCY, DEGREE) + (("both",) if allow_both else ())
    variant = record_field(cfg, "variant", "both" if allow_both else ADJACENCY)
    if variant not in allowed:
        raise ValidationError(f"variant: must be one of {', '.join(allowed)}")
    return variant


# ---------------------------------------------------------------------------
# Subcommand handlers: config -> (payload, optional CSV view)
# ---------------------------------------------------------------------------


def _run_tree_stats(cfg: dict, seed: int):
    spec = _spec_field(cfg)
    depth = int_field(cfg, "depth")
    payload = {
        "spec": spec_to_record(spec),
        "n_branchings": len(spec.branch_levels),
        "depth": depth,
        # a Decimal integer: str() of an int past 4,300 digits is refused
        "vertex_count": Decimal(ball_count(spec, depth)),
        "estimated_dimension": estimate_dimension(spec, depth),
        "structure": validate(spec),
    }
    if spec.gamma is not None:
        payload["theoretical_dimension"] = theoretical_dimension(
            spec.branch_factors[0], spec.gamma
        )
    return payload, None


@contextmanager
def _work_sized_by(field: str):
    """Name the config field behind an operator whose eigensolve work the
    operators' work guards refuse (their messages start with "size:")."""
    try:
        yield
    except GuardError as exc:
        if not str(exc).startswith("size:"):
            raise
        raise GuardError(f"{field}: the truncation is too large to solve ({exc})") from None


def _run_decompose(cfg: dict, seed: int):
    from .decomposition import verify_decomposition

    spec = _spec_field(cfg)
    depth = int_field(cfg, "depth")
    variant = _variant_field(cfg, allow_both=True)
    rho = _float_field(cfg, "rho", 0.0)
    variants = (ADJACENCY, DEGREE) if variant == "both" else (variant,)
    with _work_sized_by("depth"):
        reports = {v: dataclasses.asdict(verify_decomposition(spec, depth, v, rho)) for v in variants}
    payload = {
        "spec": spec_to_record(spec),
        "depth": depth,
        "rho": rho,
        "reports": reports,
        "passed": all(r["passed"] for r in reports.values()),
    }
    return payload, None


def _run_spectrum(cfg: dict, seed: int):
    from .decomposition import truncated_block
    from .operators import eigenvalues_sym

    spec = _spec_field(cfg)
    depth = int_field(cfg, "depth")
    block = int_field(cfg, "block", 0)
    variant = _variant_field(cfg, allow_both=False)
    rho = _float_field(cfg, "rho", 0.0)
    with_coverage = "coverage" in cfg
    if with_coverage:
        cov = cfg["coverage"]
        if not isinstance(cov, dict):
            raise ValidationError("coverage: must be a mapping with eps, grid_points")
        eps = _float_field(cov, "eps")
        grid_points = int_field(cov, "grid_points", 1000)
        grid = coverage_grid(eps, grid_points)
    with _work_sized_by("depth"):
        solved = eigenvalues_sym(truncated_block(spec, block, depth, variant, rho))
    eigenvalues = solved.tolist()
    payload = {
        "spec": spec_to_record(spec),
        "block": block,
        "depth": depth,
        "variant": variant,
        "rho": rho,
        "eigenvalues": eigenvalues,
    }
    if with_coverage:
        # Coverage is taken on the root adjacency block at rho = 0; reuse
        # its eigenvalues when that is the block just solved.
        if block == 0 and variant == ADJACENCY and rho == 0.0:
            fraction = covered_fraction(solved, grid, eps)
        else:
            with _work_sized_by("depth"):
                fraction = essential_spectrum_coverage(spec, depth, eps, grid_points)
        payload["coverage"] = {"eps": eps, "grid_points": grid_points, "fraction": fraction}
    return payload, CsvTable(SPECTRUM_HEADER, (range(len(eigenvalues)), eigenvalues))


def _run_efgp(cfg: dict, seed: int):
    spec = _spec_field(cfg)
    phi = _phi_field(cfg)
    angle = resolve_angle(phi)[0]
    if "rho" in cfg and "theta0" in cfg:
        raise ValidationError("theta0: give either theta0 or rho, not both")
    if "rho" in cfg:
        theta0 = boundary_theta0(_float_field(cfg, "rho"), phi)
    else:
        theta0 = _float_field(cfg, "theta0", 0.0)
    n_bumps = int_field(cfg, "n_bumps", len(spec.branch_levels))
    trajectory = efgp_run(spec, phi, theta0=theta0, n_bumps=n_bumps)
    levels = (0,) + spec.branch_levels[:n_bumps]
    table = CsvTable(
        EFGP_RUN_HEADER,
        (
            range(n_bumps + 1),
            decimal_levels(levels, spec.gamma or 1),
            trajectory.log_r,
            trajectory.theta,
            trajectory.y,
        ),
    )
    payload = {
        "spec": spec_to_record(spec),
        "phi": angle,
        "theta0": theta0,
        "n_bumps": n_bumps,
        "mean_y": trajectory.mean_y(),
        "rows": table,
    }
    return payload, table


def _run_phase_diagram(cfg: dict, seed: int):
    k = int_field(cfg, "k")
    gamma = parse_gamma(record_field(cfg, "gamma"))
    energies = _energy_grid(cfg)
    points = phase_diagram(k, gamma, energies)
    table = CsvTable(
        PHASE_DIAGRAM_HEADER,
        tuple(zip(*((p.energy, p.k, p.gamma, p.label, p.alpha) for p in points))),
    )
    return {"k": k, "gamma": float(gamma), "points": table}, table


def _run_mc_exponent(cfg: dict, seed: int):
    k = int_field(cfg, "k")
    gamma = parse_gamma(record_field(cfg, "gamma"))
    report = mc_exponent(
        k,
        gamma,
        _phi_field(cfg),
        n_bumps=int_field(cfg, "n_bumps", 2000),
        trials=int_field(cfg, "trials", 20),
        seed=seed,
    )
    return dataclasses.asdict(report), None


def _run_classify(cfg: dict, seed: int):
    spec = _spec_field(cfg)
    report = theorem_classifier(spec)
    payload = {"spec": spec_to_record(spec)}
    payload.update(dataclasses.asdict(report))
    payload["holds"] = report.holds
    return payload, None


_HANDLERS = {
    "tree-stats": _run_tree_stats,
    "decompose": _run_decompose,
    "spectrum": _run_spectrum,
    "efgp-run": _run_efgp,
    "phase-diagram": _run_phase_diagram,
    "mc-exponent": _run_mc_exponent,
    "classify-theorems": _run_classify,
}
SUBCOMMANDS = tuple(_HANDLERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsetrees",
        description="Spectral analysis of spherically homogeneous sparse trees",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def _load_config(path: str) -> tuple[str, dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config: top level must be a JSON object")
    return text, cfg


def _out_error(path: str, reason) -> ValidationError:
    return ValidationError(f"out: cannot write {path}: {reason}")


def _check_out(path: str) -> None:
    """Refuse --out before any work if it names a directory, or unless its
    directory exists and is writable."""
    if os.path.isdir(path):
        raise _out_error(path, "is a directory")
    folder = os.path.dirname(path) or os.curdir
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise _out_error(path, f"{folder} is not a writable directory")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_text, cfg = _load_config(args.config)
        declared = cfg.get("subcommand")
        if declared is not None and declared != args.subcommand:
            raise ValidationError(
                f"subcommand: config declares {declared!r} but {args.subcommand!r} was invoked"
            )
        seed = args.seed if args.seed is not None else int_field(cfg, "seed", 0)
        if not 0 <= seed < 2**64:
            raise ValidationError("seed: must fit in 64 bits")
        fmt = args.format or record_field(cfg, "format", "json")
        if fmt not in ("csv", "json"):
            raise ValidationError(f"format: unknown format {fmt!r}")
        if fmt == "csv" and args.subcommand not in CSV_SUBCOMMANDS:
            raise ValidationError(f"format: csv output is not defined for {args.subcommand}")
        if args.out:
            _check_out(args.out)

        started = time.perf_counter()
        payload, table = _HANDLERS[args.subcommand](cfg, seed)
        elapsed = time.perf_counter() - started
        data = emit(
            fmt,
            table,
            version=__version__,
            subcommand=args.subcommand,
            config_text=config_text,
            seed=seed,
            payload=payload,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3

    if args.out:
        try:
            with open(args.out, "wb") as handle:
                handle.write(data)
        except OSError as exc:
            print(f"error: {_out_error(args.out, exc)}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    print(f"elapsed_seconds={elapsed:.3f}", file=sys.stderr)
    return 0
