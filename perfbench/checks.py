"""Value checks on op outputs.

Outputs are checked by value, not by bytes, because dense and tridiagonal
eigensolves differ in the last bits between BLAS builds.  Every output
gets the invariant checks; where a stored reference applies, values are
also compared with it:

* decompose: `passed` and `counting_ok` are true for every variant.
* spectrum: one eigenvalue per row of the block, all finite and
  ascending; with a reference, each within 1e-9 * (1 + max |lambda|) of
  it, and the coverage fraction within one grid point.
* mc-exponent: every number finite and one trial mean per trial; with a
  reference, each number within REL_TOL * (1 + |reference|).
* efgp-run: the pinned CSV header, one row per checkpoint, all finite;
  with a reference, every 100th row and the column sums of log_r and Y_n
  within REL_TOL * (1 + |reference|), angles compared on the circle.

Byte identity with the reference is counted separately, for information.
"""

import hashlib
import json
import math

REL_TOL = 1e-9
_EFGP_HEADER = "n,L_n,log_r,theta,Y_n"
_THETA_COLUMN = 3
_ROW_STRIDE = 100


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(value: float, reference: float, scale: float | None = None) -> bool:
    base = abs(reference) if scale is None else scale
    return abs(value - reference) <= REL_TOL * (1.0 + base)


def _angle_close(value: float, reference: float) -> bool:
    gap = abs(value - reference) % (2.0 * math.pi)
    return min(gap, 2.0 * math.pi - gap) <= REL_TOL * (1.0 + abs(reference))


def _payload(data: bytes) -> dict:
    return json.loads(data)["payload"]


def _efgp_rows(data: bytes) -> tuple[str, list[list]]:
    """Header and rows; n and L_n stay exact integers (L_n has ~1000 digits)."""
    lines = data.decode("utf-8").splitlines()
    rows = []
    for line in lines[1:]:
        n, level, *rest = line.split(",")
        rows.append([int(n), int(level), *map(float, rest)])
    return lines[0], rows


def values(cfg: dict, data: bytes) -> dict:
    """The parts of an output that the reference stores and compares."""
    sub = cfg["subcommand"]
    if sub == "mc-exponent":
        return {
            key: value
            for key, value in _payload(data).items()
            if isinstance(value, (int, float, list)) and not isinstance(value, bool)
        }
    if sub == "efgp-run":
        _, rows = _efgp_rows(data)
        return {
            "rows": [row for row in rows if row[0] % _ROW_STRIDE == 0 or row is rows[-1]],
            "sum_log_r": math.fsum(row[2] for row in rows),
            "sum_y": math.fsum(row[4] for row in rows),
        }
    if sub == "spectrum":
        payload = _payload(data)
        coverage = payload.get("coverage")
        return {
            "eigenvalues": payload["eigenvalues"],
            "coverage": None if coverage is None else coverage["fraction"],
        }
    return {}


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _invariants(cfg: dict, data: bytes) -> list[str]:
    sub = cfg["subcommand"]
    problems = []
    if sub == "decompose":
        payload = _payload(data)
        for variant, report in payload["reports"].items():
            if not (report["passed"] and report["counting_ok"]):
                problems.append(f"decompose {variant}: passed or counting_ok is false")
        if not payload["passed"]:
            problems.append("decompose: passed is false")
    elif sub == "spectrum":
        eigenvalues = _payload(data)["eigenvalues"]
        if len(eigenvalues) != cfg["depth"] + 1:
            problems.append(f"spectrum: {len(eigenvalues)} eigenvalues for {cfg['depth'] + 1} rows")
        if any(b < a for a, b in zip(eigenvalues, eigenvalues[1:])):
            problems.append("spectrum: eigenvalues are not ascending")
    elif sub == "mc-exponent":
        means = _payload(data)["trial_means"]
        if len(means) != cfg["trials"]:
            problems.append(f"mc-exponent: {len(means)} trial means for {cfg['trials']} trials")
    elif sub == "efgp-run":
        header, rows = _efgp_rows(data)
        if header != _EFGP_HEADER:
            problems.append(f"efgp-run: header {header!r}")
        if [row[0] for row in rows] != list(range(cfg["spec"]["N"] + 1)):
            problems.append("efgp-run: checkpoint rows are not 0..N")
    if sub == "efgp-run":
        numbers = [cell for row in _efgp_rows(data)[1] for cell in row[2:]]
    else:
        numbers = list(_numbers(_payload(data)))
    if not all(math.isfinite(x) for x in numbers):
        problems.append(f"{sub}: non-finite value in the output")
    return problems


def _against_reference(cfg: dict, got: dict, ref: dict) -> list[str]:
    sub = cfg["subcommand"]
    if sub == "spectrum":
        eigs, ref_eigs = got["eigenvalues"], ref["eigenvalues"]
        if len(eigs) != len(ref_eigs):
            return ["spectrum: eigenvalue count differs from the reference"]
        scale = max(abs(x) for x in ref_eigs)
        problems = []
        if not all(_close(a, b, scale) for a, b in zip(eigs, ref_eigs)):
            problems.append("spectrum: eigenvalues differ from the reference")
        if ref["coverage"] is not None and (
            got["coverage"] is None
            or abs(got["coverage"] - ref["coverage"]) > 1.0 / cfg["coverage"]["grid_points"]
        ):
            problems.append("spectrum: coverage differs from the reference")
        return problems
    if sub == "efgp-run":
        if len(got["rows"]) != len(ref["rows"]):
            return ["efgp-run: checkpoint count differs from the reference"]
        for row, ref_row in zip(got["rows"], ref["rows"]):
            same = row[:2] == ref_row[:2] and all(
                _angle_close(a, b) if col == _THETA_COLUMN else _close(a, b)
                for col, (a, b) in enumerate(zip(row, ref_row))
                if col >= 2
            )
            if not same:
                return [f"efgp-run: row {ref_row[0]} differs from the reference"]
        if not (_close(got["sum_log_r"], ref["sum_log_r"]) and _close(got["sum_y"], ref["sum_y"])):
            return ["efgp-run: column sums differ from the reference"]
        return []
    if sub == "mc-exponent":
        if got.keys() != ref.keys():
            return ["mc-exponent: fields differ from the reference"]
        for key, want in ref.items():
            have = got[key]
            pairs = zip(have, want) if isinstance(want, list) else [(have, want)]
            if isinstance(want, list) and len(have) != len(want):
                return [f"mc-exponent: {key} length differs from the reference"]
            if not all(_close(a, b) for a, b in pairs):
                return [f"mc-exponent: {key} differs from the reference"]
        return []
    return []


def check(cfg: dict, data: bytes, ref: dict | None) -> list[str]:
    """Problems found in one op's output; empty when it is correct.

    ref is the op's stored reference entry, or None when none applies.
    """
    try:
        problems = _invariants(cfg, data)
        if ref is not None:
            problems += _against_reference(cfg, values(cfg, data), ref["values"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"{cfg['subcommand']}: unreadable output ({exc!r})"]
    return problems


def dev_over_tol(data: bytes) -> float:
    """Largest max_deviation / tolerance over a decompose report's variants."""
    reports = _payload(data)["reports"].values()
    return max(r["max_deviation"] / r["tolerance"] for r in reports)
