"""Deterministic serialization of run reports.

Every emitted byte is a pure function of the run configuration and seed:
floats are printed with 17 significant digits (enough to round-trip a
double exactly), JSON objects keep the key order their payloads were
built with, CSV tables carry a fixed documented header row, and wall
clock timing never enters the output stream.  Eigenvalues of operators up
to operators.BISECTION_ROWS rows come from LAPACK-free bisection, so
those reports are the same bytes on every platform; above that cap the
last bits of eigenvalues, and so the bytes, depend on the LAPACK build.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PHASE_DIAGRAM_HEADER = "E,k,gamma,class,alpha"
EFGP_RUN_HEADER = "n,L_n,log_r,theta,Y_n"
SPECTRUM_HEADER = "i,lambda_i"


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValidationError("value: reports only carry finite numbers")
    return "%.17g" % value


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise ValidationError(f"payload: cannot serialize a {type(value).__name__}")


def stable_json(obj) -> str:
    """JSON text with deterministic key order and float formatting."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(key))}: {stable_json(value)}" for key, value in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(stable_json(value) for value in obj) + "]"
    return _scalar(obj)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            raise ValidationError("payload: CSV cells must not need quoting")
        return value
    return _scalar(value)


@dataclass(frozen=True)
class CsvTable:
    """Tabular payload view: a pinned header line plus value rows."""

    header: str
    rows: tuple[tuple, ...]

    def emit(self) -> bytes:
        lines = [self.header]
        width = len(self.header.split(","))
        for row in self.rows:
            if len(row) != width:
                raise ValidationError("payload: CSV row width must match the header")
            lines.append(",".join(_csv_cell(cell) for cell in row))
        return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass(frozen=True)
class ReportEnvelope:
    """A finished run: version, config echo, effective seed, payload.

    config_text is the configuration file's content verbatim, so the
    input can be recovered byte-identically from any JSON report.
    timing_seconds is informational only and is excluded from emitted
    bytes to keep reports reproducible.
    """

    version: str
    subcommand: str
    config_text: str
    seed: int
    payload: dict
    timing_seconds: float | None = None

    def json_bytes(self) -> bytes:
        body = {
            "version": self.version,
            "subcommand": self.subcommand,
            "config": self.config_text,
            "seed": self.seed,
            "payload": self.payload,
        }
        return (stable_json(body) + "\n").encode("utf-8")


def emit(envelope: ReportEnvelope, fmt: str, table: CsvTable | None = None) -> bytes:
    if fmt == "json":
        return envelope.json_bytes()
    if fmt == "csv":
        if table is None:
            raise ValidationError(
                f"format: csv output is not defined for {envelope.subcommand}"
            )
        return table.emit()
    raise ValidationError(f"format: unknown format {fmt!r}")
