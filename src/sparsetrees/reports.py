"""Deterministic serialization of run reports.

Every emitted byte is a pure function of the run configuration and seed:
floats are printed with 17 significant digits (enough to round-trip a
double exactly), JSON objects keep the key order their payloads were
built with, CSV tables carry a fixed documented header row, and wall
clock timing never enters the output stream.  A tabular payload is one
table of typed columns, and its CSV lines and its JSON records are both
rendered from it with one printf template per table, one `%` operation
per row.  Each column is type-scanned and checked once for one
conversion: "%.17g" for all floats (after one finiteness check), "%d"
for all ints, "%s" for all Decimals (after one check that they are plain
integers), and "%s" over cells formatted one by one for any other kind.
CPython's int -> str takes time quadratic in the digits, a Decimal's
str() linear time, so huge integers are best handed over as Decimals:
`decimal_levels` makes them for the geometric floors from the floors' own
recurrence, a few linear-time decimal steps per level.  Eigenvalues of
trees, and of blocks of up to operators.CLASS_COUNT_ROWS rows, come from
bisection in plain IEEE arithmetic, so those reports are the same bytes
on every platform; only longer blocks, whose stretch count calls libm,
take their last bits, and so their bytes, from the platform.
"""

import json
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError

PHASE_DIAGRAM_HEADER = "E,k,gamma,class,alpha"
EFGP_RUN_HEADER = "n,L_n,log_r,theta,Y_n"
SPECTRUM_HEADER = "i,lambda_i"

_LOG10_2 = math.log10(2)
_ONE = Decimal(1)


def _require_finite(finite) -> None:
    if not finite:
        raise ValidationError("value: reports only carry finite numbers")


def _require_plain_integers(decimals) -> None:
    """Refuse every Decimal but the finite integers of exponent 0 other
    than -0: only theirs is the str() of the int they hold."""
    _require_finite(all(map(Decimal.is_finite, decimals)))
    negative_zero = any(map(Decimal.is_zero, filter(Decimal.is_signed, decimals)))
    if negative_zero or not all(map(_ONE.same_quantum, decimals)):
        raise ValidationError("payload: cannot serialize a Decimal")


def format_float(value: float) -> str:
    _require_finite(math.isfinite(value))
    return "%.17g" % value


def decimal_levels(levels: Sequence[int], ratio: Fraction) -> list[Decimal]:
    """The ints `levels` as Decimal integers, whose str() takes linear time.

    Each comes from the one before it by the floors' recurrence of ratio
    p/q (stated at `trees.make_gamma_tree`), from 0 before the first:
    e_n = q * L_n - p * L_(n-1) is taken exactly from the ints and
    D_n = (p * D_(n-1) + e_n) / q in decimal, a few steps linear in the
    digits.  The context holds the last level's digits, times q, with a
    margin, and traps every rounding, so each step is exact or raises a
    decimal signal: the walk never gives a wrong digit, for any ints and
    any ratio.  The ratio only decides how small e_n stays, and so the speed.
    """
    p, q = ratio.numerator, ratio.denominator
    last = abs(levels[-1]) if levels else 0
    context = Context(
        prec=int((q * last).bit_length() * _LOG10_2) + 2,
        Emax=MAX_EMAX,
        traps=[Inexact, Rounded, InvalidOperation],
    )
    p_dec, q_dec = Decimal(p), Decimal(q)
    walked, previous, value = [], 0, Decimal(0)
    with localcontext(context):
        for level in levels:
            value = (p_dec * value + (q * level - p * previous)) // q_dec
            previous = level
            walked.append(value)
    return walked


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Decimal):
        _require_plain_integers((value,))
        return str(value)
    if isinstance(value, float):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise ValidationError(f"payload: cannot serialize a {type(value).__name__}")


def _column(values, cell) -> tuple[str, Iterable]:
    """One column's printf conversion and the values it takes: "%.17g",
    "%d" or "%s" over an all-float, all-int or all-Decimal column, else
    "%s" over its cells formatted lazily by cell.  values must be a
    sequence: it is scanned and checked before anything is formatted."""
    kinds = set(map(type, values))
    if kinds == {float}:
        _require_finite(all(map(math.isfinite, values)))
        return "%.17g", values
    if kinds == {int}:
        return "%d", values
    if kinds == {Decimal}:
        _require_plain_integers(values)
        return "%s", values
    return "%s", map(cell, values)


def stable_json(obj) -> str:
    """JSON text with deterministic key order and float formatting."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(key))}: {stable_json(value)}" for key, value in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        spec, values = _column(obj, stable_json)
        return "[" + ", ".join(map(spec.__mod__, values)) + "]"
    if isinstance(obj, CsvTable):
        return obj.json_records()
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
    """Tabular payload: a pinned header line over typed columns.

    Column i holds the values of header field i, one per row.  The CSV
    lines come from emit(); inside a JSON payload the table is a list of
    records keyed by the header fields, in header order.
    """

    header: str
    columns: tuple

    def __post_init__(self):
        width = len(self.header.split(","))
        lengths = set(map(len, self.columns))
        if len(self.columns) != width or len(lengths) > 1:
            raise ValidationError("payload: CSV row width must match the header")

    def emit(self) -> bytes:
        specs, columns = zip(*(_column(column, _csv_cell) for column in self.columns))
        line = ",".join(specs)
        # One join: adding the header to the joined rows would copy the report once more.
        return "\n".join([self.header, *map(line.__mod__, zip(*columns)), ""]).encode("utf-8")

    def json_records(self) -> str:
        specs, columns = zip(*(_column(column, stable_json) for column in self.columns))
        keys = (json.dumps(field).replace("%", "%%") for field in self.header.split(","))
        record = "{" + ", ".join(f"{key}: {spec}" for key, spec in zip(keys, specs)) + "}"
        return "[" + ", ".join(map(record.__mod__, zip(*columns))) + "]"


def emit(
    fmt: str,
    table: CsvTable | None,
    *,
    version: str,
    subcommand: str,
    config_text: str,
    seed: int,
    payload: dict,
) -> bytes:
    """The report bytes: table as CSV when fmt is "csv", else the JSON
    envelope of version, subcommand, config, seed and payload.

    The config is config_text, the configuration file's content verbatim,
    so the input can be recovered byte-identically from any JSON report.
    """
    if fmt == "csv":
        return table.emit()
    body = {"version": version, "subcommand": subcommand, "config": config_text, "seed": seed, "payload": payload}
    return (stable_json(body) + "\n").encode("utf-8")
