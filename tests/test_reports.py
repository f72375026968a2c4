"""Report serialization: the column route against the per-cell reference."""

from __future__ import annotations

import decimal
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrees.errors import ValidationError
from sparsetrees.reports import (
    EFGP_RUN_HEADER,
    CsvTable,
    _csv_cell,
    _scalar,
    decimal_levels,
    stable_json,
)
from sparsetrees.transfer import efgp_run
from sparsetrees.trees import make_gamma_tree, sample_omega_tree


# ---------------------------------------------------------------------------
# Reference: the row-by-row CSV emit and the per-element JSON list path
# ---------------------------------------------------------------------------


def as_int(cell):
    """A finite Decimal cell as the int it holds, so the reference prints
    the digits an int column would; any other cell as it is."""
    return int(cell) if isinstance(cell, Decimal) and cell.is_finite() else cell


def reference_csv(header: str, rows) -> bytes:
    """CSV bytes built one row and one cell at a time."""
    lines = [header]
    width = len(header.split(","))
    for row in rows:
        if len(row) != width:
            raise ValidationError("payload: CSV row width must match the header")
        lines.append(",".join(_csv_cell(as_int(cell)) for cell in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_json(obj) -> str:
    """JSON text built one element at a time; a table is a list of dicts."""
    if isinstance(obj, CsvTable):
        fields = obj.header.split(",")
        obj = [dict(zip(fields, row)) for row in zip(*obj.columns)]
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(key))}: {reference_json(value)}" for key, value in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_json(value) for value in obj) + "]"
    return _scalar(as_int(obj))


def rows_of(table: CsvTable) -> tuple[tuple, ...]:
    return tuple(zip(*table.columns))


# ---------------------------------------------------------------------------
# Property: the column route gives the reference's bytes
# ---------------------------------------------------------------------------

EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
HUGE = 10**999
INTS = (
    st.integers()
    | st.integers(min_value=HUGE, max_value=HUGE * 10**60)
    | st.integers(min_value=-HUGE * 10**60, max_value=-HUGE)
)
DECIMALS = INTS.map(Decimal)
PLAIN_TEXT = st.text(
    alphabet=st.characters(blacklist_characters=',\n"', blacklist_categories=("Cs",)),
    max_size=8,
)
FIELD_NAMES = st.text(alphabet='%"\\dgs.17c{}: ', max_size=4)
CELLS = (
    st.none()
    | st.booleans()
    | FLOATS
    | INTS
    | DECIMALS
    | FLOATS.map(np.float64)
    | PLAIN_TEXT
)


@st.composite
def tables(draw) -> CsvTable:
    width = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=0, max_value=8))
    columns = []
    for _ in range(width):
        # A typed column takes the one-pass route, any other column the
        # per-cell one; a column of one kind drawn from CELLS may be either.
        kind = draw(st.sampled_from((FLOATS, INTS, DECIMALS, CELLS, PLAIN_TEXT)))
        column = draw(st.lists(kind, min_size=rows, max_size=rows))
        columns.append(tuple(column) if draw(st.booleans()) else column)
    # Field names may hold printf and JSON specials, which must come out
    # literally; unique, since the reference keys a dict by them.
    fields = draw(st.lists(FIELD_NAMES, min_size=width, max_size=width, unique=True))
    return CsvTable(",".join(fields), tuple(columns))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tables())
def test_csv_columns_give_the_per_cell_bytes(table):
    assert table.emit() == reference_csv(table.header, rows_of(table))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tables())
def test_json_columns_give_the_per_element_bytes(table):
    payload = {"rows": table, "columns": list(table.columns), "nested": [table.columns]}
    assert stable_json(payload) == reference_json(payload)
    for column in table.columns:
        assert stable_json(column) == reference_json(column)


def test_header_fields_with_printf_and_json_specials_render_literally():
    table = CsvTable('%d,"q",100%,%%s', ((1,), (2.5,), (None,), ("x",)))
    assert table.emit() == b'%d,"q",100%,%%s\n1,2.5,,x\n'
    assert stable_json(table) == '[{"%d": 1, "\\"q\\"": 2.5, "100%": null, "%%s": "x"}]'


def efgp_run_columns(spec):
    """The columns `efgp-run` reports for a gamma spec, its levels as Decimals."""
    trajectory = efgp_run(spec, 1.0)
    levels = decimal_levels((0,) + spec.branch_levels, spec.gamma)
    return (range(len(levels)), levels, trajectory.log_r, trajectory.theta, trajectory.y)


def test_efgp_run_table_gives_the_per_cell_bytes():
    # 955-digit floors beside three float columns: the case the column
    # route is for.
    spec = make_gamma_tree(2, 3, 2000)
    table = CsvTable(EFGP_RUN_HEADER, efgp_run_columns(spec))
    assert len(str(table.columns[1][-1])) == 955
    assert table.emit() == reference_csv(table.header, rows_of(table))
    assert stable_json(table) == reference_json(table)


def test_lazy_columns_peak_no_higher_than_the_per_cell_reference():
    columns = efgp_run_columns(make_gamma_tree(2, 3, 2000))
    table = CsvTable(EFGP_RUN_HEADER, columns)
    rows = tuple(zip(*columns))
    assert len(rows) == 2001
    tracemalloc.start()
    try:
        table.emit()
        _, column_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        reference_csv(EFGP_RUN_HEADER, rows)
        _, reference_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column_peak <= reference_peak, (column_peak, reference_peak)


# ---------------------------------------------------------------------------
# Error paths: the messages of the per-cell route, on either route
# ---------------------------------------------------------------------------

NOT_FINITE = "value: reports only carry finite numbers"
NEEDS_QUOTING = "payload: CSV cells must not need quoting"
NOT_A_PLAIN_INTEGER = "payload: cannot serialize a Decimal"
WIDTH = "payload: CSV row width must match the header"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [float, np.float64, Decimal])
def test_non_finite_values_are_refused_in_csv_and_json(bad, wrap):
    column = [wrap(1.0), wrap(bad), wrap(2.0)]
    table = CsvTable("i,x", (range(3), column))
    with pytest.raises(ValidationError) as csv_error:
        table.emit()
    with pytest.raises(ValidationError) as records_error:
        stable_json({"rows": table})
    with pytest.raises(ValidationError) as list_error:
        stable_json(column)
    with pytest.raises(ValidationError) as reference_error:
        reference_csv(table.header, rows_of(table))
    for error in (csv_error, records_error, list_error, reference_error):
        assert str(error.value) == NOT_FINITE


@pytest.mark.parametrize("text", ["1.5", "2.0", "1E+3", "-0"])
def test_decimals_other_than_plain_integers_are_refused(text):
    # Their str() is not the digits of an int, on either route: -0 is 0.
    column = [Decimal(1), Decimal(text)]
    table = CsvTable("i,x", (range(2), column))
    renders = (table.emit, lambda: stable_json({"rows": table}), lambda: stable_json(column))
    for render in renders + (lambda: _scalar(Decimal(text)),):
        with pytest.raises(ValidationError, match=f"^{NOT_A_PLAIN_INTEGER}$"):
            render()


@pytest.mark.parametrize("text", ["a,b", "two\nlines", 'say "hi"'])
def test_csv_strings_that_need_quoting_are_refused(text):
    table = CsvTable("i,label", ((0, 1), ("plain", text)))
    with pytest.raises(ValidationError, match=f"^{NEEDS_QUOTING}$"):
        table.emit()
    with pytest.raises(ValidationError, match=f"^{NEEDS_QUOTING}$"):
        reference_csv(table.header, rows_of(table))
    # JSON escapes such strings instead.
    assert stable_json(table) == reference_json(table)


@pytest.mark.parametrize(
    "header,columns",
    [
        ("a,b", ((1, 2), (3,))),
        ("a,b", ((1, 2),)),
        ("a", ((1, 2), (3, 4))),
    ],
)
def test_table_shape_must_match_the_header(header, columns):
    with pytest.raises(ValidationError, match=f"^{WIDTH}$"):
        CsvTable(header, columns)


# ---------------------------------------------------------------------------
# The digit walk: the levels' own str() texts, or a decimal signal
# ---------------------------------------------------------------------------

RATIOS = st.sampled_from((Fraction(3), Fraction(7, 3), Fraction(11, 5), Fraction(5, 2)))


@st.composite
def level_columns(draw) -> tuple[tuple[int, ...], Fraction]:
    """The L_n column of an efgp-run on a gamma or omega spec, a prefix of
    it included: 0 and then the first n_bumps levels."""
    gamma = draw(RATIOS | st.integers(min_value=2, max_value=9).map(Fraction))
    n_levels = draw(st.integers(min_value=1, max_value=400))
    spec = make_gamma_tree(draw(st.integers(min_value=2, max_value=4)), gamma, n_levels)
    if gamma > 2 and draw(st.booleans()):
        spec = sample_omega_tree(spec, draw(st.integers(min_value=0, max_value=2**64 - 1)))
    n_bumps = draw(st.integers(min_value=1, max_value=n_levels))
    return (0,) + spec.branch_levels[:n_bumps], gamma


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(level_columns())
def test_digit_walk_prints_every_level_of_a_spec(column):
    levels, gamma = column
    assert list(map(str, decimal_levels(levels, gamma))) == list(map(str, levels))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(INTS, max_size=12), RATIOS | st.fractions())
def test_digit_walk_is_exact_or_raises_a_decimal_signal(levels, ratio):
    # The precision follows the last level, so a step whose product p * L
    # or sum q * L is far longer than that leaves the walk too few digits:
    # it must refuse, never print a wrong digit.
    p, q = ratio.numerator, ratio.denominator
    try:
        walked = decimal_levels(levels, ratio)
    except decimal.DecimalException:
        steps = zip([0] + levels, levels)
        need = max(max(abs(p * before), q * abs(level)) for before, level in steps)
        assert need > 10 * q * abs(levels[-1])
    else:
        assert list(map(str, walked)) == list(map(str, levels))


def test_digit_walk_refuses_a_precision_too_small():
    with pytest.raises(decimal.DecimalException):
        decimal_levels((10**40, 7), Fraction(3))
