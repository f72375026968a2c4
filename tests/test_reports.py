"""Report serialization: the column route against the per-cell reference."""

from __future__ import annotations

import json
import math
import tracemalloc

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
    stable_json,
)
from sparsetrees.transfer import efgp_run
from sparsetrees.trees import make_gamma_tree


# ---------------------------------------------------------------------------
# Reference: the row-by-row CSV emit and the per-element JSON list path
# ---------------------------------------------------------------------------


def reference_csv(header: str, rows) -> bytes:
    """CSV bytes built one row and one cell at a time."""
    lines = [header]
    width = len(header.split(","))
    for row in rows:
        if len(row) != width:
            raise ValidationError("payload: CSV row width must match the header")
        lines.append(",".join(_csv_cell(cell) for cell in row))
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
    return _scalar(obj)


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
PLAIN_TEXT = st.text(
    alphabet=st.characters(blacklist_characters=',\n"', blacklist_categories=("Cs",)),
    max_size=8,
)
CELLS = (
    st.none()
    | st.booleans()
    | FLOATS
    | INTS
    | FLOATS.map(np.float64)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
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
        kind = draw(st.sampled_from((FLOATS, INTS, CELLS, PLAIN_TEXT)))
        column = draw(st.lists(kind, min_size=rows, max_size=rows))
        columns.append(tuple(column) if draw(st.booleans()) else column)
    header = ",".join(f"c{i}" for i in range(width))
    return CsvTable(header, tuple(columns))


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


def test_efgp_run_table_gives_the_per_cell_bytes():
    # 955-digit floors beside three float columns: the case the column
    # route is for.
    spec = make_gamma_tree(2, 3, 2000)
    trajectory = efgp_run(spec, 1.0)
    table = CsvTable(
        EFGP_RUN_HEADER,
        (range(2001), (0,) + spec.branch_levels, trajectory.log_r, trajectory.theta, trajectory.y),
    )
    assert len(str(spec.branch_levels[-1])) == 955
    assert table.emit() == reference_csv(table.header, rows_of(table))
    assert stable_json(table) == reference_json(table)


def test_lazy_columns_peak_no_higher_than_the_per_cell_reference():
    spec = make_gamma_tree(2, 3, 2000)
    trajectory = efgp_run(spec, 1.0)
    columns = (range(2001), (0,) + spec.branch_levels, trajectory.log_r, trajectory.theta, trajectory.y)
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
WIDTH = "payload: CSV row width must match the header"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [float, np.float64])
def test_non_finite_values_are_refused_in_csv_and_json(bad, wrap):
    column = [1.0, wrap(bad), 2.0]
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
