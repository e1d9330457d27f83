"""Tests for CSV serialization of tables."""

import datetime

import pytest

from repro.io import read_table, write_table
from repro.schema import Schema, Table, date, nominal, numeric
from tests.csv_text import from_csv_text, to_csv_text


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            nominal("A", ["x", "y", "with,comma"]),
            numeric("N", 0, 100, integer=True),
            numeric("F", 0.0, 1.0),
            date("D", datetime.date(2000, 1, 1), datetime.date(2001, 1, 1)),
        ]
    )


@pytest.fixture
def table(schema) -> Table:
    return Table(
        schema,
        [
            ["x", 5, 0.25, datetime.date(2000, 3, 1)],
            ["with,comma", 99, 0.5, None],
            [None, None, None, datetime.date(2000, 12, 31)],
        ],
    )


def test_roundtrip_text(schema, table):
    text = to_csv_text(table)
    back = from_csv_text(schema, text)
    assert back == table


def test_roundtrip_file(tmp_path, schema, table):
    path = tmp_path / "data.csv"
    write_table(table, path)
    back = read_table(schema, path, validate=True)
    assert back == table


def test_header_written(table):
    text = to_csv_text(table)
    assert text.splitlines()[0] == "A,N,F,D"


def test_null_marker_customizable(schema, table):
    text = to_csv_text(table, null_marker="\\N")
    assert "\\N" in text
    back = from_csv_text(schema, text, null_marker="\\N")
    assert back == table


def test_reordered_columns_accepted(schema):
    text = "D,F,N,A\n2000-03-01,0.25,5,x\n"
    table = from_csv_text(schema, text)
    assert table.record(0).to_dict() == {
        "A": "x",
        "N": 5,
        "F": 0.25,
        "D": datetime.date(2000, 3, 1),
    }


def test_wrong_header_rejected(schema):
    with pytest.raises(ValueError, match="header"):
        from_csv_text(schema, "A,N,F\nx,1,0.5\n")


def test_empty_input_rejected(schema):
    with pytest.raises(ValueError, match="empty"):
        from_csv_text(schema, "")


def test_ragged_row_rejected(schema):
    with pytest.raises(ValueError, match="line 2"):
        from_csv_text(schema, "A,N,F,D\nx,1\n")


def test_dates_serialized_iso(schema, table):
    text = to_csv_text(table)
    assert "2000-03-01" in text


def test_integer_column_parsed_as_int(schema):
    table = from_csv_text(schema, "A,N,F,D\nx,7,0.5,2000-01-02\n")
    assert table.cell(0, "N") == 7
    assert isinstance(table.cell(0, "N"), int)


def test_validate_on_read(schema):
    with pytest.raises(ValueError):
        from_csv_text(schema, "A,N,F,D\nzzz,7,0.5,2000-01-02\n", validate=True)


@pytest.mark.parametrize(
    "spelling", ["nan", "NaN", "NAN", "inf", "-inf", "Infinity", "-Infinity", "1e999"]
)
def test_non_finite_numerics_rejected_at_parse(schema, spelling):
    """``float("nan")`` must not slip through the parser — the error is
    raised at the source and names the row and the attribute."""
    with pytest.raises(ValueError, match=r"line 2, attribute 'F'.*non-finite"):
        from_csv_text(schema, f"A,N,F,D\nx,1,{spelling},2000-01-02\n")


def test_non_finite_error_names_the_right_line(schema):
    text = "A,N,F,D\nx,1,0.5,2000-01-02\ny,2,inf,2000-01-03\n"
    with pytest.raises(ValueError, match="line 3"):
        from_csv_text(schema, text)


def test_nan_spelling_is_a_legal_nominal_value():
    from repro.schema import nominal as nominal_attr

    schema = Schema([nominal_attr("W", ["nan", "inf", "x"])])
    table = from_csv_text(schema, "W\nnan\ninf\n", validate=True)
    assert table.column("W") == ["nan", "inf"]
