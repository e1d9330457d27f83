"""Columnar-parity property suite: the one ingest lane is pinned to the
row-at-a-time reference readers, byte for byte, on randomized stored
tables.

These tests generate random schemas and tables — mixed
nominal/numeric/date columns, nulls, out-of-domain nominals, and
integers beyond 2**53 (where any float64 detour would silently corrupt
the value) — write them to a randomly drawn backend (CSV, JSONL, SQLite,
Parquet when pyarrow is present), and assert that the column lane
produces exactly what a row-at-a-time reader of the same bytes produces
(``tests/reference_lanes.py``):

* column batches hold the reference's values at the reference's chunk
  boundaries;
* :meth:`AuditSession.audit_source` yields byte-identical merged
  reports (findings *and* per-record confidence) at every chunk size;
* :meth:`AuditSession.fit_source` induces a byte-identical model
  (canonical ``auditor_to_dict`` fingerprint);
* a randomly mistyped stored cell raises the *same* extraction error
  from both readers on every backend, even though the lane converts
  column-at-a-time and must replay a batch to recover the
  first-error-in-row-order message.

Parallel fit workers are deliberately kept out of these properties
(job-count parity is pinned by ``test_fit_parity_property.py``) so the
randomized sweep stays fast.
"""

from __future__ import annotations

import csv
import datetime
import json
import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import AuditorConfig, AuditReport, AuditSession
from repro.core.serialize import auditor_to_dict
from repro.errors import InputError
from repro.io import open_source, parquet_backend, write_table
from repro.schema import Schema, Table, date, nominal, numeric
from tests import reference_lanes as ref

try:
    import pyarrow  # noqa: F401

    HAVE_PYARROW = True
except ImportError:
    HAVE_PYARROW = False

BACKENDS = ["csv", "jsonl", "sqlite"] + (["parquet"] if HAVE_PYARROW else [])
_EXT = {"csv": "t.csv", "jsonl": "t.jsonl", "sqlite": "t.db", "parquet": "t.parquet"}

_DATE_START = datetime.date(2000, 1, 1)


@st.composite
def schema_and_table(draw, min_rows: int = 1, max_rows: int = 25):
    """A random 2–4 column schema plus a table of random rows.

    Cells come from small per-column pools (ties and constant columns
    arise naturally); every pool includes ``None``, nominal pools an
    out-of-domain value, and the ``bigint`` kind integers past 2**53.
    """
    n_attrs = draw(st.integers(2, 4))
    attributes = []
    pools = []
    for i in range(n_attrs):
        kind = draw(st.sampled_from(("nominal", "int", "bigint", "float", "date")))
        name = f"A{i}"
        if kind == "nominal":
            values = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
            attributes.append(nominal(name, values))
            pool = list(values) + ["zzz"]  # out-of-domain → unknown code
        elif kind == "int":
            attributes.append(numeric(name, 0, 100, integer=True))
            pool = draw(
                st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True)
            )
        elif kind == "bigint":
            # past float64's exact-integer range: a lossy detour through
            # floats would change these values and break byte parity
            attributes.append(numeric(name, 0, 2**70, integer=True))
            pool = [0, 2**53 + 1, 2**60 + 3, 2**64 + 7]
        elif kind == "float":
            attributes.append(numeric(name, 0.0, 10.0))
            pool = draw(
                st.lists(
                    st.floats(0, 10, allow_nan=False, allow_infinity=False),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
        else:
            attributes.append(date(name, _DATE_START, datetime.date(2001, 12, 31)))
            offsets = draw(
                st.lists(st.integers(0, 700), min_size=1, max_size=4, unique=True)
            )
            pool = [_DATE_START + datetime.timedelta(days=d) for d in offsets]
        pools.append(pool + [None])
    schema = Schema(attributes)
    n_rows = draw(st.integers(min_rows, max_rows))
    rows = [
        [draw(st.sampled_from(pools[i])) for i in range(n_attrs)]
        for _ in range(n_rows)
    ]
    return schema, Table(schema, rows)


def _storable(fmt: str, table: Table) -> bool:
    """Parquet stores integer domains as int64, so integers past 64 bits
    cannot be written there (the backend's documented deviation)."""
    return fmt != "parquet" or all(
        not isinstance(cell, int) or -(2**63) <= cell < 2**63
        for row in table.rows
        for cell in row
    )


def _report_fingerprint(report: AuditReport) -> tuple:
    return (tuple(report.findings), tuple(report.record_confidence))


def _model_fingerprint(session: AuditSession) -> bytes:
    return json.dumps(auditor_to_dict(session.auditor), sort_keys=True).encode()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(),
    fmt=st.sampled_from(BACKENDS),
    chunk_size=st.sampled_from((1, 2, 7, 1000)),
)
def test_column_batches_match_reference_reader(data, fmt, chunk_size):
    """Batch boundaries and cell values equal the reference's chunks."""
    schema, table = data
    assume(_storable(fmt, table))
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        write_table(table, location)
        with open_source(schema, location) as source:
            batches = [batch.rows() for batch in source.column_batches(chunk_size)]
        reference = ref.read_chunks(schema, location, fmt, chunk_size)
    assert batches == reference
    assert [row for chunk in reference for row in chunk] == table.rows


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(),
    fmt=st.sampled_from(BACKENDS),
    chunk_size=st.sampled_from((1, 2, 7, 1000)),
)
def test_audit_source_columns_matches_rows(data, fmt, chunk_size):
    """Randomized stored tables audit byte-identically through the lane
    and through the reference reader's rows."""
    schema, table = data
    assume(_storable(fmt, table))
    session = AuditSession(schema, AuditorConfig())
    session.fit(table)
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        write_table(table, location)
        columns = AuditReport.merge(
            session.audit_source(location, chunk_size=chunk_size)
        )
        rows = session.audit(Table(schema, ref.read_rows(schema, location, fmt)))
    assert _report_fingerprint(columns) == _report_fingerprint(rows)
    # and both equal the in-memory whole-table audit
    assert _report_fingerprint(rows) == _report_fingerprint(session.audit(table))


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=schema_and_table(), fmt=st.sampled_from(BACKENDS))
def test_fit_source_columns_matches_rows(data, fmt):
    """Randomized stored tables fit byte-identical models through the
    lane and through the reference reader's rows."""
    schema, table = data
    assume(_storable(fmt, table))
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        write_table(table, location)
        columns = AuditSession(schema, AuditorConfig()).fit_source(location)
        rows = AuditSession(schema, AuditorConfig()).fit(
            Table(schema, ref.read_rows(schema, location, fmt))
        )
    assert _model_fingerprint(columns) == _model_fingerprint(rows)


#: one wrong-typed stored cell per kind, in each backend's raw form (a
#: CSV nominal cell cannot be mistyped: any text is a nominal value;
#: SQLite's TEXT affinity would turn a number into text, a BLOB stays)
_BAD_CELL = {
    "jsonl": {"nominal": 123, "numeric": "oops", "date": 42},
    "sqlite": {"nominal": b"\x01", "numeric": "oops", "date": 42},
    "csv": {"nominal": "123", "numeric": "oops", "date": "oops"},
}


def _write_mistyped(schema, table, fmt, location, row, name) -> None:
    """Store *table* at *location* with the cell (*row*, *name*) replaced
    by a value of the wrong type."""
    kind = schema.attribute(name).domain.kind.value
    if fmt == "parquet":
        # Parquet columns have one physical type: the mistyped column
        # holds the bad value at *row* and nulls elsewhere
        import pyarrow as pa
        import pyarrow.parquet as pq

        bad = {"nominal": 123, "numeric": "oops", "date": 42}[kind]
        arrays = {}
        for position, attribute in enumerate(schema.attributes):
            if attribute.name == name:
                cells = [bad if i == row else None for i in range(table.n_rows)]
                arrays[attribute.name] = pa.array(cells)
            else:
                arrays[attribute.name] = pa.array(
                    [cells[position] for cells in table.rows],
                    type=parquet_backend._arrow_type(attribute, pa),
                )
        pq.write_table(pa.table(arrays), location)
        return
    write_table(table, location)
    bad = _BAD_CELL[fmt][kind]
    if fmt == "jsonl":
        with open(location, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[row])
        record[name] = bad
        lines[row] = json.dumps(record)
        with open(location, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    elif fmt == "sqlite":
        connection = sqlite3.connect(location)
        connection.execute(
            f'UPDATE data SET "{name}" = ? WHERE rowid = ?', (bad, row + 1)
        )
        connection.commit()
        connection.close()
    else:
        with open(location, newline="", encoding="utf-8") as handle:
            records = list(csv.reader(handle))
        records[row + 1][records[0].index(name)] = bad
        with open(location, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(records)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(min_rows=1),
    fmt=st.sampled_from(BACKENDS),
    position=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    chunk_size=st.sampled_from((1, 3, 1000)),
)
def test_mistyped_cell_error_identity(data, fmt, position, chunk_size):
    """A random wrong-typed stored cell raises the reference reader's
    error from every way of reading the lane, on every backend."""
    schema, table = data
    assume(_storable(fmt, table))
    row = position[0] % table.n_rows
    name = schema.names[position[1] % len(schema.names)]

    def lane_read():
        with open_source(schema, location) as source:
            return source.read().rows

    def lane_batches():
        with open_source(schema, location) as source:
            return [b.rows() for b in source.column_batches(chunk_size)]

    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        _write_mistyped(schema, table, fmt, location, row, name)
        reference = ref.read_outcome(lambda: ref.read_rows(schema, location, fmt))
        assert ref.read_outcome(lane_read) == reference
        if reference[0] == "error":  # the failure contract, on every backend
            with pytest.raises(InputError):
                lane_read()
        reference_chunks = ref.read_outcome(
            lambda: ref.read_chunks(schema, location, fmt, chunk_size)
        )
        assert ref.read_outcome(lane_batches) == reference_chunks
    nominal_csv = fmt == "csv" and schema.attribute(name).domain.kind.value == "nominal"
    if not nominal_csv:
        label = "line" if fmt in ("csv", "jsonl") else "row"
        number = row + (2 if fmt == "csv" else 1)
        assert reference[0] == "error"
        assert f"{label} {number}, attribute {name!r}" in reference[1]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(min_rows=1),
    position=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    chunk_size=st.sampled_from((1, 3, 1000)),
)
def test_mistyped_cell_error_identity_jsonl(data, position, chunk_size):
    """A random wrong-typed JSONL cell raises the same error both ways."""
    schema, table = data
    row = position[0] % table.n_rows
    col = position[1] % len(schema.names)
    name = schema.names[col]
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/bad.jsonl"
        _write_mistyped(schema, table, "jsonl", location, row, name)
        with pytest.raises(ValueError) as row_err:
            ref.read_rows(schema, location, "jsonl")
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as col_err:
                for _ in source.column_batches(chunk_size):
                    pass
    assert str(col_err.value) == str(row_err.value)
    assert f"line {row + 1}" in str(row_err.value)
