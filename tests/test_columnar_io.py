"""Columnar I/O suite: :class:`ColumnBatch`, negotiation, and per-backend
row/column parity.

The columnar data plane (:mod:`repro.io.columnar`) must be invisible in
the output: for every backend, every chunk size, and every entry point,
the column path yields exactly the cell values, errors, reports, and
models the row path yields. This suite pins:

* the :class:`ColumnBatch` container itself (pivot round trips, null
  masks, concat, validation, pickling);
* the ``io_path`` negotiation rule (``auto`` picks columns only on
  natively columnar backends);
* per-backend value parity (``read_columns`` vs ``read``, batch
  boundaries vs ``chunks``), including the chunked-equals-whole
  micro-assert for the row path's rewritten ``chunks()``;
* byte-identical extraction errors — mistyped cells and structural
  failures must surface the row path's first-error-in-row-order message
  even though the column path converts column-at-a-time;
* session (``audit_source`` / ``fit_source``) and CLI (``--io-path``)
  parity end to end.
"""

import datetime
import pickle
import sqlite3

import numpy as np
import pytest

from repro import cli
from repro.core import AuditorConfig, AuditReport, AuditSession
from repro.core.serialize import auditor_to_dict
from repro.io import ColumnBatch, open_source, resolve_io_path, write_table
from repro.io.base import TableSource
from repro.io.columnar import ColumnarSource
from repro.quis import generate_quis_sample
from repro.schema import Schema, Table, date, nominal, numeric

try:
    import pyarrow  # noqa: F401

    HAVE_PYARROW = True
except ImportError:
    HAVE_PYARROW = False

BACKENDS = ["csv", "jsonl", "sqlite"] + (["parquet"] if HAVE_PYARROW else [])

_EXT = {"csv": "t.csv", "jsonl": "t.jsonl", "sqlite": "t.db", "parquet": "t.parquet"}


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            nominal("A", ["x", "y", "z"]),
            numeric("N", 0, 2**70, integer=True),
            numeric("F", 0.0, 1.0),
            date("D", datetime.date(2000, 1, 1), datetime.date(2001, 1, 1)),
        ]
    )


@pytest.fixture
def table(schema) -> Table:
    # nulls, an out-of-domain nominal, and integers beyond 2**53 (where
    # a float64 detour would corrupt the value) all ride along
    return Table(
        schema,
        [
            ["x", 5, 0.25, datetime.date(2000, 3, 1)],
            ["zzz", 2**60 + 1, 0.5, None],
            [None, None, None, datetime.date(2000, 12, 31)],
            ["y", 0, 0.125, datetime.date(2000, 6, 15)],
            ["z", 2**53 + 1, 1.0, datetime.date(2000, 1, 1)],
        ],
    )


def _location(tmp_path, fmt: str, table: Table) -> str:
    location = str(tmp_path / _EXT[fmt])
    write_table(table, location)
    return location


# -- the ColumnBatch container -------------------------------------------------


class TestColumnBatch:
    def test_pivot_round_trip(self, schema, table):
        batch = ColumnBatch.from_table(table)
        assert batch.n_rows == table.n_rows
        assert batch.schema == schema
        for name in schema.names:
            assert batch.column(name) == table.column(name)
        assert batch.to_table().rows == table.rows

    def test_empty_table(self, schema):
        batch = ColumnBatch.from_table(Table(schema))
        assert batch.n_rows == 0
        assert batch.to_table().rows == []

    def test_null_mask_cached(self, schema, table):
        batch = ColumnBatch.from_table(table)
        mask = batch.null_mask("N")
        assert mask.dtype == bool
        assert mask.tolist() == [v is None for v in table.column("N")]
        assert batch.null_mask("N") is mask  # cached

    def test_numeric_view_defaults_to_none(self, schema, table):
        assert ColumnBatch.from_table(table).numeric_view("F") is None

    def test_concat(self, schema, table):
        whole = ColumnBatch.from_table(table)
        parts = [
            ColumnBatch(
                schema,
                {name: whole.column(name)[i : i + 2] for name in schema.names},
            )
            for i in range(0, table.n_rows, 2)
        ]
        merged = ColumnBatch.concat(schema, parts)
        assert merged.n_rows == table.n_rows
        for name in schema.names:
            assert merged.column(name) == whole.column(name)

    def test_validate_matches_table_validate(self, schema, table):
        bad = Table(schema, [row[:] for row in table.rows])
        bad.rows[2][1] = -5  # below the numeric domain
        batch = ColumnBatch.from_table(bad)
        with pytest.raises(ValueError) as row_err:
            bad.validate()
        with pytest.raises(ValueError) as col_err:
            batch.validate()
        assert str(col_err.value) == str(row_err.value)

    def test_pickle_drops_mask_cache(self, schema, table):
        batch = ColumnBatch.from_table(table)
        batch.null_mask("A")
        clone = pickle.loads(pickle.dumps(batch))
        assert clone._masks == {}
        assert clone.n_rows == batch.n_rows
        for name in schema.names:
            assert clone.column(name) == batch.column(name)


# -- negotiation ---------------------------------------------------------------


class _RowOnlySource(TableSource):
    """A third-party-style source implementing only the row contract."""

    def __init__(self, table: Table):
        super().__init__(table.schema)
        self._table = table

    def _iter_rows(self):
        yield from ([*row] for row in self._table.rows)


class TestNegotiation:
    def test_auto_prefers_columns_on_native_backends(self, tmp_path, schema, table):
        for fmt in BACKENDS:
            subdir = tmp_path / fmt
            subdir.mkdir()
            with open_source(schema, _location(subdir, fmt, table)) as source:
                assert source.supports_columns
                assert isinstance(source, ColumnarSource)
                assert resolve_io_path(source, "auto") == "columns"

    def test_auto_falls_back_to_rows(self, table):
        source = _RowOnlySource(table)
        assert not source.supports_columns
        assert resolve_io_path(source, "auto") == "rows"

    def test_explicit_values_pass_through(self, table):
        source = _RowOnlySource(table)
        assert resolve_io_path(source, "columns") == "columns"
        assert resolve_io_path(source, "rows") == "rows"

    def test_invalid_io_path_rejected(self, table):
        with pytest.raises(ValueError, match="io_path"):
            resolve_io_path(_RowOnlySource(table), "fast")

    def test_row_only_source_still_pivots(self, table):
        """Forcing columns on a row-only source uses the pivot fallback."""
        source = _RowOnlySource(table)
        batch = source.read_columns()
        for name in table.schema.names:
            assert batch.column(name) == table.column(name)


# -- per-backend value parity --------------------------------------------------


@pytest.mark.parametrize("fmt", BACKENDS)
class TestBackendParity:
    def test_read_columns_matches_read(self, tmp_path, schema, table, fmt):
        location = _location(tmp_path, fmt, table)
        with open_source(schema, location) as source:
            rows = source.read()
        with open_source(schema, location) as source:
            batch = source.read_columns()
        assert batch.n_rows == rows.n_rows
        for name in schema.names:
            assert batch.column(name) == rows.column(name)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 1000])
    def test_batch_boundaries_match_chunks(
        self, tmp_path, schema, table, fmt, chunk_size
    ):
        location = _location(tmp_path, fmt, table)
        with open_source(schema, location) as source:
            chunks = list(source.chunks(chunk_size))
        with open_source(schema, location) as source:
            batches = list(source.column_batches(chunk_size))
        assert [b.n_rows for b in batches] == [c.n_rows for c in chunks]
        for chunk, batch in zip(chunks, batches):
            for name in schema.names:
                assert batch.column(name) == chunk.column(name)

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_chunked_read_equals_whole_read(
        self, tmp_path, schema, table, fmt, chunk_size
    ):
        """The rewritten ``chunks()`` assembles exactly ``read()``'s rows."""
        location = _location(tmp_path, fmt, table)
        with open_source(schema, location) as source:
            whole = source.read()
        with open_source(schema, location) as source:
            stitched = [row for chunk in source.chunks(chunk_size) for row in chunk.rows]
        assert stitched == whole.rows

    def test_validate_parity(self, tmp_path, schema, table, fmt):
        # the out-of-domain nominal converts fine but fails validation:
        # both paths must report the same row and message
        location = _location(tmp_path, fmt, table)
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as row_err:
                source.read(validate=True)
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as col_err:
                source.read_columns(validate=True)
        assert str(col_err.value) == str(row_err.value)


# -- byte-identical extraction errors ------------------------------------------


def _read_errors(schema, location) -> tuple[str, str]:
    """(row-path error, column-path error) for a broken stored table."""
    with open_source(schema, location) as source:
        with pytest.raises(ValueError) as row_err:
            source.read()
    with open_source(schema, location) as source:
        with pytest.raises(ValueError) as col_err:
            for _ in source.column_batches(2):
                pass
    return str(row_err.value), str(col_err.value)


class TestErrorParity:
    def test_csv_mistyped_cell(self, tmp_path, schema):
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,1,0.5,2000-03-01\ny,oops,0.5,2000-03-01\n", encoding="utf-8"
        )
        row_msg, col_msg = _read_errors(schema, str(location))
        assert col_msg == row_msg
        assert "line 3" in row_msg and "'N'" in row_msg

    def test_csv_cell_error_before_structural_error(self, tmp_path, schema):
        # row 2 has a bad cell, row 3 has a bad field count: the row path
        # reports the *cell* error first, so the column path must too
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,oops,0.5,2000-03-01\ny,1\n", encoding="utf-8"
        )
        row_msg, col_msg = _read_errors(schema, str(location))
        assert col_msg == row_msg
        assert "line 2" in row_msg

    def test_csv_structural_error_alone(self, tmp_path, schema):
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,1,0.5,2000-03-01\ny,1\n", encoding="utf-8"
        )
        row_msg, col_msg = _read_errors(schema, str(location))
        assert col_msg == row_msg
        assert "expected 4 fields" in row_msg

    def test_jsonl_mistyped_cell(self, tmp_path, schema):
        location = tmp_path / "bad.jsonl"
        location.write_text(
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}\n'
            '{"A":"x","N":"oops","F":0.5,"D":"2000-03-01"}\n',
            encoding="utf-8",
        )
        row_msg, col_msg = _read_errors(schema, str(location))
        assert col_msg == row_msg
        assert "line 2" in row_msg and "'N'" in row_msg

    def test_jsonl_cell_error_before_structural_error(self, tmp_path, schema):
        location = tmp_path / "bad.jsonl"
        location.write_text(
            '{"A":"x","N":true,"F":0.5,"D":"2000-03-01"}\n'
            "not json\n",
            encoding="utf-8",
        )
        row_msg, col_msg = _read_errors(schema, str(location))
        assert col_msg == row_msg
        assert "line 1" in row_msg

    def test_jsonl_structural_error_alone(self, tmp_path, schema):
        location = tmp_path / "bad.jsonl"
        location.write_text(
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}\n'
            '{"A":"x","F":0.5,"D":"2000-03-01"}\n',
            encoding="utf-8",
        )
        row_msg, col_msg = _read_errors(schema, str(location))
        assert col_msg == row_msg
        assert "keys do not match" in row_msg

    def test_sqlite_mistyped_cell(self, tmp_path, schema):
        location = tmp_path / "bad.db"
        connection = sqlite3.connect(location)
        connection.execute('CREATE TABLE data ("A" TEXT, "N", "F", "D" TEXT)')
        connection.execute(
            "INSERT INTO data VALUES ('x', 1, 0.5, '2000-03-01')"
        )
        connection.execute(
            "INSERT INTO data VALUES ('y', 'oops', 0.5, '2000-03-01')"
        )
        connection.commit()
        connection.close()
        row_msg, col_msg = _read_errors(schema, str(location))
        assert col_msg == row_msg
        assert "row 2" in row_msg and "'N'" in row_msg


# -- session parity ------------------------------------------------------------


def _merged_report(session, location, *, io_path, chunk_size) -> AuditReport:
    return AuditReport.merge(
        session.audit_source(location, chunk_size=chunk_size, io_path=io_path)
    )


@pytest.mark.parametrize("fmt", BACKENDS)
class TestSessionParity:
    @pytest.fixture
    def stored_sample(self, tmp_path, fmt):
        sample = generate_quis_sample(300, seed=2003)
        return sample, _location(tmp_path, fmt, sample.dirty)

    def test_audit_source_parity(self, stored_sample, fmt):
        sample, location = stored_sample
        session = AuditSession(sample.dirty.schema, AuditorConfig())
        session.fit(sample.dirty)
        reference = session.audit(sample.dirty)
        for chunk_size in (64, 1000):
            rows = _merged_report(
                session, location, io_path="rows", chunk_size=chunk_size
            )
            cols = _merged_report(
                session, location, io_path="columns", chunk_size=chunk_size
            )
            auto = _merged_report(
                session, location, io_path="auto", chunk_size=chunk_size
            )
            assert rows.findings == cols.findings == auto.findings
            assert rows.findings == reference.findings
            assert rows.record_confidence == cols.record_confidence

    def test_fit_source_parity(self, stored_sample, fmt):
        sample, location = stored_sample
        fingerprints = set()
        for io_path in ("rows", "columns", "auto"):
            session = AuditSession(sample.dirty.schema, AuditorConfig())
            session.fit_source(location, io_path=io_path)
            fingerprints.add(
                str(sorted(auditor_to_dict(session.auditor).items()))
            )
        assert len(fingerprints) == 1


# -- CLI parity ----------------------------------------------------------------


def test_cli_io_path_parity(tmp_path):
    sample = generate_quis_sample(200, seed=2003)
    db = str(tmp_path / "wh.db")
    write_table(sample.dirty, db)
    from repro.schema.serialize import schema_to_dict
    import json

    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps(schema_to_dict(sample.dirty.schema)), encoding="utf-8"
    )
    models, findings = {}, {}
    for io_path in ("rows", "columns"):
        model = str(tmp_path / f"model_{io_path}.json")
        out = str(tmp_path / f"findings_{io_path}.jsonl")
        assert cli.main(
            [
                "fit",
                "--schema", str(schema_path),
                "--input", db,
                "--model-out", model,
                "--io-path", io_path,
            ]
        ) == 0
        assert cli.main(
            [
                "audit",
                "--model", model,
                "--input", db,
                "--findings-out", out,
                "--io-path", io_path,
            ]
        ) == 0
        models[io_path] = open(model, encoding="utf-8").read()
        findings[io_path] = open(out, encoding="utf-8").read()
    assert models["rows"] == models["columns"]
    assert findings["rows"] == findings["columns"]
