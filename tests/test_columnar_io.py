"""Columnar I/O suite: :class:`ColumnBatch`, the one ingest lane, and
its parity with the row-at-a-time reference readers.

Every backend reads through one column lane (:mod:`repro.io.columnar`);
``read()`` and ``chunks()`` pivot its batches. The lane must be
invisible in the output: for every backend, every chunk size, and every
entry point, it yields exactly the cell values, errors, reports, and
models a row-at-a-time reader yields (``tests/reference_lanes.py``).
This suite pins:

* the :class:`ColumnBatch` container itself (pivot round trips, null
  masks, concat, validation, pickling);
* the sources' derived views (``read_columns`` vs ``read``, batch
  boundaries vs ``chunks``, chunked-equals-whole) and the
  ``resolve_io_path`` compatibility alias;
* byte-identical extraction errors — mistyped cells and structural
  failures must surface the first error in row order, exactly as the
  reference reader raises it, even though the lane converts
  column-at-a-time;
* session (``audit_source`` / ``fit_source``) and CLI parity end to end.
"""

import datetime
import json
import sqlite3

import pytest

from repro import cli
from repro.core import AuditorConfig, AuditReport, AuditSession
from repro.core.serialize import auditor_to_dict
from repro.io import ColumnBatch, open_source, resolve_io_path, write_table
from repro.io.base import DEFAULT_CHUNK_SIZE, TableSource
from repro.quis import generate_quis_sample
from repro.schema import Schema, Table, date, nominal, numeric
from repro.schema.serialize import schema_to_dict
from tests import reference_lanes as ref

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


# -- the one lane ----------------------------------------------------------------


class _BatchOnlySource(TableSource):
    """A third-party-style source implementing only the batch contract."""

    def __init__(self, table: Table):
        super().__init__(table.schema)
        self._table = table

    def _iter_column_batches(self, batch_size):
        rows = self._table.rows
        for start in range(0, len(rows), batch_size):
            yield ColumnBatch.from_table(
                Table(self._table.schema, [[*row] for row in rows[start : start + batch_size]])
            )


class TestNegotiation:
    def test_auto_prefers_columns_on_native_backends(self, tmp_path, schema, table):
        """The compatibility alias answers ``columns`` on every backend."""
        for fmt in BACKENDS:
            subdir = tmp_path / fmt
            subdir.mkdir()
            with open_source(schema, _location(subdir, fmt, table)) as source:
                assert resolve_io_path(source, "auto") == "columns"

    def test_invalid_io_path_rejected(self, tmp_path, schema, table):
        """The removed lane selectors fail loudly instead of being ignored."""
        location = _location(tmp_path, "sqlite", table)
        session = AuditSession(schema)
        with pytest.raises(TypeError, match="io_path"):
            session.fit_source(location, io_path="rows")
        with pytest.raises(TypeError, match="io_path"):
            next(session.audit_source(location, io_path="rows"))
        with pytest.raises(TypeError, match="fit_path"):
            AuditorConfig(fit_path="rows")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
        for argv in (
            ["fit", "--schema", str(schema_path), "--input", location,
             "--model-out", str(tmp_path / "m.json"), "--io-path", "rows"],
            ["fit", "--schema", str(schema_path), "--input", location,
             "--model-out", str(tmp_path / "m.json"), "--fit-path", "rows"],
            ["audit", "--model", str(tmp_path / "m.json"), "--input", location,
             "--io-path", "rows"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2  # argparse: unrecognized argument

    def test_column_only_source_derives_rows(self, table):
        """A source implementing only ``_iter_column_batches`` gets
        ``read()`` and ``chunks()`` from the base class."""
        assert _BatchOnlySource(table).read().rows == table.rows
        chunks = list(_BatchOnlySource(table).chunks(2))
        assert [chunk.n_rows for chunk in chunks] == [2, 2, 1]
        assert [row for chunk in chunks for row in chunk.rows] == table.rows
        batch = _BatchOnlySource(table).read_columns()
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
        assert rows.rows == ref.read_rows(schema, location, fmt)
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
        reference = ref.read_chunks(schema, location, fmt, chunk_size)
        assert [chunk.rows for chunk in chunks] == reference

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_chunked_read_equals_whole_read(
        self, tmp_path, schema, table, fmt, chunk_size
    ):
        """``chunks()`` assembles exactly ``read()``'s rows."""
        location = _location(tmp_path, fmt, table)
        with open_source(schema, location) as source:
            whole = source.read()
        with open_source(schema, location) as source:
            stitched = [row for chunk in source.chunks(chunk_size) for row in chunk.rows]
        assert stitched == whole.rows

    def test_read_columns_shares_nominal_cells(self, tmp_path, schema, fmt):
        """``read_columns`` keeps one object per distinct value of a
        nominal column, across batch boundaries too, and every cell
        still equals the streamed read's: numbers and dates keep their
        type and value, the sign of ``-0.0`` included."""
        day = datetime.date(2000, 1, 1)
        rows = [
            [
                ("x", "y", "zzz", None)[i % 4],
                (0, 2**60 + 1, None)[i % 3],
                (-0.0, 0.0, 0.5, None, 1.0)[i % 5],
                (day, None, day + datetime.timedelta(days=i % 300))[i % 3],
            ]
            for i in range(DEFAULT_CHUNK_SIZE + 100)
        ]
        location = _location(tmp_path, fmt, Table(schema, rows))
        with open_source(schema, location) as source:
            whole = source.read_columns()
        with open_source(schema, location) as source:
            streamed = list(source.column_batches())
        assert len(streamed) == 2
        nominal_cells = [cell for cell in whole.column("A") if cell is not None]
        assert len({id(cell) for cell in nominal_cells}) == len(set(nominal_cells)) == 3
        for name in schema.names:
            cells = [cell for batch in streamed for cell in batch.column(name)]
            assert list(map(repr, whole.column(name))) == list(map(repr, cells))

    def test_validate_parity(self, tmp_path, schema, table, fmt):
        # the out-of-domain nominal converts fine but fails validation:
        # the whole-table row and column reads report the same row and
        # message
        location = _location(tmp_path, fmt, table)
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as row_err:
                source.read(validate=True)
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as col_err:
                source.read_columns(validate=True)
        assert str(col_err.value) == str(row_err.value)
        assert str(row_err.value).startswith("row 1: ")
        # chunked reads number rows within the chunk: the bad row is the
        # first row of the second one-row chunk
        for read in (
            lambda source: list(source.chunks(1, validate=True)),
            lambda source: list(source.column_batches(1, validate=True)),
        ):
            with open_source(schema, location) as source:
                with pytest.raises(ValueError) as chunk_err:
                    read(source)
            assert str(chunk_err.value) == "row 0: " + str(row_err.value)[len("row 1: "):]


# -- byte-identical extraction errors ------------------------------------------


def _read_errors(schema, location) -> tuple[str, str]:
    """(reference reader's error, the lane's error) for a broken stored
    table; the lane's whole read and its batches of 2 must agree."""
    fmt = {"csv": "csv", "jsonl": "jsonl", "db": "sqlite"}[location.rsplit(".", 1)[1]]
    with pytest.raises(ValueError) as ref_err:
        ref.read_rows(schema, location, fmt)
    with open_source(schema, location) as source:
        with pytest.raises(ValueError) as read_err:
            source.read()
    with open_source(schema, location) as source:
        with pytest.raises(ValueError) as batch_err:
            for _ in source.column_batches(2):
                pass
    assert str(batch_err.value) == str(read_err.value)
    return str(ref_err.value), str(read_err.value)


class TestErrorParity:
    def test_csv_mistyped_cell(self, tmp_path, schema):
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,1,0.5,2000-03-01\ny,oops,0.5,2000-03-01\n", encoding="utf-8"
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert "line 3" in ref_msg and "'N'" in ref_msg

    def test_csv_cell_error_before_structural_error(self, tmp_path, schema):
        # row 2 has a bad cell, row 3 has a bad field count: reading in
        # row order reports the *cell* error first, so the lane must too
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,oops,0.5,2000-03-01\ny,1\n", encoding="utf-8"
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert "line 2" in ref_msg

    def test_csv_structural_error_alone(self, tmp_path, schema):
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,1,0.5,2000-03-01\ny,1\n", encoding="utf-8"
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert "expected 4 fields" in ref_msg

    def test_csv_oversized_field(self, tmp_path, schema):
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,1,0.5,2000-03-01\n" + "y" * 200_000 + ",1,0.5,2000-03-01\n",
            encoding="utf-8",
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert ref_msg == "line 3: field larger than field limit (131072)"

    def test_csv_cell_error_before_oversized_field(self, tmp_path, schema):
        location = tmp_path / "bad.csv"
        location.write_text(
            "A,N,F,D\nx,oops,0.5,2000-03-01\n" + "y" * 200_000 + ",1,0.5,2000-03-01\n",
            encoding="utf-8",
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert ref_msg.startswith("line 2, attribute 'N'")

    def test_jsonl_mistyped_cell(self, tmp_path, schema):
        location = tmp_path / "bad.jsonl"
        location.write_text(
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}\n'
            '{"A":"x","N":"oops","F":0.5,"D":"2000-03-01"}\n',
            encoding="utf-8",
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert "line 2" in ref_msg and "'N'" in ref_msg

    def test_jsonl_cell_error_before_structural_error(self, tmp_path, schema):
        location = tmp_path / "bad.jsonl"
        location.write_text(
            '{"A":"x","N":true,"F":0.5,"D":"2000-03-01"}\n'
            "not json\n",
            encoding="utf-8",
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert "line 1" in ref_msg

    def test_jsonl_structural_error_alone(self, tmp_path, schema):
        location = tmp_path / "bad.jsonl"
        location.write_text(
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}\n'
            '{"A":"x","F":0.5,"D":"2000-03-01"}\n',
            encoding="utf-8",
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert "keys do not match" in ref_msg

    @pytest.mark.parametrize(
        "line",
        [
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"} trailing',
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}, {}',
            '\ufeff{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}',
            '[{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}]',
            "null",
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01","E":2}',
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"',
        ],
        ids=["trailing", "two-values", "bom", "array", "null", "extra-key", "unclosed"],
    )
    def test_jsonl_structural_variants(self, tmp_path, schema, line):
        location = tmp_path / "bad.jsonl"
        location.write_text(
            '{"A":"x","N":1,"F":0.5,"D":"2000-03-01"}\n\n' + line + "\n",
            encoding="utf-8",
        )
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert ref_msg.startswith("line 3: ")

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
        ref_msg, lane_msg = _read_errors(schema, str(location))
        assert lane_msg == ref_msg
        assert "row 2" in ref_msg and "'N'" in ref_msg


# -- session parity ------------------------------------------------------------


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
        rows = Table(sample.dirty.schema, ref.read_rows(sample.dirty.schema, location, fmt))
        from_rows = session.audit(rows)
        assert from_rows.findings == reference.findings
        for chunk_size in (64, 1000):
            merged = AuditReport.merge(
                session.audit_source(location, chunk_size=chunk_size)
            )
            assert merged.findings == from_rows.findings
            assert merged.record_confidence == from_rows.record_confidence

    def test_fit_source_parity(self, stored_sample, fmt):
        sample, location = stored_sample
        schema = sample.dirty.schema
        fingerprints = set()
        for fit in (
            lambda session: session.fit_source(location),
            lambda session: session.fit(
                Table(schema, ref.read_rows(schema, location, fmt))
            ),
        ):
            session = AuditSession(schema, AuditorConfig())
            fit(session)
            fingerprints.add(json.dumps(auditor_to_dict(session.auditor), sort_keys=True))
        assert len(fingerprints) == 1


# -- CLI parity ----------------------------------------------------------------


def test_cli_sqlite_matches_csv(tmp_path):
    """``repro fit`` and ``repro audit`` write the same model and findings
    bytes from a SQLite table as from its CSV export."""
    sample = generate_quis_sample(200, seed=2003)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps(schema_to_dict(sample.dirty.schema)), encoding="utf-8"
    )
    models, findings = {}, {}
    for name in ("wh.db", "wh.csv"):
        location = str(tmp_path / name)
        write_table(sample.dirty, location)
        model = str(tmp_path / f"model_{name}.json")
        out = str(tmp_path / f"findings_{name}.jsonl")
        assert cli.main(
            ["fit", "--schema", str(schema_path), "--input", location, "--model-out", model]
        ) == 0
        assert cli.main(
            ["audit", "--model", model, "--input", location, "--findings-out", out]
        ) == 0
        models[name] = open(model, encoding="utf-8").read()
        findings[name] = open(out, encoding="utf-8").read()
    assert models["wh.db"] == models["wh.csv"]
    assert findings["wh.db"] == findings["wh.csv"]
