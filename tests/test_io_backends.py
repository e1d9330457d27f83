"""Tests for the pluggable table I/O subsystem (`repro.io`).

Covers the source/sink protocols, the format registry (detection,
errors, URI parsing), the CSV / JSONL / SQLite backends (round trips,
chunking, error context), the optional Parquet backend's clean
degradation, and the session-level ``fit_source`` / ``audit_source``
wiring — including the E12-style fixture proving an audit over a SQLite
warehouse table equals the in-memory audit finding for finding.
"""

import datetime
import io
import json
import sqlite3

import pytest

from repro.core import AuditorConfig, AuditReport, AuditSession, DataAuditor
from repro.io import (
    CsvTableSink,
    CsvTableSource,
    JsonlTableSink,
    JsonlTableSource,
    SqliteTableSink,
    SqliteTableSource,
    available_formats,
    detect_format,
    open_sink,
    open_source,
    read_table,
    read_table_chunks,
    write_table,
)
from repro.io.sqlite_backend import parse_sqlite_url
from repro.quis import generate_quis_sample
from repro.schema import Schema, Table, date, nominal, numeric

try:
    import pyarrow  # noqa: F401

    HAVE_PYARROW = True
except ImportError:
    HAVE_PYARROW = False


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
            ["y", 0, 0.125, datetime.date(2000, 6, 15)],
        ],
    )


BACKEND_PATHS = ["t.csv", "t.jsonl", "t.db"]


class TestRegistry:
    @pytest.mark.parametrize(
        "location,expected",
        [
            ("data.csv", "csv"),
            ("logs.jsonl", "jsonl"),
            ("logs.ndjson", "jsonl"),
            ("wh.db", "sqlite"),
            ("wh.sqlite", "sqlite"),
            ("wh.sqlite3", "sqlite"),
            ("sqlite:///wh.db?table=t", "sqlite"),
            ("extract.parquet", "parquet"),
            ("extract.pq", "parquet"),
            ("DATA.CSV", "csv"),
        ],
    )
    def test_detection(self, location, expected):
        assert detect_format(location) == expected

    def test_unknown_extension_rejected(self):
        with pytest.raises(ValueError, match="known extensions"):
            detect_format("mystery.xyz")

    def test_unknown_format_name_rejected(self, schema):
        with pytest.raises(ValueError, match="unknown table format"):
            open_source(schema, "x.csv", format="feather")

    def test_all_builtins_registered(self):
        names = [spec.name for spec in available_formats()]
        assert names == ["csv", "jsonl", "sqlite", "parquet"]

    def test_sqlite_url_parsing(self):
        assert parse_sqlite_url("sqlite:///rel/wh.db?table=t") == (
            "rel/wh.db",
            {"table": "t"},
        )
        assert parse_sqlite_url("sqlite:////abs/wh.db") == ("/abs/wh.db", {})

    def test_sqlite_url_bad_option(self):
        with pytest.raises(ValueError, match="unknown sqlite URL option"):
            parse_sqlite_url("sqlite:///wh.db?tble=t")

    def test_sqlite_url_empty_path(self):
        with pytest.raises(ValueError, match="no database file"):
            parse_sqlite_url("sqlite:///?table=t")

    def test_sqlite_url_with_conflicting_format_override_rejected(self, schema):
        with pytest.raises(ValueError, match="sqlite URI.*format='csv'"):
            open_source(schema, "sqlite:///wh.db?table=t", format="csv")


class TestRoundTrips:
    @pytest.mark.parametrize("name", BACKEND_PATHS)
    def test_whole_table(self, tmp_path, schema, table, name):
        path = tmp_path / name
        write_table(table, path)
        assert read_table(schema, path, validate=True) == table

    @pytest.mark.parametrize("name", BACKEND_PATHS)
    @pytest.mark.parametrize("chunk_size", [1, 3, 100])
    def test_chunked_reads_concatenate(self, tmp_path, schema, table, name, chunk_size):
        path = tmp_path / name
        write_table(table, path)
        chunks = list(read_table_chunks(schema, path, chunk_size=chunk_size))
        assert all(chunk.n_rows <= chunk_size for chunk in chunks)
        merged = Table(schema, [row for chunk in chunks for row in chunk.rows])
        assert merged == table

    @pytest.mark.parametrize("name", BACKEND_PATHS)
    def test_chunked_writes_equal_whole_write(self, tmp_path, schema, table, name):
        whole = tmp_path / ("whole_" + name)
        chunked = tmp_path / ("chunked_" + name)
        write_table(table, whole)
        with open_sink(schema, chunked) as sink:
            sink.write_chunk(table.head(2))
            sink.write_chunk(Table(schema, table.rows[2:]))
        assert read_table(schema, chunked) == read_table(schema, whole) == table

    @pytest.mark.parametrize("name", BACKEND_PATHS)
    def test_empty_table_roundtrip(self, tmp_path, schema, name):
        path = tmp_path / name
        write_table(Table(schema), path)
        back = read_table(schema, path)
        assert back.n_rows == 0 and back.schema == schema
        assert list(read_table_chunks(schema, path)) == []

    def test_sink_rejects_mismatched_chunk_schema(self, tmp_path, schema, table):
        other = Schema([nominal("Z", ["a"])])
        with pytest.raises(ValueError, match="does not match"):
            with open_sink(other, tmp_path / "t.csv") as sink:
                sink.write_chunk(table)

    def test_chunk_size_validated(self, tmp_path, schema, table):
        write_table(table, tmp_path / "t.csv")
        with pytest.raises(ValueError, match="chunk_size"):
            list(read_table_chunks(schema, tmp_path / "t.csv", chunk_size=0))


class TestSqliteBackend:
    def test_single_table_autodetected(self, tmp_path, schema, table):
        path = tmp_path / "wh.db"
        write_table(table, path, table="loads")
        assert read_table(schema, path) == table

    def test_ambiguous_database_requires_table(self, tmp_path, schema, table):
        path = tmp_path / "wh.db"
        write_table(table, path, table="a")
        write_table(table, path, table="b")
        with pytest.raises(ValueError, match="table="):
            read_table(schema, path)
        assert read_table(schema, f"sqlite:///{path}?table=a") == table

    def test_missing_database_rejected(self, schema, tmp_path):
        with pytest.raises(FileNotFoundError):
            SqliteTableSource(schema, tmp_path / "nope.db")

    def test_column_mismatch_rejected(self, tmp_path, schema, table):
        other = Schema([nominal("Z", ["a"]), nominal("W", ["b"])])
        path = tmp_path / "wh.db"
        write_table(Table(other, [["a", "b"]]), path)
        with pytest.raises(ValueError, match="do not match"):
            read_table(schema, path)

    def test_if_exists_modes(self, tmp_path, schema, table):
        path = tmp_path / "wh.db"
        write_table(table, path)
        with pytest.raises(ValueError, match="already exists"):
            write_table(table, path, if_exists="fail")
        write_table(table, path, if_exists="append")
        assert read_table(schema, path).n_rows == 2 * table.n_rows
        write_table(table, path, if_exists="replace")
        assert read_table(schema, path) == table

    def test_bad_if_exists_rejected(self, tmp_path, schema):
        with pytest.raises(ValueError, match="if_exists"):
            SqliteTableSink(schema, tmp_path / "wh.db", if_exists="nope")

    def test_large_integers_survive(self, tmp_path):
        big_schema = Schema([numeric("BIG", -(10**30), 10**30, integer=True)])
        rows = [[2**70], [-(2**70)], [3], [None], [2**63 - 1], [-(2**63)]]
        big = Table(big_schema, rows)
        path = tmp_path / "big.db"
        write_table(big, path)
        assert read_table(big_schema, path, validate=True) == big

    def test_mixed_int_float_column_exact(self, tmp_path):
        # a typeless numeric column must not let SQLite affinity rewrite
        # ints to floats or vice versa
        mixed_schema = Schema([numeric("V", 0, 100)])
        mixed = Table(mixed_schema, [[5], [2.0], [0.5], [None]])
        path = tmp_path / "mixed.db"
        write_table(mixed, path)
        back = read_table(mixed_schema, path)
        assert back == mixed
        assert [type(r[0]) for r in back.rows[:3]] == [int, float, float]

    def test_read_error_names_row_and_attribute(self, tmp_path, schema):
        path = tmp_path / "wh.db"
        connection = sqlite3.connect(path)
        connection.execute('CREATE TABLE data ("A" TEXT, "N", "F", "D" TEXT)')
        connection.execute(
            "INSERT INTO data VALUES ('x', 1, 0.5, 'not-a-date')"
        )
        connection.commit()
        connection.close()
        with pytest.raises(ValueError, match=r"row 1, attribute 'D'"):
            read_table(schema, path)

    def test_header_failure_does_not_leak_the_connection(
        self, tmp_path, schema, table
    ):
        """if_exists='fail' raising from the lazy header write (on the
        empty-sink success path) must still release the connection and
        leave the original table intact."""
        path = tmp_path / "wh.db"
        write_table(table, path, table="data")
        with pytest.raises(ValueError, match="already exists"):
            with SqliteTableSink(schema, path, table="data", if_exists="fail"):
                pass  # no chunks: the header write happens in __exit__
        # no lingering lock or transaction: the database is fully usable
        write_table(table, path, table="data", if_exists="append")
        assert read_table(schema, f"sqlite:///{path}?table=data").n_rows == 2 * table.n_rows

    def test_failed_replace_write_rolls_back(self, tmp_path, schema, table):
        """A write that dies mid-stream must leave the pre-existing
        warehouse table exactly as it was (DDL rolls back too)."""
        path = tmp_path / "wh.db"
        write_table(table, path, table="loads")
        with pytest.raises(RuntimeError, match="boom"):
            with SqliteTableSink(schema, path, table="loads") as sink:
                sink.write_chunk(table.head(2))
                raise RuntimeError("boom")
        assert read_table(schema, f"sqlite:///{path}?table=loads") == table

    def test_non_integral_float_in_integer_column_rejected(self, tmp_path, schema):
        path = tmp_path / "wh.db"
        connection = sqlite3.connect(path)
        connection.execute('CREATE TABLE data ("A" TEXT, "N", "F", "D" TEXT)')
        connection.execute("INSERT INTO data VALUES ('x', 2.5, 0.5, '2000-01-02')")
        connection.commit()
        connection.close()
        with pytest.raises(ValueError, match=r"row 1, attribute 'N'.*integer"):
            read_table(schema, path)

    def test_source_streams_in_rowid_order(self, tmp_path, schema, table):
        path = tmp_path / "wh.db"
        write_table(table, path)
        with open_source(schema, path) as source:
            rows = [row for chunk in source.chunks(2) for row in chunk.rows]
        assert rows == table.rows

    def test_rowid_attribute_reads_in_insertion_order(self, tmp_path):
        """An attribute named ``RowId`` shadows SQLite's ``rowid``; the
        source orders by an unshadowed row-id name, not by its values."""
        schema = Schema(
            [numeric("RowId", 0, 1000, integer=True), nominal("B", ["x", "y"])]
        )
        table = Table(schema, [[(7 * i) % 1000, "xy"[i % 2]] for i in range(200)])
        path = tmp_path / "wh.db"
        write_table(table, path)
        assert read_table(schema, path).rows == table.rows

    def test_every_rowid_name_shadowed_reads_in_scan_order(self, tmp_path):
        schema = Schema(
            [numeric(name, 0, 9, integer=True) for name in ("ROWID", "_rowid_", "oid")]
        )
        rows = [[3, 1, 2], [1, 2, 3], [2, 3, 1]]
        path = tmp_path / "wh.db"
        write_table(Table(schema, rows), path)
        assert read_table(schema, path).rows == rows


class TestJsonlBackend:
    def test_text_is_one_object_per_line(self, schema, table):
        buffer = io.StringIO()
        with JsonlTableSink(schema, buffer) as sink:
            sink.write(table)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == table.n_rows
        first = json.loads(lines[0])
        assert first == {"A": "x", "N": 5, "F": 0.25, "D": "2000-03-01"}

    def test_blank_lines_skipped(self, schema):
        text = '{"A":"x","N":1,"F":0.5,"D":null}\n\n{"A":"y","N":2,"F":0.5,"D":null}\n'
        with JsonlTableSource(schema, io.StringIO(text)) as source:
            assert source.read().n_rows == 2

    def test_invalid_json_names_line(self, schema):
        with JsonlTableSource(schema, io.StringIO("{broken\n")) as source:
            with pytest.raises(ValueError, match="line 1"):
                source.read()

    def test_key_mismatch_names_line(self, schema):
        with JsonlTableSource(schema, io.StringIO('{"A":"x","N":1}\n')) as source:
            with pytest.raises(ValueError, match=r"line 1: keys do not match"):
                source.read()

    def test_bool_in_numeric_column_rejected(self, schema):
        text = '{"A":"x","N":true,"F":0.5,"D":null}\n'
        with JsonlTableSource(schema, io.StringIO(text)) as source:
            with pytest.raises(ValueError, match=r"attribute 'N'"):
                source.read()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected_with_line_and_attribute(self, schema, constant):
        text = f'{{"A":"x","N":1,"F":0.5,"D":null}}\n{{"A":"x","N":1,"F":{constant},"D":null}}\n'
        with JsonlTableSource(schema, io.StringIO(text)) as source:
            with pytest.raises(ValueError, match=r"line 2, attribute 'F'.*non-finite"):
                source.read()

    def test_large_ints_native(self, tmp_path):
        big_schema = Schema([numeric("BIG", -(10**30), 10**30, integer=True)])
        big = Table(big_schema, [[2**70], [None]])
        path = tmp_path / "big.jsonl"
        write_table(big, path)
        assert read_table(big_schema, path, validate=True) == big

    def test_non_integral_float_in_integer_column_rejected(self, schema):
        text = '{"A":"x","N":2.5,"F":0.5,"D":null}\n'
        with JsonlTableSource(schema, io.StringIO(text)) as source:
            with pytest.raises(ValueError, match=r"attribute 'N'.*integer"):
                source.read()


class TestCsvBackendProtocol:
    def test_stream_sink_left_open(self, schema, table):
        buffer = io.StringIO()
        with CsvTableSink(schema, buffer) as sink:
            sink.write(table)
        assert not buffer.closed  # caller-owned streams are not closed
        buffer.seek(0)
        with CsvTableSource(schema, buffer) as source:
            assert source.read() == table

    def test_parse_error_names_line_and_attribute(self, schema):
        text = "A,N,F,D\nx,1,nan,2000-01-02\n"
        with CsvTableSource(schema, io.StringIO(text)) as source:
            with pytest.raises(ValueError, match=r"line 2, attribute 'F'"):
                source.read()

    def test_repeated_header_column_rejected(self):
        """A header naming a schema column twice is an error, not a read
        of the first copy."""
        schema = Schema([nominal("A", ["x", "y"]), numeric("N", 0, 9, integer=True)])
        text = "A,N,A\nx,1,y\n"
        with pytest.raises(ValueError) as excinfo:
            CsvTableSource(schema, io.StringIO(text))
        assert str(excinfo.value) == "CSV header ['A', 'N', 'A'] repeats ['A']"


class TestParquetGating:
    @pytest.mark.skipif(HAVE_PYARROW, reason="pyarrow installed")
    def test_clean_import_error_without_pyarrow(self, tmp_path, schema, table):
        for operation in (
            lambda: write_table(table, tmp_path / "t.parquet"),
            lambda: read_table(schema, tmp_path / "t.parquet"),
        ):
            with pytest.raises(ImportError, match="pyarrow"):
                operation()

    @pytest.mark.skipif(not HAVE_PYARROW, reason="needs pyarrow")
    def test_roundtrip_with_pyarrow(self, tmp_path, schema):
        # ints in the non-integer column F become floats (documented
        # float64 mapping), so use float cells there from the start
        table = Table(
            schema,
            [
                ["x", 5, 0.25, datetime.date(2000, 3, 1)],
                [None, None, None, None],
                ["with,comma", 99, 0.5, datetime.date(2000, 12, 31)],
            ],
        )
        path = tmp_path / "t.parquet"
        write_table(table, path)
        assert read_table(schema, path, validate=True) == table

    @pytest.mark.skipif(not HAVE_PYARROW, reason="needs pyarrow")
    def test_chunked_roundtrip_with_pyarrow(self, tmp_path, schema, table):
        path = tmp_path / "t.parquet"
        with open_sink(schema, path) as sink:
            sink.write_chunk(table.head(2))
            sink.write_chunk(Table(schema, table.rows[2:]))
        chunks = list(read_table_chunks(schema, path, chunk_size=3))
        total = sum(chunk.n_rows for chunk in chunks)
        assert total == table.n_rows


@pytest.fixture(scope="module")
def fitted_quis():
    """E12-style fixture: a fitted session plus its dirty QUIS sample."""
    sample = generate_quis_sample(3_000, seed=2003, error_rate=0.01)
    auditor = DataAuditor(sample.schema, AuditorConfig(min_error_confidence=0.8))
    auditor.fit(sample.dirty)
    return AuditSession(auditor=auditor), sample.dirty


class TestSessionSourceWiring:
    @pytest.mark.parametrize("name", BACKEND_PATHS)
    def test_audit_source_equals_in_memory_audit(
        self, tmp_path, fitted_quis, name
    ):
        session, dirty = fitted_quis
        path = tmp_path / name
        write_table(dirty, path)
        expected = session.audit(dirty)
        merged = AuditReport.merge(list(session.audit_source(path, chunk_size=512)))
        assert merged.findings == expected.findings
        assert merged.record_confidence == expected.record_confidence

    @pytest.mark.parametrize("chunk_size", [1, 7, 1000, 10_000])
    def test_sqlite_audit_merges_exactly_at_any_chunk_size(
        self, tmp_path, fitted_quis, chunk_size
    ):
        session, dirty = fitted_quis
        path = tmp_path / "wh.db"
        write_table(dirty, path, table="loads")
        expected = session.audit(dirty)
        merged = AuditReport.merge(
            list(
                session.audit_source(
                    f"sqlite:///{path}?table=loads", chunk_size=chunk_size
                )
            )
        )
        assert merged.findings == expected.findings
        assert merged.record_confidence == expected.record_confidence

    def test_audit_source_accepts_open_source_and_leaves_it_to_caller(
        self, tmp_path, fitted_quis
    ):
        session, dirty = fitted_quis
        path = tmp_path / "wh.db"
        write_table(dirty, path)
        expected = session.audit(dirty)
        with open_source(dirty.schema, path) as source:
            merged = AuditReport.merge(
                list(session.audit_source(source, chunk_size=999))
            )
        assert merged.findings == expected.findings

    def test_audit_source_rejects_schema_mismatch(self, fitted_quis, schema, table):
        session, _ = fitted_quis
        buffer = io.StringIO()
        write_table(table, buffer, format="csv")
        buffer.seek(0)
        with CsvTableSource(schema, buffer) as source:
            with pytest.raises(ValueError, match="schema"):
                list(session.audit_source(source))

    def test_fit_source_equals_fit(self, tmp_path, fitted_quis):
        _, dirty = fitted_quis
        path = tmp_path / "history.jsonl"
        write_table(dirty, path)
        config = AuditorConfig(min_error_confidence=0.8)
        from_source = AuditSession(dirty.schema, config).fit_source(path)
        in_memory = AuditSession(dirty.schema, config).fit(dirty)
        probe = dirty.head(200)
        assert from_source.audit(probe).findings == in_memory.audit(probe).findings

    def test_csv_text_stream_audits_through_audit_source(self, fitted_quis):
        session, dirty = fitted_quis
        from tests.csv_text import to_csv_text

        expected = session.audit(dirty)
        merged = AuditReport.merge(
            list(
                session.audit_source(
                    CsvTableSource(dirty.schema, io.StringIO(to_csv_text(dirty))),
                    chunk_size=640,
                )
            )
        )
        assert merged.findings == expected.findings


class TestTextDomainBoundary:
    def test_auditor_rejects_text_attributes_clearly(self):
        from repro.core import findings_schema

        with pytest.raises(ValueError, match="text attributes cannot be audited"):
            DataAuditor(findings_schema())

    def test_session_rejects_text_attributes_clearly(self):
        from repro.core import findings_schema

        with pytest.raises(ValueError, match="text attributes cannot be audited"):
            AuditSession(findings_schema())


class TestExperimentArtifacts:
    @pytest.mark.parametrize("format", ["csv", "jsonl", "sqlite"])
    def test_save_and_load_roundtrip(self, tmp_path, format):
        from repro.testenv import (
            ExperimentConfig,
            load_experiment_tables,
            run_experiment,
            save_experiment_artifacts,
        )

        result = run_experiment(ExperimentConfig(n_records=300, n_rules=10))
        paths = save_experiment_artifacts(
            result, tmp_path / format, format=format
        )
        assert all(path.exists() for path in paths.values())
        clean, dirty = load_experiment_tables(tmp_path / format, format=format)
        assert clean == result.clean
        assert dirty == result.dirty
