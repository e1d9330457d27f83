"""Tests for the continuous-auditing subsystem (``repro.monitor``).

The load-bearing contracts, in the order the classes below cover them:

* torn-write safety: partial trailing lines in an appended CSV/JSONL
  file are re-read on the next poll, never an error, never a duplicate;
* exactly-once watermarks: a monitor killed at any point — mid-window,
  or between the findings append and the watermark write — resumes to a
  findings file byte-identical to an uninterrupted run;
* audit parity: the cumulative :class:`StreamReport` of a monitored
  stream equals a one-shot audit of the same rows, bytes included,
  regardless of poll timing or storage backend;
* drift: a mid-stream pollution step trips detection within a bounded
  number of windows, stationary streams stay quiet, and ``auto`` refit
  registers a new version with ``trigger=drift`` provenance and moves
  ``latest``.
"""

import csv
import io
import json
import random
import re
import sqlite3
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core import AuditorConfig, AuditReport, AuditSession, StreamReport
from repro.core.findings import findings_schema, findings_to_table
from repro.errors import InputError
from repro.io.jsonl_backend import JsonlTableSink
from repro.io.registry import open_sink, open_source, write_table
from repro.monitor import (
    DriftConfig,
    DriftTracker,
    RefitPolicy,
    TableWatcher,
    Watermark,
    load_watermark,
    open_tail,
    split_records,
)
from repro.monitor.tail import READ_BLOCK, SqliteTailReader, TextTailReader
from repro.registry import ModelRegistry
from repro.schema import Schema, Table, nominal, numeric, text
from repro.testenv import quis_regime_stream


# -- shared corpus ----------------------------------------------------------


def _structured_table(n=1200, seed=21, error_rate=0.02):
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
    rows = []
    for _ in range(n):
        a = rng.choice(["a", "b", "c"])
        b = rule[a] if rng.random() > error_rate else rng.choice(["x", "y", "z"])
        number = rng.randint(0, 100) if rng.random() > 0.03 else None
        rows.append([a, b, number])
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    return Table(schema, rows)


def _regime_stream(schema, clean_rows=1024, dirty_rows=1024, dirty_rate=0.4):
    """Stationary head at the training error rate, then a step change."""
    head = _structured_table(clean_rows, seed=31, error_rate=0.02)
    tail = _structured_table(dirty_rows, seed=32, error_rate=dirty_rate)
    return Table(schema, head.rows + tail.rows)


@pytest.fixture(scope="module")
def session():
    table = _structured_table()
    return AuditSession(
        table.schema, AuditorConfig(min_error_confidence=0.8)
    ).fit(table)


@pytest.fixture(scope="module")
def stream(session):
    return _regime_stream(session.schema)


def _ranked_jsonl(findings):
    """The canonical findings byte stream (same sink as the CLI)."""
    buffer = io.StringIO()
    with JsonlTableSink(findings_schema(), buffer) as sink:
        sink.write(findings_to_table(findings))
    return buffer.getvalue()


def _write_jsonl(table, path):
    with open_sink(table.schema, path) as sink:
        sink.write(table)


def _watcher(session, source, tmp_path, name="m", **options):
    options.setdefault("state_path", tmp_path / f"{name}.state")
    options.setdefault("findings_path", tmp_path / f"{name}.findings.jsonl")
    options.setdefault("window_rows", 128)
    return TableWatcher(session, source, **options)


# -- split_records ----------------------------------------------------------


class TestSplitRecords:
    def test_complete_lines(self):
        records, consumed = split_records(b"one\ntwo\n")
        assert records == [b"one\n", b"two\n"]
        assert consumed == 8

    def test_partial_tail_not_consumed(self):
        records, consumed = split_records(b"one\ntw")
        assert records == [b"one\n"]
        assert consumed == 4

    def test_empty(self):
        assert split_records(b"") == ([], 0)

    def test_quoted_newline_does_not_tear_a_record(self):
        data = b'1,"x\ny"\n2,z\n'
        records, consumed = split_records(data, quoted=True)
        assert records == [b'1,"x\ny"\n', b"2,z\n"]
        assert consumed == len(data)
        # without quote tracking the embedded newline would split the row
        assert split_records(data, quoted=False)[0][0] == b'1,"x\n'

    def test_unclosed_quote_is_a_partial_tail(self):
        records, consumed = split_records(b'1,ok\n2,"half\n', quoted=True)
        assert records == [b"1,ok\n"]
        assert consumed == 5

    def test_lone_cr_and_crlf_end_records(self):
        data = b'a\rb\r\n"c\rd"\ne\r'
        records, consumed = split_records(data, quoted=True)
        assert records == [b"a\r", b"b\r\n", b'"c\rd"\n']
        assert consumed == len(data) - 2  # a final \r may open a \r\n

    def test_leading_newline_before_a_lone_cr_ends_alone(self):
        """A blank first line is a record of its own, even when a lone
        ``\\r`` ends a later record of the same read."""
        data = b'\n{"T": "b"}\n{"T": ""}\r{"T": "c"}\n'
        records, consumed = split_records(data)
        assert records == [b"\n", b'{"T": "b"}\n', b'{"T": ""}\r', b'{"T": "c"}\n']
        assert consumed == len(data)

    def test_doubled_quotes_cancel(self):
        data = b'1,"he said ""hi"""\n'
        records, _ = split_records(data, quoted=True)
        assert records == [data]


# -- watermark --------------------------------------------------------------


class TestWatermark:
    def test_roundtrip(self, tmp_path):
        mark = Watermark(
            rows=512,
            source_offset=9001,
            findings_bytes=777,
            findings_rows=12,
            windows=4,
            model_ref="loads@v2",
            drift={"windows": 4},
            refits=[{"mode": "recommend"}],
        )
        mark.save(tmp_path / "m.state")
        loaded = load_watermark(tmp_path / "m.state")
        assert loaded == mark

    def test_missing_is_none(self, tmp_path):
        assert load_watermark(tmp_path / "nope.state") is None

    def test_corrupt_is_loud(self, tmp_path):
        path = tmp_path / "m.state"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=str(path)):
            load_watermark(path)

    def test_foreign_format_is_loud(self, tmp_path):
        path = tmp_path / "m.state"
        path.write_text(json.dumps({"format": "something-else", "rows": 3}))
        with pytest.raises(ValueError, match="not a valid monitor state"):
            load_watermark(path)

    def test_crash_before_rename_keeps_previous_state(self, tmp_path, monkeypatch):
        import repro.core.serialize as serialize_module  # write_atomic's home

        path = tmp_path / "m.state"
        Watermark(rows=100).save(path)
        before = path.read_bytes()

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(serialize_module.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            Watermark(rows=200).save(path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.state"]
        assert load_watermark(path).rows == 100

    def test_disk_full_mid_write_keeps_previous_state(self, tmp_path, monkeypatch):
        import repro.core.serialize as serialize_module  # write_atomic's home

        path = tmp_path / "m.state"
        Watermark(rows=100).save(path)
        before = path.read_bytes()

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(serialize_module.os, "fsync", disk_full)
        with pytest.raises(OSError, match="No space left"):
            Watermark(rows=200).save(path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.state"]

    def test_unwritable_path_is_named(self, tmp_path):
        path = tmp_path / "no-such-dir" / "m.state"
        with pytest.raises(FileNotFoundError) as excinfo:
            Watermark(rows=1).save(path)
        assert excinfo.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []


# -- tail readers -----------------------------------------------------------


@pytest.fixture
def tail_schema():
    return Schema(
        [
            nominal("A", ["a", "b", "c"]),
            numeric("N", 0, 100, integer=True),
        ]
    )


class TestTextTail:
    def test_csv_starts_past_the_header(self, tail_schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,N\na,1\nb,2\n")
        reader = open_tail(tail_schema, path)
        assert isinstance(reader, TextTailReader)
        assert reader.format == "csv"
        assert reader.start_offset() == len("A,N\n")
        batch, end = reader.read_new(reader.start_offset(), 10)
        assert batch.rows() == [["a", 1], ["b", 2]]
        assert end == path.stat().st_size

    def test_append_resumes_from_offset(self, tail_schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,N\na,1\n")
        reader = open_tail(tail_schema, path)
        _, end = reader.read_new(reader.start_offset(), 10)
        with open(path, "a") as handle:
            handle.write("c,3\n")
        again, _ = reader.read_new(end, 10)
        assert again.rows() == [["c", 3]]

    def test_partial_trailing_line_reread_next_poll(self, tail_schema, tmp_path):
        """The torn-write contract: a half-written row is invisible until
        its newline lands, then read exactly once."""
        path = tmp_path / "t.jsonl"
        path.write_text('{"A": "a", "N": 1}\n{"A": "b", "N"')
        reader = open_tail(tail_schema, path)
        assert reader.format == "jsonl"
        batch, offset = reader.read_new(0, 10)
        assert batch.rows() == [["a", 1]]
        still_torn, same = reader.read_new(offset, 10)
        assert (still_torn.n_rows, same) == (0, offset)  # still invisible
        with open(path, "a") as handle:
            handle.write(": 2}\n")
        batch, _ = reader.read_new(offset, 10)
        assert batch.rows() == [["b", 2]]

    def test_csv_quoted_newline_not_torn(self, tmp_path):
        schema = Schema([text("T", nullable=False), numeric("N", 0, 9, integer=True)])
        path = tmp_path / "t.csv"
        path.write_text('T,N\n"two\nlines",1\nplain,2\n')
        reader = open_tail(schema, path)
        batch, _ = reader.read_new(reader.start_offset(), 10)
        assert batch.rows() == [["two\nlines", 1], ["plain", 2]]

    def test_jsonl_blank_lines_fold_into_next_offset(self, tail_schema, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"A": "a", "N": 1}\n\n{"A": "b", "N": 2}\n')
        reader = open_tail(tail_schema, path)
        batch, end = reader.read_new(0, 10)
        assert batch.rows() == [["a", 1], ["b", 2]]
        first, first_end = reader.read_new(0, 1)
        assert first.rows() == [["a", 1]]
        assert first_end == len('{"A": "a", "N": 1}\n')  # the blank line waits
        # resuming from the returned offset skips the blank line cleanly
        second, second_end = reader.read_new(first_end, 10)
        assert second.rows() == [["b", 2]]
        assert second_end == end

    def test_csv_without_complete_header_rejected(self, tail_schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,")  # header still being written
        with pytest.raises(ValueError, match="header"):
            open_tail(tail_schema, path)

    def test_csv_wrong_header_rejected_at_construction(self, tail_schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,WRONG\na,1\n")
        with pytest.raises(ValueError):
            open_tail(tail_schema, path)

    def test_csv_repeated_header_rejected_at_construction(self, tail_schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,N,A\na,1,b\n")
        with pytest.raises(ValueError, match=r"repeats \['A'\]"):
            open_tail(tail_schema, path)

    def test_bad_cell_error_names_location_and_offset(self, tail_schema, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"A": "a", "N": "not-a-number"}\n')
        reader = open_tail(tail_schema, path)
        with pytest.raises(ValueError, match="t.jsonl"):
            reader.read_new(0, 10)

    @pytest.mark.parametrize(
        "name, data",
        [
            ("t.csv", b"T,N\na\rb,1\nc,2\n"),  # a lone \r ends a short record
            ("t.csv", b"T,N\nx,1\ry,2\n"),
            ("t.jsonl", b'{"T":"x","N":1}\r{"T":"y","N":2}\n'),
        ],
        ids=["csv-short-record", "csv-two-rows", "jsonl-two-rows"],
    )
    def test_lone_cr_ends_a_record_as_repro_audit_reads_it(self, tmp_path, name, data):
        schema = Schema([text("T"), numeric("N", 0, 9, integer=True)])
        path = tmp_path / name
        path.write_bytes(data)
        try:
            with open_source(schema, path) as source:
                expected, audit_error = source.read().rows, None
        except InputError as exc:
            expected, audit_error = None, str(exc)
        reader = open_tail(schema, path)
        start = reader.start_offset()
        if audit_error is None:
            batch, end = reader.read_new(start, 10)
            assert (batch.rows(), end) == (expected, len(data))
        else:
            with pytest.raises(InputError) as excinfo:
                reader.read_new(start, 10)
            assert str(excinfo.value) == (
                f"while tailing {path} from byte {start}: {audit_error}"
            )

    def test_trailing_lone_cr_waits_for_the_next_byte(self, tail_schema, tmp_path):
        """A final \r may be the first half of \r\n: its record is held
        back, then read exactly once after the next append."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"A,N\r\na,1\r\nb,2\r")
        reader = open_tail(tail_schema, path)
        batch, offset = reader.read_new(reader.start_offset(), 10)
        assert batch.rows() == [["a", 1]]
        held, same = reader.read_new(offset, 10)
        assert (held.n_rows, same) == (0, offset)
        with open(path, "ab") as handle:
            handle.write(b"\nc,3\r")
        batch, offset = reader.read_new(offset, 10)
        assert batch.rows() == [["b", 2]]
        with open(path, "ab") as handle:
            handle.write(b"a,4\n")
        batch, offset = reader.read_new(offset, 10)
        assert batch.rows() == [["c", 3], ["a", 4]]
        assert offset == path.stat().st_size

    def test_missing_file_rejected(self, tail_schema, tmp_path):
        with pytest.raises(OSError):
            open_tail(tail_schema, tmp_path / "absent.jsonl")

    def test_reads_are_bounded_not_the_whole_backlog(
        self, tail_schema, tmp_path, monkeypatch
    ):
        """Opening a CSV tail and one bounded read each read a bounded
        number of bytes from a multi-MiB backlog, not the whole file."""
        import repro.monitor.tail as tail_module

        path = tmp_path / "big.csv"
        path.write_bytes(b"A,N\n" + b"a,1\n" * 1_000_000)  # 4 MiB of rows
        read_bytes = []

        class CountingFile(io.BufferedReader):
            def read(self, size=-1):
                data = super().read(size)
                read_bytes.append(len(data))
                return data

        def counting_open(file, mode="r", *args, **kwargs):
            assert mode == "rb"
            return CountingFile(io.FileIO(file, "r"))

        monkeypatch.setattr(tail_module, "open", counting_open, raising=False)
        reader = open_tail(tail_schema, path)
        opened = sum(read_bytes)
        batch, end = reader.read_new(reader.start_offset(), 100)
        read = sum(read_bytes) - opened
        assert batch.n_rows == 100
        assert end == len(b"A,N\n") + 100 * len(b"a,1\n")
        assert 0 < opened <= 1 << 16
        assert 0 < read <= 1 << 16


class TestSqliteTail:
    def _make_db(self, path, rows):
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE loads (A TEXT, N INTEGER)")
            conn.executemany("INSERT INTO loads VALUES (?, ?)", rows)
        return path

    def test_rowid_offsets(self, tail_schema, tmp_path):
        db = self._make_db(tmp_path / "t.db", [("a", 1), ("b", 2)])
        reader = open_tail(tail_schema, db)
        assert isinstance(reader, SqliteTailReader)
        assert reader.format == "sqlite"
        assert reader.start_offset() == 0
        batch, end = reader.read_new(0, 10)
        assert batch.rows() == [["a", 1], ["b", 2]]
        assert end == 2
        first, one = reader.read_new(0, 1)
        second, two = reader.read_new(one, 1)
        assert (first.rows(), one) == ([["a", 1]], 1)
        assert (second.rows(), two) == ([["b", 2]], 2)
        reader.close()

    def test_growing_table(self, tail_schema, tmp_path):
        db = self._make_db(tmp_path / "t.db", [("a", 1)])
        reader = open_tail(tail_schema, db)
        _, end = reader.read_new(0, 10)
        with sqlite3.connect(db) as conn:
            conn.execute("INSERT INTO loads VALUES ('c', 3)")
        batch, _ = reader.read_new(end, 10)
        assert batch.rows() == [["c", 3]]
        reader.close()

    def test_bad_cell_names_its_rowid(self, tail_schema, tmp_path):
        db = self._make_db(tmp_path / "t.db", [("a", 1), ("b", "x")])
        reader = open_tail(tail_schema, db)
        with pytest.raises(InputError) as excinfo:
            reader.read_new(0, 10)
        assert str(excinfo.value) == (
            "rowid 2, attribute 'N': invalid literal for int() with base 10: 'x'"
        )
        reader.close()

    def test_uri_with_table_option(self, tail_schema, tmp_path):
        db = self._make_db(tmp_path / "t.db", [("a", 1)])
        with sqlite3.connect(db) as conn:
            conn.execute("CREATE TABLE other (x)")
        reader = open_tail(tail_schema, f"sqlite:///{db}?table=loads")
        assert reader.table == "loads"
        reader.close()
        # two tables without a selector is ambiguous
        with pytest.raises(ValueError, match="table="):
            open_tail(tail_schema, db)

    def test_schema_mismatch_rejected(self, tmp_path):
        db = self._make_db(tmp_path / "t.db", [("a", 1)])
        other = Schema([nominal("Z", ["z"])])
        with pytest.raises(ValueError, match="do not match"):
            open_tail(other, db)

    @staticmethod
    def _rowid_column_db(path, column):
        """A table whose attribute *column* shadows a row-id name and
        holds values (500, 900) unlike the row ids (1, 2)."""
        schema = Schema(
            [nominal("A", list("abcd")), numeric(column, 0, 1000, integer=True)]
        )
        with sqlite3.connect(path) as conn:
            conn.execute(f'CREATE TABLE loads (A TEXT, "{column}" INTEGER)')
            conn.executemany("INSERT INTO loads VALUES (?, ?)", [("a", 500), ("b", 900)])
        return schema

    def test_rowid_attribute_offsets_are_rowids(self, tmp_path):
        schema = self._rowid_column_db(tmp_path / "t.db", "RowId")
        reader = open_tail(schema, tmp_path / "t.db")
        batch, end = reader.read_new(0, 10)
        assert batch.rows() == [["a", 500], ["b", 900]]
        assert end == 2
        first, one = reader.read_new(0, 1)
        assert (first.rows(), one) == ([["a", 500]], 1)
        reader.close()

    def test_rowid_attribute_resume_returns_appended_rows(self, tmp_path):
        schema = self._rowid_column_db(tmp_path / "t.db", "RowId")
        reader = open_tail(schema, tmp_path / "t.db")
        _, end = reader.read_new(0, 10)
        # appended rows whose attribute value is below the rows already read
        with sqlite3.connect(tmp_path / "t.db") as conn:
            conn.executemany("INSERT INTO loads VALUES (?, ?)", [("c", 100), ("d", 200)])
        batch, last = reader.read_new(end, 10)
        assert batch.rows() == [["c", 100], ["d", 200]]
        assert last == 4
        first, three = reader.read_new(end, 1)
        assert (first.rows(), three) == ([["c", 100]], 3)
        reader.close()

    def test_every_rowid_name_shadowed_is_refused(self, tmp_path):
        schema = Schema(
            [
                numeric("rowid", 0, 9, integer=True),
                numeric("_RowID_", 0, 9, integer=True),
                numeric("OID", 0, 9, integer=True),
            ]
        )
        with sqlite3.connect(tmp_path / "t.db") as conn:
            conn.execute('CREATE TABLE loads (rowid, "_RowID_", OID)')
        with pytest.raises(ValueError, match="cannot tail table 'loads'"):
            open_tail(schema, tmp_path / "t.db")

    def test_without_rowid_table_is_refused(self, tmp_path):
        """A WITHOUT ROWID table has no row id to resume from: refused
        when the reader opens, not with a raw sqlite3 error at the first
        poll."""
        schema = Schema([nominal("A", ["a", "b"]), numeric("N", 0, 9, integer=True)])
        with sqlite3.connect(tmp_path / "t.db") as conn:
            conn.execute(
                "CREATE TABLE loads (A TEXT PRIMARY KEY, N INTEGER) WITHOUT ROWID"
            )
            conn.execute("INSERT INTO loads VALUES ('a', 1)")
        with pytest.raises(InputError, match="cannot tail table 'loads'"):
            open_tail(schema, tmp_path / "t.db")


class TestOpenTail:
    def test_parquet_cannot_be_tailed(self, tail_schema, tmp_path):
        with pytest.raises(ValueError, match="cannot be tailed"):
            open_tail(tail_schema, tmp_path / "t.parquet")

    def test_format_override_conflict_rejected(self, tail_schema, tmp_path):
        with pytest.raises(ValueError, match="sqlite URI"):
            open_tail(tail_schema, "sqlite:///x.db", format="csv")


#: the schema the property reads; its files are written by hand, so one
#: ``N`` cell can hold a value ``N`` cannot
_TAIL_READ = Schema([text("T"), numeric("N", 0, 100, integer=True)])


#: the record ends the property draws; a file ends in ``\n`` or ``\r\n``
_TERMINATORS = ["\n", "\r\n", "\r"]


@st.composite
def _tail_files(draw):
    """``(format, file bytes, end of the last row, append sizes)``: a
    CSV or JSONL table whose text cells hold quotes, commas, ``\\n``
    and ``\\r``, one of them longer than a read block, and whose
    records end in ``\\n``, ``\\r\\n`` or a lone ``\\r``; JSONL
    files get blank lines; some files get one bad ``N`` cell. The
    appends after the CSV header tear records anywhere."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    rows = draw(
        st.lists(
            st.tuples(
                st.text(alphabet='ab ,"\n\r', max_size=6),
                st.one_of(st.none(), st.integers(0, 100)),
            ),
            max_size=12,
        )
    )
    rows.insert(draw(st.integers(0, len(rows))), ('"' + "x" * READ_BLOCK + '\n""', 7))
    if draw(st.booleans()):
        bad = draw(st.integers(0, len(rows) - 1))
        rows[bad] = (rows[bad][0], "x")
    if fmt == "csv":
        lines = []
        for cells in [("T", "N"), *rows]:
            buffer = io.StringIO()
            csv.writer(buffer).writerow(["" if v is None else str(v) for v in cells])
            lines.append(buffer.getvalue().removesuffix("\r\n"))
    else:
        lines = [json.dumps({"T": t, "N": n}) for t, n in rows]
    lines = [
        (line + draw(st.sampled_from(_TERMINATORS))).encode("utf-8") for line in lines
    ]
    last_row = len(lines) - 1
    if fmt == "jsonl":
        blanks = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(lines)),
                    st.sampled_from([b"\n", b"  \n", b"\t\r\n", b" \r"]),
                ),
                max_size=4,
            )
        )
        for at, blank in sorted(blanks, reverse=True):
            lines.insert(at, blank)
            last_row += at <= last_row
    data = b"".join(lines)
    if data.endswith(b"\r"):
        data += b"\n"
    last_row_end = len(b"".join(lines[: last_row + 1]))
    if data[last_row_end - 1 : last_row_end + 1] == b"\r\n":
        last_row_end += 1  # a lone \r met the next record's \n
    # a CSV tail starts once its header is complete: a \r needs one more byte
    start = len(lines[0]) + lines[0].endswith(b"\r") if fmt == "csv" else 0
    return fmt, data, last_row_end, _appends(draw, data, start)


def _appends(draw, data, start):
    """The sizes of the writes that grow *data* from its first *start*
    bytes: a header, then up to 12 torn pieces."""
    cuts = draw(st.lists(st.integers(start, len(data)), max_size=11))
    bounds = [start, *sorted(cuts), len(data)]
    return [high - low for low, high in zip(bounds, bounds[1:])]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    # no shrinking: each example carries a cell longer than a read block,
    # so every shrink step replays the torn-append loop and a red run took
    # minutes; the failing example is reported as generated
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(case=_tail_files(), rng=st.randoms(use_true_random=False))
def test_torn_appends_read_exactly_the_whole_file(case, rng):
    """Appended in random torn increments and read with random limits
    (and the odd fresh reader, as on a resume), a growing file yields
    exactly the rows of a whole-file read and ends at its last complete
    record; a bad cell raises the error `repro audit` raises, behind the
    tail's location prefix."""
    fmt, data, last_row_end, appends = case
    with tempfile.TemporaryDirectory() as tmp:
        whole = Path(tmp) / f"whole.{fmt}"
        whole.write_bytes(data)
        try:
            with open_source(_TAIL_READ, whole) as source:
                expected, audit_error = source.read().rows, None
        except InputError as exc:
            expected, audit_error = None, exc

        path = Path(tmp) / f"t.{fmt}"
        written = len(data) - sum(appends)  # the CSV header
        path.write_bytes(data[:written])
        reader = open_tail(_TAIL_READ, path)
        offset = reader.start_offset()
        rows = []
        try:
            while True:
                limit = rng.randint(1, 4)
                if rng.random() < 0.2:
                    reader.close()
                    reader = open_tail(_TAIL_READ, path)
                batch, offset = reader.read_new(offset, limit)
                rows.extend(batch.rows())
                if batch.n_rows == limit:
                    continue
                if not appends:
                    break
                step = appends.pop(0)
                with open(path, "ab") as handle:
                    handle.write(data[written : written + step])
                written += step
        except InputError as exc:
            assert audit_error is not None, exc
            prefix = f"while tailing {re.escape(str(path))} from byte \\d+: "
            assert re.fullmatch(prefix + re.escape(str(audit_error)), str(exc))
        else:
            assert audit_error is None
            assert rows == expected
            assert offset == last_row_end
        finally:
            reader.close()


# -- drift ------------------------------------------------------------------


class TestDriftTracker:
    CONFIG = DriftConfig(confidence=0.95, baseline_windows=3, sustain_windows=2)

    def test_baseline_windows_never_fire(self):
        tracker = DriftTracker(["A"], self.CONFIG)
        for _ in range(3):
            assert tracker.observe(100, {"A": 90}) == []

    def test_step_change_fires_within_sustain_windows(self):
        tracker = DriftTracker(["A"], self.CONFIG)
        for _ in range(5):
            assert tracker.observe(200, {"A": 4}) == []  # 2% baseline + quiet
        assert tracker.observe(200, {"A": 60}) == []  # first drifted window
        events = tracker.observe(200, {"A": 60})  # second: fires
        assert len(events) == 1
        event = events[0]
        assert event.attribute == "A"
        assert event.direction == "rising"
        assert event.window_rate == pytest.approx(0.3)
        assert event.baseline_rate == pytest.approx(0.02)
        assert event.score > 0

    def test_alarm_fires_once_until_recovery(self):
        tracker = DriftTracker(["A"], self.CONFIG)
        for _ in range(3):
            tracker.observe(200, {"A": 4})
        tracker.observe(200, {"A": 60})
        assert tracker.observe(200, {"A": 60})  # fires
        assert tracker.observe(200, {"A": 60}) == []  # latched
        assert tracker.alarmed_attributes == ("A",)
        tracker.observe(200, {"A": 4})  # recovery clears the latch
        assert tracker.alarmed_attributes == ()
        tracker.observe(200, {"A": 60})
        assert tracker.observe(200, {"A": 60})  # a new excursion fires again

    def test_falling_direction(self):
        tracker = DriftTracker(["A"], self.CONFIG)
        for _ in range(3):
            tracker.observe(400, {"A": 120})
        tracker.observe(400, {"A": 2})
        events = tracker.observe(400, {"A": 2})
        assert [e.direction for e in events] == ["falling"]

    def test_stationary_stream_stays_quiet(self):
        rng = random.Random(5)
        tracker = DriftTracker(["A", "B"], self.CONFIG)
        for _ in range(60):
            counts = {"A": sum(rng.random() < 0.05 for _ in range(200)),
                      "B": sum(rng.random() < 0.01 for _ in range(200))}
            assert tracker.observe(200, counts) == []

    def test_threshold_raises_the_bar(self):
        config = DriftConfig(threshold=0.5, baseline_windows=1, sustain_windows=1)
        tracker = DriftTracker(["A"], config)
        tracker.observe(200, {"A": 4})
        assert tracker.observe(200, {"A": 80}) == []  # separation < 0.5

    def test_serialization_resumes_mid_excursion(self):
        tracker = DriftTracker(["A"], self.CONFIG)
        for _ in range(3):
            tracker.observe(200, {"A": 4})
        tracker.observe(200, {"A": 60})  # one drifted window, not yet fired
        resumed = DriftTracker.from_dict(tracker.to_dict(), ["A"], self.CONFIG)
        assert resumed.windows == tracker.windows
        assert resumed.observe(200, {"A": 60})  # the second window still fires

    def test_reset_forgets_everything(self):
        tracker = DriftTracker(["A"], self.CONFIG)
        for _ in range(5):
            tracker.observe(200, {"A": 4})
        tracker.reset()
        assert tracker.windows == 0
        assert tracker.stats()["attributes"]["A"]["baseline_windows"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"confidence": 0.3},
            {"confidence": 1.0},
            {"threshold": -0.1},
            {"baseline_windows": 0},
            {"sustain_windows": 0},
            # mistyped: a bool is no count, a string or NaN no rate
            {"baseline_windows": 2.5},
            {"sustain_windows": True},
            {"threshold": True},
            {"threshold": float("nan")},
            {"confidence": "0.9"},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)

    def test_empty_window_rejected(self):
        tracker = DriftTracker(["A"], self.CONFIG)
        with pytest.raises(ValueError):
            tracker.observe(0, {})


# -- the monitor's report: StreamReport --------------------------------------


class TestMonitorReport:
    def test_extend_requires_contiguity(self, session, stream):
        report = StreamReport(0.8, schema=session.schema)
        first = session.audit(Table(session.schema, stream.rows[:100]))
        report.extend(first)
        gap = session.audit(Table(session.schema, stream.rows[200:300]))
        with pytest.raises(ValueError, match="contiguous"):
            report.extend(gap.with_row_offset(200))

    def test_extend_requires_same_threshold(self, session):
        report = StreamReport(0.9)
        window = AuditReport(1, [], [0.0], 0.8)
        with pytest.raises(ValueError, match="threshold"):
            report.extend(window)

    def test_ranking_matches_whole_table(self, session, stream):
        report = StreamReport(0.8, schema=session.schema)
        for start in range(0, stream.n_rows, 256):
            chunk = Table(session.schema, stream.rows[start : start + 256])
            report.extend(session.audit(chunk).with_row_offset(start))
        oneshot = session.audit(stream)
        assert report.ranked_findings() == oneshot.ranked_findings()
        assert report.n_suspicious == oneshot.n_suspicious

    def test_seeded_report_keeps_counts(self, session, stream):
        oneshot = session.audit(Table(session.schema, stream.rows[:256]))
        report = StreamReport(0.8, n_rows=256, findings=oneshot.findings)
        assert report.n_rows == 256
        assert report.n_findings == len(oneshot.findings)
        # further windows still extend it
        more = session.audit(
            Table(session.schema, stream.rows[256:512])
        ).with_row_offset(256)
        report.extend(more)
        assert report.n_rows == 512


# -- the watcher ------------------------------------------------------------


class TestWatcherCatchUp:
    def test_jsonl_catchup_equals_oneshot(self, session, stream, tmp_path):
        _write_jsonl(stream, tmp_path / "s.jsonl")
        with _watcher(session, tmp_path / "s.jsonl", tmp_path) as watcher:
            report = watcher.run()
        oneshot = session.audit(stream)
        assert report.n_rows == stream.n_rows
        assert _ranked_jsonl(report.ranked_findings()) == _ranked_jsonl(
            oneshot.ranked_findings()
        )

    def test_csv_and_sqlite_backends_agree(self, session, stream, tmp_path):
        _write_jsonl(stream, tmp_path / "s.jsonl")
        write_table(stream, tmp_path / "s.csv")
        with open_sink(stream.schema, f"sqlite:///{tmp_path}/s.db?table=loads") as sink:
            sink.write(stream)
        outputs = {}
        for name in ("s.jsonl", "s.csv", "s.db"):
            with _watcher(session, tmp_path / name, tmp_path, name=name) as watcher:
                watcher.run()
            outputs[name] = (tmp_path / f"{name}.findings.jsonl").read_bytes()
        assert outputs["s.jsonl"] == outputs["s.csv"] == outputs["s.db"]

    def test_findings_file_is_independent_of_poll_timing(
        self, session, stream, tmp_path
    ):
        """Windows anchor at committed rows, not poll batches: feeding the
        file in ragged increments (with torn tails) yields the same
        findings bytes as one catch-up pass."""
        _write_jsonl(stream, tmp_path / "whole.jsonl")
        with _watcher(session, tmp_path / "whole.jsonl", tmp_path, "w") as watcher:
            watcher.run()
        reference = (tmp_path / "w.findings.jsonl").read_bytes()

        data = (tmp_path / "whole.jsonl").read_bytes()
        ragged = tmp_path / "ragged.jsonl"
        ragged.write_bytes(b"")
        rng = random.Random(13)
        watcher = _watcher(session, ragged, tmp_path, "r")
        written = 0
        while written < len(data):
            step = rng.randint(1, 4000)  # often mid-line: torn tails galore
            with open(ragged, "ab") as handle:
                handle.write(data[written : written + step])
            written += step
            watcher.poll()
        watcher.flush()
        watcher.close()
        assert (tmp_path / "r.findings.jsonl").read_bytes() == reference

    def test_emit_streams_exactly_the_findings_file(self, session, stream, tmp_path):
        _write_jsonl(stream, tmp_path / "s.jsonl")
        chunks = []
        with _watcher(
            session, tmp_path / "s.jsonl", tmp_path, emit=chunks.append
        ) as watcher:
            watcher.run()
        streamed = "".join(chunks).encode("utf-8")
        assert streamed == (tmp_path / "m.findings.jsonl").read_bytes()

    def test_follow_mode_never_flushes_partials(self, session, stream, tmp_path):
        _write_jsonl(Table(session.schema, stream.rows[:300]), tmp_path / "s.jsonl")
        watcher = _watcher(session, tmp_path / "s.jsonl", tmp_path, window_rows=128)
        watcher.poll()
        stop = threading.Event()
        stop.set()  # already-stopped follow run: returns without flushing
        watcher.run(follow=True, stop=stop)
        assert watcher.watermark.rows == 256  # 2 windows; 44 rows stay pending
        assert watcher.status()["pending_rows"] == 44
        watcher.close()

    def test_catchup_holds_at_most_one_window_unread(
        self, session, stream, tmp_path, monkeypatch
    ):
        """Catch-up over a backlog many windows long never holds more
        than ``window_rows`` rows read but uncommitted."""
        write_table(stream, tmp_path / "s.csv")
        pending_at_commit = []
        commit = TableWatcher._commit_window

        def recording(self, *args):
            pending_at_commit.append(self.status()["pending_rows"])
            return commit(self, *args)

        monkeypatch.setattr(TableWatcher, "_commit_window", recording)
        with _watcher(session, tmp_path / "s.csv", tmp_path, window_rows=100) as watcher:
            watcher.run()
        assert len(pending_at_commit) == 21  # 20 whole windows and the rest
        assert pending_at_commit == [100] * 20 + [stream.n_rows - 2000]

    def test_unfitted_session_rejected(self, tmp_path, session):
        blank = AuditSession(session.schema)
        with pytest.raises(ValueError, match="fitted"):
            _watcher(blank, tmp_path / "s.jsonl", tmp_path)

    def test_session_monitor_wires_through(self, session, stream, tmp_path):
        _write_jsonl(stream, tmp_path / "s.jsonl")
        watcher = session.monitor(
            tmp_path / "s.jsonl",
            state_path=tmp_path / "m.state",
            findings_path=tmp_path / "m.findings.jsonl",
            window_rows=512,
        )
        assert isinstance(watcher, TableWatcher)
        report = watcher.run()
        watcher.close()
        assert report.n_rows == stream.n_rows
        status = watcher.status()
        assert status["rows"] == stream.n_rows
        assert status["windows"] == 4
        assert status["drift"]["windows"] == 4


class TestWatcherResume:
    def _reference(self, session, stream, tmp_path):
        _write_jsonl(stream, tmp_path / "ref.jsonl")
        with _watcher(session, tmp_path / "ref.jsonl", tmp_path, "ref") as watcher:
            watcher.run()
        return (tmp_path / "ref.findings.jsonl").read_bytes()

    def test_kill_mid_window_resumes_byte_identical(self, session, stream, tmp_path):
        reference = self._reference(session, stream, tmp_path)
        full = (tmp_path / "ref.jsonl").read_bytes()
        lines = full.split(b"\n")
        # first run sees ~last third of a window plus a torn line, follow
        # style (no partial flush), then dies
        partial = b"\n".join(lines[:1100]) + b"\n" + lines[1100][:9]
        source = tmp_path / "grow.jsonl"
        source.write_bytes(partial)
        first = _watcher(session, source, tmp_path, "g")
        while first.poll():
            pass
        assert 0 < first.watermark.rows < stream.n_rows
        assert first.status()["pending_rows"]  # died holding uncommitted rows
        first.close()

        source.write_bytes(full)
        second = _watcher(session, source, tmp_path, "g")
        report = second.run()
        second.close()
        assert report.n_rows == stream.n_rows
        assert (tmp_path / "g.findings.jsonl").read_bytes() == reference

    def test_crash_between_findings_and_watermark(
        self, session, stream, tmp_path, monkeypatch
    ):
        """The hard crash window: findings are on disk, the watermark is
        not. Resume must discard the uncovered findings and regenerate
        them — byte-identically."""
        reference = self._reference(session, stream, tmp_path)
        _write_jsonl(stream, tmp_path / "c.jsonl")
        watcher = _watcher(session, tmp_path / "c.jsonl", tmp_path, "c")

        calls = {"n": 0}
        original = Watermark.save

        def dies_on_fourth_commit(self, path):
            calls["n"] += 1
            if calls["n"] == 4:
                raise KeyboardInterrupt  # killed after the findings fsync
            return original(self, path)

        monkeypatch.setattr(Watermark, "save", dies_on_fourth_commit)
        with pytest.raises(KeyboardInterrupt):
            watcher.run()
        monkeypatch.undo()
        watcher.close()

        state = load_watermark(tmp_path / "c.state")
        assert state.windows == 3  # the fourth window never committed
        findings_file = tmp_path / "c.findings.jsonl"
        assert findings_file.stat().st_size >= state.findings_bytes

        with _watcher(session, tmp_path / "c.jsonl", tmp_path, "c") as watcher:
            report = watcher.run()
        assert report.n_rows == stream.n_rows
        assert findings_file.read_bytes() == reference

    def test_resume_after_clean_catchup_is_a_noop(self, session, stream, tmp_path):
        reference = self._reference(session, stream, tmp_path)
        with _watcher(session, tmp_path / "ref.jsonl", tmp_path, "ref") as watcher:
            report = watcher.run()
        assert report.n_rows == stream.n_rows
        assert (tmp_path / "ref.findings.jsonl").read_bytes() == reference

    def test_resume_with_rewritten_findings_file_is_loud(
        self, session, stream, tmp_path
    ):
        _write_jsonl(stream, tmp_path / "s.jsonl")
        with _watcher(session, tmp_path / "s.jsonl", tmp_path) as watcher:
            watcher.run()
        (tmp_path / "m.findings.jsonl").write_text("")  # operator accident
        with pytest.raises(ValueError, match="cannot resume"):
            _watcher(session, tmp_path / "s.jsonl", tmp_path)

    def test_resume_with_corrupt_state_is_loud(self, session, stream, tmp_path):
        _write_jsonl(stream, tmp_path / "s.jsonl")
        (tmp_path / "m.state").write_text("garbage")
        with pytest.raises(ValueError, match="monitor state"):
            _watcher(session, tmp_path / "s.jsonl", tmp_path)

    @pytest.fixture
    def tail_session(self, tail_schema):
        rng = random.Random(3)
        table = Table(
            tail_schema, [[rng.choice("abc"), rng.randint(0, 100)] for _ in range(200)]
        )
        return AuditSession(tail_schema).fit(table)

    @staticmethod
    def _resumed_error(session, path, tmp_path):
        """The message a fresh watcher resuming over *path* ends with,
        and the one `repro audit` (`audit_source`) ends with."""
        with pytest.raises(InputError) as whole:
            list(session.audit_source(path))
        with _watcher(session, path, tmp_path) as watcher:
            offset = watcher.watermark.source_offset
            with pytest.raises(InputError) as tailed:
                watcher.run()
        return str(tailed.value), f"while tailing {path} from byte {offset}: {whole.value}"

    def test_csv_cell_error_names_its_file_line(self, tail_session, tmp_path):
        path = tmp_path / "t.csv"
        write_table(
            Table(tail_session.schema, [["a", n % 100] for n in range(200)]), path
        )
        with _watcher(tail_session, path, tmp_path) as watcher:
            watcher.run()
        assert watcher.watermark.rows == 200
        with open(path, "a", newline="") as handle:
            handle.write("b,1\r\n" * 4 + "c,x\r\n")  # the bad cell is line 206
        tailed, audited = self._resumed_error(tail_session, path, tmp_path)
        assert "line 206, attribute 'N'" in audited
        assert tailed == audited

    def test_jsonl_cell_error_counts_blank_lines(self, tail_session, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_jsonl(Table(tail_session.schema, [["a", n] for n in range(11)]), path)
        with open(path, "a") as handle:
            handle.write("\n")  # line 12 is blank
        with _watcher(tail_session, path, tmp_path) as watcher:
            watcher.run()
        assert watcher.watermark.rows == 11
        with open(path, "a") as handle:
            handle.write('{"A": "b", "N": "x"}\n')  # line 13
        tailed, audited = self._resumed_error(tail_session, path, tmp_path)
        assert "line 13, attribute 'N'" in audited
        assert tailed == audited


# -- drift + refit end to end ----------------------------------------------


class TestDriftAndRefit:
    DRIFT = DriftConfig(confidence=0.95, baseline_windows=3, sustain_windows=2)

    def test_step_change_trips_drift_within_bounded_windows(
        self, session, stream, tmp_path
    ):
        _write_jsonl(stream, tmp_path / "s.jsonl")
        with _watcher(session, tmp_path / "s.jsonl", tmp_path, drift=self.DRIFT) as w:
            w.run()
            stats = w.status()["drift"]
        # step at row 1024 = window 8 (128-row windows); detection must
        # land within baseline + sustain + 2 windows of the step
        alarmed = [a for a, s in stats["attributes"].items() if s["alarmed"]]
        assert "B" in alarmed  # the rule-carrying attribute drifted
        assert stats["windows"] == 16

    def test_stationary_stream_does_not_alarm(self, session, tmp_path):
        stationary = _structured_table(2048, seed=77, error_rate=0.02)
        _write_jsonl(stationary, tmp_path / "s.jsonl")
        with _watcher(session, tmp_path / "s.jsonl", tmp_path, drift=self.DRIFT) as w:
            w.run()
            stats = w.status()["drift"]
        assert all(not s["alarmed"] for s in stats["attributes"].values())

    def test_recommend_mode_records_but_does_not_register(
        self, session, stream, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        session.save_to_registry(registry, "loads")
        _write_jsonl(stream, tmp_path / "s.jsonl")
        policy = RefitPolicy("recommend", model_name="loads")
        with _watcher(
            session, tmp_path / "s.jsonl", tmp_path, drift=self.DRIFT, refit=policy
        ) as watcher:
            watcher.run()
            status = watcher.status()
        assert status["refits"]
        assert all(r["mode"] == "recommend" for r in status["refits"])
        assert len(registry.versions("loads")) == 1  # nothing registered

    def test_auto_refit_registers_and_moves_latest(self, session, stream, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        version = session.save_to_registry(registry, "loads")
        assert version.version == 1
        _write_jsonl(stream, tmp_path / "s.jsonl")
        policy = RefitPolicy(
            "auto", registry=registry, model_name="loads", refit_rows=1024
        )
        with _watcher(
            session,
            tmp_path / "s.jsonl",
            tmp_path,
            drift=self.DRIFT,
            refit=policy,
            model_ref="loads@v1",
        ) as watcher:
            watcher.run()
            status = watcher.status()

        auto = [r for r in status["refits"] if r["mode"] == "auto"]
        assert auto, "sustained drift must trigger an auto refit"
        assert auto[0]["model_ref"] == "loads@v2"
        assert status["model"] == "loads@v2"
        assert registry.tags("loads")["latest"] == 2  # serving picks this up
        provenance = registry.resolve("loads@v2").provenance
        assert provenance.extra["trigger"] == "drift"
        assert provenance.extra["drift"]["attribute"] == auto[0]["drift"]["attribute"]
        assert provenance.extra["drift"]["window_rate"] > provenance.extra["drift"][
            "baseline_rate"
        ]
        assert provenance.n_rows == 1024
        # the refit and the triggering window committed atomically
        state = load_watermark(tmp_path / "m.state")
        assert state.model_ref == "loads@v2"
        assert [r["mode"] for r in state.refits] == ["auto"]
        # the new baseline was re-established after the reset — against
        # the post-step regime the refreshed model audits, no re-alarm storm
        assert status["drift"]["windows"] < 16

    def test_sqlite_auto_refit_records_the_sqlite_format(
        self, session, stream, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        session.save_to_registry(registry, "loads")
        location = f"sqlite:///{tmp_path}/s.db?table=loads"
        with open_sink(stream.schema, location) as sink:
            sink.write(stream)
        policy = RefitPolicy(
            "auto", registry=registry, model_name="loads", refit_rows=1024
        )
        with _watcher(
            session, location, tmp_path, drift=self.DRIFT, refit=policy
        ) as watcher:
            watcher.run()
            status = watcher.status()
        assert status["format"] == "sqlite"
        assert status["model"] == "loads@v2"
        assert registry.resolve("loads@v2").provenance.source_format == "sqlite"

    def test_quis_pollution_step_end_to_end(self, tmp_path):
        """The paper-shaped scenario: a QUIS load stream whose pollution
        rate steps up mid-stream trips drift; auto-refit registers a new
        version whose provenance carries the window statistics."""
        stream, _ = quis_regime_stream([(1280, 0.004), (1280, 0.10)], seed=11)
        train, _ = quis_regime_stream([(1500, 0.004)], seed=12)
        session = AuditSession(
            stream.schema, AuditorConfig(min_error_confidence=0.8)
        ).fit(train)
        registry = ModelRegistry(tmp_path / "registry")
        session.save_to_registry(registry, "quis")
        _write_jsonl(stream, tmp_path / "s.jsonl")
        policy = RefitPolicy(
            "auto", registry=registry, model_name="quis", refit_rows=1280
        )
        with _watcher(
            session,
            tmp_path / "s.jsonl",
            tmp_path,
            window_rows=128,
            drift=DriftConfig(confidence=0.95, baseline_windows=3, sustain_windows=2),
            refit=policy,
            model_ref="quis@v1",
        ) as watcher:
            watcher.run()
            status = watcher.status()
        auto = [r for r in status["refits"] if r["mode"] == "auto"]
        assert auto
        # the step lands at window 10; detection is bounded
        assert auto[0]["drift"]["window"] <= 14
        assert registry.tags("quis")["latest"] == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="registry"):
            RefitPolicy("auto", model_name="x")
        with pytest.raises(ValueError, match="name"):
            RefitPolicy("auto", registry=object().__class__)  # no name given
        with pytest.raises(ValueError, match="mode"):
            RefitPolicy("sometimes")
        with pytest.raises(ValueError, match="refit_rows"):
            RefitPolicy("off", refit_rows=0)


# -- regime stream generator ------------------------------------------------


class TestQuisRegimeStream:
    def test_segments_keep_their_row_counts(self):
        stream, log = quis_regime_stream([(200, 0.0), (300, 0.5)], seed=3)
        assert stream.n_rows == 500
        # a 0.0-rate segment contributes no changes; the dirty segment's
        # changes carry stream-global row indices past the boundary
        assert log.cell_changes
        assert min(c.row for c in log.cell_changes) >= 200
        assert max(c.row for c in log.cell_changes) < 500

    def test_single_segment_is_stationary(self):
        stream, log = quis_regime_stream([(150, 0.01)], seed=4)
        assert stream.n_rows == 150

    def test_validation(self):
        with pytest.raises(ValueError):
            quis_regime_stream([])
        with pytest.raises(ValueError):
            quis_regime_stream([(0, 0.1)])
