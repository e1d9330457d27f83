"""Tailing readers: resumable, append-aware views of a growing table.

The :mod:`repro.io` sources are single-pass — right for auditing a
finished load, wrong for a table that is still growing. A
:class:`TailReader` instead reads *from an offset*:
:meth:`TailReader.read_new` returns at most *limit* rows that became
complete after it, as one :class:`~repro.io.columnar.ColumnBatch`, and
the offset just past them, so the caller can persist exactly how far it
has consumed (the watermark) and resume there after a restart. A read
holds *limit* rows and one :data:`READ_BLOCK`, whatever the backlog.

Offsets are **byte positions** for CSV/JSONL files and **rowids** for
SQLite tables. Text files are read in binary and split into records by
:func:`split_records`, which only ever cuts at a line end that really
ends a record — ``\\n``, ``\\r\\n`` or a lone ``\\r``, the ends
``repro audit`` reads — and tracks CSV quote parity, so a quoted field
containing a line end never tears a row. Everything after the last
record boundary (a half-written trailing line, an unclosed quote) is
simply **not consumed yet**: a later read returns it whole, so a monitor
polling a file mid-append never errors on the partial tail and never
emits a row twice. That includes a final unterminated line, which
``repro audit`` reads as a record, and a final lone ``\\r``, which may
be the first half of ``\\r\\n``: both wait for the next byte. The
complete records are parsed by the :mod:`repro.io` CSV/JSONL sources
from the line they start at in the file, so a tailed read coerces
exactly as a batch read does and a bad cell names the line
``repro audit`` names. SQLite rows are fetched
``WHERE rowid > ? ORDER BY rowid LIMIT ?`` and converted as the SQLite
source converts them.
"""

from __future__ import annotations

import io
from abc import ABC, abstractmethod
from itertools import accumulate, takewhile
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import InputError
from repro.io.base import undecodable
from repro.io.columnar import ColumnBatch
from repro.io.csv_backend import CsvTableSource
from repro.io.jsonl_backend import JsonlTableSource
from repro.io.registry import detect_format
from repro.io.sqlite_backend import (
    SqliteTableSource,
    _quote,
    fetched_batch,
    parse_sqlite_url,
    rowid_alias,
)
from repro.schema.schema import Schema

__all__ = [
    "TailReader",
    "TextTailReader",
    "SqliteTailReader",
    "split_records",
    "open_tail",
]

#: bytes a text tail reads from its file at a time
READ_BLOCK = 1 << 14


def split_records(data: bytes, *, quoted: bool = False) -> tuple[list[bytes], int]:
    """Split appended bytes into complete records.

    A record ends where ``repro audit`` ends one: at ``\\n``, at
    ``\\r\\n``, or at a ``\\r`` followed by any other byte. Returns
    ``(records, consumed)``: each record includes its terminator, and
    ``consumed`` is the total byte length of the complete records —
    everything past it is a partial tail the caller must re-read later.
    A ``\\r`` that is the last byte of *data* may be the first half of
    ``\\r\\n``, so it ends nothing yet. With ``quoted=True`` a ``"``
    toggles CSV quote state, so line ends inside quoted fields never
    end a record (doubled quotes toggle twice and cancel out).
    """
    records: list[bytes] = []
    start = pos = 0
    size = len(data)
    quoted = quoted and b'"' in data
    # without a lone \r (every \r opening a \r\n) only \n ends records
    lone_cr = data.count(b"\r") > data.count(b"\r\n")
    while True:
        end = data.find(b"\n", pos)
        if lone_cr:
            # a \r before end - 1 is lone (the byte after it is no \n) and
            # ends the record first; one that is the last byte read may
            # still open a \r\n. A \n at byte 0 bounds the search at 0,
            # not at -1, which find() would count from the end of data.
            stop = max((size if end < 0 else end) - 1, 0)
            cr = data.find(b"\r", pos, stop)
            end = cr if cr >= 0 else end
        if end < 0:
            return records, start
        if quoted and data.count(b'"', start, end) % 2:
            pos = end + 1
            continue
        records.append(data[start : end + 1])
        start = pos = end + 1


class TailReader(ABC):
    """A positioned, restartable reader of one growing table."""

    #: the registry format name of the tailed table ("csv", "jsonl" or "sqlite")
    format: str
    #: what the offsets mean, for status displays ("bytes" or "rowid")
    offset_kind: str = "bytes"

    def __init__(self, schema: Schema, location: Union[str, Path]):
        self.schema = schema
        self.location = location

    def start_offset(self) -> int:
        """The offset a fresh monitor starts at (0, or past a CSV header)."""
        return 0

    @abstractmethod
    def read_new(self, offset: int, limit: int) -> tuple[ColumnBatch, int]:
        """At most *limit* rows that became complete after *offset*, in
        stream order, as one batch, and the offset just past them.

        Calling ``read_new`` with that offset later continues exactly
        where this batch ended, with no row duplicated or skipped; fewer
        than *limit* rows means every complete row is read.
        """

    def close(self) -> None:
        """Release any underlying handle (idempotent)."""

    def __enter__(self) -> "TailReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.location)!r})"


class TextTailReader(TailReader):
    """Byte-offset tailing of a CSV or JSONL file (see module docstring)."""

    def __init__(
        self,
        schema: Schema,
        path: Union[str, Path],
        *,
        format: str,
        null_marker: str = "",
    ):
        super().__init__(schema, path)
        if format not in ("csv", "jsonl"):
            raise InputError(f"cannot tail format {format!r} (only csv and jsonl)")
        self.format = format
        self.null_marker = null_marker
        self._header_text = ""
        # the first record; opening a missing file raises, naming it
        header = next(self._records_from(0), None)
        if format == "csv":
            if header is None:
                raise InputError(
                    f"{path} holds no complete CSV header line yet "
                    f"(the monitor needs the header before it can tail data rows)"
                )
            try:
                self._header_text = header.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: {undecodable(0, exc)}") from exc
            # validate the header once, eagerly — a wrong header must
            # surface at construction, not at the first data row
            CsvTableSource(
                schema, io.StringIO(self._header_text), null_marker=null_marker
            ).close()
        #: (offset, file line) of the record after the last read
        self._next = (self.start_offset(), 2 if format == "csv" else 1)

    def start_offset(self) -> int:
        return len(self._header_text.encode("utf-8"))

    def _records_from(self, offset: int) -> Iterator[bytes]:
        """The complete records from *offset* on, read in bounded blocks."""
        carry = b""
        with open(self.location, "rb") as handle:
            handle.seek(offset)
            while block := handle.read(READ_BLOCK):
                data = carry + block
                records, consumed = split_records(data, quoted=self.format == "csv")
                yield from records
                carry = data[consumed:]

    def _line_at(self, offset: int) -> int:
        """The file line of the record at *offset*: carried from the last
        read, or on a resume one line per record before it."""
        if offset == self._next[0]:
            return self._next[1]
        ends = accumulate(map(len, self._records_from(0)))
        return 1 + sum(1 for _ in takewhile(offset.__ge__, ends))

    def read_new(self, offset: int, limit: int) -> tuple[ColumnBatch, int]:
        line = self._line_at(offset)
        records: list[bytes] = []
        kept = rows = 0
        for record in self._records_from(offset):
            if rows == limit:
                break
            records.append(record)
            # a JSONL line whose text strips to nothing holds no row
            if self.format == "csv" or record[:1] == b"{" or (
                record.decode("utf-8", "replace").strip()
            ):
                rows += 1
                kept = len(records)
        del records[kept:]
        try:
            text = b"".join(records).decode("utf-8")
            if self.format == "csv":
                source = CsvTableSource(
                    self.schema,
                    io.StringIO(self._header_text + text, newline=""),
                    null_marker=self.null_marker,
                    first_line=line,
                )
            else:
                source = JsonlTableSource(
                    self.schema, io.StringIO(text, newline=""), first_line=line
                )
            with source:
                batch = source.read_columns()
        except (UnicodeDecodeError, InputError) as exc:
            reason = undecodable(0, exc) if isinstance(exc, UnicodeDecodeError) else exc
            raise InputError(
                f"while tailing {self.location} from byte {offset}: {reason}"
            ) from exc
        end = offset + sum(map(len, records))
        self._next = (end, line + len(records))
        return batch, end


class SqliteTailReader(TailReader):
    """Rowid tailing of one SQLite table: ``WHERE rowid > ?`` is resume.

    The row id is read through the first of its names (``rowid``,
    ``_rowid_``, ``oid``) that no attribute shadows. A table without a
    row id to select (:func:`~repro.io.sqlite_backend.rowid_alias`) — a
    ``WITHOUT ROWID`` table, or one whose attributes shadow all three
    names — cannot be tailed and is refused here.
    """

    format = "sqlite"
    offset_kind = "rowid"

    def __init__(
        self,
        schema: Schema,
        database: Union[str, Path],
        *,
        table: Optional[str] = None,
    ):
        super().__init__(schema, database)
        self._source = SqliteTableSource(schema, database, table=table)
        self.table = self._source.table
        rowid = rowid_alias(self._source.connection, self.table)
        if rowid is None:
            self.close()
            raise InputError(
                f"cannot tail table {self.table!r}: it has no row id to "
                f"select (a WITHOUT ROWID table, or columns that shadow "
                f"every SQLite row-id name: rowid, _rowid_, oid)"
            )
        # the row id rides last, past the cells the conversion reads
        columns = ", ".join(_quote(name) for name in schema.names)
        self._select = (
            f"SELECT {columns}, {rowid} FROM {_quote(self.table)} "
            f"WHERE {rowid} > ? ORDER BY {rowid} LIMIT ?"
        )

    def read_new(self, offset: int, limit: int) -> tuple[ColumnBatch, int]:
        cursor = self._source.connection.execute(self._select, (offset, limit))
        fetched = cursor.fetchall()
        rowids = [row[-1] for row in fetched]
        batch = fetched_batch(self.schema, fetched, rowids, label="rowid")
        return batch, rowids[-1] if rowids else offset

    def close(self) -> None:
        self._source.close()


def open_tail(
    schema: Schema,
    location: Union[str, Path],
    *,
    format: Optional[str] = None,
    null_marker: str = "",
) -> TailReader:
    """Open the right :class:`TailReader` for *location*.

    Formats follow the :mod:`repro.io` registry rules — ``sqlite:`` URIs
    (with their ``table=`` option) and the known extensions; only CSV,
    JSONL, and SQLite can be tailed (Parquet files are immutable
    containers, not append logs).
    """
    text = str(location)
    if text.startswith("sqlite:"):
        if format not in (None, "sqlite"):
            raise InputError(
                f"{location!r} is a sqlite URI but format={format!r} was requested"
            )
        path, options = parse_sqlite_url(text)
        return SqliteTailReader(schema, path, table=options.get("table"))
    fmt = format or detect_format(location)
    if fmt == "sqlite":
        return SqliteTailReader(schema, location)
    if fmt in ("csv", "jsonl"):
        return TextTailReader(
            schema, location, format=fmt, null_marker=null_marker
        )
    raise InputError(
        f"format {fmt!r} cannot be tailed (supported: csv, jsonl, sqlite)"
    )
