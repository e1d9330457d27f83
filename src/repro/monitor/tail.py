"""Tailing readers: resumable, append-aware views of a growing table.

The :mod:`repro.io` sources are single-pass — right for auditing a
finished load, wrong for a table that is still growing. A
:class:`TailReader` instead reads *from an offset*: every call to
:meth:`TailReader.read_new` returns the rows that became complete since
the given position, each paired with the offset just past it, so the
caller can persist exactly how far it has consumed (the watermark) and
resume there after a restart.

Offsets are **byte positions** for CSV/JSONL files and **rowids** for
SQLite tables. Text files are read in binary and split into records by
:func:`split_records`, which only ever cuts at a newline that really
ends a record — it tracks CSV quote parity, so a quoted field
containing ``\\n`` never tears a row. Everything after the last record
boundary (a half-written trailing line, a line still missing its
newline, an unclosed quote) is simply **not consumed yet**: the next
poll re-reads it, by which time the producer has finished the write.
That is the whole torn-write story — a monitor polling a file mid-append
never errors on the partial tail and never emits a row twice.

Parsing reuses the :mod:`repro.io` backends verbatim (the complete
records are fed through :class:`~repro.io.csv_backend.CsvTableSource` /
:class:`~repro.io.jsonl_backend.JsonlTableSource`), so a tailed read
applies exactly the schema-driven coercion and strictness of a batch
read. SQLite needs none of the byte games: committed rows appear
atomically, and ``WHERE rowid > ?`` is the resume position.
"""

from __future__ import annotations

import io
import sqlite3
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import InputError
from repro.io.base import undecodable
from repro.io.cells import cell_context, cell_converters
from repro.io.csv_backend import CsvTableSource
from repro.io.jsonl_backend import JsonlTableSource
from repro.io.registry import detect_format
from repro.io.sqlite_backend import (
    _from_sql,
    _quote,
    parse_sqlite_url,
    resolve_table,
    rowid_alias,
)
from repro.schema.schema import Schema
from repro.schema.types import Value

__all__ = [
    "TailedRow",
    "TailReader",
    "TextTailReader",
    "SqliteTailReader",
    "split_records",
    "open_tail",
]

#: one newly-complete stored row: (schema-ordered cells, offset just past it)
TailedRow = tuple[list[Value], int]


def split_records(data: bytes, *, quoted: bool = False) -> tuple[list[bytes], int]:
    """Split appended bytes into complete newline-terminated records.

    Returns ``(records, consumed)``: each record includes its
    terminating newline, and ``consumed`` is the total byte length of
    the complete records — everything past it is a partial tail the
    caller must re-read later. With ``quoted=True`` a ``"`` toggles CSV
    quote state, so newlines inside quoted fields never end a record
    (doubled quotes toggle twice and cancel out).
    """
    records: list[bytes] = []
    start = 0
    in_quote = False
    for position, byte in enumerate(data):
        if quoted and byte == 0x22:  # '"'
            in_quote = not in_quote
        elif byte == 0x0A and not in_quote:  # '\n'
            records.append(data[start : position + 1])
            start = position + 1
    return records, start


class TailReader(ABC):
    """A positioned, restartable reader of one growing table."""

    #: what the offsets mean, for status displays ("bytes" or "rowid")
    offset_kind: str = "bytes"

    def __init__(self, schema: Schema, location: Union[str, Path]):
        self.schema = schema
        self.location = location

    @abstractmethod
    def start_offset(self) -> int:
        """The offset a fresh monitor starts at (0, or past a CSV header)."""

    @abstractmethod
    def read_new(self, offset: int) -> list[TailedRow]:
        """All rows that became complete after *offset*, in stream order.

        Each row carries the offset just past it; persisting that offset
        and calling ``read_new`` with it again later continues exactly
        where this batch ended, with no row duplicated or skipped.
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
        self._data_start = 0
        if format == "csv":
            with open(path, "rb") as handle:
                head = handle.read()
            records, consumed = split_records(head, quoted=True)
            if not records:
                raise InputError(
                    f"{path} holds no complete CSV header line yet "
                    f"(the monitor needs the header before it can tail data rows)"
                )
            try:
                self._header_text = records[0].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: {undecodable(0, exc)}") from exc
            self._data_start = len(records[0])
            # validate the header once, eagerly — a wrong header must
            # surface at construction, not at the first data row
            CsvTableSource(
                schema, io.StringIO(self._header_text), null_marker=null_marker
            ).close()
        else:
            # existence check with the open error naming the location
            with open(path, "rb"):
                pass

    def start_offset(self) -> int:
        return self._data_start

    def read_new(self, offset: int) -> list[TailedRow]:
        with open(self.location, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
        records, _ = split_records(data, quoted=self.format == "csv")
        if not records:
            return []
        try:
            text = b"".join(records).decode("utf-8")
            if self.format == "csv":
                source = CsvTableSource(
                    self.schema,
                    io.StringIO(self._header_text + text),
                    null_marker=self.null_marker,
                )
            else:
                source = JsonlTableSource(self.schema, io.StringIO(text))
            with source:
                rows = source.read().rows
        except UnicodeDecodeError as exc:
            raise InputError(
                f"while tailing {self.location} from byte {offset}: "
                f"{undecodable(0, exc)}"
            ) from exc
        except InputError as exc:
            raise InputError(
                f"while tailing {self.location} from byte {offset}: {exc}"
            ) from exc
        # pair each parsed row with the offset past its record; blank
        # JSONL lines parse to no row, so their bytes commit with the
        # following row (or stay unconsumed as the current tail)
        tailed: list[TailedRow] = []
        position = offset
        row_iter = iter(rows)
        for record in records:
            position += len(record)
            if self.format == "jsonl" and not record.strip():
                continue
            tailed.append((next(row_iter), position))
        return tailed


class SqliteTailReader(TailReader):
    """Rowid tailing of one SQLite table: ``WHERE rowid > ?`` is resume.

    The row id is read through the first of its names (``rowid``,
    ``_rowid_``, ``oid``) that no attribute shadows. A table without a
    row id to select (:func:`~repro.io.sqlite_backend.rowid_alias`) — a
    ``WITHOUT ROWID`` table, or one whose attributes shadow all three
    names — cannot be tailed and is refused here.
    """

    offset_kind = "rowid"

    def __init__(
        self,
        schema: Schema,
        database: Union[str, Path],
        *,
        table: Optional[str] = None,
    ):
        super().__init__(schema, database)
        path = Path(database)
        if not path.exists():
            raise FileNotFoundError(f"no such SQLite database: {database}")
        self._connection = sqlite3.connect(path)
        try:
            self.table = resolve_table(self._connection, schema, table, database)
            self._rowid = rowid_alias(self._connection, self.table)
            if self._rowid is None:
                raise InputError(
                    f"cannot tail table {self.table!r}: it has no row id to "
                    f"select (a WITHOUT ROWID table, or columns that shadow "
                    f"every SQLite row-id name: rowid, _rowid_, oid)"
                )
        except Exception:
            self.close()
            raise

    def start_offset(self) -> int:
        return 0

    def read_new(self, offset: int) -> list[TailedRow]:
        names = self.schema.names
        converters = cell_converters(self.schema, _from_sql)
        rowid = self._rowid
        columns = ", ".join(_quote(name) for name in names)
        select = (
            f"SELECT {rowid}, {columns} FROM {_quote(self.table)} "
            f"WHERE {rowid} > ? ORDER BY {rowid}"
        )
        tailed: list[TailedRow] = []
        for raw in self._connection.execute(select, (offset,)):
            rowid, raw_cells = raw[0], raw[1:]
            cells = []
            for name, converter, value in zip(names, converters, raw_cells):
                try:
                    cells.append(converter(value))
                except ValueError as exc:
                    raise cell_context(f"rowid {rowid}", name, exc) from None
            tailed.append((cells, rowid))
        return tailed

    def close(self) -> None:
        self._connection.close()


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
