"""Pluggable table I/O: source/sink protocols + a format registry.

The storage layer between the relational substrate (:mod:`repro.schema`)
and everything that reads or writes tables — the CLI, the streaming
:class:`~repro.core.session.AuditSession`, the test environment, and
embedders. Four backends ship in-tree:

=========  ==============================  ==========================
format     locations                       notes
=========  ==============================  ==========================
csv        ``*.csv``, text streams         the historical default
jsonl      ``*.jsonl`` / ``*.ndjson``      event-log shaped
sqlite     ``*.db`` / ``*.sqlite`` /       stdlib ``sqlite3``;
           ``sqlite:///db?table=t``        chunked ``fetchmany`` reads
parquet    ``*.parquet`` / ``*.pq``        optional, needs ``pyarrow``
=========  ==============================  ==========================

Typical use goes through the registry one-liners::

    from repro.io import read_table, write_table, open_source

    table = read_table(schema, "warehouse.db")          # auto-detected
    write_table(table, "extract.jsonl")
    with open_source(schema, "sqlite:///wh.db?table=loads") as source:
        for chunk in source.chunks(10_000):
            ...

See :mod:`repro.io.base` for the protocol contracts and
:mod:`repro.io.registry` for detection rules and third-party
registration.
"""

from repro.io.base import DEFAULT_CHUNK_SIZE, TableSink, TableSource
from repro.io.columnar import ColumnBatch, resolve_io_path
from repro.io.csv_backend import CsvTableSink, CsvTableSource
from repro.io.jsonl_backend import JsonlTableSink, JsonlTableSource
from repro.io.parquet_backend import ParquetTableSink, ParquetTableSource
from repro.io.registry import (
    FormatSpec,
    available_formats,
    detect_format,
    format_spec,
    open_sink,
    open_source,
    read_table,
    register_format,
    write_table,
)
from repro.io.sqlite_backend import SqliteTableSink, SqliteTableSource

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "TableSource",
    "TableSink",
    "ColumnBatch",
    "resolve_io_path",
    "FormatSpec",
    "register_format",
    "available_formats",
    "format_spec",
    "detect_format",
    "open_source",
    "open_sink",
    "read_table",
    "write_table",
    "CsvTableSource",
    "CsvTableSink",
    "JsonlTableSource",
    "JsonlTableSink",
    "SqliteTableSource",
    "SqliteTableSink",
    "ParquetTableSource",
    "ParquetTableSink",
]
