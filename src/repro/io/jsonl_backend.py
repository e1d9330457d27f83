"""JSONL backend: one JSON object per row, keyed by attribute name.

The natural shape for event logs and extract streams. Values map to
JSON natively — strings stay strings, ints stay ints (JSON integers are
arbitrary precision), floats round-trip exactly through ``repr``, nulls
are JSON ``null`` — and dates are ISO-8601 strings, which the
schema-driven read side turns back into :class:`datetime.date`. Reads
reject non-finite numbers, JSON booleans in numeric columns, and rows
whose keys do not match the schema, naming the offending line and
attribute.

Both ends accept a path or an open text stream (streams passed in by
the caller are left open on close) — the stdout findings path of
``repro audit --format jsonl`` writes through this sink.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path
from typing import TextIO, Union

from repro.errors import InputError
from repro.io.base import TableSink, TableSource, open_text, undecodable
from repro.io.cells import cell_converters, coerce_number
from repro.io.columnar import (
    ColumnBatch,
    cells_in_order,
    columns_from_rows,
    native_bulk,
)
from repro.schema.schema import Schema
from repro.schema.types import AttributeKind, Value

__all__ = ["JsonlTableSource", "JsonlTableSink"]


def _coerce(raw: object, kind: AttributeKind, integer: bool) -> Value:
    if raw is None:
        return None
    if kind is AttributeKind.NOMINAL:
        if not isinstance(raw, str):
            raise ValueError(f"expected a string for a nominal cell, got {raw!r}")
        return raw
    if kind is AttributeKind.DATE:
        if not isinstance(raw, str):
            raise ValueError(f"expected an ISO date string, got {raw!r}")
        return datetime.date.fromisoformat(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"expected a number for a numeric cell, got {raw!r}")
    return coerce_number(raw, integer)


def _encode(value: Value, kind: AttributeKind) -> object:
    if value is not None and kind is AttributeKind.DATE:
        return value.isoformat()  # type: ignore[union-attr]
    return value


class JsonlTableSource(TableSource):
    """Schema-driven JSON-lines reader (path or text stream).

    Parses and key-checks each line in line order, buffers each object's
    values in schema order, and converts each batch column-at-a-time
    (:func:`~repro.io.columnar.columns_from_rows`): string and integer
    columns are taken as parsed, the others coerce cell by cell.
    """

    def __init__(self, schema: Schema, source: Union[str, Path, TextIO]):
        super().__init__(schema)
        self._handle, self._owns_handle = open_text(source, "r")

    def _structural_check(self, line_no: int, line: str) -> dict:
        """Parse and key-check one line, raising the line's structural
        error (JSON validity, one object, the schema's key set)."""
        try:
            # NaN/Infinity constants parse to floats here on purpose:
            # the cell coercion rejects non-finite values with the line
            # *and* attribute named, which a parse_constant hook could
            # not know
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {line_no}: not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise InputError(
                f"line {line_no}: expected one JSON object per line, "
                f"got {type(obj).__name__}"
            )
        expected = set(self.schema.names)
        if set(obj) != expected:
            missing = sorted(expected - set(obj))
            extra = sorted(set(obj) - expected)
            raise InputError(
                f"line {line_no}: keys do not match the schema "
                f"(missing {missing!r}, unexpected {extra!r})"
            )
        return obj

    def _iter_column_batches(self, batch_size: int):
        names = self.schema.names
        converters = cell_converters(self.schema, _coerce)
        bulk = native_bulk(self.schema)
        expected = set(names)
        # json.loads minus its Python wrapper: the C scanner parses a
        # value at offset 0; anything unusual goes to the full check
        scan = json.JSONDecoder().scan_once
        cells = cells_in_order(names)  # buffer cells, not the objects
        buffered: list[tuple] = []
        line_nos: list[int] = []

        def convert() -> ColumnBatch:
            cols = columns_from_rows(
                buffered,
                line_nos,
                label="line",
                names=names,
                converters=converters,
                bulk=bulk,
            )
            return ColumnBatch(self.schema, dict(zip(names, cols)), len(buffered))

        line_no = 0
        try:
            for line_no, line in enumerate(self._handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj, end = scan(line, 0)
                except (StopIteration, ValueError):
                    obj, end = None, -1
                if end != len(line) or type(obj) is not dict or obj.keys() != expected:
                    convert()  # a cell error in an earlier row wins
                    obj = self._structural_check(line_no, line)
                buffered.append(cells(obj))
                line_nos.append(line_no)
                if len(buffered) >= batch_size:
                    yield convert()
                    buffered.clear()
                    line_nos.clear()
        except UnicodeDecodeError as exc:
            convert()  # a cell error in an earlier row wins
            raise undecodable(line_no, exc) from exc
        if buffered:
            yield convert()

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


class JsonlTableSink(TableSink):
    """JSON-lines writer (path or text stream); no container header."""

    def __init__(self, schema: Schema, target: Union[str, Path, TextIO]):
        super().__init__(schema)
        self._handle, self._owns_handle = open_text(target, "w")

    def _write_header(self) -> None:
        pass  # JSONL has no header; an empty file is an empty table

    def _write_rows(self, rows: list[list[Value]]) -> None:
        names = self.schema.names
        kinds = [a.kind for a in self.schema.attributes]
        write = self._handle.write
        for row in rows:
            obj = {
                name: _encode(value, kind)
                for name, value, kind in zip(names, row, kinds)
            }
            write(json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()
