"""CSV backend: header-checked, schema-driven text tables.

The historical format of the pipeline (and still the default). The
header row must name exactly the schema's attributes, each once; column
order in the file may differ from schema order. Cells follow the
canonical text forms of :mod:`repro.io.cells`; nulls are a configurable
marker (``null_marker``, default: empty field).

Both ends accept a path or an open text stream — streams passed in by
the caller are left open on :meth:`close`.
"""

from __future__ import annotations

import csv
import datetime
from pathlib import Path
from typing import TextIO, Union

from repro.errors import InputError
from repro.io.base import TableSink, TableSource, open_text, undecodable
from repro.io.cells import DEFAULT_NULL_MARKER, parse_cell, render_cell
from repro.io.columnar import ColumnBatch, cells_in_order, columns_from_rows
from repro.schema.schema import Schema
from repro.schema.types import AttributeKind, Value

__all__ = ["CsvTableSource", "CsvTableSink"]


class CsvTableSource(TableSource):
    """Schema-driven CSV reader (path or text stream).

    Buffers each record's fields in schema order and converts them
    column-at-a-time (:func:`~repro.io.columnar.columns_from_rows`):
    nominal, integer and date columns in one comprehension each, float
    columns cell by cell.
    """

    def __init__(
        self,
        schema: Schema,
        source: Union[str, Path, TextIO],
        *,
        null_marker: str = DEFAULT_NULL_MARKER,
    ):
        super().__init__(schema)
        self.null_marker = null_marker
        self._handle, self._owns_handle = open_text(source, "r", newline="")
        try:
            self._reader = csv.reader(self._handle)
            try:
                header = next(self._reader)
            except StopIteration:
                raise InputError("CSV input is empty (missing header row)") from None
            except UnicodeDecodeError as exc:
                raise undecodable(0, exc) from exc
            if set(header) != set(schema.names):
                raise InputError(
                    f"CSV header {header!r} does not match schema attributes "
                    f"{list(schema.names)!r}"
                )
            repeated = sorted({name for name in header if header.count(name) > 1})
            if repeated:
                raise InputError(f"CSV header {header!r} repeats {repeated!r}")
            self._n_fields = len(header)
            self._order = [header.index(name) for name in schema.names]
        except Exception:
            self.close()
            raise

    def _converters(self) -> list:
        marker = self.null_marker
        return [
            lambda text, kind=a.kind, integer=getattr(a.domain, "integer", False): (
                parse_cell(text, kind, marker, integer)
            )
            for a in self.schema.attributes
        ]

    def _bulk(self) -> list:
        # whole-column parses for the kinds whose parse_cell is the null
        # marker test plus one C call (str of a str is the str itself);
        # float columns keep parse_number's finiteness rules, per cell
        marker = self.null_marker

        def parse_with(parse):
            return lambda column: [
                None if text == marker else parse(text) for text in column
            ]

        parsers = {
            AttributeKind.NOMINAL: str,
            AttributeKind.DATE: datetime.date.fromisoformat,
        }
        bulk = []
        for a in self.schema.attributes:
            parse = int if getattr(a.domain, "integer", False) else parsers.get(a.kind)
            bulk.append(None if parse is None else parse_with(parse))
        return bulk

    def _iter_column_batches(self, batch_size: int):
        names = self.schema.names
        converters = self._converters()
        bulk = self._bulk()
        cells = cells_in_order(self._order)
        n_fields = self._n_fields
        buffered: list[tuple] = []
        first_line = 2  # the line number of buffered[0]

        def convert() -> ColumnBatch:
            cols = columns_from_rows(
                buffered,
                range(first_line, first_line + len(buffered)),
                label="line",
                names=names,
                converters=converters,
                bulk=bulk,
            )
            return ColumnBatch(self.schema, dict(zip(names, cols)), len(buffered))

        line_no = 1
        try:
            for line_no, fields in enumerate(self._reader, start=2):
                if len(fields) != n_fields:
                    convert()  # a cell error in an earlier row wins
                    raise InputError(
                        f"line {line_no}: expected {n_fields} fields, "
                        f"got {len(fields)}"
                    )
                buffered.append(cells(fields))
                if len(buffered) >= batch_size:
                    yield convert()
                    first_line = line_no + 1
                    buffered.clear()
        except UnicodeDecodeError as exc:
            convert()  # a cell error in an earlier row wins
            raise undecodable(line_no, exc) from exc
        if buffered:
            yield convert()

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


class CsvTableSink(TableSink):
    """CSV writer (path or text stream): header row, then data rows."""

    def __init__(
        self,
        schema: Schema,
        target: Union[str, Path, TextIO],
        *,
        null_marker: str = DEFAULT_NULL_MARKER,
    ):
        super().__init__(schema)
        self.null_marker = null_marker
        self._handle, self._owns_handle = open_text(target, "w", newline="")
        self._writer = csv.writer(self._handle)

    def _write_header(self) -> None:
        self._writer.writerow(self.schema.names)

    def _write_rows(self, rows: list[list[Value]]) -> None:
        kinds = [a.kind for a in self.schema.attributes]
        marker = self.null_marker
        self._writer.writerows(
            [render_cell(v, k, marker) for v, k in zip(row, kinds)] for row in rows
        )

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()
