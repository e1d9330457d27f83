"""Parquet backend (optional): columnar extracts via ``pyarrow``.

``pyarrow`` is an **optional** dependency — importing this module is
free, and only constructing a source/sink requires the library;
without it both raise an :class:`ImportError` naming the missing
package and the backends that work regardless.

Schema-driven type mapping: nominal → ``string``, date → ``date32``,
numeric → ``int64`` for integer domains and ``float64`` otherwise.
Unlike the CSV/JSONL/SQLite backends, a ``float64`` column has one
physical type, so Python ints stored in a non-integer numeric attribute
come back as floats (and integers beyond 64 bits are rejected by
arrow) — the only documented deviation from the loss-free round trip
the other backends guarantee.

Reads stream record batches (``ParquetFile.iter_batches``), so chunked
audits stay bounded-memory over arbitrarily large extracts.

Lazy columns
------------
Parquet is the one backend whose storage is *already* column-major, so
its :class:`ArrowColumnBatch` keeps the Arrow record batch itself and
converts columns lazily on first access. A ``string``, ``date32`` or
``int64`` column, as :class:`ParquetTableSink` writes them, is taken
as ``to_pylist`` returns it. Any other column — ``float64``, whose
cells need the finiteness check, and foreign physical types — converts
cell by cell; a failing cell replays the rows in order, so the error
names the first bad cell in row order, as on every other backend.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Iterator, Union

from repro.errors import InputError
from repro.io.base import TableSink, TableSource
from repro.io.cells import cell_converters, coerce_number, convert_row
from repro.io.columnar import ColumnBatch
from repro.schema.attribute import Attribute
from repro.schema.schema import Schema
from repro.schema.types import AttributeKind, Value

__all__ = ["ParquetTableSource", "ParquetTableSink", "ArrowColumnBatch"]


def _require_pyarrow():
    try:
        import pyarrow
        import pyarrow.parquet
    except ImportError:
        raise ImportError(
            "the parquet backend needs the optional dependency pyarrow "
            "(pip install pyarrow); the csv, jsonl and sqlite backends "
            "work without it"
        ) from None
    return pyarrow, pyarrow.parquet


def _arrow_type(attribute: Attribute, pa):
    if attribute.kind is AttributeKind.NOMINAL:
        return pa.string()
    if attribute.kind is AttributeKind.DATE:
        return pa.date32()
    if getattr(attribute.domain, "integer", False):
        return pa.int64()
    return pa.float64()


def _coerce(raw: object, kind: AttributeKind, integer: bool) -> Value:
    if raw is None:
        return None
    if kind is AttributeKind.DATE:
        if isinstance(raw, datetime.datetime):
            return raw.date()
        if not isinstance(raw, datetime.date):
            raise ValueError(f"expected a date, got {raw!r}")
        return raw
    if kind is AttributeKind.NOMINAL:
        if not isinstance(raw, str):
            raise ValueError(f"expected a string for a nominal cell, got {raw!r}")
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"expected a number for a numeric cell, got {raw!r}")
    return coerce_number(raw, integer)


class ArrowColumnBatch(ColumnBatch):
    """A :class:`~repro.io.columnar.ColumnBatch` over one retained Arrow
    record batch.

    Columns convert lazily on first :meth:`column` access (and the
    conversion is cached). ``row_offset`` is the number of rows yielded
    by earlier batches of the same stream, so error labels carry
    stream-global row numbers.
    """

    __slots__ = ("_batch", "_row_offset", "_index", "_attrs")

    def __init__(self, schema: Schema, batch, row_offset: int = 0):
        super().__init__(schema, {}, batch.num_rows)
        self._batch = batch
        self._row_offset = row_offset
        self._index = {
            name: batch.schema.get_field_index(name) for name in schema.names
        }
        self._attrs = dict(zip(schema.names, schema.attributes))

    # -- raw cell values (lazy) ---------------------------------------------

    def column(self, name: str) -> list:
        col = self.columns.get(name)
        if col is None:
            col = self._convert_column(name)
            self.columns[name] = col
        return col

    def _fast_ok(self, arrow_type, kind: AttributeKind, integer: bool) -> bool:
        """True when ``to_pylist`` already yields the converted values
        for every admissible cell of this physical type, so the
        per-cell ``_coerce`` walk can be skipped (see module docstring)."""
        import pyarrow as pa

        if kind is AttributeKind.NOMINAL:
            return pa.types.is_string(arrow_type) or pa.types.is_large_string(
                arrow_type
            )
        if kind is AttributeKind.DATE:
            return pa.types.is_date32(arrow_type)
        # numeric: any int64 cell is admissible as-is (coerce_number is
        # the identity on ints); float64 needs the finiteness check
        return pa.types.is_int64(arrow_type)

    def _convert_column(self, name: str) -> list:
        arr = self._batch.column(self._index[name])
        attribute = self._attrs[name]
        kind = attribute.kind
        integer = getattr(attribute.domain, "integer", False)
        raw = arr.to_pylist()
        try:
            if self._fast_ok(arr.type, kind, integer):
                return raw
        except Exception:  # pragma: no cover - pyarrow API drift
            pass
        try:
            return [_coerce(v, kind, integer) for v in raw]
        except ValueError:
            self._raise_first_row_error()
            raise  # pragma: no cover - column conversion failed, rows did not

    def _raise_first_row_error(self) -> None:
        """Replay the whole batch row-wise so the raised error names the
        first bad cell in row-major order (a later column may fail on an
        earlier row)."""
        names = list(self.schema.names)
        converters = cell_converters(self.schema, _coerce)
        raws = [self._batch.column(self._index[n]).to_pylist() for n in names]
        for i, raw_row in enumerate(zip(*raws), start=1):
            convert_row(f"row {self._row_offset + i}", raw_row, converters, names)


class ParquetTableSource(TableSource):
    """Record-batch streaming reader over one Parquet file.

    The only backend whose column batches wrap the storage's own
    buffers (:class:`ArrowColumnBatch`) instead of converted Python
    lists.
    """

    def __init__(self, schema: Schema, path: Union[str, Path]):
        super().__init__(schema)
        pa, pq = _require_pyarrow()
        try:
            self._file = pq.ParquetFile(path)
        except pa.ArrowInvalid as exc:
            raise InputError(f"{path} is not a readable Parquet file: {exc}") from exc
        stored = set(self._file.schema_arrow.names)
        if stored != set(schema.names):
            self._file.close()
            raise InputError(
                f"parquet columns {sorted(stored)!r} do not match "
                f"schema attributes {list(schema.names)!r}"
            )

    def _iter_column_batches(self, batch_size: int) -> Iterator[ColumnBatch]:
        names = list(self.schema.names)
        row_offset = 0
        for batch in self._file.iter_batches(batch_size=batch_size, columns=names):
            if batch.num_rows:
                yield ArrowColumnBatch(self.schema, batch, row_offset)
                row_offset += batch.num_rows

    def close(self) -> None:
        self._file.close()


class ParquetTableSink(TableSink):
    """Writer appending one row group per chunk via ``ParquetWriter``."""

    def __init__(self, schema: Schema, path: Union[str, Path]):
        super().__init__(schema)
        self._pa, self._pq = _require_pyarrow()
        self._path = path
        self._arrow_schema = self._pa.schema(
            [
                (attribute.name, _arrow_type(attribute, self._pa))
                for attribute in schema.attributes
            ]
        )
        self._writer = None

    def _write_header(self) -> None:
        self._writer = self._pq.ParquetWriter(self._path, self._arrow_schema)

    def _write_rows(self, rows: list[list[Value]]) -> None:
        pa = self._pa
        arrays = []
        for position, attribute in enumerate(self.schema.attributes):
            column = [row[position] for row in rows]
            if (
                attribute.kind is AttributeKind.NUMERIC
                and not getattr(attribute.domain, "integer", False)
            ):
                column = [None if v is None else float(v) for v in column]
            arrays.append(pa.array(column, type=self._arrow_schema.field(position).type))
        self._writer.write_table(
            pa.Table.from_arrays(arrays, schema=self._arrow_schema)
        )

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def abort(self) -> None:
        # a parquet file without its footer is unreadable — discard the
        # partial output instead of leaving a corrupt artifact
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            Path(self._path).unlink(missing_ok=True)
