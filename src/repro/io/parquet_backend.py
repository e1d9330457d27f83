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

The columnar fast lane
----------------------
Parquet is the one backend whose storage is *already* column-major, so
its :class:`ArrowColumnBatch` keeps the Arrow record batch itself and
converts columns lazily on first access. Columns whose physical type is
exactly what :class:`ParquetTableSink` writes (``string`` / ``date32`` /
``int64`` / ``float64``) skip per-cell coercion entirely, and the
encoding caches' :meth:`~ArrowColumnBatch.numeric_view` hook serves
float64 views derived from the Arrow buffers without ever materializing
Python objects for ordered columns. Every fast lane is only taken where
it is provably value-identical to the per-cell conversion (int64→float64
and date-ordinal arithmetic are exact or identically rounded); anything
else — foreign physical types, non-finite floats — falls back to the
per-cell lane, which replays rows in order so the error names the first
bad cell in row order, as on every other backend.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from repro.errors import InputError
from repro.io.base import TableSink, TableSource
from repro.io.cells import cell_converters, coerce_number, convert_row
from repro.io.columnar import ColumnBatch
from repro.schema.attribute import Attribute
from repro.schema.schema import Schema
from repro.schema.types import AttributeKind, Value

__all__ = ["ParquetTableSource", "ParquetTableSink", "ArrowColumnBatch"]

#: ``date(1970, 1, 1).toordinal()`` — date32 stores days since the Unix
#: epoch, the encoders ordinal days; the shift between them is exact in
#: float64 for any representable date.
_EPOCH_ORDINAL = 719163


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
    conversion is cached); ordered columns served through
    :meth:`numeric_view` never materialize Python cell values at all.
    ``row_offset`` is the number of rows yielded by earlier batches of
    the same stream, so error labels carry stream-global row numbers.
    """

    __slots__ = ("_batch", "_row_offset", "_index", "_attrs", "_views")

    def __init__(self, schema: Schema, batch, row_offset: int = 0):
        super().__init__(schema, {}, batch.num_rows)
        self._batch = batch
        self._row_offset = row_offset
        self._index = {
            name: batch.schema.get_field_index(name) for name in schema.names
        }
        self._attrs = dict(zip(schema.names, schema.attributes))
        self._views: dict[str, Optional[np.ndarray]] = {}

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
            import pyarrow as pa

            if (
                kind is AttributeKind.NUMERIC
                and not integer
                and pa.types.is_floating(arr.type)
            ):
                # float64 fast lane: one vectorized finiteness check
                # replaces n per-cell check_finite calls
                view = self.numeric_view(name)
                if view is not None:
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

    # -- accelerator hooks ---------------------------------------------------

    def null_mask(self, name: str) -> np.ndarray:
        mask = self._masks.get(name)
        if mask is None:
            try:
                arr = self._batch.column(self._index[name])
                mask = np.ascontiguousarray(
                    arr.is_null().to_numpy(zero_copy_only=False), dtype=bool
                )
            except Exception:  # pragma: no cover - pyarrow API drift
                values = self.column(name)
                mask = np.fromiter(
                    (v is None for v in values), dtype=bool, count=len(values)
                )
            self._masks[name] = mask
        return mask

    def numeric_view(self, name: str) -> Optional[np.ndarray]:
        if name not in self._views:
            try:
                view = self._compute_view(name)
            except Exception:  # pragma: no cover - pyarrow API drift
                view = None
            self._views[name] = view
        return self._views[name]

    def _compute_view(self, name: str) -> Optional[np.ndarray]:
        """Float64 view of an ordered column straight off the Arrow
        buffers, or ``None`` when no provably-identical lane exists.

        * int64 → float64: both Arrow's cast and Python's ``float(int)``
          round to nearest, so the views agree bit-for-bit even beyond
          2**53;
        * float64: the buffer values *are* the converted floats, but a
          non-finite non-null cell means the conversion would raise —
          answer ``None`` so the caches fall back to :meth:`column`,
          which raises the identical error;
        * date32 → epoch days + 719163 == ``float(d.toordinal())``,
          exact in float64 for every representable date.
        """
        import pyarrow as pa

        arr = self._batch.column(self._index[name])
        attribute = self._attrs[name]
        if attribute.kind is AttributeKind.DATE:
            if not pa.types.is_date32(arr.type):
                return None
            days = arr.cast(pa.int32()).to_numpy(zero_copy_only=False)
            return days.astype(np.float64) + float(_EPOCH_ORDINAL)
        if attribute.kind is not AttributeKind.NUMERIC:
            return None
        if pa.types.is_int64(arr.type):
            out = arr.to_numpy(zero_copy_only=False)
            # with nulls present pyarrow already hands back float64+NaN
            return out if out.dtype == np.float64 else out.astype(np.float64)
        if pa.types.is_float64(arr.type):
            if getattr(attribute.domain, "integer", False):
                return None  # integralness needs the per-cell walk
            out = arr.to_numpy(zero_copy_only=False)
            if out.dtype != np.float64:  # pragma: no cover - defensive
                return None
            if not np.isfinite(out[~self.null_mask(name)]).all():
                return None  # force the raw lane, which raises
            return out
        return None


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
