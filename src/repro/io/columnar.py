"""The columnar data plane: :class:`ColumnBatch` and the
:class:`ColumnarSource` protocol.

The audit pipeline is fundamentally columnar — every classifier consumes
one attribute column at a time — yet the row protocol of
:mod:`repro.io.base` materializes per-row cell lists that
:class:`~repro.core.auditor.ColumnCache` immediately re-pivots. A
:class:`ColumnBatch` is the bypass: one chunk of a relation held
column-major, duck-typing the slice of the :class:`~repro.schema.table.Table`
surface the encoding caches consume (``schema`` / ``n_rows`` /
``column(name)``), so it flows through :meth:`DataAuditor.audit
<repro.core.auditor.DataAuditor.audit>` and :meth:`DataAuditor.fit
<repro.core.auditor.DataAuditor.fit>` without ever constructing row
lists.

Negotiation
-----------
Every :class:`~repro.io.base.TableSource` can stream column batches —
the base class pivots its row chunks — but only backends that build the
batches **natively** during their single storage pass (CSV, JSONL,
SQLite, Parquet in-tree) set :attr:`~repro.io.base.TableSource.supports_columns`.
:func:`resolve_io_path` is the negotiation rule used by
:meth:`AuditSession.audit_source <repro.core.session.AuditSession.audit_source>`
and the CLI's ``--io-path``:

========  ====================================================
io_path   meaning
========  ====================================================
auto      columns when the backend is natively columnar,
          rows otherwise (third-party row-only sources)
columns   force column batches (row chunks are pivoted)
rows      force the row path (the parity oracle)
========  ====================================================

Error parity
------------
The row path converts cell values row by row, so the first error it
reports is the first bad cell in row-major order. Column-at-a-time
conversion would naturally surface a *column*-major first error instead;
:func:`columns_from_rows` therefore converts the happy path column-wise
(the performance win — no per-row converted lists) and, only when a batch
contains any bad cell, replays the buffered raw rows through
:func:`~repro.io.cells.convert_row` so the raised error is byte-identical
to the row path's. Backends with structural per-row checks (CSV field
counts, JSONL parse/key checks) call :func:`raise_row_errors` on the
rows buffered *before* the structural failure for the same reason.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.io.cells import convert_row
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.schema.types import Value

__all__ = [
    "ColumnBatch",
    "ColumnarSource",
    "resolve_io_path",
    "columns_from_rows",
    "raise_row_errors",
    "IO_PATHS",
]

IO_PATHS = ("auto", "columns", "rows")


def resolve_io_path(source, io_path: str) -> str:
    """The columnar-vs-rows negotiation rule (see module docstring)."""
    if io_path not in IO_PATHS:
        raise ValueError(f"io_path must be one of {IO_PATHS}, got {io_path!r}")
    if io_path == "auto":
        return "columns" if getattr(source, "supports_columns", False) else "rows"
    return io_path


class ColumnBatch:
    """One chunk of a relation held column-major.

    ``columns`` maps attribute name → list of raw cell values (the same
    Python values the row path yields — never NumPy scalars, so findings
    and rendered output stay byte-identical). The batch duck-types the
    table surface the encoding caches read (``schema``, ``n_rows``,
    ``column``) and adds two optional accelerator hooks the caches probe
    with ``getattr``:

    * :meth:`null_mask` — the column's boolean null mask, cached;
    * :meth:`numeric_view` — a ready float64 numeric view of an ordered
      column, or ``None``. The base class always answers ``None``; the
      Arrow-backed subclass (:class:`repro.io.parquet_backend.ArrowColumnBatch`)
      serves zero-copy-derived views where they are provably
      bit-identical to the encoder's own conversion.
    """

    __slots__ = ("schema", "columns", "n_rows", "_masks")

    def __init__(
        self, schema: Schema, columns: dict[str, list], n_rows: Optional[int] = None
    ):
        self.schema = schema
        self.columns = columns
        if n_rows is None:
            n_rows = len(next(iter(columns.values()))) if columns else 0
        self.n_rows = n_rows
        self._masks: dict[str, np.ndarray] = {}

    # -- pickling (slots + the np-array cache) ------------------------------

    def __getstate__(self):
        # the mask cache is derived data; shipping a batch to a spawned
        # fit worker sends only the raw columns
        return (self.schema, self.columns, self.n_rows)

    def __setstate__(self, state):
        self.schema, self.columns, self.n_rows = state
        self._masks = {}

    # -- the Table surface the caches consume -------------------------------

    def column(self, name: str) -> list:
        """Raw cell values of one column (the stored list, not a copy)."""
        return self.columns[name]

    # -- accelerator hooks ---------------------------------------------------

    def null_mask(self, name: str) -> np.ndarray:
        """Boolean null mask of one column (cached per batch)."""
        if name not in self._masks:
            values = self.columns[name]
            self._masks[name] = np.fromiter(
                (v is None for v in values), dtype=bool, count=len(values)
            )
        return self._masks[name]

    def numeric_view(self, name: str) -> Optional[np.ndarray]:
        """Ready float64 view of an ordered column, or ``None`` (default)."""
        return None

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table) -> "ColumnBatch":
        """Pivot a row-major table (the fallback for row-only sources)."""
        return cls(
            table.schema,
            {name: table.column(name) for name in table.schema.names},
            table.n_rows,
        )

    def to_table(self) -> Table:
        """Materialize as a row-major :class:`Table` (e.g. for the SQL
        engine, which stages rows into the database)."""
        cols = [self.column(name) for name in self.schema.names]
        if not cols:
            return Table(self.schema)
        return Table.adopt(self.schema, [[*cells] for cells in zip(*cols)])

    @classmethod
    def concat(cls, schema: Schema, batches: Iterable["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches into one (``read_columns`` materialization)."""
        merged: dict[str, list] = {name: [] for name in schema.names}
        n_rows = 0
        for batch in batches:
            n_rows += batch.n_rows
            for name in schema.names:
                merged[name].extend(batch.column(name))
        return cls(schema, merged, n_rows)

    # -- integrity -----------------------------------------------------------

    def validate(self) -> None:
        """Check every row against the schema — same batch-local row
        numbering and messages as :meth:`Table.validate
        <repro.schema.table.Table.validate>` on the equivalent chunk."""
        cols = [self.column(name) for name in self.schema.names]
        for i, row in enumerate(zip(*cols)):
            try:
                self.schema.validate_row(row)
            except ValueError as exc:
                raise ValueError(f"row {i}: {exc}") from None

    def __repr__(self) -> str:
        return f"ColumnBatch({self.schema!r}, n_rows={self.n_rows})"


@runtime_checkable
class ColumnarSource(Protocol):
    """Protocol of a natively columnar table source.

    All in-tree backends satisfy it; :func:`resolve_io_path` consults
    :attr:`supports_columns` (not an ``isinstance`` check) so third-party
    :class:`~repro.io.base.TableSource` subclasses negotiate to the row
    path automatically under ``io_path="auto"``.
    """

    supports_columns: bool

    def column_batches(
        self, chunk_size: int = ..., *, validate: bool = ...
    ) -> Iterator[ColumnBatch]: ...

    def read_columns(self, *, validate: bool = ...) -> ColumnBatch: ...


def raise_row_errors(
    raw_rows: Sequence,
    row_labels: Sequence[str],
    converters: Sequence,
    names: Sequence[str],
    positions: Optional[Sequence] = None,
) -> None:
    """Replay buffered raw rows row-wise, raising the row path's error
    for the first offending cell (if any); returns when all rows convert.

    *positions* maps schema order to each raw row's layout: ``None`` for
    already schema-ordered rows (SQLite tuples), column indices for CSV
    field lists, attribute names for JSONL dicts.
    """
    for label, row in zip(row_labels, raw_rows):
        cells = row if positions is None else [row[p] for p in positions]
        convert_row(label, cells, converters, names)


def columns_from_rows(
    raw_rows: Sequence,
    row_labels: Sequence[str],
    names: Sequence[str],
    converters: Sequence,
    positions: Optional[Sequence] = None,
) -> list[list[Value]]:
    """Convert buffered raw rows into converted columns, one comprehension
    per attribute (no per-row list construction — the columnar ingest
    win). On any conversion failure the batch is replayed row-wise so the
    raised error is byte-identical to the row path's (see module
    docstring)."""
    try:
        if positions is None:
            return [
                [convert(row[i]) for row in raw_rows]
                for i, convert in enumerate(converters)
            ]
        return [
            [convert(row[p]) for row in raw_rows]
            for p, convert in zip(positions, converters)
        ]
    except ValueError:
        raise_row_errors(raw_rows, row_labels, converters, names, positions)
        raise  # pragma: no cover - column conversion failed, rows did not
