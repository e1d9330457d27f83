"""The columnar data plane: :class:`ColumnBatch` and the one conversion
routine every backend reads through.

The audit pipeline is fundamentally columnar — every classifier consumes
one attribute column at a time. A :class:`ColumnBatch` is one chunk of a
relation held column-major, duck-typing the slice of the
:class:`~repro.schema.table.Table` surface the encoding caches consume
(``schema`` / ``n_rows`` / ``column(name)``), so it flows through
:meth:`DataAuditor.audit <repro.core.auditor.DataAuditor.audit>` and
:meth:`DataAuditor.fit <repro.core.auditor.DataAuditor.fit>` without
ever constructing row lists. A batch holds converted cells and nothing
else: the column caches of :mod:`repro.core.auditor` do all the
encoding.

One lane
--------
Every :class:`~repro.io.base.TableSource` reads through one lane: the
backend buffers each raw record's cells as a schema-ordered tuple
(SQLite tuples as fetched, CSV field lists and parsed JSON objects
through one ``itemgetter`` call, :func:`cells_in_order`) and
:func:`columns_from_rows` turns each buffer into converted columns.
``read()`` and ``chunks()`` pivot those batches into rows, batch by
batch.

Per column, a bulk conversion runs first. JSON and SQLite hand back
nominal cells as ``str``, integral numbers as ``int`` and dates as ISO
``str`` (:func:`native_bulk`): when one C-level type pass confirms that,
the column is taken as it is, or parsed with one C call per cell
(``date.fromisoformat``). CSV parses its text columns the same way
(nominal text as it is, ``int``, ``fromisoformat``). Any other column —
a type outside the expected set, a non-integral or non-finite float —
converts cell by cell through the backend's per-cell converter.

Error order
-----------
A reader that converted row by row would report the first bad cell in
row order; column-at-a-time conversion would surface a column-major
first error instead. So when any cell of a batch fails,
:func:`columns_from_rows` replays the batch in row order through
:func:`~repro.io.cells.convert_row`, and the raised error names the
first bad cell in row order. Backends with structural per-record checks
(CSV field counts, JSONL parse and key checks) convert the records
buffered *before* a structural failure first, so an earlier cell error
still wins. ``tests/reference_lanes.py`` holds a row-at-a-time reader
per backend, and the property suites pin this lane to it.
"""

from __future__ import annotations

import datetime
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.io.cells import convert_row
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.schema.types import AttributeKind, Value

__all__ = [
    "ColumnBatch",
    "resolve_io_path",
    "columns_from_rows",
    "cells_in_order",
    "native_bulk",
]


def resolve_io_path(source, requested: str = "auto") -> str:
    """Compatibility alias for callers written against the removed
    ingest-lane negotiation: every source reads through the one column
    lane, so this always answers ``"columns"``. It will be removed."""
    return "columns"


class ColumnBatch:
    """One chunk of a relation held column-major.

    ``columns`` maps attribute name → list of converted cell values
    (plain Python values — never NumPy scalars, so findings and rendered
    output stay byte-identical to a row-major table). The batch
    duck-types the table surface the encoding caches read (``schema``,
    ``n_rows``, ``column``); the caches do all the encoding.
    """

    __slots__ = ("schema", "columns", "n_rows")

    def __init__(
        self, schema: Schema, columns: dict[str, list], n_rows: Optional[int] = None
    ):
        self.schema = schema
        self.columns = columns
        if n_rows is None:
            n_rows = len(next(iter(columns.values()))) if columns else 0
        self.n_rows = n_rows

    # -- the Table surface the caches consume -------------------------------

    def column(self, name: str) -> list:
        """Raw cell values of one column (the stored list, not a copy)."""
        return self.columns[name]

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table) -> "ColumnBatch":
        """Pivot a row-major table into one batch."""
        return cls(
            table.schema,
            {name: table.column(name) for name in table.schema.names},
            table.n_rows,
        )

    def rows(self) -> list[list[Value]]:
        """The batch pivoted into schema-ordered row lists."""
        cols = [self.column(name) for name in self.schema.names]
        if not cols:
            return []
        return list(map(list, zip(*cols)))

    def to_table(self) -> Table:
        """Materialize as a row-major :class:`Table` (``read()`` and
        ``chunks()``, and the SQL engine, which stages rows into the
        database)."""
        return Table.adopt(self.schema, self.rows())

    @classmethod
    def concat(cls, schema: Schema, batches: Iterable["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches into one (the monitor's audit window)."""
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


def _typed_bulk(types: tuple, parse: Optional[Callable] = None) -> Callable:
    """A bulk column conversion for raw cells that arrive typed: when one
    C-level pass finds every cell's type among *types*, the column is
    taken as it is (*parse* ``None``) or parsed with one C call per
    non-null cell; otherwise it answers ``None``."""
    allowed = frozenset(types)

    def bulk(column: Sequence) -> Optional[list]:
        if not allowed.issuperset(map(type, column)):
            return None
        if parse is None:
            return list(column)
        return [None if cell is None else parse(cell) for cell in column]

    return bulk


#: bulk conversions for the raw cells JSON and SQLite hand back, by kind:
#: their coercions return ``str`` nominal and ``int`` numeric cells
#: unchanged (``bool`` is not ``int`` here, so JSON booleans still reach
#: the per-cell check) and parse ``str`` dates with ``fromisoformat``
_NATIVE_BULK = {
    AttributeKind.NOMINAL: _typed_bulk((str, type(None))),
    AttributeKind.NUMERIC: _typed_bulk((int, type(None))),
    AttributeKind.DATE: _typed_bulk((str, type(None)), datetime.date.fromisoformat),
}


def cells_in_order(positions: Sequence) -> Callable:
    """A C-level getter of a raw record's cells at *positions* (CSV
    column indices, JSON attribute names), as a schema-ordered tuple."""
    if len(positions) == 1:
        (position,) = positions
        return lambda record: (record[position],)
    return itemgetter(*positions)


def native_bulk(schema: Schema) -> list[Callable]:
    """The per-column bulk conversions of :func:`columns_from_rows` for
    backends whose raw cells are typed values (JSONL, SQLite)."""
    return [_NATIVE_BULK[a.kind] for a in schema.attributes]


def columns_from_rows(
    raw_rows: Sequence,
    row_numbers: Sequence[int],
    *,
    label: str,
    names: Sequence[str],
    converters: Sequence[Callable],
    bulk: Sequence[Optional[Callable]],
) -> list[list[Value]]:
    """Convert buffered raw records into schema-ordered columns.

    *raw_rows* holds one schema-ordered cell sequence per record (SQLite
    tuples as fetched; CSV and JSONL records through
    :func:`cells_in_order`). Each column converts through ``bulk[i]``
    when that returns a list, and cell by cell through ``converters[i]``
    otherwise. If a cell fails,
    the batch is replayed in row order through
    :func:`~repro.io.cells.convert_row` with the labels
    ``f"{label} {n}"`` for *n* in *row_numbers*, so the error names the
    first bad cell in row order (see module docstring).
    """
    if not raw_rows:
        return [[] for _ in names]
    columns = []
    try:
        for raw, convert, convert_column in zip(zip(*raw_rows), converters, bulk):
            column = convert_column(raw) if convert_column is not None else None
            columns.append(list(map(convert, raw)) if column is None else column)
    except ValueError:
        for number, row in zip(row_numbers, raw_rows):
            convert_row(f"{label} {number}", row, converters, names)
        raise  # pragma: no cover - column conversion failed, rows did not
    return columns
