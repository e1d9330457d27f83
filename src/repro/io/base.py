"""The table I/O protocols: :class:`TableSource` and :class:`TableSink`.

The paper embeds auditing in the warehouse loading process (sec. 2.2), so
the auditor must speak the warehouse's own formats instead of forcing a
lossy CSV export. Every storage backend implements the same two small
protocols:

* :class:`TableSource` — *open → schema → iterate chunks of* :class:`Table`.
  A source is bound to a :class:`~repro.schema.schema.Schema` at open
  time (reads are schema-driven: the schema decides how each raw cell is
  coerced, so round trips are loss-free for admissible tables) and is
  consumed **once**, either whole (:meth:`TableSource.read`) or as a
  bounded-memory stream (:meth:`TableSource.chunks`) — the substrate for
  :meth:`AuditSession.audit_source
  <repro.core.session.AuditSession.audit_source>`.
* :class:`TableSink` — *write header → write chunks → close*. Chunks may
  arrive incrementally (a streaming audit's findings, a generator's
  output); the header (CSV header row, ``CREATE TABLE``, Parquet file
  schema) is written exactly once, lazily before the first chunk, and
  closing an empty sink still produces a valid empty container.

Both are context managers; ``with`` guarantees file handles and database
connections are released (and, for sinks, that the header exists and
buffers are flushed) even on error paths.

Concrete backends live in :mod:`repro.io` siblings and are looked up
through the format registry (:mod:`repro.io.registry`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union

from repro.io.columnar import ColumnBatch
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.schema.types import Value

__all__ = ["DEFAULT_CHUNK_SIZE", "TableSource", "TableSink", "open_text"]

#: Default rows per chunk for chunked reads — matches the historical
#: ``read_csv_chunks`` / ``AuditSession.audit_csv_stream`` default.
DEFAULT_CHUNK_SIZE = 8192


def open_text(
    target: Union[str, Path, TextIO], mode: str, *, newline: Optional[str] = None
) -> tuple[TextIO, bool]:
    """Open *target* if it is a path; pass streams through unowned.

    Returns ``(handle, owns_handle)`` — text-backed backends close only
    the handles they opened themselves, so caller-provided streams
    (``StringIO``, ``sys.stdout``) survive the source/sink lifecycle.
    """
    if isinstance(target, (str, Path)):
        return open(target, mode, newline=newline, encoding="utf-8"), True
    return target, False


class TableSource(ABC):
    """A single-pass, schema-driven reader of one stored table.

    Subclasses open their storage in ``__init__`` (so open errors surface
    at construction, where the location is known) and implement
    :meth:`_iter_column_batches`, converting their raw records
    column-at-a-time (:func:`~repro.io.columnar.columns_from_rows`).
    The base class derives every way to consume the source from that one
    lane: column batches (:meth:`column_batches` / :meth:`read_columns`)
    and row-major tables (:meth:`read` / :meth:`chunks`), which pivot
    batch by batch.
    """

    def __init__(self, schema: Schema):
        self.schema = schema

    # -- backend contract ---------------------------------------------------

    @abstractmethod
    def _iter_column_batches(self, batch_size: int) -> Iterator[ColumnBatch]:
        """Yield non-empty :class:`ColumnBatch` chunks of at most
        *batch_size* rows, in stored order."""

    def close(self) -> None:
        """Release the underlying handle (idempotent)."""

    # -- consumption --------------------------------------------------------

    def read(self, *, validate: bool = False) -> Table:
        """Materialize the whole source as one :class:`Table`.

        Batches are pivoted one at a time, so the read never holds the
        table twice.
        """
        table = Table(self.schema)
        for batch in self._iter_column_batches(DEFAULT_CHUNK_SIZE):
            table.rows.extend(batch.rows())
        if validate:
            table.validate()
        return table

    def chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE, *, validate: bool = False
    ) -> Iterator[Table]:
        """Stream the source as tables of at most *chunk_size* rows.

        Rows are pulled lazily, so peak memory is bounded by the chunk
        size rather than the stored row count. A source holding a valid
        header but no rows yields no chunks. Chunk boundaries are the
        :meth:`column_batches` boundaries, and chunked and whole-table
        reads are byte-identical (pinned by the columnar I/O suite).
        """
        for batch in self.column_batches(chunk_size):
            chunk = batch.to_table()
            if validate:
                chunk.validate()
            yield chunk

    def column_batches(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE, *, validate: bool = False
    ) -> Iterator[ColumnBatch]:
        """Stream the source as :class:`~repro.io.columnar.ColumnBatch`
        chunks of at most *chunk_size* rows, with the same bounded-memory
        guarantee as :meth:`chunks`."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        for batch in self._iter_column_batches(chunk_size):
            if validate:
                batch.validate()
            yield batch

    def read_columns(self, *, validate: bool = False) -> ColumnBatch:
        """Materialize the whole source as one
        :class:`~repro.io.columnar.ColumnBatch` — the columnar twin of
        :meth:`read` (the fit's whole-relation ingest)."""
        batch = ColumnBatch.concat(
            self.schema, self._iter_column_batches(DEFAULT_CHUNK_SIZE)
        )
        if validate:
            batch.validate()
        return batch

    # -- context management -------------------------------------------------

    def __enter__(self) -> "TableSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.schema)} attributes)"


class TableSink(ABC):
    """A schema-bound, chunk-at-a-time writer of one stored table.

    Subclasses implement :meth:`_write_header` (written exactly once,
    before the first rows) and :meth:`_write_rows`. Closing via the
    context manager on the success path writes the header even when no
    chunk arrived, so an empty table still round-trips.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._header_written = False

    # -- backend contract ---------------------------------------------------

    @abstractmethod
    def _write_header(self) -> None:
        """Emit the one-time container header (CSV header row, DDL, …)."""

    @abstractmethod
    def _write_rows(self, rows: list[list[Value]]) -> None:
        """Append schema-ordered rows after the header."""

    def close(self) -> None:
        """Flush, finalize, and release the underlying handle (idempotent)."""

    def abort(self) -> None:
        """Release the handle WITHOUT finalizing — the error path.

        Transactional backends roll back (a failed replace-write must
        leave the pre-existing table untouched); container formats
        discard the unreadable partial file. The default just closes.
        """
        self.close()

    # -- writing ------------------------------------------------------------

    def write_header(self) -> None:
        """Ensure the header exists (no-op after the first call)."""
        if not self._header_written:
            self._write_header()
            self._header_written = True

    def write_chunk(self, table: Table) -> None:
        """Append one chunk; all chunks must share the sink's schema."""
        if table.schema != self.schema:
            raise ValueError(
                f"chunk schema {list(table.schema.names)!r} does not match "
                f"sink schema {list(self.schema.names)!r}"
            )
        self.write_header()
        self._write_rows(table.rows)

    def write(self, table: Table) -> None:
        """Write a whole table (header + one chunk)."""
        self.write_chunk(table)

    # -- context management -------------------------------------------------

    def __enter__(self) -> "TableSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            try:
                self.write_header()
            except BaseException:
                self.abort()  # a failing header must not leak the handle
                raise
            self.close()
        else:
            self.abort()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.schema)} attributes)"
