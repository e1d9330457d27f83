"""The streaming auditing facade for the warehouse-loading scenario.

Sec. 2.2: *"Both tasks can run asynchronously. This is useful for an
application in the data cleansing phase during warehouse loading: While
the time-consuming structure induction can be prepared off-line, new data
can be checked for deviations and loaded quickly."*

:class:`AuditSession` models that offline-fit / online-check split as a
first-class API on top of :class:`~repro.core.auditor.DataAuditor`:

* :meth:`AuditSession.fit` — the offline structure induction;
* :meth:`AuditSession.save` / :meth:`AuditSession.load` — the persisted
  hand-over between the offline and online jobs;
* :meth:`AuditSession.audit` — whole-table deviation detection (the
  batch-vectorized hot path);
* :meth:`AuditSession.audit_chunks` / :meth:`AuditSession.audit_source`
  — incremental checking of an unbounded load: each chunk yields an
  :class:`~repro.core.findings.AuditReport` immediately (quarantine
  decisions don't wait for the full load), and
  :meth:`AuditReport.merge <repro.core.findings.AuditReport.merge>`
  recovers the exact whole-table report afterwards. Peak memory is
  bounded by the chunk size, not the stream length.
  :meth:`AuditSession.audit_source` speaks every registered storage
  backend (:mod:`repro.io`) — a CSV path, a JSONL log, a SQLite
  warehouse table (``sqlite:///wh.db?table=loads``), a Parquet extract —
  and :meth:`AuditSession.fit_source` is its offline counterpart;
  :meth:`AuditSession.audit_csv_stream` remains as the CSV-specific
  wrapper. Both source entry points read the backend's
  :class:`~repro.io.ColumnBatch` objects, so no row objects are built
  between storage and the encoding caches.
  :meth:`AuditSession.audit_source` is also the one place that decides
  whether an audit runs in-database (``engine="sql"``,
  :mod:`repro.compile`); its :class:`AuditRun` reports the engine that
  ran and why a requested pushdown did not, for the CLI and the
  service to show.

The fit entry points fan the per-attribute fits out over a process pool
when :attr:`AuditorConfig.fit_n_jobs
<repro.core.auditor.AuditorConfig.fit_n_jobs>` exceeds 1
(:mod:`repro.core.parallel`); the model is byte-identical to the serial
fit. Audits run serially.

Model-file failures surface as :class:`ModelPersistenceError`, whose
``str()`` is a one-line reason (missing file, corrupt JSON, wrong
format, unfitted model) — the CLI prints it verbatim, and callers
embedding the session get one exception type to catch instead of the
open-ended set the JSON/OS layers raise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.findings import AuditReport
from repro.io.base import DEFAULT_CHUNK_SIZE, TableSource
from repro.io.csv_backend import CsvTableSource
from repro.io.registry import open_source
from repro.io.sqlite_backend import SqliteTableSource
from repro.schema.schema import Schema
from repro.schema.table import Table

__all__ = ["AuditSession", "AuditRun", "ModelPersistenceError"]


class ModelPersistenceError(RuntimeError):
    """A persisted structure model could not be written or read back.

    ``str(exc)`` is a single line naming the file and the reason —
    suitable for direct display to an operator. Raised by
    :meth:`AuditSession.save` / :meth:`AuditSession.load` for every
    failure class: unreadable or unwritable files, corrupt or truncated
    JSON, unknown model formats, invalid configurations, and models
    without fitted classifiers.
    """


class AuditSession:
    """Fit-once, audit-many facade over a :class:`DataAuditor`.

    Construct from a schema (optionally with an :class:`AuditorConfig`),
    from an already-built auditor (``AuditSession(auditor=...)``), or from
    a persisted model (:meth:`load`).
    """

    def __init__(
        self,
        schema: Optional[Schema] = None,
        config: Optional[AuditorConfig] = None,
        *,
        auditor: Optional[DataAuditor] = None,
    ):
        if auditor is not None:
            if schema is not None and schema != auditor.schema:
                raise ValueError("schema does not match the given auditor's schema")
            if config is not None:
                raise ValueError("pass config via the auditor when auditor is given")
            self.auditor = auditor
        else:
            if schema is None:
                raise ValueError("either schema or auditor is required")
            self.auditor = DataAuditor(schema, config)

    # -- delegated state ---------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.auditor.schema

    @property
    def config(self) -> AuditorConfig:
        return self.auditor.config

    @property
    def is_fitted(self) -> bool:
        return bool(self.auditor.classifiers)

    # -- offline: structure induction --------------------------------------

    def fit(self, table: Table) -> "AuditSession":
        """Induce the structure model (sec. 5; may run offline).

        :attr:`AuditorConfig.fit_n_jobs
        <repro.core.auditor.AuditorConfig.fit_n_jobs>` above 1 fits the
        audited attributes on a process pool
        (:func:`~repro.core.parallel.fit_table_parallel`). The fitted
        model is byte-identical to the serial fit at any job count.
        """
        self.auditor.fit(table)
        return self

    def fit_source(self, source) -> "AuditSession":
        """:meth:`fit` on any stored table (the offline half of sec. 2.2).

        *source* is an open :class:`~repro.io.TableSource` or a location
        resolved through the format registry against this session's
        schema — a CSV/JSONL/Parquet path or a SQLite database
        (``history.db``, ``sqlite:///wh.db?table=history``). Structure
        induction needs the whole training relation, so the source is
        materialized in memory, as one :class:`~repro.io.ColumnBatch`
        (rows are never built).
        """
        source, owned = self._resolve_source(source)
        try:
            return self.fit(source.read_columns())
        finally:
            if owned:
                source.close()

    def save(self, path: Union[str, Path]) -> None:
        """Persist the fitted structure model for the online job.

        Raises :class:`ModelPersistenceError` (one-line message) when the
        session is unfitted, a classifier type is not serializable, or
        the file cannot be written.
        """
        from repro.core.serialize import save_auditor

        if not self.is_fitted:
            raise ModelPersistenceError(
                f"cannot save an unfitted session to {path}; call fit() first"
            )
        try:
            save_auditor(self.auditor, path)
        except OSError as exc:
            raise ModelPersistenceError(
                f"cannot write model file {path}: {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ModelPersistenceError(
                f"cannot serialize model to {path}: {exc}"
            ) from exc

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AuditSession":
        """Resume a session from a persisted structure model.

        Raises :class:`ModelPersistenceError` (one-line message) for a
        missing/unreadable file, corrupt or truncated JSON, an unknown
        format, an invalid configuration, or a model with no fitted
        classifiers.
        """
        from repro.core.serialize import load_auditor

        try:
            auditor = load_auditor(path)
        except OSError as exc:
            raise ModelPersistenceError(
                f"cannot read model file {path}: {exc}"
            ) from exc
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
            raise ModelPersistenceError(
                f"{path} is not a valid auditor model "
                f"(expected the JSON written by 'repro fit' or "
                f"AuditSession.save): {exc}"
            ) from exc
        if not auditor.classifiers:
            raise ModelPersistenceError(
                f"model {path} contains no fitted classifiers; "
                f"re-run 'repro fit' to induce a structure model"
            )
        return cls(auditor=auditor)

    # -- registry hand-over (named, versioned models) ------------------------

    def save_to_registry(self, registry, name: str, *, provenance=None):
        """Register the fitted model as the next version of *name* in a
        :class:`~repro.registry.ModelRegistry` (or a directory path).

        The versioned counterpart of :meth:`save`: the model is stored
        content-addressed with a provenance record (schema hash filled
        in by the registry; pass a
        :class:`~repro.registry.Provenance` to record the training
        source, row count, and fit time). Returns the new
        :class:`~repro.registry.ModelVersion` — pin its ``.ref``
        (``name@vN``) in the online job. Raises
        :class:`ModelPersistenceError` on failure, like :meth:`save`.
        """
        from repro.registry import ModelRegistry, RegistryError

        if not self.is_fitted:
            raise ModelPersistenceError(
                f"cannot register an unfitted session as {name!r}; call fit() first"
            )
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        try:
            return registry.put(self.auditor, name, provenance=provenance)
        except RegistryError as exc:
            raise ModelPersistenceError(str(exc)) from exc

    @classmethod
    def load_from_registry(cls, registry, ref: str) -> "AuditSession":
        """Resume a session from a registry reference (``name``,
        ``name@v3``, ``name@latest``, a tag, or a digest prefix).

        *registry* is a :class:`~repro.registry.ModelRegistry` or a
        directory path. Raises :class:`ModelPersistenceError` for an
        unknown name/reference or a corrupt stored model.
        """
        from repro.registry import ModelRegistry, RegistryError

        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        try:
            return cls(auditor=registry.get(ref))
        except RegistryError as exc:
            raise ModelPersistenceError(str(exc)) from exc

    # -- online: deviation detection ----------------------------------------

    def audit(self, table: Table) -> AuditReport:
        """Check one whole table (the batch-vectorized path)."""
        return self.auditor.audit(table)

    def audit_chunks(self, chunks: Iterable[Table]) -> Iterator[AuditReport]:
        """Check an iterable of table chunks, yielding one incremental
        report per chunk.

        Row indices in the yielded reports are **stream-global** (the
        position of the record across all chunks so far), so the reports
        both attribute findings to their source records and concatenate
        losslessly:
        ``AuditReport.merge(session.audit_chunks(chunks))`` equals the
        whole-table audit of the concatenated chunks, finding for finding.

        Chunks are consumed lazily — nothing is pulled from the iterable
        before the previous chunk's report has been yielded.
        """
        offset = 0
        for chunk in chunks:
            yield self.auditor.audit(chunk).with_row_offset(offset)
            offset += chunk.n_rows

    def _resolve_source(self, source) -> tuple[TableSource, bool]:
        """Accept an open :class:`TableSource` or a registry location.

        Returns ``(source, owned)``: locations are opened here (and must
        be closed here); caller-provided sources stay the caller's to
        close.
        """
        if isinstance(source, TableSource):
            if source.schema != self.schema:
                raise ValueError(
                    "the table source's schema does not match the session's"
                )
            return source, False
        return open_source(self.schema, source), True

    def audit_source(
        self,
        source,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        engine: Optional[str] = None,
    ) -> "AuditRun":
        """Check any stored table chunk by chunk (the online half of
        sec. 2.2, on the warehouse's own formats).

        *source* is an open :class:`~repro.io.TableSource` or a location
        resolved through the format registry (CSV/JSONL/Parquet path,
        SQLite database or ``sqlite:///…?table=…`` URI); open the source
        yourself to force a format. Peak memory is bounded by
        *chunk_size*, independent of the stored row count; see
        :meth:`audit_chunks` for the report semantics — in particular,
        ``AuditReport.merge`` of the yielded reports equals the
        whole-table audit for every backend at every chunk size. Chunks
        stream as :class:`~repro.io.ColumnBatch` objects straight into
        the audit, with no row objects on the hot path.

        ``engine="sql"`` is the one place the audit engine is chosen:
        when the opened source is a :class:`~repro.io.SqliteTableSource`
        and the model compiles (:mod:`repro.compile`), the screen runs in
        the database and exactly one whole-table report is yielded;
        otherwise, a pushdown that fails at run time included, the
        chunked path runs, with identical findings. The returned
        :class:`AuditRun` says which engine ran and why.
        """
        if engine not in (None, "memory", "sql"):
            raise ValueError(f"engine must be 'memory' or 'sql', got {engine!r}")
        return AuditRun(self, source, chunk_size, pushdown=engine == "sql")

    def audit_csv_stream(
        self,
        source,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        null_marker: str = "",
    ) -> Iterator[AuditReport]:
        """Check a CSV file (path or text stream) chunk by chunk.

        The CSV-specific wrapper around :meth:`audit_source` (which
        speaks every registered backend); kept for the common case and
        for the ``null_marker`` knob.
        """
        csv_source = CsvTableSource(self.schema, source, null_marker=null_marker)
        try:
            yield from self.audit_source(csv_source, chunk_size=chunk_size)
        finally:
            csv_source.close()

    def monitor(self, location, **options) -> "TableWatcher":
        """A continuous auditor tailing *location* with this session's model.

        *location* is a growing CSV/JSONL file or SQLite table (path or
        ``sqlite:`` URI); *options* are passed to
        :class:`~repro.monitor.watcher.TableWatcher` (``state_path`` and
        ``findings_path`` are required — they are the monitor's durable
        exactly-once state). The watcher audits the stream in fixed
        windows, keeps a cumulative
        :class:`~repro.core.findings.StreamReport` that ranks
        byte-for-byte like a one-shot :meth:`audit` of the same rows,
        tracks per-attribute drift, and can refit through a
        :class:`RefitPolicy <repro.monitor.refit.RefitPolicy>`::

            watcher = session.monitor(
                "loads.jsonl",
                state_path="loads.monitor.json",
                findings_path="loads.findings.jsonl",
            )
            report = watcher.run()          # catch up with the file
            report = watcher.run(follow=True, stop=stop_event)  # or tail it
        """
        from repro.monitor.watcher import TableWatcher

        return TableWatcher(self, location, **options)

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"AuditSession({len(self.schema)} attributes, {state})"


class AuditRun:
    """The reports of one :meth:`AuditSession.audit_source` call, as an
    iterator that, like a generator, opens a location and closes it as
    the iteration runs.

    Two attributes say how the reports were made. The first ``next()``
    sets both, so they are final before the first report and readable
    after an iteration that yielded none (a source with no rows):

    * ``engine`` — ``"sql"`` when the screen ran in the database,
      ``"memory"`` when the chunked in-memory path ran;
    * ``notice`` — when ``engine="sql"`` was requested but the memory
      path ran, the one-line reason (ending ``"; auditing in memory"``),
      else ``None``.
    """

    #: the notice for a source that is not a SQLite table
    NOT_SQLITE = "source is not SQLite; auditing in memory"

    def __init__(
        self, session: AuditSession, source, chunk_size: int, *, pushdown: bool
    ):
        self.engine: Optional[str] = None
        self.notice: Optional[str] = None
        self._reports = self._run(session, source, chunk_size, pushdown)

    def __iter__(self) -> "AuditRun":
        return self

    def __next__(self) -> AuditReport:
        return next(self._reports)

    def _run(self, session, source, chunk_size, pushdown) -> Iterator[AuditReport]:
        source, owned = session._resolve_source(source)
        try:
            report = self._pushdown(session.auditor, source) if pushdown else None
            if report is not None:
                self.engine = "sql"
                yield report
                return
            self.engine = "memory"
            yield from session.audit_chunks(source.column_batches(chunk_size))
        finally:
            if owned:
                source.close()

    def _pushdown(self, auditor, source) -> Optional[AuditReport]:
        """The whole-table report screened in the database, or ``None``
        with :attr:`notice` saying why the memory path runs instead."""
        from repro.compile import NotCompilable, audit_connection, compilation_plan

        if not isinstance(source, SqliteTableSource):
            self.notice = self.NOT_SQLITE
            return None
        plan = compilation_plan(auditor)
        if not plan.compilable:
            self.notice = plan.notice()
            return None
        try:
            return audit_connection(
                auditor, source.connection, table=source.table, plan=plan
            )
        except NotCompilable as exc:  # e.g. a WITHOUT ROWID table
            self.notice = f"{exc}; auditing in memory"
            return None
