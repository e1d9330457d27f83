"""The audit service's request handlers, independent of the transport.

:class:`AuditService` is the daemon's brain: it owns the
:class:`~repro.registry.ModelRegistry`, a digest-keyed cache of loaded
models, and the request semantics of every endpoint — the HTTP layer
(:mod:`repro.serve.http`) only moves bytes. Keeping the two apart means
the endpoint contracts are unit-testable without sockets, and an
embedding application (a loader process, a scheduler) can call the
handlers directly.

The one invariant worth stating twice: **the findings a** ``POST
/audit`` **streams are byte-identical to** ``repro audit --format
jsonl`` **on the same model and table.** Both paths rank the findings
by :func:`~repro.core.findings.rank_key` (a chunked source through the
same :class:`~repro.core.findings.StreamReport`), shape them through
:func:`~repro.core.findings.findings_to_table`, and write them through
the same :class:`~repro.io.jsonl_backend.JsonlTableSink`. A warehouse
can therefore swap the CLI for the service (or back) without
re-baselining a single downstream parser.
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import Any, Iterator, Mapping, Optional

from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.findings import Finding, StreamReport, findings_to_table
from repro.core.session import AuditRun, AuditSession
from repro.io.base import DEFAULT_CHUNK_SIZE
from repro.io.jsonl_backend import JsonlTableSink, JsonlTableSource
from repro.io.registry import detect_format, open_source
from repro.registry import ModelRegistry, ModelVersion, Provenance, RegistryError
from repro.schema.serialize import schema_from_dict
from repro.schema.table import Table

__all__ = ["ServiceError", "AuditService"]

#: findings per streamed response chunk — small enough to flush early,
#: large enough to amortize the write syscalls
_STREAM_BATCH = 512


class ServiceError(Exception):
    """A request failed; carries the HTTP status the transport should send."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _require(payload: Mapping[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise ServiceError(400, f"request body is missing the {key!r} field")


#: the top-level fields each POST body may carry
_FIT_FIELDS = frozenset({"name", "schema", "source", "format", "config"})
_AUDIT_FIELDS = frozenset(
    {"model", "source", "rows", "format", "chunk_size", "engine"}
)


def _reject_unknown(payload: Mapping[str, Any], allowed, what: str) -> None:
    """400 for fields the endpoint does not know — a stale or misspelled
    knob fails loudly instead of being ignored."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ServiceError(
            400,
            f"unknown {what} fields {unknown!r} "
            f"(allowed: {', '.join(sorted(allowed))})",
        )


def _parse_config(payload: Optional[Mapping[str, Any]]) -> AuditorConfig:
    """Build an :class:`AuditorConfig` from the JSON ``config`` object of
    a fit request (scalar knobs only — factories stay server-side)."""
    if payload is None:
        return AuditorConfig()
    _reject_unknown(
        payload,
        {
            "min_error_confidence",
            "n_bins",
            "base_attributes",
            "audited_attributes",
            "fit_n_jobs",
        },
        "config",
    )
    try:
        return AuditorConfig(**dict(payload))
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, f"invalid auditor config: {exc}")


class AuditService:
    """Endpoint semantics of the audit daemon (see module docstring).

    Thread-safe: handlers may run concurrently (the HTTP layer runs one
    thread per request); the model cache is locked, the registry's own
    reader paths are lock-free, and its writer paths take the registry
    lockfile.
    """

    def __init__(self, registry: ModelRegistry):
        self.registry = registry
        self.started_at = time.time()
        self.requests_served = 0
        self._cache_lock = threading.Lock()
        #: digest → loaded auditor; content addressing makes entries
        #: permanently valid (an object never changes under its digest)
        self._model_cache: dict[str, DataAuditor] = {}
        self._monitors_lock = threading.Lock()
        #: name → {"watcher", "thread", "stop"} for hosted monitors
        self._monitors: dict[str, dict[str, Any]] = {}

    # -- GET /healthz --------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "registry": str(self.registry.root),
            "models": len(self.registry.list()),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests_served": self.requests_served,
        }

    # -- GET /models and /models/{ref} --------------------------------------

    def list_models(self) -> dict[str, Any]:
        models = []
        for name in self.registry.list():
            versions = self.registry.versions(name)
            models.append(
                {
                    "name": name,
                    "versions": len(versions),
                    "tags": self.registry.tags(name),
                    "latest": versions[-1].to_record(),
                }
            )
        return {"models": models}

    def show_model(self, ref: str) -> dict[str, Any]:
        try:
            return self.registry.resolve(ref).to_record()
        except RegistryError as exc:
            raise ServiceError(404, str(exc))

    # -- POST /fit -----------------------------------------------------------

    def fit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Fit from a ``repro.io`` source and register the model.

        Body: ``{"name": str, "schema": {...}, "source": location,
        "format": optional registry format, "config": optional scalar
        AuditorConfig fields}``; any other field is a 400. Returns the
        stored version record, whose provenance names the detected format
        when the body gives none.
        """
        _reject_unknown(payload, _FIT_FIELDS, "request")
        name = _require(payload, "name")
        source_uri = _require(payload, "source")
        try:
            schema = schema_from_dict(_require(payload, "schema"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(400, f"invalid schema: {exc}")
        config = _parse_config(payload.get("config"))
        try:
            auditor = DataAuditor(schema, config)
        except ValueError as exc:
            raise ServiceError(400, str(exc))
        try:
            fmt = payload.get("format") or detect_format(source_uri)
            with open_source(schema, source_uri, format=fmt) as source:
                table = source.read_columns()
        except (OSError, ValueError) as exc:
            raise ServiceError(400, f"cannot read source {source_uri!r}: {exc}")
        auditor.fit(table)
        try:
            version = self.registry.put(
                auditor,
                name,
                provenance=Provenance(
                    source=str(source_uri),
                    source_format=fmt,
                    n_rows=table.n_rows,
                    fit_seconds=auditor.fit_seconds,
                ),
            )
        except RegistryError as exc:
            raise ServiceError(500, str(exc))
        with self._cache_lock:
            self._model_cache[version.digest] = auditor
        return version.to_record()

    # -- POST /audit ---------------------------------------------------------

    def _load_model(self, ref) -> tuple[DataAuditor, ModelVersion]:
        """Resolve *ref* once; the auditor and the version it resolved to.
        Callers name that version, never a second resolve, because a
        hosted monitor's auto-refit can move ``@latest`` at any time."""
        if not isinstance(ref, str):
            raise ServiceError(
                400, f"'model' must be a string reference (name[@ref]), got {ref!r}"
            )
        try:
            version = self.registry.resolve(ref)
        except RegistryError as exc:
            raise ServiceError(404, str(exc))
        with self._cache_lock:
            cached = self._model_cache.get(version.digest)
        if cached is not None:
            return cached, version
        try:
            auditor = self.registry.get_version(version)
        except RegistryError as exc:
            raise ServiceError(500, str(exc))
        with self._cache_lock:
            self._model_cache[version.digest] = auditor
        return auditor, version

    def _table_from_rows(self, auditor: DataAuditor, rows: list) -> Table:
        """Parse an inline ``rows`` payload through the JSONL backend, so
        inline audits get the same strict schema-driven coercion (and
        the same error messages) as stored tables."""
        if not isinstance(rows, list):
            raise ServiceError(400, "'rows' must be a list of JSON objects")
        try:
            text = "".join(json.dumps(row, allow_nan=False) + "\n" for row in rows)
        except ValueError as exc:  # NaN/Infinity cells: not JSON values
            raise ServiceError(400, f"invalid rows payload: {exc}")
        source = JsonlTableSource(auditor.schema, io.StringIO(text))
        try:
            return source.read()
        except ValueError as exc:
            raise ServiceError(400, f"invalid rows payload: {exc}")
        finally:
            source.close()

    def audit(self, payload: Mapping[str, Any]) -> tuple[dict[str, Any], Iterator[str]]:
        """Audit a stored table or an inline row payload.

        Body: ``{"model": "name[@ref]"}`` plus exactly one of
        ``"source"`` (a server-side ``repro.io`` location, optionally
        with ``"format"``, which overrides format detection as in
        ``POST /fit``) or ``"rows"`` (inline JSON objects); optional
        ``"chunk_size"`` (default ``DEFAULT_CHUNK_SIZE``), and ``"engine":
        "sql"`` is handed to :meth:`AuditSession.audit_source
        <repro.core.session.AuditSession.audit_source>`, which pushes
        the deviation screen into the database when the source is a
        SQLite table and the model compiles. The summary's ``engine``
        field reports the engine that actually ran, with the session's
        ``notice`` line when a requested pushdown did not; inline rows
        are never SQLite, so they always run in memory. Any other field
        is a 400. Returns ``(summary headers, JSONL line stream)`` — the
        stream is byte-identical to the CLI's ``repro audit --format
        jsonl`` on the same model and table, whichever engine ran.
        """
        _reject_unknown(payload, _AUDIT_FIELDS, "request")
        auditor, version = self._load_model(_require(payload, "model"))
        session = AuditSession(auditor=auditor)
        chunk_size = payload.get("chunk_size", DEFAULT_CHUNK_SIZE)
        if type(chunk_size) is not int or chunk_size < 1:  # bool is not a size
            raise ServiceError(400, "'chunk_size' must be a positive integer")
        has_source = "source" in payload
        has_rows = "rows" in payload
        if has_source == has_rows:
            raise ServiceError(
                400, "pass exactly one of 'source' (a location) or 'rows' (inline)"
            )
        engine = payload.get("engine") or "memory"
        if engine not in ("memory", "sql"):
            raise ServiceError(400, f"'engine' must be 'memory' or 'sql', got {engine!r}")
        if has_rows:
            table = self._table_from_rows(auditor, payload["rows"])
            report = session.audit(table)
            findings = report.findings  # already ranked
            # inline rows are never a SQLite table
            notice = AuditRun.NOT_SQLITE if engine == "sql" else None
            engine = "memory"
        else:
            location = payload["source"]
            report = StreamReport(auditor.config.min_error_confidence)
            try:
                with open_source(
                    auditor.schema, location, format=payload.get("format")
                ) as source:
                    run = session.audit_source(
                        source, chunk_size=chunk_size, engine=engine
                    )
                    for chunk_report in run:
                        report.extend(chunk_report)
            except (OSError, ValueError) as exc:
                raise ServiceError(400, f"cannot audit source {location!r}: {exc}")
            engine, notice = run.engine, run.notice
            findings = report.ranked_findings()
        summary = {
            "model": version.ref,
            "rows": report.n_rows,
            "findings": len(findings),
            "suspicious": report.n_suspicious,
            "engine": engine,
        }
        if notice is not None:
            summary["notice"] = notice
        return summary, _findings_jsonl(findings)

    # -- GET/POST /monitors --------------------------------------------------

    def start_monitor(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Host a continuous monitor inside the daemon.

        Body: ``{"name": str, "model": "name[@ref]", "source":
        location}`` plus the optional :class:`TableWatcher
        <repro.monitor.watcher.TableWatcher>` knobs ``format``,
        ``null_marker``, ``window_rows``, ``poll_interval``, ``drift``
        (a :class:`~repro.monitor.drift.DriftConfig` object),
        ``refit`` (``off``/``recommend``/``auto``), ``refit_name``,
        ``refit_rows``, ``state``, and ``findings`` (both default to
        ``<registry>/monitors/<name>.*``). The monitor runs on a daemon
        thread in follow mode; because it tails through the torn-write
        safe tail readers, a producer appending to the source mid-poll
        never breaks it. Auto-refits land in this service's own
        registry, so the next ``POST /audit`` against ``name@latest``
        already uses the refreshed model.
        """
        from repro.monitor.drift import DriftConfig
        from repro.monitor.refit import RefitPolicy
        from repro.monitor.watcher import TableWatcher

        name = _require(payload, "name")
        if not isinstance(name, str) or not name or "/" in name:
            raise ServiceError(400, "'name' must be a non-empty string without '/'")
        ref = _require(payload, "model")
        source = _require(payload, "source")
        with self._monitors_lock:
            entry = self._monitors.get(name)
            if entry is not None and entry["thread"].is_alive():
                raise ServiceError(409, f"monitor {name!r} is already running")
        auditor, version = self._load_model(ref)
        try:
            drift = DriftConfig(**dict(payload.get("drift") or {}))
            refit_mode = payload.get("refit", "off")
            refit = RefitPolicy(
                refit_mode,
                registry=self.registry if refit_mode == "auto" else None,
                model_name=payload.get("refit_name") or version.name,
                refit_rows=int(payload.get("refit_rows", 4096)),
            )
            state_dir = self.registry.root / "monitors"
            state_dir.mkdir(parents=True, exist_ok=True)
            watcher = TableWatcher(
                AuditSession(auditor=auditor),
                source,
                state_path=payload.get("state") or state_dir / f"{name}.state.json",
                findings_path=(
                    payload.get("findings") or state_dir / f"{name}.findings.jsonl"
                ),
                format=payload.get("format"),
                null_marker=payload.get("null_marker", ""),
                window_rows=int(payload.get("window_rows", 256)),
                poll_interval=float(payload.get("poll_interval", 1.0)),
                drift=drift,
                refit=refit,
                model_ref=version.ref,
            )
        except (OSError, TypeError, ValueError) as exc:
            raise ServiceError(400, f"cannot start monitor {name!r}: {exc}")
        stop = threading.Event()

        def _run() -> None:
            try:
                watcher.run(follow=True, stop=stop)
            except Exception as exc:  # surface in status, don't kill the daemon
                watcher.error = str(exc)
            finally:
                watcher.close()

        thread = threading.Thread(target=_run, daemon=True, name=f"monitor-{name}")
        with self._monitors_lock:
            self._monitors[name] = {"watcher": watcher, "thread": thread, "stop": stop}
        thread.start()
        return {"name": name, **watcher.status()}

    def list_monitors(self) -> dict[str, Any]:
        """Every hosted monitor with live progress and drift statistics."""
        with self._monitors_lock:
            entries = list(self._monitors.items())
        return {
            "monitors": [
                {
                    "name": name,
                    "running": entry["thread"].is_alive(),
                    **entry["watcher"].status(),
                }
                for name, entry in entries
            ]
        }

    def stop_monitors(self, timeout: float = 10.0) -> None:
        """Stop every hosted monitor (daemon shutdown path); whole-window
        state is already durable, so this is just a prompt exit."""
        with self._monitors_lock:
            entries = list(self._monitors.values())
        for entry in entries:
            entry["stop"].set()
        for entry in entries:
            entry["thread"].join(timeout)

    def mark_request(self) -> None:
        """Count one served request (called by the transport)."""
        self.requests_served += 1


def _findings_jsonl(findings: list[Finding]) -> Iterator[str]:
    """Render findings as the CLI's JSONL byte stream, in bounded batches.

    One code path with ``repro audit --format jsonl``:
    :func:`findings_to_table` + :class:`JsonlTableSink`, just aimed at a
    string buffer per batch instead of stdout.
    """
    table = findings_to_table(findings)
    for start in range(0, max(len(table.rows), 1), _STREAM_BATCH):
        batch = Table(table.schema)
        batch.rows = table.rows[start : start + _STREAM_BATCH]
        buffer = io.StringIO()
        with JsonlTableSink(table.schema, buffer) as sink:
            sink.write(batch)
        yield buffer.getvalue()
