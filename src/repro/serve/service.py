"""The audit service's request handlers, independent of the transport.

:class:`AuditService` is the daemon's brain: it owns the
:class:`~repro.registry.ModelRegistry`, a bounded digest-keyed cache of
loaded models, and the request semantics of every endpoint — the HTTP
layer (:mod:`repro.serve.http`) only moves bytes. Keeping the two apart
means the endpoint contracts are unit-testable without sockets, and an
embedding application (a loader process, a scheduler) can call the
handlers directly.

A request the service cannot use — a malformed body, an unknown field,
a source that cannot be opened or read — raises
:class:`~repro.errors.InputError`, which the transport answers with 400.
:class:`ServiceError` carries only the statuses the service decides
itself: 404 (no such model), 409 (a monitor of that name is running),
413 (the body is too large) and 500 (the registry failed).

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
import math
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.findings import Finding, StreamReport, findings_to_table
from repro.core.session import AuditRun, AuditSession
from repro.errors import InputError
from repro.io.base import DEFAULT_CHUNK_SIZE
from repro.io.jsonl_backend import JsonlTableSink, JsonlTableSource
from repro.io.registry import detect_format, open_source
from repro.registry import (
    ModelRegistry,
    ModelVersion,
    Provenance,
    RegistryError,
    check_model_name,
)
from repro.schema.serialize import schema_from_dict
from repro.schema.table import Table

__all__ = ["ServiceError", "AuditService"]

#: findings per streamed response chunk — small enough to flush early,
#: large enough to amortize the write syscalls
_STREAM_BATCH = 512

#: loaded models the service keeps; the least recently used is evicted
#: first, so a daemon whose hosted monitor refits stays bounded
_MODEL_CACHE_SIZE = 8


class ServiceError(Exception):
    """A request failed for a reason the service decides — 404, 409, 413
    or 500; carries the HTTP status the transport should send. Unusable
    request input is an :class:`~repro.errors.InputError` instead."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _require(payload: Mapping[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise InputError(f"request body is missing the {key!r} field") from None


def _require_location(payload: Mapping[str, Any]) -> str:
    """The body's ``source``, which must be a location string (an integer
    would open as a file descriptor)."""
    location = _require(payload, "source")
    if not isinstance(location, str):
        raise InputError(f"'source' must be a location string, got {location!r}")
    return location


def _optional(
    payload: Mapping[str, Any], key: str, kind: type, default: Any = None
) -> Any:
    """The body's *key*, *default* when it is absent, and a 400 unless it
    holds a *kind*: ``str``, ``int`` (a count) or ``float`` (any finite
    number). A bool is neither a count nor a number."""
    if key not in payload:
        return default
    value = payload[key]
    if kind is float:
        finite = type(value) is float and math.isfinite(value)
        usable = type(value) is int or finite
    else:
        usable = type(value) is kind
    if not usable:
        what = {str: "a string", int: "an integer", float: "a finite number"}
        raise InputError(f"{key!r} must be {what[kind]}, got {value!r}")
    return value


def _model_name(key: str, name: Any) -> str:
    """*name*, the body's *key*, under the registry's name rule (a 400
    when it breaks the rule)."""
    try:
        return check_model_name(name)
    except RegistryError as exc:
        raise InputError(f"{key!r}: {exc}") from None


#: the top-level fields each POST body may carry
_FIT_FIELDS = frozenset({"name", "schema", "source", "format", "config"})
_AUDIT_FIELDS = frozenset(
    {"model", "source", "rows", "format", "chunk_size", "engine"}
)
_MONITOR_FIELDS = frozenset(
    {
        "name", "model", "source", "format", "null_marker", "window_rows",
        "poll_interval", "drift", "refit", "refit_name", "refit_rows",
        "state", "findings",
    }
)


def _reject_unknown(payload: Mapping[str, Any], allowed, what: str) -> None:
    """400 for fields the endpoint does not know — a stale or misspelled
    knob fails loudly instead of being ignored."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise InputError(
            f"unknown {what} fields {unknown!r} "
            f"(allowed: {', '.join(sorted(allowed))})"
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
    except (TypeError, ValueError) as exc:  # a request value enters a constructor
        raise InputError(f"invalid auditor config: {exc}") from exc


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
        #: digest → loaded auditor, least recently used first; content
        #: addressing makes entries permanently valid (an object never
        #: changes under its digest), so eviction only costs a reload
        self._model_cache: OrderedDict[str, DataAuditor] = OrderedDict()
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
        name = _model_name("name", _require(payload, "name"))
        source_uri = _require_location(payload)
        schema = schema_from_dict(_require(payload, "schema"))
        auditor = DataAuditor(schema, _parse_config(payload.get("config")))
        try:
            fmt = payload.get("format") or detect_format(source_uri)
            with open_source(schema, source_uri, format=fmt) as source:
                table = source.read_columns()
        except (OSError, InputError) as exc:
            raise InputError(f"cannot read source {source_uri!r}: {exc}") from exc
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
        self._cache_model(version.digest, auditor)
        return version.to_record()

    # -- POST /audit ---------------------------------------------------------

    def _load_model(self, ref) -> tuple[DataAuditor, ModelVersion]:
        """Resolve *ref* once; the auditor and the version it resolved to.
        Callers name that version, never a second resolve, because a
        hosted monitor's auto-refit can move ``@latest`` at any time."""
        if not isinstance(ref, str):
            raise InputError(
                f"'model' must be a string reference (name[@ref]), got {ref!r}"
            )
        try:
            version = self.registry.resolve(ref)
        except RegistryError as exc:
            raise ServiceError(404, str(exc))
        with self._cache_lock:
            cached = self._model_cache.get(version.digest)
            if cached is not None:
                self._model_cache.move_to_end(version.digest)
                return cached, version
        try:
            auditor = self.registry.get_version(version)
        except RegistryError as exc:
            raise ServiceError(500, str(exc))
        self._cache_model(version.digest, auditor)
        return auditor, version

    def _cache_model(self, digest: str, auditor: DataAuditor) -> None:
        """Keep *auditor* as the most recently used model, evicting the
        least recently used beyond :data:`_MODEL_CACHE_SIZE`."""
        with self._cache_lock:
            self._model_cache[digest] = auditor
            self._model_cache.move_to_end(digest)
            while len(self._model_cache) > _MODEL_CACHE_SIZE:
                self._model_cache.popitem(last=False)

    def _table_from_rows(self, auditor: DataAuditor, rows: list) -> Table:
        """Parse an inline ``rows`` payload through the JSONL backend, so
        inline audits get the same strict schema-driven coercion (and
        the same error messages) as stored tables."""
        if not isinstance(rows, list):
            raise InputError("'rows' must be a list of JSON objects")
        # NaN/Infinity cells render as JSON's NaN/Infinity constants, which
        # the reader refuses with the line and attribute named
        text = "".join(json.dumps(row) + "\n" for row in rows)
        try:
            with JsonlTableSource(auditor.schema, io.StringIO(text)) as source:
                return source.read()
        except InputError as exc:
            raise InputError(f"invalid rows payload: {exc}") from exc

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
        chunk_size = _optional(payload, "chunk_size", int, DEFAULT_CHUNK_SIZE)
        if chunk_size < 1:
            raise InputError("'chunk_size' must be a positive integer")
        has_source = "source" in payload
        has_rows = "rows" in payload
        if has_source == has_rows:
            raise InputError(
                "pass exactly one of 'source' (a location) or 'rows' (inline)"
            )
        engine = payload.get("engine", "memory")
        if engine not in ("memory", "sql"):
            raise InputError(f"'engine' must be 'memory' or 'sql', got {engine!r}")
        if has_rows:
            table = self._table_from_rows(auditor, payload["rows"])
            report = session.audit(table)
            findings = report.findings  # already ranked
            # inline rows are never a SQLite table
            notice = AuditRun.NOT_SQLITE if engine == "sql" else None
            engine = "memory"
        else:
            location = _require_location(payload)
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
            except (OSError, InputError) as exc:
                raise InputError(f"cannot audit source {location!r}: {exc}") from exc
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
        ``<registry>/monitors/<name>.*``); any other field, or a field
        of the wrong type, is a 400. The monitor runs on a daemon
        thread in follow mode; because it tails through the torn-write
        safe tail readers, a producer appending to the source mid-poll
        never breaks it. Auto-refits land in this service's own
        registry, so the next ``POST /audit`` against ``name@latest``
        already uses the refreshed model.
        """
        from repro.monitor.drift import DriftConfig
        from repro.monitor.refit import RefitPolicy
        from repro.monitor.watcher import TableWatcher

        _reject_unknown(payload, _MONITOR_FIELDS, "request")
        name = _require(payload, "name")
        if not isinstance(name, str) or not name or "/" in name:
            raise InputError("'name' must be a non-empty string without '/'")
        ref = _require(payload, "model")
        source = _require_location(payload)
        try:
            fmt = _optional(payload, "format", str)
            null_marker = _optional(payload, "null_marker", str, "")
            window_rows = _optional(payload, "window_rows", int, 256)
            poll_interval = _optional(payload, "poll_interval", float, 1.0)
            refit_rows = _optional(payload, "refit_rows", int, 4096)
            refit_name = _optional(payload, "refit_name", str)
            if refit_name is not None:
                _model_name("refit_name", refit_name)
            state = _optional(payload, "state", str)
            findings = _optional(payload, "findings", str)
        except InputError as exc:
            raise InputError(f"cannot start monitor {name!r}: {exc}") from None
        with self._monitors_lock:
            entry = self._monitors.get(name)
            if entry is not None and entry["thread"].is_alive():
                raise ServiceError(409, f"monitor {name!r} is already running")
        auditor, version = self._load_model(ref)
        state_dir = self.registry.root / "monitors"
        try:  # request values enter the monitor's constructors
            drift = DriftConfig(**dict(payload.get("drift") or {}))
            refit_mode = payload.get("refit", "off")
            refit = RefitPolicy(
                refit_mode,
                registry=self.registry if refit_mode == "auto" else None,
                model_name=refit_name or version.name,
                refit_rows=refit_rows,
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"cannot start monitor {name!r}: {exc}") from exc
        state_dir.mkdir(parents=True, exist_ok=True)
        try:
            watcher = TableWatcher(
                AuditSession(auditor=auditor),
                source,
                state_path=Path(state or state_dir / f"{name}.state.json"),
                findings_path=Path(findings or state_dir / f"{name}.findings.jsonl"),
                format=fmt,
                null_marker=null_marker,
                window_rows=window_rows,
                poll_interval=poll_interval,
                drift=drift,
                refit=refit,
                model_ref=version.ref,
            )
        except (OSError, InputError) as exc:
            raise InputError(f"cannot start monitor {name!r}: {exc}") from exc
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
