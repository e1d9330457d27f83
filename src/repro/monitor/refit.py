"""Refit policy: what the monitor does when drift is sustained.

A drifted attribute means the fitted rules no longer describe the
stream. Three responses, picked by ``mode``:

* ``"off"`` — drift is reported (logged, surfaced in status) and
  nothing else happens;
* ``"recommend"`` — a refit recommendation is recorded in the
  watermark's event list and the status endpoint, for an operator to
  act on;
* ``"auto"`` — the watcher refits on the most recent rows it has
  buffered and registers the result to the model registry with drift
  provenance (``trigger=drift``, the firing window's statistics). The
  registry's ``put`` moves the ``latest`` tag, so anything resolving
  ``name@latest`` — the audit service in particular, whose cache is
  keyed by content digest — serves the refreshed model on its next
  request, no restart involved.

The policy object itself is small and stateless; the watcher owns the
row buffer and calls :func:`perform_refit` at the committed window
boundary so the new model and the triggering window land in the same
watermark write.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.core.auditor import DataAuditor
from repro.errors import InputError
from repro.registry.store import ModelRegistry, ModelVersion, Provenance
from repro.schema.table import Table

from .drift import DriftEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import AuditSession

__all__ = ["RefitPolicy", "perform_refit"]

_MODES = ("off", "recommend", "auto")


class RefitPolicy:
    """How a :class:`~repro.monitor.watcher.TableWatcher` answers drift."""

    def __init__(
        self,
        mode: str = "off",
        *,
        registry: Optional[ModelRegistry] = None,
        model_name: Optional[str] = None,
        refit_rows: int = 4096,
    ):
        if mode not in _MODES:
            raise InputError(f"refit mode must be one of {_MODES}, got {mode!r}")
        if mode == "auto":
            if registry is None:
                raise InputError("refit mode 'auto' needs a model registry")
            if not model_name:
                raise InputError(
                    "refit mode 'auto' needs the registry model name to refit under"
                )
        if refit_rows < 1:
            raise InputError(f"refit_rows must be >= 1, got {refit_rows}")
        self.mode = mode
        self.registry = registry
        self.model_name = model_name
        self.refit_rows = refit_rows

    @property
    def wants_buffer(self) -> bool:
        return self.mode == "auto"

    def __repr__(self) -> str:
        return f"RefitPolicy({self.mode!r})"


def perform_refit(
    policy: RefitPolicy,
    session: "AuditSession",
    buffer: Table,
    event: DriftEvent,
    *,
    source: Optional[str] = None,
    source_format: Optional[str] = None,
    stream_rows: int = 0,
) -> tuple["AuditSession", ModelVersion]:
    """Fit a fresh model on *buffer* and register it with drift provenance.

    Returns the new session (same schema and config as the old one) and
    the registered version; the caller swaps its session, resets the
    drift tracker, and commits the new ``model_ref`` in the watermark.
    """
    from repro.core.session import AuditSession

    auditor = DataAuditor(session.schema, session.config).fit(buffer)
    provenance = Provenance(
        source=str(source) if source is not None else None,
        source_format=source_format,
        n_rows=len(buffer.rows),
        fit_seconds=auditor.fit_seconds,
        extra={
            "trigger": "drift",
            "drift": event.to_dict(),
            "stream_rows": stream_rows,
        },
    )
    version = policy.registry.put(auditor, policy.model_name, provenance=provenance)
    return AuditSession(auditor=auditor), version


def refit_event_record(event: DriftEvent, *, mode: str, **extra: Any) -> dict[str, Any]:
    """The watermark / status entry describing one drift response."""
    record: dict[str, Any] = {"mode": mode, "drift": event.to_dict()}
    record.update(extra)
    return record
