"""The continuous auditor: tail a growing table, audit it in windows.

:class:`TableWatcher` is the subsystem's engine. It polls a
:class:`~repro.monitor.tail.TailReader` for newly-complete rows, audits
them in **fixed windows** of ``window_rows`` (anchored at the committed
row count, *not* at poll batches — so the findings the monitor produces
are a pure function of the stream contents, never of poll timing), and
after each window durably commits, in this order:

1. the window's findings are appended to the findings JSONL file and
   fsynced;
2. the watermark (rows, source offset, findings length, drift state,
   model ref) is atomically replaced.

A crash between the two steps leaves findings the watermark does not
cover; resume truncates the findings file back to the watermark's
length and re-audits from the watermark's source offset — the resumed
file is byte-identical to an uninterrupted run. Within a window the
findings are rendered exactly as ``repro audit --format jsonl`` renders
them (same ``findings_to_table`` → ``JsonlTableSink`` path), so the
cumulative :class:`~repro.core.findings.StreamReport` ranks
byte-for-byte like a one-shot audit of the same rows.

Each committed window also feeds the per-attribute
:class:`~repro.monitor.drift.DriftTracker`; sustained drift is answered
by the :class:`~repro.monitor.refit.RefitPolicy` — logged, recorded as
a recommendation, or auto-refit on a rolling buffer of recent rows and
registered to the model registry (the ``latest`` tag flip is what lets
a running audit daemon pick the new model up without restart).

In catch-up mode (``run()``) the watcher drains the source and finally
audits the trailing partial window, so every complete row is covered.
In follow mode (``run(follow=True)``) partial windows are **never**
flushed — a SIGTERM'd follower leaves only whole-window state behind,
which is exactly what makes kill-and-resume deterministic.
"""

from __future__ import annotations

import io
import logging
import os
import threading
from collections import deque
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.core.findings import (
    AuditReport,
    Finding,
    StreamReport,
    findings_schema,
    findings_to_table,
)
from repro.errors import InputError
from repro.io.jsonl_backend import JsonlTableSink, JsonlTableSource
from repro.schema.table import Table
from repro.schema.types import Value

from .drift import DriftConfig, DriftEvent, DriftTracker
from .refit import RefitPolicy, perform_refit, refit_event_record
from .tail import open_tail
from .watermark import Watermark, load_watermark

__all__ = ["TableWatcher"]

logger = logging.getLogger("repro.monitor")


def _render_findings_jsonl(findings: list[Finding]) -> str:
    """Exactly the CLI/service findings byte stream for one window."""
    if not findings:
        return ""
    buffer = io.StringIO()
    with JsonlTableSink(findings_schema(), buffer) as sink:
        sink.write(findings_to_table(findings))
    return buffer.getvalue()


def _load_findings_file(path: Path) -> list[Finding]:
    """Reload persisted findings; rendering them again reproduces the
    file's bytes exactly (values are already in canonical text form)."""
    findings: list[Finding] = []
    with open(path, "r", encoding="utf-8") as handle:
        source = JsonlTableSource(findings_schema(), handle)
        for cells in source.read().rows:
            row, attribute, observed, observed_label, expected, conf, support, prop = cells
            findings.append(
                Finding(
                    row=int(row),
                    attribute=attribute,
                    observed_label=observed_label,
                    observed_value=observed,
                    predicted_label=expected,
                    confidence=conf,
                    support=support,
                    proposal=prop,
                )
            )
    return findings


class TableWatcher:
    """Tail one growing source and audit it continuously (module docstring)."""

    def __init__(
        self,
        session,  # AuditSession (untyped to avoid the circular import)
        location: Union[str, Path],
        *,
        state_path: Union[str, Path],
        findings_path: Union[str, Path],
        format: Optional[str] = None,
        null_marker: str = "",
        window_rows: int = 256,
        poll_interval: float = 1.0,
        drift: Optional[DriftConfig] = None,
        refit: Optional[RefitPolicy] = None,
        model_ref: Optional[str] = None,
        emit: Optional[Callable[[str], None]] = None,
    ):
        if not session.is_fitted:
            raise ValueError("monitor needs a fitted session (fit or load a model)")
        if window_rows < 1:
            raise InputError(f"window_rows must be >= 1, got {window_rows}")
        if poll_interval <= 0:
            raise InputError(f"poll_interval must be > 0, got {poll_interval}")
        self.session = session
        self.location = location
        self.source_format = format
        self.state_path = Path(state_path)
        self.findings_path = Path(findings_path)
        self.window_rows = window_rows
        self.poll_interval = poll_interval
        self.refit = refit or RefitPolicy("off")
        self.model_ref = model_ref
        self.emit = emit
        self.error: Optional[str] = None
        self._lock = threading.Lock()
        self._pending: list[list[Value]] = []
        self._pending_offsets: list[int] = []
        self._buffer: Optional[deque] = (
            deque(maxlen=self.refit.refit_rows) if self.refit.wants_buffer else None
        )

        self._tail = open_tail(
            session.schema, location, format=format, null_marker=null_marker
        )
        drift_config = drift or DriftConfig()
        attributes = session.auditor.audited_attributes()

        watermark = load_watermark(self.state_path)
        if watermark is not None:
            self._resume(watermark, drift_config, attributes)
        else:
            self.watermark = Watermark(source_offset=self._tail.start_offset())
            self.watermark.model_ref = model_ref
            self.tracker = DriftTracker(attributes, drift_config)
            self.report = StreamReport(
                session.config.min_error_confidence, schema=session.schema
            )
            self.findings_path.parent.mkdir(parents=True, exist_ok=True)
            self._findings = open(self.findings_path, "wb")
        self._read_offset = self.watermark.source_offset

    def _resume(
        self,
        watermark: Watermark,
        drift_config: DriftConfig,
        attributes: list[str],
    ) -> None:
        """Pick up exactly where a previous (possibly killed) run stopped."""
        try:
            size = self.findings_path.stat().st_size
        except FileNotFoundError:
            size = -1
        if size < watermark.findings_bytes:
            raise InputError(
                f"cannot resume: {self.findings_path} holds {max(size, 0)} bytes "
                f"but the watermark covers {watermark.findings_bytes} "
                f"(the findings file was deleted or rewritten under the monitor)"
            )
        # findings past the watermark were never committed — a crash landed
        # between the findings append and the watermark write; drop them,
        # they will be regenerated identically
        self._findings = open(self.findings_path, "r+b")
        self._findings.truncate(watermark.findings_bytes)
        self._findings.seek(watermark.findings_bytes)
        findings = _load_findings_file(self.findings_path)
        if len(findings) != watermark.findings_rows:
            raise InputError(
                f"cannot resume: {self.findings_path} holds {len(findings)} findings "
                f"but the watermark records {watermark.findings_rows}"
            )
        self.watermark = watermark
        if watermark.model_ref:
            self.model_ref = watermark.model_ref
        self.tracker = (
            DriftTracker.from_dict(watermark.drift, attributes, drift_config)
            if watermark.drift
            else DriftTracker(attributes, drift_config)
        )
        self.report = StreamReport(
            self.session.config.min_error_confidence,
            schema=self.session.schema,
            n_rows=watermark.rows,
            findings=findings,
        )
        logger.info(
            "resumed at row %d (window %d, offset %d)",
            watermark.rows,
            watermark.windows,
            watermark.source_offset,
        )

    # -- polling -----------------------------------------------------------

    def poll(self) -> int:
        """Read newly-complete rows and commit every full window.

        Returns the number of rows read this poll (committed or still
        pending). Partial trailing records in the source are simply not
        returned by the tail reader yet — the next poll re-reads them.
        """
        rows = self._tail.read_new(self._read_offset)
        for cells, end_offset in rows:
            self._pending.append(cells)
            self._pending_offsets.append(end_offset)
        if rows:
            self._read_offset = rows[-1][1]
        while len(self._pending) >= self.window_rows:
            self._commit_window(self.window_rows)
        return len(rows)

    def flush(self) -> None:
        """Commit the pending partial window (catch-up mode only)."""
        if self._pending:
            self._commit_window(len(self._pending))

    def run(
        self,
        *,
        follow: bool = False,
        stop: Optional[threading.Event] = None,
    ) -> StreamReport:
        """Catch up with the source, or follow it until *stop* is set.

        Catch-up (the default) drains everything currently readable,
        audits the trailing partial window, and returns. Follow mode
        polls every ``poll_interval`` seconds and never flushes a
        partial window — stopping mid-stream leaves only whole-window
        state, so the next run resumes deterministically.
        """
        if follow:
            stop = stop or threading.Event()
            while not stop.is_set():
                self.poll()
                stop.wait(self.poll_interval)
        else:
            while self.poll():
                pass
            self.flush()
        return self.report

    # -- the durable commit ------------------------------------------------

    def _commit_window(self, n_rows: int) -> None:
        with self._lock:
            cells = self._pending[:n_rows]
            end_offset = self._pending_offsets[n_rows - 1]
            table = Table(self.session.schema, cells)
            report = self.session.audit(table).with_row_offset(self.watermark.rows)
            if self._buffer is not None:
                self._buffer.extend(cells)

            # 1. findings become durable
            text = _render_findings_jsonl(report.findings)
            data = text.encode("utf-8")
            if data:
                self._findings.write(data)
                self._findings.flush()
                os.fsync(self._findings.fileno())
            if self.emit is not None and text:
                self.emit(text)

            # 2. drift + refit decide the model the *next* window uses
            events = self.tracker.observe(n_rows, self._window_counts(report))
            for event in events:
                logger.warning(
                    "drift detected: attribute=%s window=%d direction=%s "
                    "score=%.4f rate=%.4f baseline=%.4f",
                    event.attribute,
                    event.window,
                    event.direction,
                    event.score,
                    event.window_rate,
                    event.baseline_rate,
                )
            if events:
                self._respond_to_drift(events)

            # 3. the watermark commits it all atomically
            self.watermark.rows += n_rows
            self.watermark.windows += 1
            self.watermark.source_offset = end_offset
            self.watermark.findings_bytes += len(data)
            self.watermark.findings_rows += len(report.findings)
            self.watermark.drift = self.tracker.to_dict()
            self.watermark.model_ref = self.model_ref
            self.watermark.save(self.state_path)

            del self._pending[:n_rows]
            del self._pending_offsets[:n_rows]
            self.report.extend(report)

    def _window_counts(self, report: AuditReport) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in report.findings:
            counts[finding.attribute] = counts.get(finding.attribute, 0) + 1
        return counts

    def _respond_to_drift(self, events: list[DriftEvent]) -> None:
        policy = self.refit
        if policy.mode == "off":
            return
        if policy.mode == "recommend":
            for event in events:
                self.watermark.refits.append(
                    refit_event_record(
                        event, mode="recommend", stream_rows=self.watermark.rows
                    )
                )
                logger.warning(
                    "refit recommended for attribute %s (run: repro fit … "
                    "--registry … --register %s)",
                    event.attribute,
                    policy.model_name or "<name>",
                )
            return
        # auto: one refit per window, on the first event — the tracker
        # reset below clears the other attributes' excursions anyway
        event = events[0]
        buffer = Table(self.session.schema, list(self._buffer or ()))
        if not buffer.rows:
            logger.warning("drift on %s but no rows buffered; skipping refit",
                           event.attribute)
            return
        new_session, version = perform_refit(
            policy,
            self.session,
            buffer,
            event,
            source=str(self.location),
            source_format=self.source_format or getattr(self._tail, "format", None),
            stream_rows=self.watermark.rows,
        )
        self.session = new_session
        self.model_ref = f"{version.name}@v{version.version}"
        self.tracker.reset()
        self.watermark.refits.append(
            refit_event_record(
                event,
                mode="auto",
                stream_rows=self.watermark.rows,
                model_ref=self.model_ref,
                digest=version.digest,
                fit_rows=len(buffer.rows),
            )
        )
        logger.warning(
            "auto-refit registered %s (digest %.12s, %d rows) after drift on %s",
            self.model_ref,
            version.digest,
            len(buffer.rows),
            event.attribute,
        )

    # -- introspection -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        """JSON-able snapshot for ``GET /monitors`` and the CLI."""
        with self._lock:
            return {
                "source": str(self.location),
                "format": self.source_format or getattr(self._tail, "format", "sqlite"),
                "model": self.model_ref,
                "rows": self.watermark.rows,
                "windows": self.watermark.windows,
                "window_rows": self.window_rows,
                "pending_rows": len(self._pending),
                "findings": self.watermark.findings_rows,
                "suspicious": self.report.n_suspicious,
                "source_offset": self.watermark.source_offset,
                "offset_kind": self._tail.offset_kind,
                "drift": self.tracker.stats(),
                "refit_mode": self.refit.mode,
                "refits": list(self.watermark.refits),
                "error": self.error,
            }

    def close(self) -> None:
        self._tail.close()
        try:
            self._findings.close()
        except AttributeError:  # construction failed before the file opened
            pass

    def __enter__(self) -> "TableWatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
