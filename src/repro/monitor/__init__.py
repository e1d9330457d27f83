"""Continuous auditing: tail a growing table, audit incrementally,
detect drift, refit from the registry.

The paper embeds auditing inside warehouse *loading* — an ongoing
activity, not a batch job. This package makes that a first-class online
scenario on top of the batch engine:

* :mod:`repro.monitor.tail` — bounded, resumable readers of growing
  CSV/JSONL files (byte offsets, torn-tail safe) and SQLite tables (rowids);
* :mod:`repro.monitor.watermark` — durable exactly-once progress
  (atomic state file + findings-file truncation on resume);
* :mod:`repro.monitor.watcher` — the :class:`TableWatcher` engine, whose
  runs return the cumulative :class:`~repro.core.findings.StreamReport`;
* :mod:`repro.monitor.drift` — per-attribute finding-rate drift with
  Wilson intervals;
* :mod:`repro.monitor.refit` — drift responses, up to automatic refit
  registered to :mod:`repro.registry` with ``trigger=drift`` provenance.

Entry points: ``AuditSession.monitor(...)``, the ``repro monitor`` CLI
command, and the audit service's ``/monitors`` endpoints.
"""

from .drift import DriftConfig, DriftEvent, DriftTracker
from .refit import RefitPolicy, perform_refit
from .tail import (
    SqliteTailReader,
    TailReader,
    TextTailReader,
    open_tail,
    split_records,
)
from .watcher import TableWatcher
from .watermark import Watermark, load_watermark

__all__ = [
    "DriftConfig",
    "DriftEvent",
    "DriftTracker",
    "RefitPolicy",
    "SqliteTailReader",
    "TableWatcher",
    "TailReader",
    "TextTailReader",
    "Watermark",
    "load_watermark",
    "open_tail",
    "perform_refit",
    "split_records",
]
