"""Durable monitor watermarks: exactly-once progress for a tailing audit.

A continuous monitor must survive being killed at any instruction and
resume without duplicating or dropping a single finding. The watermark
is the whole mechanism: one small JSON file, written atomically
(:func:`~repro.core.serialize.write_atomic`, the one temp file + fsync +
replace helper behind model files and the registry too), that records
how far the monitor has durably progressed:

* ``rows`` — stream-global rows consumed (committed audit windows only);
* ``source_offset`` — the position in the tailed source those rows end
  at (a byte offset for CSV/JSONL files, a rowid for SQLite tables);
* ``findings_bytes`` / ``findings_rows`` — the length of the findings
  JSONL file that belongs to those rows. On resume the findings file is
  truncated back to ``findings_bytes``, so findings appended after the
  last watermark (a crash between the findings append and the watermark
  write) are discarded and regenerated — the file ends up byte-identical
  to an uninterrupted run;
* ``windows`` — committed audit windows (the drift clock);
* ``model_ref`` — the concrete model version in use (auto-refit moves
  it, committed in the same watermark write as the window that
  triggered it);
* ``drift`` / ``refits`` — the serialized
  :class:`~repro.monitor.drift.DriftTracker` state and the refit /
  recommendation events, so drift detection also resumes exactly where
  it left off.

The commit order inside :class:`~repro.monitor.watcher.TableWatcher` is
*findings append → fsync → watermark replace*; the watermark therefore
never points past data that is not durably on disk.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.core.serialize import write_atomic
from repro.errors import decoding

__all__ = ["Watermark", "load_watermark"]

_STATE_FORMAT = "repro-monitor-state-v1"


@dataclass
class Watermark:
    """Durable progress of one monitored stream (see module docstring)."""

    rows: int = 0
    source_offset: int = 0
    findings_bytes: int = 0
    findings_rows: int = 0
    windows: int = 0
    model_ref: Optional[str] = None
    drift: dict = field(default_factory=dict)
    refits: list = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        # shallow: the drift state and refit list are shared, not deep
        # copied, since the dict is serialized at once on every commit
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["format"] = _STATE_FORMAT
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Watermark":
        if payload.get("format") != _STATE_FORMAT:
            raise ValueError(
                f"monitor state has unsupported format {payload.get('format')!r} "
                f"(expected {_STATE_FORMAT!r})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def save(self, path: Union[str, Path]) -> None:
        """Persist atomically — a reader (or a resumed monitor) sees the
        previous watermark or this one, never a torn file."""
        write_atomic(
            path,
            (json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n").encode(
                "utf-8"
            ),
        )


def load_watermark(path: Union[str, Path]) -> Optional[Watermark]:
    """Read a persisted watermark; ``None`` when no state file exists.

    A corrupt or foreign file raises :class:`~repro.errors.InputError`
    naming the path — resuming against a state file that is not a
    monitor watermark must be loud, not silently treated as a fresh
    start.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return None
    with decoding(f"{path} is not a valid monitor state file"):
        return Watermark.from_dict(json.loads(data.decode("utf-8")))
