"""Ground-truth logging of controlled data corruption (sec. 4.2).

The test environment "pollutes this data in a controlled and logged
procedure" and later "compar[es] the deviations of the dirty from the
clean database with the detected errors". The :class:`PollutionLog` is that
record of truth: every cell change, duplication, and deletion is appended
by the polluters, and the evaluation metrics (sec. 4.3) are computed
against it.

Because the duplicator may insert and delete whole rows, *dirty* row
indices drift away from *clean* row indices; :class:`RowOrigin` tracks the
mapping so cell changes can always be attributed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import decoding
from repro.schema.types import Value

__all__ = ["CellChange", "RowEvent", "RowEventKind", "PollutionLog"]


@dataclass(frozen=True)
class CellChange:
    """One corrupted cell, addressed by *dirty-table* row index."""

    row: int
    attribute: str
    before: Value
    after: Value
    polluter: str

    def is_effective(self) -> bool:
        """Whether the change altered the value at all."""
        return self.before != self.after


class RowEventKind(enum.Enum):
    """Whole-row corruption kinds of the duplicator component."""

    DUPLICATED = "duplicated"
    DELETED = "deleted"


@dataclass(frozen=True)
class RowEvent:
    """A whole-row corruption event.

    For ``DUPLICATED``, *row* is the dirty-table index of the inserted
    copy and *source_row* the dirty-table index of the original at the
    time of insertion. For ``DELETED``, *row* is the dirty-table index the
    row had immediately before removal (subsequent indices shift down).
    """

    kind: RowEventKind
    row: int
    polluter: str
    source_row: Optional[int] = None


class PollutionLog:
    """Append-only record of all corruption applied to one table.

    When constructed with the clean table's row count (the pipeline does
    this), the log also maintains ``row_origins``: for every *dirty* row
    the index of the clean row it descends from, or ``None`` for rows
    inserted by the duplicator. The evaluation metrics use this mapping to
    compare dirty rows with their clean counterparts even after structural
    changes.
    """

    def __init__(self, n_rows: Optional[int] = None) -> None:
        self.cell_changes: list[CellChange] = []
        self.row_events: list[RowEvent] = []
        self.row_origins: Optional[list[Optional[int]]] = (
            list(range(n_rows)) if n_rows is not None else None
        )

    # -- recording (used by polluters) ---------------------------------------

    def record_cell(
        self, row: int, attribute: str, before: Value, after: Value, polluter: str
    ) -> None:
        """Log one cell overwrite (no-op changes are dropped)."""
        change = CellChange(row, attribute, before, after, polluter)
        if change.is_effective():
            self.cell_changes.append(change)

    def record_duplicate(self, new_row: int, source_row: int, polluter: str) -> None:
        self.row_events.append(
            RowEvent(RowEventKind.DUPLICATED, new_row, polluter, source_row)
        )
        if self.row_origins is not None:
            self.row_origins.insert(new_row, None)

    def record_delete(self, row: int, polluter: str) -> None:
        self.row_events.append(RowEvent(RowEventKind.DELETED, row, polluter))
        if self.row_origins is not None:
            self.row_origins.pop(row)

    # -- shifting on structural changes ---------------------------------------

    def shift_rows_from(self, start: int, delta: int) -> None:
        """Re-index logged cell changes and duplicate markers at or above
        *start* by *delta* (called by the pipeline when rows are inserted
        or removed)."""
        self.cell_changes = [
            CellChange(
                c.row + delta if c.row >= start else c.row,
                c.attribute,
                c.before,
                c.after,
                c.polluter,
            )
            for c in self.cell_changes
        ]
        shifted_events: list[RowEvent] = []
        for event in self.row_events:
            if event.kind is RowEventKind.DUPLICATED and event.row >= start:
                shifted_events.append(
                    RowEvent(event.kind, event.row + delta, event.polluter, event.source_row)
                )
            else:
                shifted_events.append(event)
        self.row_events = shifted_events

    # -- queries (used by the evaluation) --------------------------------------

    @property
    def n_cell_changes(self) -> int:
        return len(self.cell_changes)

    @property
    def n_deleted(self) -> int:
        return sum(1 for e in self.row_events if e.kind is RowEventKind.DELETED)

    @property
    def n_duplicated(self) -> int:
        return sum(1 for e in self.row_events if e.kind is RowEventKind.DUPLICATED)

    def net_cell_changes(self) -> dict[tuple[int, str], tuple[Value, Value]]:
        """Net (original, final) value per touched cell.

        Several polluters may hit the same cell; a later change can even
        restore the original value (e.g. a switcher swapping back what the
        wrong-value polluter wrote). Ground truth must reflect the *net*
        effect — cells whose chain of changes cancels out are not errors.
        """
        first_before: dict[tuple[int, str], Value] = {}
        last_after: dict[tuple[int, str], Value] = {}
        for change in self.cell_changes:
            key = (change.row, change.attribute)
            if key not in first_before:
                first_before[key] = change.before
            last_after[key] = change.after
        return {
            key: (first_before[key], last_after[key])
            for key in first_before
            if first_before[key] != last_after[key]
        }

    def corrupted_rows(self) -> set[int]:
        """Dirty-table row indices that carry at least one corruption
        (net-changed cell or inserted duplicate). Deleted rows no longer
        exist in the dirty table and are *not* included."""
        rows = {row for row, _ in self.net_cell_changes()}
        if self.row_origins is not None:
            rows.update(
                index for index, origin in enumerate(self.row_origins) if origin is None
            )
        else:
            rows.update(
                event.row
                for event in self.row_events
                if event.kind is RowEventKind.DUPLICATED
            )
        return rows

    def corrupted_cells(self) -> set[tuple[int, str]]:
        """(dirty row index, attribute) pairs of all net-changed cells."""
        return set(self.net_cell_changes())

    def changes_by_row(self) -> dict[int, list[CellChange]]:
        """Raw cell-change events grouped by dirty row index (events, not
        net effects — see :meth:`net_cell_changes`)."""
        grouped: dict[int, list[CellChange]] = {}
        for change in self.cell_changes:
            grouped.setdefault(change.row, []).append(change)
        return grouped

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible representation (for the CLI / archival)."""
        from repro.schema.values import value_to_json

        return {
            "cell_changes": [
                {
                    "row": change.row,
                    "attribute": change.attribute,
                    "before": value_to_json(change.before),
                    "after": value_to_json(change.after),
                    "polluter": change.polluter,
                }
                for change in self.cell_changes
            ],
            "row_events": [
                {
                    "kind": event.kind.value,
                    "row": event.row,
                    "polluter": event.polluter,
                    "source_row": event.source_row,
                }
                for event in self.row_events
            ],
            "row_origins": self.row_origins,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PollutionLog":
        """Inverse of :meth:`to_dict`; a document it cannot decode raises
        :class:`~repro.errors.InputError` (``"invalid pollution log: …"``)."""
        from repro.schema.values import value_from_json

        log = cls()
        with decoding("invalid pollution log"):
            log.cell_changes = [
                CellChange(
                    entry["row"],
                    entry["attribute"],
                    value_from_json(entry["before"]),
                    value_from_json(entry["after"]),
                    entry["polluter"],
                )
                for entry in payload.get("cell_changes", [])
            ]
            log.row_events = [
                RowEvent(
                    RowEventKind(entry["kind"]),
                    entry["row"],
                    entry["polluter"],
                    entry.get("source_row"),
                )
                for entry in payload.get("row_events", [])
            ]
            origins = payload.get("row_origins")
            log.row_origins = list(origins) if origins is not None else None
        return log

    def __repr__(self) -> str:
        return (
            f"PollutionLog(cells={self.n_cell_changes}, "
            f"duplicated={self.n_duplicated}, deleted={self.n_deleted})"
        )
