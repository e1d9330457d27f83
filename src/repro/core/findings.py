"""Audit findings: suspicious cells, record rankings, and corrections.

Sec. 5.2–5.3: each classifier contributes an error confidence per record;
the record's overall error confidence is the maximum (Def. 8); suspicious
records are ranked by it (the QUIS case study: "These records were ranked
according to their associated error confidence"); and the correction
proposal replaces the suspicious value "according to the prediction of the
classifier with the highest error confidence".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.schema.attribute import numeric, text
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.schema.types import Value

__all__ = [
    "Finding",
    "Correction",
    "AuditReport",
    "StreamReport",
    "rank_key",
    "findings_schema",
    "findings_to_table",
]


@dataclass(frozen=True)
class Finding:
    """One classifier's deviation verdict for one record."""

    row: int
    attribute: str
    observed_label: str
    observed_value: Value
    predicted_label: str
    confidence: float
    support: float
    proposal: Value

    def describe(self) -> str:
        return (
            f"row {self.row}: {self.attribute} = {self.observed_value!r} "
            f"deviates (expected {self.predicted_label}, "
            f"confidence {self.confidence:.2%}, n={self.support:g})"
        )


def rank_key(finding: Finding) -> tuple[float, int, str]:
    """The one findings order: descending confidence, then row, then
    attribute. Every ranked output (the library's reports, ``repro
    audit``, ``POST /audit`` and the monitor) sorts by this key, which is
    what makes their findings byte-identical."""
    return (-finding.confidence, finding.row, finding.attribute)


@dataclass(frozen=True)
class Correction:
    """The proposed replacement for one suspicious record (sec. 5.3)."""

    row: int
    attribute: str
    old_value: Value
    new_value: Value
    confidence: float


def findings_schema() -> Schema:
    """The relational shape of a findings export.

    Findings are themselves table-shaped, so they flow through the same
    storage backends (:mod:`repro.io`) as the data they describe — one
    code path writes findings as CSV, JSONL, or a SQLite table. String
    columns use :class:`~repro.schema.domain.TextDomain` (open
    vocabulary); ``observed`` and ``proposal`` are the canonical text
    forms of the cell values (null stays null).
    """
    return Schema(
        [
            numeric("row", 0, 2**63 - 1, integer=True, nullable=False),
            text("attribute", nullable=False),
            text("observed"),
            text("observed_label", nullable=False),
            text("expected", nullable=False),
            numeric("confidence", 0.0, 1.0, nullable=False),
            numeric("support", 0.0, float("1e308")),
            text("proposal"),
        ]
    )


def _value_text(value: Value) -> Optional[str]:
    return None if value is None else str(value)


def findings_to_table(findings: Iterable[Finding]) -> Table:
    """Materialize findings as a :class:`Table` of :func:`findings_schema`.

    The bridge between audit reports and the pluggable storage layer:
    ``repro audit --findings-out x.jsonl`` is
    ``write_table(findings_to_table(...), "x.jsonl")``.
    """
    table = Table(findings_schema())
    for finding in findings:
        table.rows.append(
            [
                finding.row,
                finding.attribute,
                _value_text(finding.observed_value),
                finding.observed_label,
                finding.predicted_label,
                finding.confidence,
                finding.support,
                _value_text(finding.proposal),
            ]
        )
    return table


class AuditReport:
    """Outcome of one deviation-detection run.

    Contains *all* findings above the auditor's minimal error confidence,
    plus the Def. 8 record confidences for every row (zero for records no
    classifier objected to).
    """

    def __init__(
        self,
        n_rows: int,
        findings: Iterable[Finding],
        record_confidence: Sequence[float],
        min_error_confidence: float,
        row_offset: int = 0,
        *,
        schema: Optional[Schema] = None,
    ):
        self.n_rows = n_rows
        self.findings: list[Finding] = sorted(findings, key=rank_key)
        self.record_confidence = list(record_confidence)
        if len(self.record_confidence) != n_rows:
            raise ValueError("record_confidence must cover every row")
        self.min_error_confidence = min_error_confidence
        #: index of this report's first row within the audited stream —
        #: non-zero for the incremental chunk reports of
        #: :meth:`AuditSession.audit_chunks
        #: <repro.core.session.AuditSession.audit_chunks>`, whose finding
        #: rows are stream-global while ``record_confidence`` still covers
        #: only the chunk's own ``n_rows`` records
        self.row_offset = row_offset
        #: schema of the audited table when the report came out of a
        #: :class:`~repro.core.auditor.DataAuditor` (None for hand-built
        #: reports); :meth:`merge` refuses to concatenate reports whose
        #: schemas differ
        self.schema = schema
        self._by_row: dict[int, list[Finding]] = {}
        for finding in self.findings:
            self._by_row.setdefault(finding.row, []).append(finding)

    # -- queries -----------------------------------------------------------

    @property
    def n_suspicious(self) -> int:
        return len(self._by_row)

    def confidence_of(self, row: int) -> float:
        """The Def.-8 record confidence of one (stream-global) row."""
        index = row - self.row_offset
        if index < 0:  # guard Python's negative indexing: loud, not wrong
            raise IndexError(
                f"row {row} precedes this report's rows "
                f"[{self.row_offset}, {self.row_offset + self.n_rows})"
            )
        return self.record_confidence[index]

    def suspicious_rows(self) -> list[int]:
        """Rows flagged at the configured minimal error confidence, ranked
        by descending record confidence."""
        return sorted(
            self._by_row, key=lambda row: (-self.confidence_of(row), row)
        )

    def is_flagged(self, row: int) -> bool:
        return row in self._by_row

    def findings_for_row(self, row: int) -> list[Finding]:
        """All deviations of one record (useful in interactive correction:
        "the predicted distributions of all classifiers that indicate a
        data error can be useful in finding the true reason")."""
        return list(self._by_row.get(row, ()))

    def ranked_findings(self, limit: Optional[int] = None) -> list[Finding]:
        """Findings sorted by descending confidence."""
        return self.findings[: limit if limit is not None else len(self.findings)]

    # -- composition (streaming audits) -----------------------------------

    def with_row_offset(self, offset: int) -> "AuditReport":
        """A copy with all row indices shifted by *offset* — how a chunked
        audit (see :class:`~repro.core.session.AuditSession`) maps
        chunk-local rows to their global position in the stream."""
        if offset == 0:
            return self
        # positional construction: dataclasses.replace would introspect
        # the fields once per finding
        findings = [
            Finding(
                f.row + offset,
                f.attribute,
                f.observed_label,
                f.observed_value,
                f.predicted_label,
                f.confidence,
                f.support,
                f.proposal,
            )
            for f in self.findings
        ]
        return AuditReport(
            self.n_rows,
            findings,
            self.record_confidence,
            self.min_error_confidence,
            row_offset=self.row_offset + offset,
            schema=self.schema,
        )

    @classmethod
    def merge(cls, reports: Sequence["AuditReport"]) -> "AuditReport":
        """Combine incremental chunk reports into one whole-stream report.

        The inputs must share one minimal error confidence, come from one
        schema (reports that carry a schema and disagree are rejected —
        silently concatenating audits of different relations would
        produce a report whose findings mix vocabularies), and form a
        contiguous stream (each report's :attr:`row_offset` continues
        where the previous one ended) — exactly what
        :meth:`AuditSession.audit_chunks <repro.core.session.AuditSession.audit_chunks>`
        yields, in order. Merging the chunk reports of any chunking of a
        table reproduces the whole-table audit exactly: findings, ranking,
        and record confidences.
        """
        reports = list(reports)
        if not reports:
            raise ValueError("cannot merge an empty sequence of reports")
        threshold = reports[0].min_error_confidence
        if any(r.min_error_confidence != threshold for r in reports):
            raise ValueError("cannot merge reports with different thresholds")
        schema: Optional[Schema] = None
        for report in reports:
            if report.schema is None:
                continue
            if schema is None:
                schema = report.schema
            elif report.schema != schema:
                raise ValueError(
                    f"cannot merge audit reports of different schemas: "
                    f"{list(schema.names)!r} vs {list(report.schema.names)!r} "
                    f"(chunks of one stream must come from one relation)"
                )
        expected_offset = reports[0].row_offset
        findings: list[Finding] = []
        record_confidence: list[float] = []
        for report in reports:
            if report.row_offset != expected_offset:
                raise ValueError(
                    f"reports are not stream-contiguous: expected a chunk "
                    f"starting at row {expected_offset}, got {report.row_offset} "
                    f"(shift chunk reports with with_row_offset first)"
                )
            findings.extend(report.findings)
            record_confidence.extend(report.record_confidence)
            expected_offset += report.n_rows
        return cls(
            len(record_confidence),
            findings,
            record_confidence,
            threshold,
            row_offset=reports[0].row_offset,
            schema=schema,
        )

    # -- corrections (sec. 5.3) ------------------------------------------------

    def corrections(self) -> list[Correction]:
        """One proposal per suspicious record: the prediction of the
        classifier with the highest error confidence."""
        proposals = []
        for row, row_findings in sorted(self._by_row.items()):
            best = max(row_findings, key=lambda f: f.confidence)
            proposals.append(
                Correction(
                    row=row,
                    attribute=best.attribute,
                    old_value=best.observed_value,
                    new_value=best.proposal,
                    confidence=best.confidence,
                )
            )
        return proposals

    def apply_corrections(self, table: Table) -> Table:
        """A copy of *table* with all proposals applied.

        Findings that do not address a real column (record-level detectors
        such as LOF report a pseudo-attribute) are skipped — they carry no
        cell proposal.
        """
        corrected = table.copy()
        for correction in self.corrections():
            if correction.attribute not in table.schema:
                continue
            corrected.set_cell(correction.row, correction.attribute, correction.new_value)
        return corrected

    def __repr__(self) -> str:
        return (
            f"AuditReport(rows={self.n_rows}, findings={len(self.findings)}, "
            f"suspicious={self.n_suspicious}, "
            f"min_conf={self.min_error_confidence:.0%})"
        )


class StreamReport:
    """The findings of a stream audited one report at a time.

    ``repro audit``, ``POST /audit`` and the monitor :meth:`extend` it
    with each chunk or window report, in stream order. It keeps no
    per-row record confidences, so its memory grows with the findings,
    not the rows; :meth:`ranked_findings` equals the whole-table audit's
    ranking of the same rows. A resumed monitor seeds it with ``n_rows``
    and the persisted ``findings``.
    """

    def __init__(
        self,
        min_error_confidence: float,
        *,
        schema: Optional[Schema] = None,
        n_rows: int = 0,
        findings: Iterable[Finding] = (),
    ):
        self.min_error_confidence = min_error_confidence
        self.schema = schema
        self.n_rows = n_rows
        self.findings: list[Finding] = list(findings)  #: stream order
        #: distinct flagged rows (Def.-8 suspicious records)
        self.n_suspicious = len({finding.row for finding in self.findings})

    def extend(self, report: AuditReport) -> None:
        """Append the report of the stream's next rows."""
        if report.min_error_confidence != self.min_error_confidence:
            raise ValueError("report has a different confidence threshold")
        if report.row_offset != self.n_rows:
            raise ValueError(
                f"report is not stream-contiguous: expected rows from "
                f"{self.n_rows}, got row_offset={report.row_offset}"
            )
        self.findings.extend(report.findings)
        self.n_rows += report.n_rows
        # reports cover disjoint rows, so their flagged rows simply add up
        self.n_suspicious += report.n_suspicious

    @property
    def n_findings(self) -> int:
        return len(self.findings)

    def ranked_findings(self, limit: Optional[int] = None) -> list[Finding]:
        """All findings ranked globally, by :func:`rank_key`."""
        ranked = sorted(self.findings, key=rank_key)
        return ranked if limit is None else ranked[:limit]

    def __repr__(self) -> str:
        return (
            f"StreamReport(rows={self.n_rows}, findings={self.n_findings}, "
            f"suspicious={self.n_suspicious})"
        )
