"""The paper's primary contribution: the data auditing tool.

Multiple classification / regression auditor (sec. 5), error-confidence
measures (Defs. 7–9), ranked findings and correction proposals
(sec. 5.2–5.3), structure model, model persistence, the streaming
:class:`~repro.core.session.AuditSession` facade for the asynchronous
warehouse-loading workflow (sec. 2.2), and the per-attribute fit fan-out
(:mod:`repro.core.parallel`) behind ``AuditorConfig.fit_n_jobs``.
"""

from repro.core.auditor import AuditorConfig, ColumnCache, DataAuditor
from repro.core.confidence import (
    error_confidence,
    error_confidence_batch,
    error_confidence_from_counts,
    expected_error_confidence,
    min_instances_for_confidence,
    record_error_confidence,
)
from repro.core.findings import (
    AuditReport,
    Correction,
    Finding,
    StreamReport,
    findings_schema,
    findings_to_table,
    rank_key,
)
from repro.core.parallel import resolve_n_jobs
from repro.core.review import Decision, DecisionKind, ReviewItem, ReviewSession
from repro.core.serialize import (
    auditor_from_dict,
    auditor_to_dict,
    load_auditor,
    save_auditor,
)
from repro.core.session import AuditSession, ModelPersistenceError

__all__ = [
    "DataAuditor",
    "AuditorConfig",
    "ColumnCache",
    "AuditSession",
    "ModelPersistenceError",
    "AuditReport",
    "StreamReport",
    "rank_key",
    "resolve_n_jobs",
    "Finding",
    "findings_schema",
    "findings_to_table",
    "Correction",
    "error_confidence",
    "error_confidence_batch",
    "error_confidence_from_counts",
    "expected_error_confidence",
    "min_instances_for_confidence",
    "record_error_confidence",
    "auditor_to_dict",
    "auditor_from_dict",
    "save_auditor",
    "load_auditor",
    "ReviewSession",
    "ReviewItem",
    "Decision",
    "DecisionKind",
]
