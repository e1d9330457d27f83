"""The tree screen's soundness test, and the refusal of models without one.

A fitted tree compiles into one group alias (the leaf a row routes to)
plus one boolean *suspect* expression. A row is **suspect** when the
SQL side cannot certify that its Def.-7 error confidence for this
attribute stays below the configured threshold; suspect rows (and rows
with unclean storage, which the engine guards separately) are returned
to Python and re-audited through the exact in-memory code path. The
screen is deliberately a *sound over-approximation*: over-selection
costs only a little Python work, while under-selection would lose
findings — the tree's parity argument lives in
:mod:`repro.compile.tree`.

Every row the tree can certify lands in one of finitely many
*(leaf, observed-class)* cells whose exact confidence is precomputed
here with the very same vectorized primitives the in-memory audit runs
(:func:`repro.mining.confidence.error_confidence_batch` over the
leaves' count vectors), so the SQL ``IN`` filter and the in-memory
threshold test agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.mining.confidence import error_confidence_batch

__all__ = [
    "NotCompilable",
    "flagged_pair_keys",
    "pair_suspect_sql",
]


class NotCompilable(RuntimeError):
    """A fitted model (or audit configuration) has no SQL form.

    Raised by :func:`repro.compile.tree.compile_tree` and by
    :func:`repro.compile.engine.audit_connection`; callers fall back to
    the in-memory path (:meth:`DataAuditor.audit
    <repro.core.auditor.DataAuditor.audit>`).
    """


def flagged_pair_keys(
    probabilities: np.ndarray,
    support: np.ndarray,
    config,
) -> list[int]:
    """Keys ``group * n_labels + observed`` of every (group, observed)
    pair at or above the audit threshold.

    *probabilities* (``(n_groups, n_labels)``) and *support* must hold
    exactly the per-row values the classifier's ``predict_batch`` emits
    for rows of each group; the confidences then reproduce the
    in-memory audit bit for bit because
    :func:`~repro.mining.confidence.error_confidence_batch` is
    elementwise.
    """
    n_groups, n_labels = probabilities.shape
    keys: list[int] = []
    for observed in range(n_labels):
        confidences = error_confidence_batch(
            probabilities,
            support,
            np.full(n_groups, observed, dtype=np.int64),
            config.bounds,
        )
        for group in np.flatnonzero(
            confidences >= config.min_error_confidence
        ).tolist():
            keys.append(group * n_labels + observed)
    return sorted(keys)


def pair_suspect_sql(
    group_ref: str, obs_ref: str, n_labels: int, keys: list[int]
) -> str:
    """The finite-group suspect test: unroutable group (< 0) or a
    flagged (group, observed) pair."""
    if not keys:
        return f"{group_ref} < 0"
    in_list = ", ".join(str(key) for key in keys)
    return (
        f"({group_ref} < 0"
        f" OR {group_ref} * {n_labels} + {obs_ref} IN ({in_list}))"
    )
