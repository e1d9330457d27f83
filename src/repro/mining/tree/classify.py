"""Distribution-valued classification with missing-value blending.

Sec. 5.2: *"The prediction of a decision tree is based on one or more (in
the presence of null values) leaves. Based on the class distributions of
the instance sets these leaves are labelled with, one can easily extend
the prediction of a decision tree to the calculation of a class
distribution."*

Records whose split value is missing — or carries a category unseen at
training time — are routed down *all* branches; per C4.5, the resulting
class distribution is the convex combination of the branch distributions
weighted by the branches' training fractions (so blending over a
complete split reproduces the node's own class distribution). The support
``n`` backing Def. 7's error confidence is combined the same way —
the expected support of the leaf the record would have reached.

:func:`predict_distribution_batch` walks the tree once per batch; the
few records that must blend take a scalar walk from the node where they
blend. The recursive per-record walk in ``tests/reference_lanes.py`` is
the oracle both are pinned to.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.mining.tree.node import Leaf, Node, NominalSplit, NumericSplit

__all__ = ["predict_distribution_batch"]


def _predict_row(
    node: Node, columns: Mapping[str, np.ndarray], row: int
) -> tuple[np.ndarray, float]:
    """``(probabilities, n)`` of encoded record *row*, walked from *node*.

    ``n`` is the (fraction-weighted) number of training instances the
    prediction is based on.
    """
    if isinstance(node, Leaf):
        n = node.n
        if n <= 0:
            size = max(len(node.counts), 1)
            return np.full(len(node.counts), 1.0 / size), 0.0
        return node.counts / n, n
    if isinstance(node, NominalSplit):
        code = int(columns[node.attribute][row])
        if code >= 0:
            child = node.branches.get(code)
            if child is not None:
                return _predict_row(child, columns, row)
        pairs = [
            (node.fractions[branch_code], _predict_row(child, columns, row))
            for branch_code, child in node.branches.items()
        ]
        return _blend(pairs, len(node.counts))
    if isinstance(node, NumericSplit):
        value = float(columns[node.attribute][row])
        if math.isnan(value):
            pairs = [
                (node.low_fraction, _predict_row(node.low, columns, row)),
                (1.0 - node.low_fraction, _predict_row(node.high, columns, row)),
            ]
            return _blend(pairs, len(node.counts))
        branch = node.low if value <= node.threshold else node.high
        return _predict_row(branch, columns, row)
    raise TypeError(f"unknown node type: {type(node).__name__}")


def _blend(
    pairs: list[tuple[float, tuple[np.ndarray, float]]], n_labels: int
) -> tuple[np.ndarray, float]:
    """Convex combination of branch (distribution, support) pairs."""
    distribution = np.zeros(n_labels, dtype=float)
    support = 0.0
    total_fraction = 0.0
    for fraction, (branch_distribution, branch_support) in pairs:
        distribution += fraction * branch_distribution
        support += fraction * branch_support
        total_fraction += fraction
    if total_fraction > 0:
        distribution = distribution / total_fraction
        support = support / total_fraction
    return distribution, support


def predict_distribution_batch(
    root: Node, columns: Mapping[str, np.ndarray], n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(probabilities, support)`` of every record of encoded columns.

    Returns shapes ``(n_rows, n_labels)`` and ``(n_rows,)``. The tree is
    walked iteratively with a frontier of ``(node, row_indices)`` work
    items, so each node's split column is touched once per reachable row
    set instead of once per record. Records that need C4.5
    fractional-instance blending (missing split value, or a category
    without a trained branch) are rare; each takes :func:`_predict_row`
    from the node where it blends, whose scalar arithmetic keeps the
    confidences identical to a per-record walk from the root. Blending
    inside the frontier instead costs more than it saves: blend groups
    are small, and the frontier pays one mask per branch where the
    scalar walk pays one dict lookup.
    """
    n_labels = len(root.counts)
    probabilities = np.empty((n_rows, n_labels), dtype=float)
    support = np.empty(n_rows, dtype=float)
    blended: list[tuple[Node, np.ndarray]] = []
    frontier: list[tuple[Node, np.ndarray]] = [(root, np.arange(n_rows, dtype=np.intp))]
    while frontier:
        node, rows = frontier.pop()
        if rows.size == 0:
            continue
        if isinstance(node, Leaf):
            n = node.n
            if n <= 0:
                size = max(n_labels, 1)
                probabilities[rows] = np.full(n_labels, 1.0 / size)
                support[rows] = 0.0
            else:
                probabilities[rows] = node.counts / n
                support[rows] = n
        elif isinstance(node, NominalSplit):
            codes = columns[node.attribute][rows]
            routed = np.zeros(rows.size, dtype=bool)
            for branch_code, child in node.branches.items():
                if branch_code < 0:
                    continue
                mask = codes == branch_code
                if mask.any():
                    frontier.append((child, rows[mask]))
                    routed |= mask
            if not routed.all():
                blended.append((node, rows[~routed]))
        elif isinstance(node, NumericSplit):
            values = columns[node.attribute][rows]
            missing = np.isnan(values)
            low = values <= node.threshold
            frontier.append((node.low, rows[low & ~missing]))
            frontier.append((node.high, rows[~low & ~missing]))
            if missing.any():
                blended.append((node, rows[missing]))
        else:
            raise TypeError(f"unknown node type: {type(node).__name__}")
    for node, rows in blended:
        for row in rows.tolist():
            probabilities[row], support[row] = _predict_row(node, columns, row)
    return probabilities, support
