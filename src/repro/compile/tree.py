"""Decision-tree → SQL compilation (path-by-path ``CASE`` routing).

A fitted tree partitions the cleanly-routable rows into its leaves: a
nested ``CASE`` expression walks the splits exactly as
:func:`repro.mining.tree.classify.predict_distribution_batch` does —
nominal splits compare the raw cell against the trained branch values
(out-of-domain cells take the *unknown* branch when one was trained),
numeric splits compare against the bound threshold — and yields the
leaf index, or ``-1`` for any row the batch path would *blend* (null
split value, or a category without a trained branch).

**Parity argument.** A cleanly-routed row's prediction is exactly its
leaf's distribution ``counts / n`` with support ``n``; both are
functions of the leaf alone. The per-leaf × per-observed-class error
confidences are therefore finite and precomputed here with the same
vectorized primitives the audit runs, so the SQL ``IN`` filter over
``(leaf, observed)`` keys reproduces the in-memory threshold test bit
for bit. Blended rows (``-1``) and rows with unclean storage are
handed to the Python re-check, which runs the unmodified batch code.
"""

from __future__ import annotations

import numpy as np

from repro.compile.expressions import SqlBuilder, value_le_expr
from repro.compile.screen import NotCompilable, flagged_pair_keys, pair_suspect_sql
from repro.mining.tree.node import Leaf, NominalSplit, Node, NumericSplit

__all__ = ["compile_tree"]


def compile_tree(
    builder: SqlBuilder, classifier, config, obs_ref: str, group_ref: str
) -> tuple[str, str]:
    """Compile a fitted :class:`~repro.mining.tree_classifier.TreeClassifier`
    into its screen: ``(group SQL, suspect SQL)``.

    The group SQL routes a row to its leaf index (``-1`` when the batch
    path would blend); the engine selects it as the alias *group_ref*
    names, beside the observed class code *obs_ref* names, and the
    suspect SQL tests the pair of the two."""
    root = classifier.root
    dataset = classifier.dataset
    if root is None or dataset is None:
        raise NotCompilable("tree classifier is not fitted")
    if root.depth() * 2 > builder.dialect.max_expression_depth:
        raise NotCompilable(
            f"tree depth {root.depth()} exceeds the dialect's expression "
            f"nesting budget"
        )
    counts_rows: list[np.ndarray] = []

    def node_expr(node: Node) -> str:
        if isinstance(node, Leaf):
            counts_rows.append(np.asarray(node.counts, dtype=float))
            return str(len(counts_rows) - 1)
        if isinstance(node, NominalSplit):
            encoder = dataset.encoders.get(node.attribute)
            if encoder is None or not encoder.categorical:
                raise NotCompilable(
                    f"nominal split on non-categorical attribute "
                    f"{node.attribute!r}"
                )
            col = builder.col(node.attribute)
            arms = [f"WHEN {col} IS NULL THEN -1"]
            for code, value in enumerate(encoder.attribute.domain.values):  # type: ignore[attr-defined]
                child = node.branches.get(code)
                target = node_expr(child) if child is not None else "-1"
                arms.append(f"WHEN {col} = {builder.bind(value)} THEN {target}")
            unknown_child = node.branches.get(encoder.unknown_code)
            else_target = (
                node_expr(unknown_child) if unknown_child is not None else "-1"
            )
            return "CASE " + " ".join(arms) + f" ELSE {else_target} END"
        if isinstance(node, NumericSplit):
            encoder = dataset.encoders.get(node.attribute)
            if encoder is None or encoder.categorical:
                raise NotCompilable(
                    f"numeric split on non-ordered attribute {node.attribute!r}"
                )
            col = builder.col(node.attribute)
            condition = value_le_expr(builder, encoder.attribute, node.threshold)
            return (
                f"CASE WHEN {col} IS NULL THEN -1"
                f" WHEN {condition} THEN {node_expr(node.low)}"
                f" ELSE {node_expr(node.high)} END"
            )
        raise NotCompilable(f"unknown tree node type {type(node).__name__}")

    group_sql = node_expr(root)
    n_labels = len(dataset.class_encoder.labels)
    probabilities = np.empty((len(counts_rows), n_labels), dtype=float)
    support = np.empty(len(counts_rows), dtype=float)
    # mirror the Leaf handling of predict_distribution_batch exactly
    for index, counts in enumerate(counts_rows):
        n = float(counts.sum())
        if n <= 0:
            probabilities[index] = np.full(n_labels, 1.0 / max(n_labels, 1))
            support[index] = 0.0
        else:
            probabilities[index] = counts / n
            support[index] = n
    keys = flagged_pair_keys(probabilities, support, config)
    return group_sql, pair_suspect_sql(group_ref, obs_ref, n_labels, keys)
