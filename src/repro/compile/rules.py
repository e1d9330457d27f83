"""1R / PRISM → SQL compilation (disjunctive bucket conditions).

Both rule inducers predict from a finite family of count vectors keyed
by *bucket* indices (:func:`repro.compile.expressions.bucket_expr`
reproduces the ``_Bucketizer`` encoding in SQL):

* **1R** — the group is simply the chosen attribute's bucket; the count
  matrix is the fitted bucket table with empty buckets replaced by the
  global counts, exactly as
  :meth:`~repro.mining.rule_induction.OneRClassifier.predict_batch`
  does before normalizing.
* **PRISM** — the rules are replayed as one ``CASE`` chain in
  :meth:`~repro.mining.rule_induction.PrismClassifier.batch_rule_order`
  (precision desc, support desc, original index), each arm the
  conjunction of its ``bucket = k`` conditions over per-attribute
  bucket aliases; the ``ELSE`` arm is the global-counts group that
  claims unmatched rows.

**Parity argument.** Every clean row's prediction is a pure function of
its group's count vector; the per-group batch distributions are rebuilt
here through the same
:func:`~repro.mining.rule_induction._counts_to_batch` normalization the
classifiers call, so the precomputed *(group, observed)* confidence keys
match the in-memory audit bit for bit (see
:mod:`repro.compile.screen`).
"""

from __future__ import annotations

import numpy as np

from repro.compile.expressions import SqlBuilder, bucket_expr
from repro.compile.screen import (
    FamilyScreen,
    NotCompilable,
    flagged_pair_keys,
    pair_suspect_sql,
)
from repro.mining.rule_induction import _counts_to_batch

__all__ = ["compile_one_r", "compile_prism"]


def compile_one_r(
    builder: SqlBuilder, classifier, config, obs_ref: str, prefix: str
) -> FamilyScreen:
    """Compile a fitted :class:`~repro.mining.rule_induction.OneRClassifier`
    into a :class:`~repro.compile.screen.FamilyScreen`; its alias is
    ``prefix + "grp"``."""
    dataset = classifier.dataset
    if dataset is None or classifier.global_counts is None:
        raise NotCompilable("1R classifier is not fitted")
    labels = dataset.class_encoder.labels
    if classifier.attribute is None or classifier.bucket_counts is None:
        # degenerate model: every row predicts the global distribution
        counts = np.asarray(classifier.global_counts, dtype=float)[None, :]
        group_sql = "0"
    else:
        counts = np.asarray(classifier.bucket_counts, dtype=float).copy()
        empty = counts.sum(axis=1) <= 0
        counts[empty] = classifier.global_counts
        encoder = dataset.encoders[classifier.attribute]
        expr = bucket_expr(
            builder,
            encoder.attribute,
            encoder,
            classifier.bucket_discretizer(classifier.attribute),
        )
        # predict_batch clamps buckets into the fitted table
        group_sql = f"MIN({expr}, {counts.shape[0] - 1})"
    batch = _counts_to_batch(counts, labels)
    keys = flagged_pair_keys(batch.probabilities, batch.support, config)
    group = prefix + "grp"
    return FamilyScreen(
        suspect_sql=pair_suspect_sql(
            builder.dialect.quote(group), obs_ref, len(labels), keys
        ),
        levels=[[(group, group_sql)]],
    )


def compile_prism(
    builder: SqlBuilder, classifier, config, obs_ref: str, prefix: str
) -> FamilyScreen:
    """Compile a fitted :class:`~repro.mining.rule_induction.PrismClassifier`
    into a :class:`~repro.compile.screen.FamilyScreen`; its aliases are
    ``prefix + "b0"``, ``prefix + "b1"``, … and ``prefix + "grp"``."""
    dataset = classifier.dataset
    if dataset is None or classifier.global_counts is None:
        raise NotCompilable("PRISM classifier is not fitted")
    labels = dataset.class_encoder.labels
    # level 0: one bucket alias per attribute any rule conditions on
    used: list[str] = []
    for rule in classifier.rules:
        for name, _bucket in rule.conditions:
            if name not in used:
                used.append(name)
    bucket_aliases: list[tuple[str, str]] = []
    bucket_refs: dict[str, str] = {}
    for index, name in enumerate(used):
        encoder = dataset.encoders[name]
        alias = f"{prefix}b{index}"
        bucket_aliases.append(
            (
                alias,
                bucket_expr(
                    builder,
                    encoder.attribute,
                    encoder,
                    classifier.bucket_discretizer(name),
                ),
            )
        )
        bucket_refs[name] = builder.dialect.quote(alias)
    # level 1: the rule chain, first match wins in batch order
    counts_rows: list[np.ndarray] = []
    arms: list[str] = []
    for index in classifier.batch_rule_order():
        rule = classifier.rules[index]
        condition = " AND ".join(
            f"{bucket_refs[name]} = {bucket}" for name, bucket in rule.conditions
        )
        counts_rows.append(np.asarray(rule.counts, dtype=float))
        arms.append(f"WHEN {condition or '1'} THEN {len(counts_rows) - 1}")
    counts_rows.append(np.asarray(classifier.global_counts, dtype=float))
    default_group = len(counts_rows) - 1
    if arms:
        group_sql = "CASE " + " ".join(arms) + f" ELSE {default_group} END"
    else:
        group_sql = str(default_group)
    batch = _counts_to_batch(np.vstack(counts_rows), labels)
    keys = flagged_pair_keys(batch.probabilities, batch.support, config)
    group = prefix + "grp"
    levels = [[(group, group_sql)]]
    if bucket_aliases:
        levels = [bucket_aliases, [(group, group_sql)]]
    return FamilyScreen(
        suspect_sql=pair_suspect_sql(
            builder.dialect.quote(group), obs_ref, len(labels), keys
        ),
        levels=levels,
    )
