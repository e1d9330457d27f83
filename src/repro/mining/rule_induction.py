"""Classification-rule inducers — the remaining sec. 5 alternatives.

* :class:`OneRClassifier` — Holte's 1R: the single best attribute,
  bucketed (nominal codes / equal-frequency bins), predicting each
  bucket's majority class. A deliberately weak baseline.
* :class:`PrismClassifier` — Cendrowska's PRISM covering algorithm: for
  every class, greedily grown conjunctive rules of maximal precision.
  Representative of the "classification rule inducers" family the paper
  examined.

Both report the covered-bucket / covered-rule training support as ``n``
for the error confidence.

Both fit paths run on NumPy aggregation: 1R scores attributes through one
``np.bincount`` joint table each, and PRISM's rule growth scores every
(attribute, bucket) condition from per-attribute bincounts instead of a
per-bucket mask loop — bit-identical to the scalar formulation (see
``_grow_rule``), pinned by the fit-parity property suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.mining.base import AttributeClassifier, BatchPrediction, batch_length
from repro.mining.dataset import Dataset
from repro.mining.discretize import EqualFrequencyDiscretizer

__all__ = ["OneRClassifier", "PrismClassifier", "PrismRule"]


class _Bucketizer:
    """Shared encoding of base attributes into small bucket indices."""

    def __init__(self, dataset: Dataset, n_bins: int):
        self.dataset = dataset
        self.n_bins = n_bins
        self.discretizers: dict[str, EqualFrequencyDiscretizer] = {}
        self.n_buckets: dict[str, int] = {}
        self.buckets: dict[str, np.ndarray] = {}
        for name in dataset.base_attrs:
            encoder = dataset.encoders[name]
            column = dataset.columns[name]
            if encoder.categorical:
                # bucket 0 = missing, buckets 1.. = category codes
                self.buckets[name] = np.where(column >= 0, column + 1, 0)
                self.n_buckets[name] = encoder.n_categories + 1
            else:
                known = ~np.isnan(column)
                values = column[known]
                if values.size == 0:
                    self.buckets[name] = np.zeros(len(column), dtype=np.int64)
                    self.n_buckets[name] = 1
                    continue
                bins = max(2, min(n_bins, len(np.unique(values))))
                discretizer = EqualFrequencyDiscretizer(bins).fit(values)
                self.discretizers[name] = discretizer
                codes = np.zeros(len(column), dtype=np.int64)
                codes[known] = discretizer.transform(column[known]) + 1
                self.buckets[name] = codes
                self.n_buckets[name] = discretizer.n_bins + 1

    def to_state(self) -> dict:
        """JSON-compatible fitted state (for parity fingerprints)."""
        return {
            "n_buckets": dict(self.n_buckets),
            "discretizers": {
                name: discretizer.to_state()
                for name, discretizer in self.discretizers.items()
            },
        }

    def buckets_of_column(self, name: str, raw: np.ndarray) -> np.ndarray:
        """The bucket of every value of an encoded column (0 = missing)."""
        encoder = self.dataset.encoders[name]
        if encoder.categorical:
            return np.where(raw < 0, 0, raw + 1).astype(np.int64)
        buckets = np.zeros(len(raw), dtype=np.int64)
        discretizer = self.discretizers.get(name)
        if discretizer is None:
            return buckets
        known = ~np.isnan(raw)
        buckets[known] = discretizer.transform(raw[known]) + 1
        return buckets


class OneRClassifier(AttributeClassifier):
    """Holte's 1R on bucketized attributes."""

    def __init__(self, *, n_bins: int = 6):
        super().__init__()
        if n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        self.n_bins = n_bins
        self.attribute: Optional[str] = None
        self._bucketizer: Optional[_Bucketizer] = None
        self._bucket_counts: Optional[np.ndarray] = None
        self._global_counts: Optional[np.ndarray] = None

    def fit(self, dataset: Dataset) -> None:
        self.dataset = dataset
        bucketizer = _Bucketizer(dataset, self.n_bins)
        self._bucketizer = bucketizer
        y = dataset.y
        n_labels = dataset.n_labels
        self._global_counts = np.bincount(y, minlength=n_labels).astype(float)
        best_name, best_errors, best_joint = None, math.inf, None
        for name in dataset.base_attrs:
            buckets = bucketizer.buckets[name]
            n_buckets = bucketizer.n_buckets[name]
            joint = np.bincount(
                buckets * n_labels + y, minlength=n_buckets * n_labels
            ).reshape(n_buckets, n_labels).astype(float)
            errors = float(joint.sum() - joint.max(axis=1).sum())
            if errors < best_errors:
                best_name, best_errors, best_joint = name, errors, joint
        self.attribute = best_name
        self._bucket_counts = best_joint

    def fit_state(self) -> dict:
        """Canonical fitted state (see
        :meth:`AttributeClassifier.fit_state
        <repro.mining.base.AttributeClassifier.fit_state>`)."""
        dataset = self._require_fitted()
        assert self._bucketizer is not None and self._global_counts is not None
        return {
            "type": "one-r",
            "class_encoder": dataset.class_encoder.to_state(),
            "attribute": self.attribute,
            "bucket_counts": (
                self._bucket_counts.tolist()
                if self._bucket_counts is not None
                else None
            ),
            "global_counts": self._global_counts.tolist(),
            "bucketizer": self._bucketizer.to_state(),
        }

    @property
    def bucket_counts(self) -> Optional[np.ndarray]:
        """Per-bucket class-count table of the chosen attribute
        (``(n_buckets, n_labels)``), or ``None`` before fitting / when no
        attribute was usable. Read-only model state, read by the
        per-record reference lane in ``tests/reference_lanes.py``."""
        return self._bucket_counts

    @property
    def global_counts(self) -> Optional[np.ndarray]:
        """Class counts over the whole training table, or ``None`` before
        fitting — the fallback distribution for empty buckets."""
        return self._global_counts

    def bucket_discretizer(self, name: str) -> Optional[EqualFrequencyDiscretizer]:
        """The fitted equal-frequency discretizer bucketing ordered
        attribute *name*, or ``None`` when *name* is categorical or had no
        finite training values (its bucket is then constant 0)."""
        self._require_fitted()
        assert self._bucketizer is not None
        return self._bucketizer.discretizers.get(name)

    def predict_batch(
        self,
        columns: Mapping[str, np.ndarray],
        *,
        n_rows: Optional[int] = None,
    ) -> BatchPrediction:
        dataset = self._require_fitted()
        assert self._bucketizer is not None and self._global_counts is not None
        labels = dataset.class_encoder.labels
        length = batch_length(columns, n_rows)
        if self.attribute is None or self._bucket_counts is None:
            counts = np.tile(self._global_counts, (length, 1))
        else:
            buckets = self._bucketizer.buckets_of_column(
                self.attribute, columns[self.attribute]
            )
            buckets = np.minimum(buckets, self._bucket_counts.shape[0] - 1)
            counts = self._bucket_counts[buckets]
            empty = counts.sum(axis=1) <= 0
            counts[empty] = self._global_counts
        return _counts_to_batch(counts, labels)

    def __repr__(self) -> str:
        return f"OneRClassifier(attribute={self.attribute!r})"


def _counts_to_batch(counts: np.ndarray, labels: tuple[str, ...]) -> BatchPrediction:
    """Normalize per-row count vectors into a :class:`BatchPrediction`
    (uniform distribution with zero support for empty count rows)."""
    n = counts.sum(axis=1)
    support = n.astype(float)
    positive = n > 0
    probabilities = np.empty_like(counts, dtype=float)
    probabilities[positive] = counts[positive] / n[positive, None]
    probabilities[~positive] = 1.0 / counts.shape[1]
    support[~positive] = 0.0
    return BatchPrediction(probabilities, support, labels)


@dataclass
class PrismRule:
    """A conjunction of (attribute, bucket) conditions predicting a class."""

    target_code: int
    conditions: tuple[tuple[str, int], ...]
    counts: np.ndarray

    @property
    def n(self) -> float:
        return float(self.counts.sum())


class PrismClassifier(AttributeClassifier):
    """Cendrowska's PRISM covering algorithm on bucketized attributes.

    ``min_coverage`` stops rule growth once a candidate rule would cover
    fewer training instances; ``max_rules_per_class`` caps model size on
    large, noisy tables; ``max_training`` subsamples the training data.
    """

    def __init__(
        self,
        *,
        n_bins: int = 6,
        min_coverage: int = 3,
        max_rules_per_class: int = 64,
        max_training: Optional[int] = 3000,
        seed: int = 0,
    ):
        super().__init__()
        if min_coverage < 1:
            raise ValueError("min_coverage must be at least 1")
        self.n_bins = n_bins
        self.min_coverage = min_coverage
        self.max_rules_per_class = max_rules_per_class
        self.max_training = max_training
        self.seed = seed
        self.rules: list[PrismRule] = []
        self._bucketizer: Optional[_Bucketizer] = None
        self._global_counts: Optional[np.ndarray] = None

    def fit(self, dataset: Dataset) -> None:
        self.dataset = dataset
        bucketizer = _Bucketizer(dataset, self.n_bins)
        self._bucketizer = bucketizer
        y_full = dataset.y
        n = dataset.n_rows
        if self.max_training is not None and n > self.max_training:
            rng = random.Random(self.seed)
            chosen = np.asarray(
                sorted(rng.sample(range(n), self.max_training)), dtype=np.int64
            )
        else:
            chosen = np.arange(n, dtype=np.int64)
        y = y_full[chosen]
        columns = {name: bucketizer.buckets[name][chosen] for name in dataset.base_attrs}
        n_labels = dataset.n_labels
        self._global_counts = np.bincount(y, minlength=n_labels).astype(float)
        self.rules = []
        for target in range(n_labels):
            remaining = np.arange(y.size)
            rules_built = 0
            while (
                rules_built < self.max_rules_per_class
                and (y[remaining] == target).sum() >= self.min_coverage
            ):
                rule_idx, conditions = self._grow_rule(columns, y, remaining, target)
                if rule_idx is None:
                    break
                counts = np.bincount(y[rule_idx], minlength=n_labels).astype(float)
                self.rules.append(PrismRule(target, tuple(conditions), counts))
                rules_built += 1
                covered_target = rule_idx[y[rule_idx] == target]
                remaining = np.setdiff1d(remaining, covered_target, assume_unique=False)

    def _grow_rule(
        self,
        columns: Mapping[str, np.ndarray],
        y: np.ndarray,
        remaining: np.ndarray,
        target: int,
    ):
        covered = remaining
        conditions: list[tuple[str, int]] = []
        used: set[str] = set()
        while True:
            precision_now = float((y[covered] == target).mean()) if covered.size else 0.0
            if covered.size and precision_now == 1.0:
                return covered, conditions
            # Candidate scoring runs on per-attribute bincounts instead of a
            # per-bucket mask loop. Precision stays bit-identical: the row
            # formulation's bool-array .mean() is an exact integer sum over
            # n < 2**53 divided once, which equals target_count / coverage
            # as a single float division. Tie-breaks are pinned to the row
            # path: within an attribute the lowest bucket achieving the
            # lexicographic (precision, coverage) max wins (np.unique
            # ascending + strict >), across attributes the earliest one.
            best = None  # (precision, coverage, name, bucket, sub)
            y_cov = y[covered]
            for name, buckets in columns.items():
                if name in used:
                    continue
                sub = buckets[covered]
                coverage = np.bincount(sub)
                target_counts = np.bincount(
                    sub[y_cov == target], minlength=coverage.size
                )
                feasible = np.nonzero(coverage >= self.min_coverage)[0]
                if feasible.size == 0:
                    continue
                precision = target_counts[feasible] / coverage[feasible]
                top = precision.max()
                at_top = feasible[precision == top]
                top_cov = coverage[at_top].max()
                bucket = int(at_top[coverage[at_top] == top_cov][0])
                key = (float(top), int(top_cov))
                if best is None or key > (best[0], best[1]):
                    best = (key[0], key[1], name, bucket, sub)
            if best is None or best[0] <= precision_now:
                if conditions and covered.size >= self.min_coverage and precision_now > 0:
                    return covered, conditions
                return None, conditions
            _, _, name, bucket, sub = best
            conditions.append((name, bucket))
            used.add(name)
            covered = covered[sub == bucket]

    def fit_state(self) -> dict:
        """Canonical fitted state (see
        :meth:`AttributeClassifier.fit_state
        <repro.mining.base.AttributeClassifier.fit_state>`)."""
        dataset = self._require_fitted()
        assert self._bucketizer is not None and self._global_counts is not None
        return {
            "type": "prism",
            "class_encoder": dataset.class_encoder.to_state(),
            "rules": [
                {
                    "target_code": rule.target_code,
                    "conditions": [list(condition) for condition in rule.conditions],
                    "counts": rule.counts.tolist(),
                }
                for rule in self.rules
            ],
            "global_counts": self._global_counts.tolist(),
            "bucketizer": self._bucketizer.to_state(),
        }

    @property
    def global_counts(self) -> Optional[np.ndarray]:
        """Class counts over the (sub)sampled training rows, or ``None``
        before fitting — the distribution of rows no rule matches."""
        return self._global_counts

    def bucket_discretizer(self, name: str) -> Optional[EqualFrequencyDiscretizer]:
        """The fitted equal-frequency discretizer bucketing ordered
        attribute *name*, or ``None`` when *name* is categorical or had no
        finite training values (its bucket is then constant 0)."""
        self._require_fitted()
        assert self._bucketizer is not None
        return self._bucketizer.discretizers.get(name)

    def batch_rule_order(self) -> list[int]:
        """Indices into :attr:`rules` in batch evaluation order —
        precision descending, then support descending, then original
        index — under which the first matching rule claims a row. This is
        the exact order :meth:`predict_batch` applies."""
        return sorted(
            range(len(self.rules)),
            key=lambda i: (
                -(
                    float(self.rules[i].counts[self.rules[i].target_code])
                    / max(self.rules[i].n, 1.0)
                ),
                -self.rules[i].n,
                i,
            ),
        )

    def predict_batch(
        self,
        columns: Mapping[str, np.ndarray],
        *,
        n_rows: Optional[int] = None,
    ) -> BatchPrediction:
        dataset = self._require_fitted()
        assert self._bucketizer is not None and self._global_counts is not None
        labels = dataset.class_encoder.labels
        length = batch_length(columns, n_rows)
        buckets = {
            name: self._bucketizer.buckets_of_column(name, columns[name])
            for name in dataset.base_attrs
        }
        counts = np.tile(self._global_counts, (length, 1))
        # assign each row its best matching rule by (precision, support):
        # rules visited best-first, ties broken by original rule order,
        # first match per row wins
        order = self.batch_rule_order()
        unassigned = np.ones(length, dtype=bool)
        for index in order:
            if not unassigned.any():
                break
            rule = self.rules[index]
            matches = unassigned.copy()
            for name, bucket in rule.conditions:
                matches &= buckets[name] == bucket
            if matches.any():
                counts[matches] = rule.counts
                unassigned &= ~matches
        return _counts_to_batch(counts, labels)

    def __repr__(self) -> str:
        return f"PrismClassifier(rules={len(self.rules)})"
