"""Naive Bayes classifier — one of the alternatives evaluated in sec. 5.

Nominal base attributes use smoothed frequency tables; ordered base
attributes are discretized into equal-frequency bins at fit time (keeping
the whole model categorical, as the MLC++-era implementations the paper
compared against did). Missing base values are simply skipped in the
likelihood product.

The support ``n`` reported for Def. 7's error confidence is the training
set size — a naive Bayes prediction rests on the full table rather than a
leaf subset, which is precisely why its error confidences are poorly
calibrated for auditing (one of the reasons the paper selected C4.5).
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.mining.base import AttributeClassifier, BatchPrediction, batch_length
from repro.mining.dataset import Dataset
from repro.mining.discretize import EqualFrequencyDiscretizer

__all__ = ["NaiveBayesClassifier"]


class NaiveBayesClassifier(AttributeClassifier):
    """Smoothed categorical naive Bayes (see module docstring)."""

    def __init__(self, *, smoothing: float = 1.0, n_bins: int = 8):
        super().__init__()
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        self.smoothing = smoothing
        self.n_bins = n_bins
        self._priors: Optional[np.ndarray] = None
        self._tables: dict[str, np.ndarray] = {}
        self._discretizers: dict[str, EqualFrequencyDiscretizer] = {}
        self._n_training: float = 0.0

    def fit(self, dataset: Dataset) -> None:
        self.dataset = dataset
        n_labels = dataset.n_labels
        y = dataset.y
        class_counts = np.bincount(y, minlength=n_labels).astype(float)
        self._n_training = float(dataset.n_rows)
        self._priors = (class_counts + self.smoothing) / (
            class_counts.sum() + self.smoothing * n_labels
        )
        self._tables = {}
        self._discretizers = {}
        for name in dataset.base_attrs:
            encoder = dataset.encoders[name]
            column = dataset.columns[name]
            if encoder.categorical:
                known = column >= 0
                n_values = encoder.n_categories
                codes = column[known]
            else:
                known = ~np.isnan(column)
                values = column[known]
                if values.size == 0:
                    continue
                bins = max(2, min(self.n_bins, len(np.unique(values))))
                discretizer = EqualFrequencyDiscretizer(bins).fit(values)
                self._discretizers[name] = discretizer
                codes = discretizer.transform(values)
                n_values = discretizer.n_bins
            joint = np.bincount(
                y[known] * n_values + codes,
                minlength=n_labels * n_values,
            ).reshape(n_labels, n_values).astype(float)
            likelihood = (joint + self.smoothing) / (
                joint.sum(axis=1, keepdims=True) + self.smoothing * n_values
            )
            self._tables[name] = likelihood

    def fit_state(self) -> dict:
        """Canonical fitted state (see
        :meth:`AttributeClassifier.fit_state
        <repro.mining.base.AttributeClassifier.fit_state>`)."""
        dataset = self._require_fitted()
        assert self._priors is not None
        return {
            "type": "naive-bayes",
            "class_encoder": dataset.class_encoder.to_state(),
            "priors": self._priors.tolist(),
            "tables": {name: table.tolist() for name, table in self._tables.items()},
            "discretizers": {
                name: discretizer.to_state()
                for name, discretizer in self._discretizers.items()
            },
            "n_training": self._n_training,
        }

    @property
    def priors(self) -> Optional[np.ndarray]:
        """Smoothed class priors (``(n_labels,)``), or ``None`` before
        fitting. Read-only model state for rule extraction
        (:mod:`repro.compile`)."""
        return self._priors

    @property
    def n_training(self) -> float:
        """Training-set size — the support every prediction reports."""
        return self._n_training

    def likelihood_tables(self) -> dict[str, np.ndarray]:
        """The per-attribute smoothed likelihood tables
        (``(n_labels, n_values)``), in the exact order
        :meth:`predict_batch` multiplies the factors. Treat as
        read-only."""
        return dict(self._tables)

    def bin_discretizer(self, name: str) -> Optional[EqualFrequencyDiscretizer]:
        """The fitted equal-frequency discretizer binning ordered
        attribute *name*, or ``None`` for categorical attributes (an
        ordered attribute with a likelihood table always has one)."""
        return self._discretizers.get(name)

    def predict_batch(
        self,
        columns: Mapping[str, np.ndarray],
        *,
        n_rows: Optional[int] = None,
    ) -> BatchPrediction:
        dataset = self._require_fitted()
        assert self._priors is not None
        length = batch_length(columns, n_rows)
        log_posterior = np.tile(np.log(self._priors), (length, 1))
        for name, likelihood in self._tables.items():
            raw = columns[name]
            encoder = dataset.encoders[name]
            if encoder.categorical:
                known = raw >= 0  # missing values skip the factor
                codes = np.minimum(raw[known], likelihood.shape[1] - 1)
            else:
                known = ~np.isnan(raw)
                codes = self._discretizers[name].transform(raw[known])
            log_posterior[known] += np.log(likelihood[:, codes]).T
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(log_posterior)
        posterior /= posterior.sum(axis=1, keepdims=True)
        support = np.full(length, self._n_training, dtype=float)
        return BatchPrediction(posterior, support, dataset.class_encoder.labels)

    def __repr__(self) -> str:
        fitted = "fitted" if self._priors is not None else "unfitted"
        return f"NaiveBayesClassifier(smoothing={self.smoothing}, {fitted})"
