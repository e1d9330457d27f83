"""Instance-based (k-nearest-neighbour) classifier — another sec. 5
alternative.

Distance is a Gower-style mean over base attributes: 0/1 mismatch for
nominal codes, span-normalized absolute difference for ordered values, and
the maximal distance 1 whenever either operand is missing. The support
``n`` for Def. 7 is ``k`` — a very small sample, which caps the achievable
error confidence and is one of the reasons instance-based methods lost the
paper's algorithm selection.

Prediction is O(training size); fit optionally subsamples to
``max_training`` rows to keep the classifier-selection benchmark tractable
on large tables.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional

import numpy as np

from repro.mining.base import AttributeClassifier, BatchPrediction, batch_length
from repro.mining.dataset import Dataset

__all__ = ["KnnClassifier"]


class KnnClassifier(AttributeClassifier):
    """k-nearest-neighbour classifier over a Gower-style mixed distance."""

    def __init__(
        self,
        k: int = 7,
        *,
        max_training: Optional[int] = 3000,
        seed: int = 0,
    ):
        super().__init__()
        if k < 1:
            raise ValueError("k must be at least 1")
        if max_training is not None and max_training < 1:
            raise ValueError("max_training must be positive")
        self.k = k
        self.max_training = max_training
        self.seed = seed
        self._columns: dict[str, np.ndarray] = {}
        self._spans: dict[str, float] = {}
        self._y: Optional[np.ndarray] = None

    def fit(self, dataset: Dataset) -> None:
        self.dataset = dataset
        n = dataset.n_rows
        if self.max_training is not None and n > self.max_training:
            rng = random.Random(self.seed)
            chosen = np.asarray(
                sorted(rng.sample(range(n), self.max_training)), dtype=np.int64
            )
        else:
            chosen = np.arange(n, dtype=np.int64)
        self._y = dataset.y[chosen]
        self._columns = {}
        self._spans = {}
        for name in dataset.base_attrs:
            column = dataset.columns[name][chosen]
            self._columns[name] = column
            if not dataset.encoders[name].categorical:
                known = column[~np.isnan(column)]
                span = float(known.max() - known.min()) if known.size else 0.0
                self._spans[name] = span if span > 0 else 1.0

    def fit_state(self) -> dict:
        """Canonical fitted state (see
        :meth:`AttributeClassifier.fit_state
        <repro.mining.base.AttributeClassifier.fit_state>`): the retained
        (possibly subsampled) training columns themselves — kNN is
        instance-based, so they *are* the model."""
        dataset = self._require_fitted()
        assert self._y is not None
        return {
            "type": "knn",
            "class_encoder": dataset.class_encoder.to_state(),
            "k": self.k,
            "columns": {
                name: column.tolist() for name, column in self._columns.items()
            },
            "spans": dict(self._spans),
            "y": self._y.tolist(),
        }

    #: batch rows per distance-matrix block (bounds peak memory at
    #: ``_CHUNK × max_training`` floats regardless of batch size)
    _CHUNK = 512

    def predict_batch(
        self,
        columns: Mapping[str, np.ndarray],
        *,
        n_rows: Optional[int] = None,
    ) -> BatchPrediction:
        dataset = self._require_fitted()
        assert self._y is not None
        length = batch_length(columns, n_rows)
        n_labels = dataset.n_labels
        labels = dataset.class_encoder.labels
        n_train = self._y.size
        if n_train == 0:
            uniform = np.full((length, n_labels), 1.0 / n_labels)
            return BatchPrediction(uniform, np.zeros(length), labels)
        k = min(self.k, n_train)
        probabilities = np.empty((length, n_labels), dtype=float)
        for start in range(0, length, self._CHUNK):
            stop = min(start + self._CHUNK, length)
            distance = np.zeros((stop - start, n_train), dtype=float)
            for name, column in self._columns.items():
                raw = columns[name][start:stop]
                if dataset.encoders[name].categorical:
                    codes = raw[:, None]
                    missing = column < 0
                    block = np.where(missing[None, :] | (column[None, :] != codes), 1.0, 0.0)
                    block[raw < 0] = 1.0  # missing query value: maximal distance
                else:
                    missing = np.isnan(column)
                    diff = np.abs(column[None, :] - raw[:, None]) / self._spans[name]
                    block = np.where(missing[None, :], 1.0, np.minimum(diff, 1.0))
                    block[np.isnan(raw)] = 1.0
                distance += block
            for offset in range(stop - start):
                neighbour_idx = np.argpartition(distance[offset], k - 1)[:k]
                counts = np.bincount(
                    self._y[neighbour_idx], minlength=n_labels
                ).astype(float)
                probabilities[start + offset] = counts / k
        return BatchPrediction(
            probabilities, np.full(length, float(k)), labels
        )

    def __repr__(self) -> str:
        return f"KnnClassifier(k={self.k}, max_training={self.max_training})"
