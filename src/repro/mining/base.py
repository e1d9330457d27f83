"""The classifier interface of the multiple classification / regression
approach.

Sec. 5: *"For each attribute in the relation to be audited, a classifier
is induced that describes the dependency of this class attribute from the
other attributes."* And sec. 5.2: *"the error confidence measure can be
used with each classifier that both outputs a predicted class distribution
and the number of training instances this prediction is based on."*

A classifier returns exactly that pair (distribution, support) for a
whole batch of records; :class:`AttributeClassifier` is the pluggable
strategy the auditor composes — the tree-based production classifier
and the alternatives the paper evaluated (instance-based, naive Bayes,
rule inducers) all implement it.

The protocol is **batch-only**: a classifier implements :meth:`fit` and
:meth:`predict_batch`; the auditor's hot path hands it whole encoded
column arrays at once and receives a :class:`BatchPrediction` back. The
batch contract, precisely:

* **distribution matrix** — ``probabilities`` has shape
  ``(n_rows, n_labels)`` where ``n_labels`` is the fitted dataset's
  class-vocabulary size (:attr:`ClassEncoder.n_labels
  <repro.mining.dataset.ClassEncoder.n_labels>`, which always includes
  the null and unknown labels). Row ``r`` is the predicted class
  distribution of record ``r``; each row sums to 1 (a proper
  distribution), and label order is exactly
  :attr:`ClassEncoder.labels <repro.mining.dataset.ClassEncoder>`.
* **support semantics** — ``support[r]`` is the (possibly *weighted*)
  number of training instances behind record ``r``'s prediction: a leaf
  count for trees (fractional when C4.5's missing-value handling
  distributed records over branches), the training-set size for naive
  Bayes, ``k`` for kNN. It feeds Def. 7's error confidence, which
  shrinks toward zero as support does — a prediction backed by few
  instances can never yield a confident deviation.

Each built-in family's per-record predictor lives in
``tests/reference_lanes.py`` as the oracle its ``predict_batch`` is
pinned to, bit for bit.

The auditor fits its classifiers at the same time, on threads that
share the encoded training arrays (:mod:`repro.core.parallel`). So
:meth:`AttributeClassifier.fit` only reads its dataset, and two
classifiers share no mutable state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.mining.dataset import Dataset

__all__ = ["BatchPrediction", "AttributeClassifier", "batch_length"]


@dataclass
class BatchPrediction:
    """Predicted class distributions for a whole batch of records.

    ``probabilities[r, c]`` is the predicted probability of class-label
    code ``c`` for record ``r``; ``support[r]`` is the (possibly weighted)
    number of training instances record *r*'s prediction is based on.
    """

    probabilities: np.ndarray
    support: np.ndarray
    labels: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return int(self.probabilities.shape[0])

    def __repr__(self) -> str:
        return f"BatchPrediction(rows={self.n_rows}, labels={len(self.labels)})"


def batch_length(columns: Mapping[str, np.ndarray], n_rows: Optional[int]) -> int:
    """Resolve the row count of an encoded-column batch."""
    if n_rows is not None:
        return int(n_rows)
    for column in columns.values():
        return len(column)
    raise ValueError("cannot infer batch length: no columns given and n_rows is None")


class AttributeClassifier(ABC):
    """A dependency model of one class attribute given base attributes."""

    def __init__(self) -> None:
        self.dataset: Optional[Dataset] = None

    @abstractmethod
    def fit(self, dataset: Dataset) -> None:
        """Induce the dependency model from an encoded dataset."""

    @abstractmethod
    def predict_batch(
        self,
        columns: Mapping[str, np.ndarray],
        *,
        n_rows: Optional[int] = None,
    ) -> BatchPrediction:
        """Predict class distributions for a whole batch of encoded records.

        *columns* maps base-attribute names to encoded column arrays (see
        :meth:`~repro.mining.dataset.BaseEncoder.encode_column`); all
        arrays share one length, which *n_rows* may state explicitly when
        the classifier uses no base attributes. An unfitted classifier
        raises ``RuntimeError``.
        """

    def fit_state(self) -> dict:
        """The complete fitted state as plain JSON types.

        This is the canonical *serialized form* of the model:
        ``json.dumps(classifier.fit_state(), sort_keys=True)`` is the
        byte fingerprint the fit-parity suite compares between the fit
        and its cell-at-a-time reference and across worker counts — two
        fits are considered identical exactly when these bytes match.
        Implementations must therefore emit *every* value prediction can
        depend on (class vocabulary, fitted tables/trees/rules,
        discretizer cuts, subsampled training data) in a deterministic
        order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose its fitted state"
        )

    def _require_fitted(self) -> Dataset:
        if self.dataset is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        return self.dataset
