"""The production classifier: the auditing-adjusted C4.5 tree."""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.mining.base import AttributeClassifier, BatchPrediction, batch_length
from repro.mining.dataset import Dataset
from repro.mining.tree.classify import predict_distribution_batch
from repro.mining.tree.grow import TreeConfig, grow_tree
from repro.mining.tree.node import Node
from repro.mining.tree.rules import TreeRule, extract_rules

__all__ = ["TreeClassifier"]


class TreeClassifier(AttributeClassifier):
    """Decision-tree dependency model (sec. 5.1 + 5.4 adjustments).

    The default configuration uses the integrated expected-error-confidence
    pruning; pass a :class:`TreeConfig` for the classic C4.5 behaviour
    (pessimistic pruning) or an unpruned tree.
    """

    def __init__(self, config: Optional[TreeConfig] = None):
        super().__init__()
        self.config = config or TreeConfig()
        self.root: Optional[Node] = None

    def fit(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.root = grow_tree(dataset, self.config)

    def predict_batch(
        self,
        columns: Mapping[str, np.ndarray],
        *,
        n_rows: Optional[int] = None,
    ) -> BatchPrediction:
        dataset = self._require_fitted()
        assert self.root is not None
        length = batch_length(columns, n_rows)
        probabilities, support = predict_distribution_batch(self.root, columns, length)
        return BatchPrediction(probabilities, support, dataset.class_encoder.labels)

    def fit_state(self) -> dict:
        """Canonical fitted state (see
        :meth:`AttributeClassifier.fit_state`): the same node dictionaries
        :mod:`repro.core.serialize` persists, plus the class vocabulary."""
        from repro.core.serialize import _node_to_dict

        dataset = self._require_fitted()
        assert self.root is not None
        return {
            "type": "tree",
            "base_attrs": list(dataset.base_attrs),
            "class_encoder": dataset.class_encoder.to_state(),
            "tree": _node_to_dict(self.root),
        }

    def rules(self, *, drop_useless: bool = True) -> list[TreeRule]:
        """The tree as a rule set (sec. 5.4), by default without rules
        that cannot contribute to an error detection."""
        dataset = self._require_fitted()
        assert self.root is not None
        return extract_rules(
            self.root,
            dataset,
            self.config.bounds,
            drop_useless=drop_useless,
            min_confidence=self.config.min_detection_confidence,
        )

    def __repr__(self) -> str:
        if self.root is None:
            return "TreeClassifier(unfitted)"
        return (
            f"TreeClassifier(nodes={self.root.node_count()}, "
            f"leaves={self.root.leaf_count()}, depth={self.root.depth()})"
        )
