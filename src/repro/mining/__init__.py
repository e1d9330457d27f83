"""Mining substrate (paper sec. 5): confidence-interval bounds,
equal-frequency discretization, dataset encoding, the auditing-adjusted
C4.5 decision tree, and the alternative classifiers evaluated for the
QUIS domain."""

from repro.mining.base import AttributeClassifier, BatchPrediction
from repro.mining.confidence import (
    error_confidence,
    error_confidence_batch,
    error_confidence_from_counts,
    expected_error_confidence,
    min_instances_for_confidence,
)
from repro.mining.dataset import (
    NULL_LABEL,
    UNKNOWN_LABEL,
    BaseEncoder,
    ClassEncoder,
    Dataset,
)
from repro.mining.discretize import EqualFrequencyDiscretizer
from repro.mining.intervals import (
    ConfidenceBounds,
    IntervalMethod,
    clopper_pearson_lower,
    clopper_pearson_upper,
    normal_quantile,
    wilson_lower,
    wilson_upper,
)
from repro.mining.knn import KnnClassifier
from repro.mining.naive_bayes import NaiveBayesClassifier
from repro.mining.rule_induction import OneRClassifier, PrismClassifier, PrismRule
from repro.mining.tree import (
    Leaf,
    Node,
    NominalSplit,
    NumericSplit,
    PruningStrategy,
    TreeConfig,
    TreeRule,
    extract_rules,
    grow_tree,
    prune_pessimistic,
)
from repro.mining.tree_classifier import TreeClassifier

__all__ = [
    "ConfidenceBounds",
    "IntervalMethod",
    "wilson_lower",
    "wilson_upper",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "normal_quantile",
    "error_confidence",
    "error_confidence_batch",
    "error_confidence_from_counts",
    "expected_error_confidence",
    "min_instances_for_confidence",
    "EqualFrequencyDiscretizer",
    "Dataset",
    "BaseEncoder",
    "ClassEncoder",
    "NULL_LABEL",
    "UNKNOWN_LABEL",
    "AttributeClassifier",
    "BatchPrediction",
    "TreeClassifier",
    "TreeConfig",
    "PruningStrategy",
    "TreeRule",
    "Node",
    "Leaf",
    "NominalSplit",
    "NumericSplit",
    "grow_tree",
    "extract_rules",
    "prune_pessimistic",
    "NaiveBayesClassifier",
    "KnnClassifier",
    "OneRClassifier",
    "PrismClassifier",
    "PrismRule",
]
