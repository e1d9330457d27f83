"""C4.5-style decision trees with the paper's data-auditing adjustments."""

from repro.mining.tree.grow import PruningStrategy, TreeConfig, TreeGrower, grow_tree
from repro.mining.tree.node import Leaf, Node, NominalSplit, NumericSplit
from repro.mining.tree.prune import (
    leaf_detection_useful,
    pessimistic_error,
    prune_expected_error_confidence,
    prune_pessimistic,
    subtree_expected_error_confidence,
    subtree_has_useful_leaf,
)
from repro.mining.tree.render import render_tree
from repro.mining.tree.rules import PathCondition, TreeRule, extract_rules

__all__ = [
    "Node",
    "Leaf",
    "NominalSplit",
    "NumericSplit",
    "PruningStrategy",
    "TreeConfig",
    "TreeGrower",
    "grow_tree",
    "pessimistic_error",
    "prune_pessimistic",
    "leaf_detection_useful",
    "subtree_has_useful_leaf",
    "subtree_expected_error_confidence",
    "prune_expected_error_confidence",
    "PathCondition",
    "TreeRule",
    "extract_rules",
    "render_tree",
]
