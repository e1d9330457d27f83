"""Tests for the C4.5-style decision tree and its auditing adjustments."""

import random

import numpy as np
import pytest

from repro.mining import (
    ConfidenceBounds,
    Leaf,
    PruningStrategy,
    TreeClassifier,
    TreeConfig,
    grow_tree,
    prune_pessimistic,
)
from repro.mining.tree.prune import (
    leaf_detection_useful,
    pessimistic_error,
    prune_expected_error_confidence,
    subtree_expected_error_confidence,
)
from repro.schema import Schema, Table, nominal, numeric
from tests.datasets import training_dataset
from tests.reference_lanes import predict_record

BOUNDS = ConfidenceBounds(0.95)


def _make_table(n, rule, noise, seed, with_numeric=True):
    """B is a deterministic function of A, flipped with probability noise."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        a = rng.choice(["a", "b", "c"])
        b = rule[a] if rng.random() > noise else rng.choice(["x", "y", "z"])
        rows.append([a, b, rng.randint(0, 100)])
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    return Table(schema, rows)


RULE = {"a": "x", "b": "y", "c": "z"}


def _fitted_tree(dataset):
    """A :class:`TreeClassifier` fitted as ``grow_tree(dataset,
    TreeConfig(bounds=BOUNDS))`` grows its root."""
    tree = TreeClassifier(TreeConfig(bounds=BOUNDS))
    tree.fit(dataset)
    return tree


@pytest.fixture
def table():
    return _make_table(1500, RULE, noise=0.02, seed=1)


@pytest.fixture
def dataset(table):
    return training_dataset(table, "B", ["A", "N"])


class TestGrowth:
    def test_learns_nominal_dependency(self, dataset):
        tree = _fitted_tree(dataset)
        for a, expected in RULE.items():
            label, _, n = predict_record(tree, {"A": a, "N": 50})
            assert label == expected
            assert n > 100

    def test_learns_numeric_threshold(self):
        rng = random.Random(2)
        schema = Schema(
            [nominal("B", ["low", "high"]), numeric("N", 0, 100, integer=True)]
        )
        rows = []
        for _ in range(1000):
            n = rng.randint(0, 100)
            rows.append(["low" if n < 50 else "high", n])
        tree = _fitted_tree(training_dataset(Table(schema, rows), "B", ["N"]))
        for value, expected in [(10, "low"), (49, "low"), (51, "high"), (90, "high")]:
            label, _, _ = predict_record(tree, {"N": value})
            assert label == expected

    def test_irrelevant_attribute_not_split_first(self, dataset):
        root = grow_tree(dataset, TreeConfig(bounds=BOUNDS))
        assert not isinstance(root, Leaf)
        assert root.attribute == "A"

    def test_max_depth_respected(self, dataset):
        root = grow_tree(
            dataset,
            TreeConfig(bounds=BOUNDS, max_depth=1, pruning=PruningStrategy.NONE),
        )
        # max_depth counts split levels: one split, children are leaves
        assert root.depth() <= 2
        assert all(child.is_leaf for child in root.children())

    def test_pure_data_single_split(self):
        table = _make_table(600, RULE, noise=0.0, seed=3)
        dataset = training_dataset(table, "B", ["A", "N"])
        root = grow_tree(dataset, TreeConfig(bounds=BOUNDS))
        assert root.depth() == 2  # one split on A, pure leaves

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TreeConfig(min_instances=0)
        with pytest.raises(ValueError):
            TreeConfig(max_depth=0)
        with pytest.raises(ValueError):
            TreeConfig(min_class_instances=0)


class TestMissingValues:
    def test_training_with_missing_split_values(self):
        rng = random.Random(4)
        schema = Schema([nominal("A", ["a", "b"]), nominal("B", ["x", "y"])])
        rows = []
        for _ in range(800):
            a = rng.choice(["a", "b", None])
            b = ("x" if a == "a" else "y") if a else rng.choice(["x", "y"])
            rows.append([a, b])
        tree = _fitted_tree(training_dataset(Table(schema, rows), "B", ["A"]))
        label, _, _ = predict_record(tree, {"A": "a"})
        assert label == "x"

    def test_prediction_with_missing_value_blends(self, dataset, table):
        tree = _fitted_tree(dataset)
        root = tree.root
        _, probabilities, n = predict_record(tree, {"A": None, "N": 50})
        # the convex combination over a complete split reproduces the
        # node's own class distribution (C4.5 semantics) …
        marginal = root.counts / root.n
        assert probabilities == pytest.approx(marginal, abs=1e-9)
        assert 0.2 < probabilities.max() < 0.55
        # … and the support is the expected branch support, not the total
        assert 0.0 < n <= float(root.n)

    def test_prediction_with_unseen_category_blends(self, dataset):
        tree = _fitted_tree(dataset)
        unseen = "zzz"  # out of A's domain: encodes to the unknown code
        assert dataset.encoders["A"].encode_column([unseen])[0] == (
            dataset.encoders["A"].unknown_code
        )
        _, probabilities, _ = predict_record(tree, {"A": unseen, "N": 50})
        assert probabilities.max() < 0.9  # no single branch dominates


class TestPruning:
    def test_noise_is_pruned(self):
        # class attribute independent of everything: tree must collapse
        rng = random.Random(5)
        schema = Schema(
            [nominal("A", ["a", "b", "c"]), nominal("B", ["x", "y"]), numeric("N", 0, 100)]
        )
        rows = [
            [rng.choice("abc"), rng.choice("xy"), rng.uniform(0, 100)]
            for _ in range(1000)
        ]
        dataset = training_dataset(Table(schema, rows), "B", ["A", "N"])
        root = grow_tree(
            dataset,
            TreeConfig(
                bounds=BOUNDS,
                pruning=PruningStrategy.EXPECTED_ERROR_CONFIDENCE,
                min_detection_confidence=0.8,
            ),
        )
        assert root.node_count() <= 5

    def test_structure_survives_expected_confidence_pruning(self, dataset):
        root = grow_tree(
            dataset,
            TreeConfig(
                bounds=BOUNDS,
                pruning=PruningStrategy.EXPECTED_ERROR_CONFIDENCE,
                min_detection_confidence=0.8,
            ),
        )
        assert not isinstance(root, Leaf)

    def test_clean_data_structure_survives(self):
        # pure leaves have expErrorConf 0; the usefulness component must
        # keep them (see grow.py commentary)
        table = _make_table(900, RULE, noise=0.0, seed=6)
        dataset = training_dataset(table, "B", ["A", "N"])
        root = grow_tree(
            dataset,
            TreeConfig(
                bounds=BOUNDS,
                pruning=PruningStrategy.EXPECTED_ERROR_CONFIDENCE,
                min_detection_confidence=0.8,
            ),
        )
        assert not isinstance(root, Leaf)

    def test_pessimistic_pruning_collapses_noise(self):
        rng = random.Random(7)
        schema = Schema([nominal("A", ["a", "b"]), nominal("B", ["x", "y"])])
        rows = [[rng.choice("ab"), rng.choice("xy")] for _ in range(500)]
        dataset = training_dataset(Table(schema, rows), "B", ["A"])
        unpruned = grow_tree(dataset, TreeConfig(bounds=BOUNDS, pruning=PruningStrategy.NONE))
        pruned = prune_pessimistic(unpruned, BOUNDS)
        assert pruned.node_count() <= unpruned.node_count()

    def test_pessimistic_error_weighted_average(self, dataset):
        root = grow_tree(dataset, TreeConfig(bounds=BOUNDS, pruning=PruningStrategy.NONE))
        total = pessimistic_error(root, BOUNDS)
        assert 0.0 <= total <= 1.0

    def test_post_pass_matches_integrated_direction(self, dataset):
        unpruned = grow_tree(
            dataset, TreeConfig(bounds=BOUNDS, pruning=PruningStrategy.NONE)
        )
        post = prune_expected_error_confidence(unpruned, BOUNDS, 0.8)
        assert post.node_count() <= unpruned.node_count()

    def test_min_class_instances_preprunes(self):
        table = _make_table(200, RULE, noise=0.02, seed=8)
        dataset = training_dataset(table, "B", ["A", "N"])
        generous = grow_tree(
            dataset,
            TreeConfig(bounds=BOUNDS, pruning=PruningStrategy.NONE, min_class_instances=None),
        )
        strict = grow_tree(
            dataset,
            TreeConfig(
                bounds=BOUNDS, pruning=PruningStrategy.NONE, min_class_instances=150.0
            ),
        )
        assert strict.node_count() <= generous.node_count()
        assert isinstance(strict, Leaf)  # no subset can hold 150 of one class


class TestRules:
    def test_rules_cover_dependency(self, dataset):
        classifier = TreeClassifier(
            TreeConfig(bounds=BOUNDS, min_detection_confidence=0.8)
        )
        classifier.fit(dataset)
        rules = classifier.rules()
        assert len(rules) >= 3
        described = [rule.describe(dataset) for rule in rules]
        assert any("A = a" in d and "B = x" in d for d in described)

    def test_useless_rules_dropped(self):
        rng = random.Random(9)
        schema = Schema([nominal("A", ["a", "b"]), nominal("B", ["x", "y"])])
        rows = [[rng.choice("ab"), rng.choice("xy")] for _ in range(60)]
        dataset = training_dataset(Table(schema, rows), "B", ["A"])
        classifier = TreeClassifier(
            TreeConfig(bounds=BOUNDS, min_detection_confidence=0.8, pruning=PruningStrategy.NONE)
        )
        classifier.fit(dataset)
        # 60 uniform records: no leaf can reach 80 % confidence
        assert classifier.rules() == []
        assert len(classifier.rules(drop_useless=False)) >= 1

    def test_rule_supports_sum_to_training_size(self, dataset):
        classifier = TreeClassifier(TreeConfig(bounds=BOUNDS))
        classifier.fit(dataset)
        rules = classifier.rules(drop_useless=False)
        assert sum(rule.n for rule in rules) == pytest.approx(dataset.n_rows, rel=0.01)

    def test_numeric_conditions_merged(self):
        rng = random.Random(10)
        schema = Schema(
            [nominal("B", ["w", "x", "y", "z"]), numeric("N", 0, 100, integer=True)]
        )
        rows = []
        for _ in range(2000):
            n = rng.randint(0, 100)
            label = "wxyz"[min(3, n // 25)]
            rows.append([label, n])
        dataset = training_dataset(Table(schema, rows), "B", ["N"])
        classifier = TreeClassifier(TreeConfig(bounds=BOUNDS))
        classifier.fit(dataset)
        for rule in classifier.rules(drop_useless=False):
            attrs = [c.attribute for c in rule.conditions]
            operators = [c.operator for c in rule.conditions]
            # after merging, at most one <= and one > per attribute
            assert operators.count("<=") <= 1 and operators.count(">") <= 1


class TestLeafUsefulness:
    def test_pure_large_leaf_useful(self):
        counts = np.array([100.0, 0.0])
        assert leaf_detection_useful(counts, BOUNDS, 0.8)

    def test_small_leaf_not_useful(self):
        counts = np.array([5.0, 0.0])
        assert not leaf_detection_useful(counts, BOUNDS, 0.8)

    def test_impure_leaf_not_useful(self):
        counts = np.array([60.0, 40.0])
        assert not leaf_detection_useful(counts, BOUNDS, 0.8)

    def test_subtree_expected_error_confidence_weighted(self, dataset):
        root = grow_tree(dataset, TreeConfig(bounds=BOUNDS, pruning=PruningStrategy.NONE))
        value = subtree_expected_error_confidence(root, BOUNDS, 0.0)
        assert value >= 0.0
