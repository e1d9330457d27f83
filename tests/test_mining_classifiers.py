"""Tests for the alternative classifiers (naive Bayes, kNN, 1R, PRISM)."""

import random

import numpy as np
import pytest

from repro.mining import (
    KnnClassifier,
    NaiveBayesClassifier,
    OneRClassifier,
    PrismClassifier,
)
from repro.schema import Schema, Table, nominal, numeric
from tests.datasets import training_dataset
from tests.reference_lanes import predict_record


def _dependency_table(n=1200, noise=0.03, seed=11):
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
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


@pytest.fixture
def dataset():
    return training_dataset(_dependency_table(), "B", ["A", "N"])


ALL_CLASSIFIERS = [
    lambda: NaiveBayesClassifier(),
    lambda: KnnClassifier(k=7),
    lambda: OneRClassifier(),
    lambda: PrismClassifier(),
]


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
class TestCommonBehaviour:
    def test_learns_dependency(self, factory, dataset):
        classifier = factory()
        classifier.fit(dataset)
        for a, expected in [("a", "x"), ("b", "y"), ("c", "z")]:
            label, _, _ = predict_record(classifier, {"A": a, "B": None, "N": 50})
            assert label == expected

    def test_distribution_sums_to_one(self, factory, dataset):
        classifier = factory()
        classifier.fit(dataset)
        _, probabilities, _ = predict_record(classifier, {"A": "a", "B": None, "N": 50})
        assert probabilities.sum() == pytest.approx(1.0)
        assert (probabilities >= 0).all()

    def test_support_positive(self, factory, dataset):
        classifier = factory()
        classifier.fit(dataset)
        _, _, n = predict_record(classifier, {"A": "a", "B": None, "N": 50})
        assert n > 0

    def test_missing_base_values_tolerated(self, factory, dataset):
        classifier = factory()
        classifier.fit(dataset)
        _, probabilities, _ = predict_record(classifier, {"A": None, "B": None, "N": None})
        assert probabilities.sum() == pytest.approx(1.0)

    def test_unfitted_raises(self, factory):
        columns = {"A": np.array([0]), "N": np.array([1.0])}
        with pytest.raises(RuntimeError):
            factory().predict_batch(columns)


class TestNaiveBayes:
    def test_priors_reflect_class_frequencies(self, dataset):
        classifier = NaiveBayesClassifier()
        classifier.fit(dataset)
        # with everything missing the posterior equals the prior
        top_label, _, _ = predict_record(classifier, {"A": None, "B": None, "N": None})
        counts = np.bincount(dataset.y, minlength=dataset.n_labels)
        assert dataset.class_encoder.labels[int(np.argmax(counts))] == top_label

    def test_support_is_training_size(self, dataset):
        classifier = NaiveBayesClassifier()
        classifier.fit(dataset)
        _, _, n = predict_record(classifier, {"A": "a", "B": None, "N": 5})
        assert n == dataset.n_rows

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier(smoothing=0)
        with pytest.raises(ValueError):
            NaiveBayesClassifier(n_bins=1)


class TestKnn:
    def test_support_is_k(self, dataset):
        classifier = KnnClassifier(k=9)
        classifier.fit(dataset)
        _, _, n = predict_record(classifier, {"A": "a", "B": None, "N": 5})
        assert n == 9

    def test_subsampling(self, dataset):
        classifier = KnnClassifier(k=3, max_training=100)
        classifier.fit(dataset)
        assert classifier._y.size == 100

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KnnClassifier(k=0)
        with pytest.raises(ValueError):
            KnnClassifier(max_training=0)


class TestOneR:
    def test_picks_informative_attribute(self, dataset):
        classifier = OneRClassifier()
        classifier.fit(dataset)
        assert classifier.attribute == "A"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OneRClassifier(n_bins=1)


class TestPrism:
    def test_builds_rules(self, dataset):
        classifier = PrismClassifier()
        classifier.fit(dataset)
        assert len(classifier.rules) > 0
        # rules for the dominant dependency exist
        targets = {rule.target_code for rule in classifier.rules}
        assert len(targets) >= 3

    def test_min_coverage_respected(self, dataset):
        classifier = PrismClassifier(min_coverage=10)
        classifier.fit(dataset)
        assert all(rule.n >= 10 for rule in classifier.rules)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PrismClassifier(min_coverage=0)
