"""Tests of the one prediction contract: every built-in classifier's
vectorized ``predict_batch`` must reproduce its per-record reference
predictor (``tests/reference_lanes.py``) exactly — distributions *and*
supports — and a classifier that does not implement ``predict_batch``
cannot be built."""

import datetime
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mining import (
    AttributeClassifier,
    BaseEncoder,
    ClassEncoder,
    KnnClassifier,
    Leaf,
    NaiveBayesClassifier,
    NominalSplit,
    NumericSplit,
    OneRClassifier,
    PrismClassifier,
    PruningStrategy,
    TreeClassifier,
    TreeConfig,
)
from repro.mining.base import batch_length
from repro.mining.dataset import Dataset
from repro.schema import Schema, Table, date, nominal, numeric
from tests.datasets import training_dataset
from tests.reference_lanes import reference_predict

CLASSIFIER_FACTORIES = {
    "tree": TreeClassifier,
    "naive_bayes": NaiveBayesClassifier,
    "knn": KnnClassifier,
    "oner": OneRClassifier,
    "prism": PrismClassifier,
}


def _messy_table(n=600, seed=13):
    """A dependent-attribute table with nulls, out-of-domain values and
    kind violations sprinkled in — exercising every encoding edge the
    batch path must route identically to the row path (including C4.5
    fractional-instance blending on missing split values)."""
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
    rows = []
    for _ in range(n):
        a = rng.choice(["a", "b", "c"])
        b = rule[a] if rng.random() > 0.04 else rng.choice(["x", "y", "z"])
        number = rng.randint(0, 100)
        if rng.random() < 0.05:
            a = None
        if rng.random() < 0.05:
            b = None
        if rng.random() < 0.03:
            b = "OUT_OF_DOMAIN"
        if rng.random() < 0.05:
            number = None
        rows.append([a, b, number])
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    return Table(schema, rows)


@pytest.fixture(scope="module")
def table():
    return _messy_table()


@pytest.fixture(scope="module")
def datasets(table):
    names = list(table.schema.names)
    return {
        class_attr: training_dataset(
            table, class_attr, [n for n in names if n != class_attr]
        )
        for class_attr in names
    }


@pytest.mark.parametrize("kind", CLASSIFIER_FACTORIES)
@pytest.mark.parametrize("class_attr", ["A", "B", "N"])
def test_batch_matches_row_path_exactly(datasets, kind, class_attr):
    dataset = datasets[class_attr]
    classifier = CLASSIFIER_FACTORIES[kind]()
    classifier.fit(dataset)
    batch = classifier.predict_batch(dataset.columns)
    probabilities, support = reference_predict(
        classifier, dataset.columns, dataset.n_rows
    )
    for row in range(dataset.n_rows):
        assert np.array_equal(batch.probabilities[row], probabilities[row]), (
            f"{kind}/{class_attr}: distribution mismatch at row {row}"
        )
        assert batch.support[row] == support[row], (
            f"{kind}/{class_attr}: support mismatch at row {row}"
        )
    assert batch.labels == dataset.class_encoder.labels


@pytest.mark.parametrize("kind", CLASSIFIER_FACTORIES)
def test_batch_on_fresh_columns(datasets, table, kind):
    """predict_batch on columns re-encoded from a *different* table (the
    audit scenario) matches the per-record reference on the same columns."""
    dataset = datasets["B"]
    classifier = CLASSIFIER_FACTORIES[kind]()
    classifier.fit(dataset)
    fresh = _messy_table(n=150, seed=99)
    columns = {
        name: dataset.encoders[name].encode_column(fresh.column(name))
        for name in dataset.base_attrs
    }
    batch = classifier.predict_batch(columns)
    probabilities, support = reference_predict(classifier, columns, fresh.n_rows)
    assert np.array_equal(batch.probabilities, probabilities)
    assert np.array_equal(batch.support, support)


def test_a_classifier_without_predict_batch_cannot_be_built():
    class FitOnly(AttributeClassifier):
        def fit(self, dataset: Dataset) -> None:
            self.dataset = dataset

    with pytest.raises(TypeError, match="predict_batch"):
        FitOnly()


def test_hand_built_tree_blends_at_two_levels():
    """A ``NominalSplit`` on A whose ``a`` branch splits on N: a record
    missing both, or with an A value that has no branch and no N, blends
    at both levels. The expected values are the convex combinations
    worked by hand (every fraction and count is dyadic, so exact)."""
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            numeric("N", 0, 100, integer=True),
            nominal("C", ["x", "y"]),
        ]
    )
    low = Leaf(np.array([6.0, 2.0, 0.0, 0.0]))  # x 0.75, n 8
    high = Leaf(np.array([1.0, 7.0, 0.0, 0.0]))  # x 0.125, n 8
    on_n = NumericSplit(low.counts + high.counts, "N", 50.0, low, high, 0.5)
    b_leaf = Leaf(np.array([0.0, 4.0, 0.0, 0.0]))  # y 1.0, n 4
    root = NominalSplit(
        on_n.counts + b_leaf.counts, "A", {0: on_n, 1: b_leaf}, {0: 0.75, 1: 0.25}
    )
    classifier = TreeClassifier()
    classifier.dataset = Dataset(
        "C",
        ["A", "N"],
        encoders={name: BaseEncoder(schema.attribute(name)) for name in ("A", "N")},
        columns={},
        class_encoder=ClassEncoder(schema.attribute("C")),
        y=np.empty(0, dtype=np.int64),
        n_rows=0,
    )
    classifier.root = root
    cases = [  # (A, N) -> P(x), P(y), support
        (("a", 20), (0.75, 0.25, 8.0)),
        (("a", 80), (0.125, 0.875, 8.0)),
        (("b", None), (0.0, 1.0, 4.0)),
        (("a", None), (0.4375, 0.5625, 8.0)),  # blends at N only
        (("c", 20), (0.5625, 0.4375, 7.0)),  # no branch for c: blends at A
        (("zzz", 80), (0.09375, 0.90625, 7.0)),  # out of domain: blends at A
        ((None, None), (0.328125, 0.671875, 7.0)),  # blends at A, then N
        (("c", None), (0.328125, 0.671875, 7.0)),
        (("zzz", None), (0.328125, 0.671875, 7.0)),
    ]
    columns = {
        name: classifier.dataset.encoders[name].encode_column(
            [record[i] for record, _ in cases]
        )
        for i, name in enumerate(("A", "N"))
    }
    batch = classifier.predict_batch(columns)
    probabilities, support = reference_predict(classifier, columns, len(cases))
    assert np.array_equal(batch.probabilities, probabilities)
    assert np.array_equal(batch.support, support)
    expected = np.array([[x, y, 0.0, 0.0] for _, (x, y, _) in cases])
    assert np.array_equal(batch.probabilities, expected)
    assert batch.support.tolist() == [n for _, (_, _, n) in cases]


_DATE_START = datetime.date(2000, 1, 1)


@st.composite
def _table_pair(draw):
    """A random 2–4 column schema, a training table and a fresh table.

    Training cells come from small per-column pools where null is
    several entries out of a handful; fresh cells also draw domain
    values the training table may lack, out-of-domain nominal values
    and numbers outside the training range.
    """
    n_attrs = draw(st.integers(2, 4))
    attributes, train_pools, fresh_pools = [], [], []
    for i in range(n_attrs):
        kind = draw(st.sampled_from(("nominal", "int", "float", "date")))
        name = f"A{i}"
        if kind == "nominal":
            values = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
            attributes.append(nominal(name, values))
            pool = values[: draw(st.integers(1, len(values)))]
            extra = list(values) + ["zzz"]
        elif kind == "int":
            attributes.append(numeric(name, 0, 100, integer=True))
            pool = draw(st.lists(st.integers(10, 90), min_size=1, max_size=4, unique=True))
            extra = [0, 50, 100]
        elif kind == "float":
            attributes.append(numeric(name, 0.0, 10.0))
            pool = draw(
                st.lists(st.floats(1, 9, allow_nan=False), min_size=1, max_size=4, unique=True)
            )
            extra = [0.0, 5.0, 10.0]
        else:
            attributes.append(date(name, _DATE_START, datetime.date(2001, 12, 31)))
            offsets = draw(st.lists(st.integers(100, 600), min_size=1, max_size=4, unique=True))
            pool = [_DATE_START + datetime.timedelta(days=d) for d in offsets]
            extra = [_DATE_START, datetime.date(2001, 12, 31)]
        nulls = [None] * draw(st.integers(1, 3))
        train_pools.append(pool + nulls)
        fresh_pools.append(pool + extra + nulls)
    schema = Schema(attributes)

    def rows(pools, lo, hi):
        return [
            [draw(st.sampled_from(p)) for p in pools]
            for _ in range(draw(st.integers(lo, hi)))
        ]

    class_attr = f"A{draw(st.integers(0, n_attrs - 1))}"
    return (
        Table(schema, rows(train_pools, 4, 40)),
        Table(schema, rows(fresh_pools, 1, 25)),
        class_attr,
    )


_UNPRUNED = TreeConfig(pruning=PruningStrategy.NONE, min_instances=1.0)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_table_pair())
def test_every_family_matches_its_reference_on_fresh_columns(data):
    """Randomized parity: for all five families, ``predict_batch`` on a
    freshly encoded table equals the per-record reference bit for bit —
    unpruned trees, so blends nest."""
    train, fresh, class_attr = data
    base = [name for name in train.schema.names if name != class_attr]
    dataset = training_dataset(train, class_attr, base)
    columns = {
        name: dataset.encoders[name].encode_column(fresh.column(name))
        for name in base
    }
    for classifier in (
        TreeClassifier(_UNPRUNED),
        NaiveBayesClassifier(),
        KnnClassifier(k=3),
        OneRClassifier(),
        PrismClassifier(min_coverage=1),
    ):
        classifier.fit(dataset)
        batch = classifier.predict_batch(columns)
        probabilities, support = reference_predict(classifier, columns, fresh.n_rows)
        name = type(classifier).__name__
        assert np.array_equal(batch.probabilities, probabilities), name
        assert np.array_equal(batch.support, support), name


def test_empty_batch(datasets):
    dataset = datasets["B"]
    classifier = TreeClassifier()
    classifier.fit(dataset)
    empty = {name: dataset.columns[name][:0] for name in dataset.base_attrs}
    batch = classifier.predict_batch(empty)
    assert batch.n_rows == 0
    assert batch.probabilities.shape == (0, dataset.n_labels)


def test_batch_length_requires_columns_or_n_rows():
    with pytest.raises(ValueError):
        batch_length({}, None)
    assert batch_length({}, 4) == 4
    assert batch_length({"x": np.zeros(3)}, None) == 3


def test_unfitted_predict_batch_raises():
    with pytest.raises(RuntimeError):
        TreeClassifier().predict_batch({"x": np.zeros(2)})
