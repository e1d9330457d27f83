"""Tests for equal-frequency discretization and dataset encoding."""

import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mining import (
    NULL_LABEL,
    UNKNOWN_LABEL,
    BaseEncoder,
    ClassEncoder,
    Dataset,
    EqualFrequencyDiscretizer,
)
from repro.schema import Schema, Table, date, nominal, numeric
from tests.datasets import training_dataset


class TestEqualFrequencyDiscretizer:
    def test_balanced_bins(self):
        values = list(range(100))
        discretizer = EqualFrequencyDiscretizer(4).fit(values)
        assert discretizer.n_bins == 4
        bins = discretizer.transform(values)
        counts = np.bincount(bins)
        assert all(20 <= c <= 30 for c in counts)

    def test_out_of_range_values_map_to_edge_bins(self):
        discretizer = EqualFrequencyDiscretizer(4).fit(list(range(100)))
        assert discretizer.transform_value(-1000) == 0
        assert discretizer.transform_value(1000) == discretizer.n_bins - 1

    def test_ties_collapse_bins(self):
        values = [1.0] * 50 + [2.0] * 50
        discretizer = EqualFrequencyDiscretizer(10).fit(values)
        assert discretizer.n_bins <= 3
        # the two observed values land in different bins
        assert discretizer.transform_value(1.0) != discretizer.transform_value(2.0)

    def test_representative_is_median(self):
        discretizer = EqualFrequencyDiscretizer(2).fit(list(range(10)))
        low_bin = discretizer.transform_value(0)
        rep = discretizer.representative(low_bin)
        assert 0 <= rep <= 4.5

    def test_bin_labels_are_intervals(self):
        discretizer = EqualFrequencyDiscretizer(2).fit([0.0, 1.0, 2.0, 3.0])
        assert discretizer.bin_label(0).startswith("[-inf")
        assert discretizer.bin_label(discretizer.n_bins - 1).endswith("inf)")

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            EqualFrequencyDiscretizer(2).transform_value(1.0)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            EqualFrequencyDiscretizer(2).fit([])

    def test_min_bins(self):
        with pytest.raises(ValueError):
            EqualFrequencyDiscretizer(1)

    def test_state_roundtrip(self):
        discretizer = EqualFrequencyDiscretizer(5).fit([float(i) for i in range(50)])
        clone = EqualFrequencyDiscretizer.from_state(discretizer.to_state())
        for value in (-5.0, 3.3, 25.0, 77.0):
            assert clone.transform_value(value) == discretizer.transform_value(value)
        for bin_index in range(discretizer.n_bins):
            assert clone.representative(bin_index) == discretizer.representative(bin_index)

    @given(st.lists(st.floats(-100, 100), min_size=5, max_size=200), st.integers(2, 8))
    def test_transform_always_in_range(self, values, n_bins):
        discretizer = EqualFrequencyDiscretizer(n_bins).fit(values)
        bins = discretizer.transform(values)
        assert ((bins >= 0) & (bins < discretizer.n_bins)).all()


@pytest.fixture
def schema():
    return Schema(
        [
            nominal("A", ["a", "b", "c"]),
            numeric("N", 0, 100, integer=True),
            date("D", datetime.date(2000, 1, 1), datetime.date(2000, 12, 31)),
        ]
    )


class TestBaseEncoder:
    def test_nominal_codes(self, schema):
        encoder = BaseEncoder(schema.attribute("A"))
        assert encoder.encode("a") == 0
        assert encoder.encode("c") == 2
        assert encoder.encode(None) == -1

    def test_nominal_out_of_domain_gets_unknown_code(self, schema):
        encoder = BaseEncoder(schema.attribute("A"))
        assert encoder.encode("zzz") == encoder.unknown_code
        assert encoder.encode(12345) == encoder.unknown_code  # kind-violating cell

    def test_numeric_view(self, schema):
        encoder = BaseEncoder(schema.attribute("N"))
        assert encoder.encode(42) == 42.0
        assert np.isnan(encoder.encode(None))
        assert np.isnan(encoder.encode("not a number"))

    def test_date_view_is_ordinal(self, schema):
        encoder = BaseEncoder(schema.attribute("D"))
        d = datetime.date(2000, 6, 1)
        assert encoder.encode(d) == float(d.toordinal())

    def test_decode_category(self, schema):
        encoder = BaseEncoder(schema.attribute("A"))
        assert encoder.decode_category(1) == "b"
        assert encoder.decode_category(encoder.unknown_code) is None


class TestClassEncoder:
    def test_nominal_labels(self, schema):
        encoder = ClassEncoder(schema.attribute("A"))
        assert encoder.labels == ("a", "b", "c", NULL_LABEL, UNKNOWN_LABEL)
        assert encoder.label_of("b") == "b"
        assert encoder.label_of(None) == NULL_LABEL
        assert encoder.label_of("weird") == UNKNOWN_LABEL

    def test_numeric_class_is_binned(self, schema):
        encoder = ClassEncoder(
            schema.attribute("N"), n_bins=4, numeric_view=list(range(100))
        )
        assert encoder.discretizer is not None
        assert len(encoder.labels) == encoder.discretizer.n_bins + 2
        assert encoder.label_of(None) == NULL_LABEL

    def test_numeric_proposal_is_representative(self, schema):
        encoder = ClassEncoder(
            schema.attribute("N"), n_bins=4, numeric_view=list(range(101))
        )
        label = encoder.label_of(10)
        proposal = encoder.proposal_for(label)
        assert isinstance(proposal, int)
        assert 0 <= proposal <= 30

    def test_nominal_proposal_is_value(self, schema):
        encoder = ClassEncoder(schema.attribute("A"))
        assert encoder.proposal_for("a") == "a"
        assert encoder.proposal_for(NULL_LABEL) is None

    def test_date_class(self, schema):
        ordinals = [datetime.date(2000, m, 15).toordinal() for m in range(1, 13)]
        encoder = ClassEncoder(schema.attribute("D"), n_bins=3, numeric_view=ordinals)
        label = encoder.label_of(datetime.date(2000, 2, 1))
        proposal = encoder.proposal_for(label)
        assert isinstance(proposal, datetime.date)

    def test_state_roundtrip(self, schema):
        encoder = ClassEncoder(
            schema.attribute("N"), n_bins=5, numeric_view=list(range(50))
        )
        clone = ClassEncoder.from_state(schema.attribute("N"), encoder.to_state())
        for value in (None, 3, 25, 49, "garbage"):
            assert clone.label_of(value) == encoder.label_of(value)
        assert clone.labels == encoder.labels


class TestDataset:
    def test_encodes_all_rows(self, schema):
        table = Table(
            schema,
            [
                ["a", 5, datetime.date(2000, 2, 2)],
                [None, None, None],
                ["zzz", 99, datetime.date(2000, 11, 11)],
            ],
        )
        dataset = training_dataset(table, "A", ["N", "D"])
        assert dataset.n_rows == 3
        assert dataset.y[0] == dataset.class_encoder.code_of("a")
        assert dataset.y[1] == dataset.class_encoder.null_code
        assert dataset.y[2] == dataset.class_encoder.unknown_code

    def test_class_attr_not_in_base(self, schema):
        table = Table(schema, [["a", 5, datetime.date(2000, 2, 2)]])
        with pytest.raises(ValueError):
            training_dataset(table, "A", ["A", "N"])

    def test_for_prediction_needs_no_table(self, schema):
        # how the model loader builds a reloaded classifier's dataset
        dataset = Dataset(
            "A",
            ["N", "D"],
            encoders={name: BaseEncoder(schema.attribute(name)) for name in "ND"},
            columns={},
            class_encoder=ClassEncoder(schema.attribute("A")),
            y=np.empty(0, dtype=np.int64),
            n_rows=0,
        )
        assert dataset.encoders["N"].encode_column([5])[0] == 5.0
        assert np.isnan(dataset.encoders["D"].encode_column([None])[0])
