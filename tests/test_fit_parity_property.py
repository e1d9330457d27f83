"""Fit-parity property suite: the fit's shared-column encoding is pinned
to the cell-at-a-time reference fit, byte for byte.

The auditor fits on one encoding path: every table column is encoded
once into NumPy arrays shared by all classifiers
(:class:`~repro.core.auditor.FitColumnCache`). Its plain twin lives in
``tests/reference_lanes.py``: each classifier's dataset encoded cell by
cell through :meth:`BaseEncoder.encode
<repro.mining.dataset.BaseEncoder.encode>` and :meth:`ClassEncoder.code_of
<repro.mining.dataset.ClassEncoder.code_of>`. These tests generate
randomized schemas and tables — mixed nominal/numeric/date columns,
nulls, out-of-domain values, ties, constant columns, single-row and
all-null-attribute edge cases — and assert that for **all five
classifier families** the fit and the reference induce byte-identical
models, and that fitting the attributes on threads (``fit_n_jobs`` 2,
and -1 for every usable core) changes nothing either.

"Byte-identical" is checked on the canonical fit fingerprint
(:meth:`AttributeClassifier.fit_state
<repro.mining.base.AttributeClassifier.fit_state>` serialized with
``json.dumps(..., sort_keys=True)``), which captures everything
prediction reads; for the tree (the only persistable classifier) the
``repro-auditor-v1`` document is additionally compared byte for byte.

Open-vocabulary text columns cannot be audited (the auditor rejects
:class:`~repro.schema.domain.TextDomain` schemas up front), so their
encoding parity — including the numeric-looking-string trap ``"1.5"`` —
is pinned at the encoder level instead.
"""

from __future__ import annotations

import datetime
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.serialize import auditor_to_dict
from repro.mining.dataset import BaseEncoder
from repro.mining.knn import KnnClassifier
from repro.mining.naive_bayes import NaiveBayesClassifier
from repro.mining.rule_induction import OneRClassifier, PrismClassifier
from repro.mining.tree_classifier import TreeClassifier
from repro.quis import generate_quis_sample
from repro.schema import Schema, Table, date, nominal, numeric, text
from tests import reference_lanes as ref

# -- the five classifier families ---------------------------------------------


def _make_tree(config):
    return TreeClassifier()


def _make_naive_bayes(config):
    return NaiveBayesClassifier()


def _make_knn(config):
    return KnnClassifier()


def _make_one_r(config):
    return OneRClassifier()


def _make_prism(config):
    return PrismClassifier()


FACTORIES = {
    "tree": _make_tree,
    "naive-bayes": _make_naive_bayes,
    "knn": _make_knn,
    "one-r": _make_one_r,
    "prism": _make_prism,
}


def _fit_fingerprint(
    schema: Schema,
    table: Table,
    factory,
    *,
    reference: bool = False,
    n_jobs: int = 1,
) -> bytes:
    """Fit one auditor — or, with *reference*, the cell-at-a-time
    reference fit — and return the canonical model fingerprint."""
    auditor = DataAuditor(
        schema, AuditorConfig(classifier_factory=factory, fit_n_jobs=n_jobs)
    )
    if reference:
        ref.reference_fit(auditor, table)
    else:
        auditor.fit(table)
    states = {
        name: classifier.fit_state()
        for name, classifier in auditor.classifiers.items()
    }
    return json.dumps(states, sort_keys=True).encode("utf-8")


# -- randomized schemas and tables ---------------------------------------------

_DATE_START = datetime.date(2000, 1, 1)


@st.composite
def schema_and_table(draw, min_rows: int = 0, max_rows: int = 30):
    """A random 2–4 column schema plus a table of random rows.

    Cells are drawn from small per-column pools, so ties, duplicated
    values, and constant columns (pool of size one) arise naturally;
    every pool includes ``None`` (nulls) and nominal pools include an
    out-of-domain value.
    """
    n_attrs = draw(st.integers(2, 4))
    attributes = []
    pools = []
    for i in range(n_attrs):
        kind = draw(st.sampled_from(("nominal", "int", "float", "date")))
        name = f"A{i}"
        if kind == "nominal":
            values = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
            attributes.append(nominal(name, values))
            pool = list(values) + ["zzz"]  # zzz: out-of-domain → unknown code
        elif kind == "int":
            attributes.append(numeric(name, 0, 100, integer=True))
            pool = draw(
                st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True)
            )
        elif kind == "float":
            attributes.append(numeric(name, 0.0, 10.0))
            pool = draw(
                st.lists(
                    st.floats(0, 10, allow_nan=False, allow_infinity=False),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
        else:
            attributes.append(date(name, _DATE_START, datetime.date(2001, 12, 31)))
            offsets = draw(
                st.lists(st.integers(0, 700), min_size=1, max_size=4, unique=True)
            )
            pool = [_DATE_START + datetime.timedelta(days=d) for d in offsets]
        pools.append(pool + [None])
    schema = Schema(attributes)
    n_rows = draw(st.integers(min_rows, max_rows))
    rows = [
        [draw(st.sampled_from(pools[i])) for i in range(n_attrs)]
        for _ in range(n_rows)
    ]
    return schema, Table(schema, rows)


# -- the properties -------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FACTORIES))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=schema_and_table())
def test_columns_path_matches_rows_path(family, data):
    """Randomized fit parity: the fit vs the cell-at-a-time reference,
    serially, per family."""
    schema, table = data
    factory = FACTORIES[family]
    columns = _fit_fingerprint(schema, table, factory)
    rows = _fit_fingerprint(schema, table, factory, reference=True)
    assert columns == rows


@pytest.mark.parametrize("family", sorted(FACTORIES))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=schema_and_table(min_rows=1))
def test_parallel_fit_matches_serial_on_both_paths(family, data):
    """The per-attribute thread fan-out changes nothing: the fit at one
    job, two jobs and every usable core (-1) and the reference fit
    produce the same bytes."""
    schema, table = data
    factory = FACTORIES[family]
    fingerprints = {
        _fit_fingerprint(schema, table, factory, n_jobs=jobs) for jobs in (1, 2, -1)
    }
    fingerprints.add(_fit_fingerprint(schema, table, factory, reference=True))
    assert len(fingerprints) == 1


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=schema_and_table())
def test_tree_models_serialize_identically(data):
    """For the persistable classifier the full ``repro-auditor-v1``
    document — what ``repro fit`` writes and the registry content-
    addresses — is byte-identical to the reference fit's at any job
    count."""
    schema, table = data
    documents = {
        json.dumps(
            auditor_to_dict(ref.reference_fit(DataAuditor(schema), table)),
            sort_keys=True,
        ).encode()
    }
    for jobs in (1, 2, -1):
        auditor = DataAuditor(schema, AuditorConfig(fit_n_jobs=jobs))
        auditor.fit(table)
        documents.add(json.dumps(auditor_to_dict(auditor), sort_keys=True).encode())
    assert len(documents) == 1


# -- deterministic edge cases ----------------------------------------------------


def _edge_schema() -> Schema:
    return Schema(
        [
            nominal("A", ["a", "b"]),
            numeric("N", 0, 10),
            numeric("K", 0, 100, integer=True),
            date("D", _DATE_START, datetime.date(2001, 1, 1)),
        ]
    )


_EDGE_TABLES = {
    "empty": [],
    "single-row": [["a", 1.0, 3, datetime.date(2000, 5, 5)]],
    "all-null-attribute": [
        ["a", None, 1, datetime.date(2000, 5, 5)],
        ["b", None, 2, datetime.date(2000, 6, 6)],
        ["a", None, 2, None],
    ],
    "constant-columns": [["a", 2.0, 7, datetime.date(2000, 5, 5)]] * 6,
    "tied-values": [
        ["a", 1.0, 1, datetime.date(2000, 1, 2)],
        ["a", 1.0, 1, datetime.date(2000, 1, 2)],
        ["b", 2.0, 1, datetime.date(2000, 1, 3)],
        ["b", 2.0, 2, datetime.date(2000, 1, 3)],
        [None, None, None, None],
        ["zzz", 1.0, 2, datetime.date(2000, 1, 2)],
    ],
}


@pytest.mark.parametrize("family", sorted(FACTORIES))
@pytest.mark.parametrize("case", sorted(_EDGE_TABLES))
def test_edge_case_tables_fit_identically(family, case):
    schema = _edge_schema()
    table = Table(schema, _EDGE_TABLES[case])
    factory = FACTORIES[family]
    columns = _fit_fingerprint(schema, table, factory)
    rows = _fit_fingerprint(schema, table, factory, reference=True)
    assert columns == rows


@pytest.mark.parametrize("family", sorted(FACTORIES))
def test_edge_case_parallel_fit(family):
    """jobs=2 and -1 on the canned tied-values table, against the
    reference."""
    schema = _edge_schema()
    table = Table(schema, _EDGE_TABLES["tied-values"])
    factory = FACTORIES[family]
    fingerprints = {
        _fit_fingerprint(schema, table, factory, n_jobs=jobs) for jobs in (1, 2, -1)
    }
    fingerprints.add(_fit_fingerprint(schema, table, factory, reference=True))
    assert len(fingerprints) == 1


def test_quis_fit_matches_reference_at_any_job_count():
    """On a QUIS sample — the shape the benchmark fits — the model
    document is byte-identical to the reference fit's, serially, on two
    threads and on every usable core (moved from the retired fit-throughput bench, which
    checked it at 20k and 80k rows)."""
    sample = generate_quis_sample(2_000, seed=2003)
    documents = {
        json.dumps(
            auditor_to_dict(ref.reference_fit(DataAuditor(sample.schema), sample.dirty)),
            sort_keys=True,
        )
    }
    for jobs in (1, 2, -1):
        auditor = DataAuditor(sample.schema, AuditorConfig(fit_n_jobs=jobs))
        auditor.fit(sample.dirty)
        documents.add(json.dumps(auditor_to_dict(auditor), sort_keys=True))
    assert len(documents) == 1


# -- text columns: encoder-level parity ------------------------------------------


@given(
    values=st.lists(
        st.one_of(
            st.none(),
            st.sampled_from(["foo", "bar", "", "1.5", "-3", "nan", "inf", "1e3"]),
            st.text(max_size=6),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_text_column_encoding_parity(values):
    """Text columns (rejected by the auditor, but encodable at the mining
    layer) take the per-cell fallback: numeric-looking strings such as
    ``"1.5"`` must encode exactly like the per-cell reference — not be
    swept up by the bulk float cast."""
    encoder = BaseEncoder(text("T"))
    vectorized = encoder.encode_column(values)
    rowwise = ref.reference_encode(encoder, values)
    assert np.array_equal(vectorized, rowwise, equal_nan=True)
    assert vectorized.dtype == rowwise.dtype
