"""Reference implementations the property suites pin the production
lanes to.

Production reads every backend through one column lane
(:func:`repro.io.columnar.columns_from_rows`), fits through one
encoder (:class:`repro.core.auditor.FitColumnCache`) and predicts
through one call (:meth:`AttributeClassifier.predict_batch
<repro.mining.base.AttributeClassifier.predict_batch>`). All three are
optimized formulations, so each keeps a plain, obviously-correct twin
here:

* **row-at-a-time readers**, one per backend (:func:`read_rows`,
  :func:`read_chunks`): every stored record is structurally checked and
  converted on its own, with :func:`~repro.io.cells.convert_row` and the
  backend's own per-cell converter, strictly in stored order — so the
  first error raised names the first bad record or cell in row order,
  with the messages the backends document;
* the **cell-at-a-time fit** (:func:`reference_dataset`,
  :func:`reference_fit`): each classifier's
  :class:`~repro.mining.dataset.Dataset` is encoded per cell through
  :meth:`BaseEncoder.encode <repro.mining.dataset.BaseEncoder.encode>`
  and :meth:`ClassEncoder.code_of
  <repro.mining.dataset.ClassEncoder.code_of>`, with class bins fitted
  on the per-cell numeric view, and assembled with
  :meth:`Dataset.from_shared <repro.mining.dataset.Dataset.from_shared>`;
* the **per-record predictors** (:func:`reference_predict`): one per
  classifier family, each predicting one record at a time from a plain
  ``{attribute: encoded value}`` mapping — the tree by a recursive walk
  that blends C4.5 fractional instances at every missing or untrained
  split value, 1R and PRISM through a scalar bucket lookup. They share
  no code with the batch paths.

Readers take a location the matching source has already accepted (the
CSV header, the SQLite table and the Parquet columns are checked by the
source constructors, which both lanes share).
"""

from __future__ import annotations

import csv
import json
import math
import sqlite3
from itertools import islice

import numpy as np

from repro.io import jsonl_backend, parquet_backend, sqlite_backend
from repro.io.cells import cell_converters, convert_row, parse_cell
from repro.mining import (
    KnnClassifier,
    NaiveBayesClassifier,
    OneRClassifier,
    PrismClassifier,
    TreeClassifier,
)
from repro.mining.dataset import BaseEncoder, ClassEncoder, Dataset
from repro.mining.tree.node import Leaf, NominalSplit, NumericSplit
from repro.schema.types import AttributeKind

__all__ = [
    "read_rows",
    "read_chunks",
    "read_outcome",
    "reference_encode",
    "reference_dataset",
    "reference_fit",
    "reference_predict",
    "predict_record",
]

_DEFAULT_CHUNK = 8192


# -- row-at-a-time readers --------------------------------------------------------


def _csv_rows(schema, path, null_marker):
    names = schema.names
    converters = [
        lambda text, kind=a.kind, integer=getattr(a.domain, "integer", False): (
            parse_cell(text, kind, null_marker, integer)
        )
        for a in schema.attributes
    ]
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        line_no = 0  # the last line parsed whole
        try:
            header = next(reader)
            line_no = 1
            order = [header.index(name) for name in names]
            for line_no, fields in enumerate(reader, start=2):
                if len(fields) != len(header):
                    raise ValueError(
                        f"line {line_no}: expected {len(header)} fields, "
                        f"got {len(fields)}"
                    )
                raw = [fields[i] for i in order]
                yield convert_row(f"line {line_no}", raw, converters, names)
        except csv.Error as exc:
            raise ValueError(f"line {line_no + 1}: {exc}") from None


def _jsonl_rows(schema, path, null_marker):
    names = schema.names
    expected = set(names)
    converters = cell_converters(schema, jsonl_backend._coerce)
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: not valid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(
                    f"line {line_no}: expected one JSON object per line, "
                    f"got {type(obj).__name__}"
                )
            if set(obj) != expected:
                missing = sorted(expected - set(obj))
                extra = sorted(set(obj) - expected)
                raise ValueError(
                    f"line {line_no}: keys do not match the schema "
                    f"(missing {missing!r}, unexpected {extra!r})"
                )
            raw = [obj[name] for name in names]
            yield convert_row(f"line {line_no}", raw, converters, names)


def _sqlite_rows(schema, path, null_marker):
    names = schema.names
    converters = cell_converters(schema, sqlite_backend._from_sql)
    connection = sqlite3.connect(path)
    try:
        (table,) = sqlite_backend._user_tables(connection)
        select = "SELECT {} FROM {} ORDER BY rowid".format(
            ", ".join(sqlite_backend._quote(name) for name in names),
            sqlite_backend._quote(table),
        )
        for row_no, raw in enumerate(connection.execute(select), start=1):
            yield convert_row(f"row {row_no}", raw, converters, names)
    finally:
        connection.close()


def _parquet_batches(schema, path, batch_size):
    import pyarrow.parquet as pq

    names = list(schema.names)
    converters = cell_converters(schema, parquet_backend._coerce)
    row_no = 0
    handle = pq.ParquetFile(path)
    try:
        for batch in handle.iter_batches(batch_size=batch_size, columns=names):
            columns = [batch.column(i).to_pylist() for i in range(batch.num_columns)]
            rows = []
            for raw in zip(*columns):
                row_no += 1
                rows.append(convert_row(f"row {row_no}", raw, converters, names))
            if rows:
                yield rows
    finally:
        handle.close()


def _parquet_rows(schema, path, null_marker):
    for rows in _parquet_batches(schema, path, _DEFAULT_CHUNK):
        yield from rows


_READERS = {
    "csv": _csv_rows,
    "jsonl": _jsonl_rows,
    "sqlite": _sqlite_rows,
    "parquet": _parquet_rows,
}


def read_rows(schema, path, fmt: str, *, null_marker: str = "") -> list[list]:
    """Every stored row of *path*, converted one row at a time."""
    return list(_READERS[fmt](schema, path, null_marker))


def read_chunks(schema, path, fmt: str, chunk_size: int) -> list[list[list]]:
    """The stored rows grouped as a chunked read groups them: runs of
    *chunk_size* rows (Parquet: the file's record batches of that size)."""
    if fmt == "parquet":
        return list(_parquet_batches(schema, path, chunk_size))
    rows = _READERS[fmt](schema, path, "")
    chunks = []
    while True:
        chunk = list(islice(rows, chunk_size))
        if not chunk:
            return chunks
        chunks.append(chunk)


def read_outcome(read) -> tuple:
    """``("ok", value)`` or ``("error", message)`` of calling *read* — what
    two readers of the same bytes must agree on."""
    try:
        return ("ok", read())
    except ValueError as exc:
        return ("error", str(exc))


# -- the cell-at-a-time fit -------------------------------------------------------


def reference_encode(encoder: BaseEncoder, values) -> np.ndarray:
    """One base column encoded cell by cell through ``encoder.encode``."""
    dtype = np.int64 if encoder.categorical else np.float64
    return np.asarray([encoder.encode(value) for value in values], dtype=dtype)


def _orderable(attribute, value) -> bool:
    try:
        attribute.domain.to_number(value)
        return True
    except (TypeError, AttributeError, ValueError):
        return False


def reference_dataset(table, class_attr: str, base_attrs, n_bins: int) -> Dataset:
    """One classifier's training view, encoded one cell at a time."""
    schema = table.schema
    encoders = {name: BaseEncoder(schema.attribute(name)) for name in base_attrs}
    columns = {
        name: reference_encode(encoders[name], table.column(name))
        for name in base_attrs
    }
    attribute = schema.attribute(class_attr)
    values = table.column(class_attr)
    if attribute.kind is AttributeKind.NOMINAL:
        class_encoder = ClassEncoder(attribute, (), n_bins=n_bins)
    else:
        # per-cell numeric view: to_number of every orderable non-null cell
        view = [
            attribute.domain.to_number(value)
            for value in values
            if value is not None and _orderable(attribute, value)
        ]
        class_encoder = ClassEncoder(attribute, (), n_bins=n_bins, numeric_view=view)
    y = np.asarray([class_encoder.code_of(value) for value in values], dtype=np.int64)
    return Dataset.from_shared(
        class_attr,
        base_attrs,
        encoders=encoders,
        columns=columns,
        class_encoder=class_encoder,
        y=y,
        n_rows=table.n_rows,
    )


def reference_fit(auditor, table):
    """Fit *auditor* serially on cell-at-a-time datasets (returns it)."""
    auditor.classifiers = {}
    for class_attr in auditor.audited_attributes():
        classifier = auditor.config.make_classifier()
        classifier.fit(
            reference_dataset(
                table,
                class_attr,
                auditor.base_attributes_for(class_attr),
                auditor.config.n_bins,
            )
        )
        auditor.classifiers[class_attr] = classifier
    return auditor


# -- the per-record predictors ----------------------------------------------------


def _tree_walk(node, record):
    """``(probabilities, n)`` of one record from *node* down."""
    if isinstance(node, Leaf):
        n = node.n
        if n <= 0:
            size = max(len(node.counts), 1)
            return np.full(len(node.counts), 1.0 / size), 0.0
        return node.counts / n, n
    if isinstance(node, NominalSplit):
        code = int(record[node.attribute])
        if code >= 0:
            child = node.branches.get(code)
            if child is not None:
                return _tree_walk(child, record)
        pairs = [
            (node.fractions[branch_code], _tree_walk(child, record))
            for branch_code, child in node.branches.items()
        ]
        return _blend(pairs, len(node.counts))
    if isinstance(node, NumericSplit):
        value = float(record[node.attribute])
        if math.isnan(value):
            pairs = [
                (node.low_fraction, _tree_walk(node.low, record)),
                (1.0 - node.low_fraction, _tree_walk(node.high, record)),
            ]
            return _blend(pairs, len(node.counts))
        return _tree_walk(node.low if value <= node.threshold else node.high, record)
    raise TypeError(f"unknown node type: {type(node).__name__}")


def _blend(pairs, n_labels):
    """Convex combination of branch ``(fraction, (distribution, n))`` pairs."""
    distribution = np.zeros(n_labels, dtype=float)
    support = 0.0
    total_fraction = 0.0
    for fraction, (branch_distribution, branch_support) in pairs:
        distribution += fraction * branch_distribution
        support += fraction * branch_support
        total_fraction += fraction
    if total_fraction > 0:
        distribution = distribution / total_fraction
        support = support / total_fraction
    return distribution, support


def _predict_tree(classifier, record):
    return _tree_walk(classifier.root, record)


def _predict_naive_bayes(classifier, record):
    encoders = classifier.dataset.encoders
    log_posterior = np.log(classifier.priors)
    for name, likelihood in classifier.likelihood_tables().items():
        raw = record[name]
        if encoders[name].categorical:
            code = int(raw)
            if code < 0:
                continue  # missing value: skip the factor
            code = min(code, likelihood.shape[1] - 1)
        else:
            if math.isnan(raw):
                continue
            code = classifier.bin_discretizer(name).transform_value(raw)
        log_posterior = log_posterior + np.log(likelihood[:, code])
    log_posterior -= log_posterior.max()
    posterior = np.exp(log_posterior)
    posterior /= posterior.sum()
    return posterior, classifier.n_training


def _predict_knn(classifier, record):
    dataset = classifier.dataset
    y = classifier._y
    if y.size == 0:
        return np.full(dataset.n_labels, 1.0 / dataset.n_labels), 0.0
    distance = np.zeros(y.size, dtype=float)
    for name, column in classifier._columns.items():
        raw = record[name]
        if dataset.encoders[name].categorical:
            code = int(raw)
            if code < 0:
                distance += 1.0
            else:
                missing = column < 0
                distance += np.where(missing | (column != code), 1.0, 0.0)
        else:
            if math.isnan(raw):
                distance += 1.0
            else:
                missing = np.isnan(column)
                diff = np.abs(column - raw) / classifier._spans[name]
                distance += np.where(missing, 1.0, np.minimum(diff, 1.0))
    k = min(classifier.k, y.size)
    neighbours = np.argpartition(distance, k - 1)[:k]
    counts = np.bincount(y[neighbours], minlength=dataset.n_labels).astype(float)
    return counts / k, float(k)


def _bucket_of(classifier, name, raw) -> int:
    """The 1R/PRISM bucket of one encoded value (0 = missing)."""
    if classifier.dataset.encoders[name].categorical:
        code = int(raw)
        return 0 if code < 0 else code + 1
    if math.isnan(raw):
        return 0
    discretizer = classifier.bucket_discretizer(name)
    if discretizer is None:
        return 0
    return discretizer.transform_value(raw) + 1


def _distribution_of(counts):
    n = float(counts.sum())
    if n <= 0:
        return np.full(len(counts), 1.0 / len(counts)), 0.0
    return counts / n, n


def _predict_one_r(classifier, record):
    table = classifier.bucket_counts
    if classifier.attribute is None or table is None:
        return _distribution_of(classifier.global_counts)
    bucket = _bucket_of(classifier, classifier.attribute, record[classifier.attribute])
    counts = table[min(bucket, table.shape[0] - 1)]
    if counts.sum() <= 0:
        counts = classifier.global_counts
    return _distribution_of(counts)


def _predict_prism(classifier, record):
    buckets = {
        name: _bucket_of(classifier, name, record[name])
        for name in classifier.dataset.base_attrs
    }
    matching = [
        rule
        for rule in classifier.rules
        if all(buckets[name] == bucket for name, bucket in rule.conditions)
    ]
    if not matching:
        return _distribution_of(classifier.global_counts)
    best = max(
        matching,
        key=lambda rule: (
            float(rule.counts[rule.target_code]) / max(rule.n, 1.0),
            rule.n,
        ),
    )
    return _distribution_of(best.counts)


_PER_RECORD = {
    TreeClassifier: _predict_tree,
    NaiveBayesClassifier: _predict_naive_bayes,
    KnnClassifier: _predict_knn,
    OneRClassifier: _predict_one_r,
    PrismClassifier: _predict_prism,
}


def reference_predict(classifier, columns, n_rows: int) -> tuple:
    """``(probabilities, support)`` of *n_rows* encoded records, each
    predicted on its own from a plain per-row mapping of *columns*."""
    (predict,) = [
        predict
        for family, predict in _PER_RECORD.items()
        if isinstance(classifier, family)
    ]
    probabilities = np.empty((n_rows, classifier.dataset.n_labels), dtype=float)
    support = np.empty(n_rows, dtype=float)
    for row in range(n_rows):
        record = {name: column[row] for name, column in columns.items()}
        probabilities[row], support[row] = predict(classifier, record)
    return probabilities, support


def predict_record(classifier, record) -> tuple:
    """``(label, probabilities, support)`` of one raw record through
    ``predict_batch``: each base value encoded as a one-cell column
    (absent attributes are null)."""
    dataset = classifier.dataset
    columns = {
        name: dataset.encoders[name].encode_column([record.get(name)])
        for name in dataset.base_attrs
    }
    batch = classifier.predict_batch(columns, n_rows=1)
    probabilities = batch.probabilities[0]
    label = batch.labels[int(np.argmax(probabilities))]
    return label, probabilities, float(batch.support[0])
