"""Reference implementations the property suites pin the production
lanes to.

Production reads every backend through one column lane
(:func:`repro.io.columnar.columns_from_rows`), fits through one
encoder (:class:`repro.core.auditor.FitColumnCache`), grows trees level
by level (:class:`repro.mining.tree.grow.TreeGrower`) and predicts
through one call (:meth:`AttributeClassifier.predict_batch
<repro.mining.base.AttributeClassifier.predict_batch>`). All four are
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
  on the per-cell numeric view, and assembled by the
  :class:`~repro.mining.dataset.Dataset` constructor,
  and its trees grown by the **recursive grower**
  (:func:`reference_grow`): one node at a time, each numeric column
  argsorted per node and every boundary scored from a dense one-hot
  cumulative count matrix, each node pruned as its recursion returns;
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
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

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
from repro.mining.confidence import expected_error_confidence
from repro.mining.dataset import BaseEncoder, ClassEncoder, Dataset
from repro.mining.tree.grow import PruningStrategy, TreeConfig
from repro.mining.tree.node import Leaf, Node, NominalSplit, NumericSplit
from repro.schema.types import AttributeKind

__all__ = [
    "read_rows",
    "read_chunks",
    "read_outcome",
    "reference_encode",
    "reference_dataset",
    "reference_fit",
    "reference_grow",
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
        class_encoder = ClassEncoder(attribute, n_bins=n_bins)
    else:
        # per-cell numeric view: to_number of every orderable non-null cell
        view = [
            attribute.domain.to_number(value)
            for value in values
            if value is not None and _orderable(attribute, value)
        ]
        class_encoder = ClassEncoder(attribute, n_bins=n_bins, numeric_view=view)
    y = np.asarray([class_encoder.code_of(value) for value in values], dtype=np.int64)
    return Dataset(
        class_attr,
        base_attrs,
        encoders=encoders,
        columns=columns,
        class_encoder=class_encoder,
        y=y,
        n_rows=table.n_rows,
    )


def reference_fit(auditor, table):
    """Fit *auditor* serially on cell-at-a-time datasets (returns it);
    trees grow through the recursive grower (:func:`reference_grow`)."""
    auditor.classifiers = {}
    for class_attr in auditor.audited_attributes():
        classifier = auditor.config.make_classifier()
        dataset = reference_dataset(
            table,
            class_attr,
            auditor.base_attributes_for(class_attr),
            auditor.config.n_bins,
        )
        if isinstance(classifier, TreeClassifier):
            classifier.dataset = dataset
            classifier.root = reference_grow(dataset, classifier.config)
        else:
            classifier.fit(dataset)
        auditor.classifiers[class_attr] = classifier
    return auditor


# -- the recursive grower ---------------------------------------------------------
#
# The node-at-a-time formulation of C4.5 with the paper's adjustments:
# every node gathers its rows, argsorts each numeric column on its own,
# builds a dense one-hot cumulative count matrix and evaluates every
# boundary, and scores itself for the integrated Def.-9 pruning as its
# recursion returns. The production grower (repro.mining.tree.grow)
# grows level by level instead; the two must agree bit for bit.

_EPSILON = 1e-12


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (base 2) of a count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _entropy_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise entropy of a (rows × classes) count matrix."""
    totals = matrix.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, matrix / np.maximum(totals, _EPSILON), 0.0)
        logs = np.where(p > 0, np.log2(np.maximum(p, _EPSILON)), 0.0)
    return -(p * logs).sum(axis=1)


@dataclass
class _SplitCandidate:
    attribute: str
    gain: float
    gain_ratio: float
    categorical: bool
    threshold: float = 0.0
    #: the attribute column already gathered for this node's rows, so the
    #: split application does not fancy-index the full column again
    column: Optional[np.ndarray] = None


class _ReferenceGrower:
    """Grows one decision tree for a :class:`Dataset`, one node at a time."""

    def __init__(self, dataset: Dataset, config: Optional[TreeConfig] = None):
        self.dataset = dataset
        self.config = config or TreeConfig()
        self.n_labels = dataset.n_labels

    # -- public ------------------------------------------------------------

    def grow(self) -> Node:
        indices = np.arange(self.dataset.n_rows, dtype=np.int64)
        weights = np.ones(self.dataset.n_rows, dtype=float)
        categorical = tuple(
            name
            for name in self.dataset.base_attrs
            if self.dataset.encoders[name].categorical
        )
        root = self._build(indices, weights, frozenset(categorical), depth=0)
        if self.config.pruning is PruningStrategy.PESSIMISTIC:
            from repro.mining.tree.prune import prune_pessimistic

            root = prune_pessimistic(root, self.config.bounds)
        return root

    # -- recursion ------------------------------------------------------------

    def _class_counts(self, indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.dataset.y[indices], weights=weights, minlength=self.n_labels
        )

    def _build(
        self,
        indices: np.ndarray,
        weights: np.ndarray,
        categorical_remaining: frozenset[str],
        depth: int,
    ) -> Node:
        node, _ = self._build_scored(indices, weights, categorical_remaining, depth)
        return node

    def _build_scored(
        self,
        indices: np.ndarray,
        weights: np.ndarray,
        categorical_remaining: frozenset[str],
        depth: int,
    ) -> tuple[Node, Optional[tuple[bool, float]]]:
        """Build a subtree and return it with its pruning score.

        The score is the lexicographic ``(has_useful_leaf, expErrorConf)``
        of the *returned* node, computed bottom-up from the child scores
        in one pass. Recomputing it top-down per pruning decision (as the
        post-pass :mod:`repro.mining.tree.prune` does) re-walks every
        subtree once per ancestor — O(nodes × depth); memoizing it here
        keeps growth O(nodes) while combining the child scores with
        *exactly* the arithmetic of ``subtree_expected_error_confidence``
        (same child order, same summation order, same ``total <= 0``
        guard), so the grown tree is bit-identical either way.
        """
        counts = self._class_counts(indices, weights)
        total = float(weights.sum())
        config = self.config
        scoring = config.pruning is PruningStrategy.EXPECTED_ERROR_CONFIDENCE
        if (
            total < 2 * config.min_instances
            or np.count_nonzero(counts > _EPSILON) <= 1
            or (config.max_depth is not None and depth >= config.max_depth)
        ):
            return Leaf(counts), self._leaf_raw_score(counts) if scoring else None
        y_node = self.dataset.y[indices]
        candidate = self._select_split(indices, weights, y_node, categorical_remaining)
        if candidate is None:
            return Leaf(counts), self._leaf_raw_score(counts) if scoring else None
        if candidate.categorical:
            result = self._split_categorical(
                indices, weights, counts, candidate, categorical_remaining, depth
            )
        else:
            result = self._split_numeric(
                indices, weights, counts, candidate, categorical_remaining, depth
            )
        if result is None:
            return Leaf(counts), self._leaf_raw_score(counts) if scoring else None
        node, child_scores = result
        if not scoring:
            return node, None
        subtree_score = self._combine_scores(node, child_scores)
        leaf_useful, leaf_eec = self._leaf_raw_score(counts)
        if (leaf_useful, leaf_eec + _EPSILON) >= subtree_score:
            return Leaf(counts), (leaf_useful, leaf_eec)
        return node, subtree_score

    # The paper replaces a subtree by a leaf "whenever this transformation
    # leads to a higher value for expErrorConf" and separately deletes
    # rules "not useful for error detection". Both ideas combine into a
    # lexicographic score: (1) does the (sub)tree contain a leaf that
    # *could* flag a deviating record at the minimal confidence —
    # leftBound(P(ĉ), n) − rightBound(0, n) ≥ minConf — and (2) the Def.-9
    # expected error confidence with the minimal-confidence cutoff. The
    # usefulness component is required because on clean training data a
    # perfectly structured subtree of pure leaves has expErrorConf 0, just
    # like the collapsed leaf, yet only the subtree can detect anything.
    # The shared scoring functions live in repro.mining.tree.prune; the
    # collapse comparison adds _EPSILON to the leaf's expErrorConf (leaf
    # wins ties), but the *stored* score of a collapsed leaf is the raw
    # value — prune.py's recursion never sees the epsilon either.

    def _leaf_raw_score(self, counts: np.ndarray) -> tuple[bool, float]:
        from repro.mining.tree.prune import leaf_detection_useful

        config = self.config
        return (
            leaf_detection_useful(counts, config.bounds, config.min_detection_confidence),
            expected_error_confidence(
                counts, config.bounds, config.min_detection_confidence
            ),
        )

    @staticmethod
    def _combine_scores(
        node: Node, child_scores: Sequence[tuple[Node, tuple[bool, float]]]
    ) -> tuple[bool, float]:
        # mirrors subtree_has_useful_leaf / subtree_expected_error_confidence
        # over already-scored children; child_scores is in children() order
        useful = any(score[0] for _, score in child_scores)
        total = node.n
        if total <= 0:
            return useful, 0.0
        return useful, sum(child.n / total * score[1] for child, score in child_scores)

    # -- split selection -------------------------------------------------------

    def _select_split(
        self,
        indices: np.ndarray,
        weights: np.ndarray,
        y_node: np.ndarray,
        categorical_remaining: frozenset[str],
    ) -> Optional[_SplitCandidate]:
        # Tie-break contract (pinned by tests/test_tree_tie_breaks.py):
        # candidates are evaluated in dataset.base_attrs order and picked
        # with Python's max(), which keeps the FIRST maximal element — on
        # equal scores the earlier attribute wins. Any vectorized
        # reformulation of this selection must preserve first-max
        # semantics (np.argmax does; np.argmin over negated scores or
        # sorting do not necessarily).
        candidates: list[_SplitCandidate] = []
        for name in self.dataset.base_attrs:
            encoder = self.dataset.encoders[name]
            if encoder.categorical:
                if name not in categorical_remaining:
                    continue
                candidate = self._evaluate_categorical(name, indices, weights, y_node)
            else:
                candidate = self._evaluate_numeric(name, indices, weights, y_node)
            if candidate is not None and candidate.gain > _EPSILON:
                candidates.append(candidate)
        if not candidates:
            return None
        if not self.config.gain_ratio:
            return max(candidates, key=lambda c: c.gain)
        # C4.5: best gain ratio among candidates with at least average gain
        average_gain = sum(c.gain for c in candidates) / len(candidates)
        eligible = [c for c in candidates if c.gain >= average_gain - _EPSILON]
        return max(eligible, key=lambda c: c.gain_ratio)

    def _evaluate_categorical(
        self, name: str, indices: np.ndarray, weights: np.ndarray, y_node: np.ndarray
    ) -> Optional[_SplitCandidate]:
        config = self.config
        codes = self.dataset.columns[name][indices]
        known = codes >= 0
        known_weight = float(weights[known].sum())
        total_weight = float(weights.sum())
        if known_weight <= 0:
            return None
        n_categories = self.dataset.encoders[name].n_categories
        joint = np.bincount(
            codes[known] * self.n_labels + y_node[known],
            weights=weights[known],
            minlength=n_categories * self.n_labels,
        ).reshape(n_categories, self.n_labels)
        value_totals = joint.sum(axis=1)
        occupied = value_totals > _EPSILON
        if np.count_nonzero(occupied) < 2:
            return None
        # C4.5 constraint: at least two branches with min_instances weight
        if np.count_nonzero(value_totals >= config.min_instances) < 2:
            return None
        # minInst pre-pruning: some subset must concentrate one class
        if (
            config.min_class_instances is not None
            and joint.max() < config.min_class_instances
        ):
            return None
        known_entropy = _entropy(joint.sum(axis=0))
        child_entropies = _entropy_rows(joint[occupied])
        weighted_child = float(
            (value_totals[occupied] / known_weight * child_entropies).sum()
        )
        gain_known = known_entropy - weighted_child
        gain = (known_weight / total_weight) * gain_known
        split_parts = value_totals[occupied]
        missing_weight = total_weight - known_weight
        if missing_weight > _EPSILON:
            split_parts = np.append(split_parts, missing_weight)
        split_info = _entropy(split_parts)
        if split_info <= _EPSILON:
            return None
        return _SplitCandidate(
            name, gain, gain / split_info, categorical=True, column=codes
        )

    def _evaluate_numeric(
        self, name: str, indices: np.ndarray, weights: np.ndarray, y_node: np.ndarray
    ) -> Optional[_SplitCandidate]:
        config = self.config
        values = self.dataset.columns[name][indices]
        known = ~np.isnan(values)
        known_weight = float(weights[known].sum())
        total_weight = float(weights.sum())
        if known_weight <= 0:
            return None
        kv = values[known]
        ky = y_node[known]
        kw = weights[known]
        order = np.argsort(kv, kind="stable")
        sv, sy, sw = kv[order], ky[order], kw[order]
        # candidate boundaries: positions where the value changes
        change = np.nonzero(sv[1:] != sv[:-1])[0]  # split after index i
        if change.size == 0:
            return None
        one_hot = np.zeros((sv.size, self.n_labels), dtype=float)
        one_hot[np.arange(sv.size), sy] = sw
        cumulative = np.cumsum(one_hot, axis=0)
        total_counts = cumulative[-1]
        left_counts = cumulative[change]  # (n_candidates × n_labels)
        right_counts = total_counts[None, :] - left_counts
        left_totals = left_counts.sum(axis=1)
        right_totals = right_counts.sum(axis=1)
        feasible = (left_totals >= config.min_instances) & (
            right_totals >= config.min_instances
        )
        if config.min_class_instances is not None:
            feasible &= np.maximum(
                left_counts.max(axis=1), right_counts.max(axis=1)
            ) >= config.min_class_instances
        if not feasible.any():
            return None
        known_entropy = _entropy(total_counts)
        # Entropy only over feasible boundaries: each row's entropy depends
        # on that row alone, so subsetting changes no float result, and
        # argmax over the (order-preserving) subset keeps the row-path
        # tie-break — the LOWEST cut among equal gains (first maximum).
        if feasible.all():
            feasible_at = None
            lc, rc, lt, rt = left_counts, right_counts, left_totals, right_totals
        else:
            feasible_at = np.nonzero(feasible)[0]
            lc, rc = left_counts[feasible_at], right_counts[feasible_at]
            lt, rt = left_totals[feasible_at], right_totals[feasible_at]
        gains_known = known_entropy - (
            lt / known_weight * _entropy_rows(lc)
            + rt / known_weight * _entropy_rows(rc)
        )
        best_local = int(np.argmax(gains_known))
        best = best_local if feasible_at is None else int(feasible_at[best_local])
        gain_known = float(gains_known[best_local])
        if config.numeric_penalty:
            gain_known -= math.log2(max(change.size, 1)) / known_weight
        if gain_known <= _EPSILON:
            return None
        gain = (known_weight / total_weight) * gain_known
        boundary = change[best]
        threshold = float((sv[boundary] + sv[boundary + 1]) / 2.0)
        split_parts = [float(left_totals[best]), float(right_totals[best])]
        missing_weight = total_weight - known_weight
        if missing_weight > _EPSILON:
            split_parts.append(missing_weight)
        split_info = _entropy(np.asarray(split_parts))
        if split_info <= _EPSILON:
            return None
        return _SplitCandidate(
            name,
            gain,
            gain / split_info,
            categorical=False,
            threshold=threshold,
            column=values,
        )

    # -- split application -----------------------------------------------------

    def _split_categorical(
        self,
        indices: np.ndarray,
        weights: np.ndarray,
        counts: np.ndarray,
        candidate: _SplitCandidate,
        categorical_remaining: frozenset[str],
        depth: int,
    ) -> Optional[tuple[Node, list[tuple[Node, Optional[tuple[bool, float]]]]]]:
        codes = (
            candidate.column
            if candidate.column is not None
            else self.dataset.columns[candidate.attribute][indices]
        )
        known = codes >= 0
        known_weight = float(weights[known].sum())
        if known_weight <= 0:
            return None
        remaining = categorical_remaining - {candidate.attribute}
        present_codes = np.unique(codes[known])
        missing_idx = indices[~known]
        missing_w = weights[~known]
        branches: dict[int, Node] = {}
        fractions: dict[int, float] = {}
        child_scores: list[tuple[Node, Optional[tuple[bool, float]]]] = []
        for code in present_codes:
            mask = known & (codes == code)
            branch_weight = float(weights[mask].sum())
            if branch_weight <= _EPSILON:
                continue
            fraction = branch_weight / known_weight
            child_idx = indices[mask]
            child_w = weights[mask]
            if missing_idx.size:
                child_idx = np.concatenate([child_idx, missing_idx])
                child_w = np.concatenate([child_w, missing_w * fraction])
            child, score = self._build_scored(child_idx, child_w, remaining, depth + 1)
            branches[int(code)] = child
            fractions[int(code)] = fraction
            child_scores.append((child, score))
        if len(branches) < 2:
            return None
        return NominalSplit(counts, candidate.attribute, branches, fractions), child_scores

    def _split_numeric(
        self,
        indices: np.ndarray,
        weights: np.ndarray,
        counts: np.ndarray,
        candidate: _SplitCandidate,
        categorical_remaining: frozenset[str],
        depth: int,
    ) -> Optional[tuple[Node, list[tuple[Node, Optional[tuple[bool, float]]]]]]:
        values = (
            candidate.column
            if candidate.column is not None
            else self.dataset.columns[candidate.attribute][indices]
        )
        known = ~np.isnan(values)
        known_weight = float(weights[known].sum())
        if known_weight <= 0:
            return None
        low_mask = known & (values <= candidate.threshold)
        high_mask = known & (values > candidate.threshold)
        low_weight = float(weights[low_mask].sum())
        high_weight = float(weights[high_mask].sum())
        if low_weight <= _EPSILON or high_weight <= _EPSILON:
            return None
        low_fraction = low_weight / known_weight
        missing_idx = indices[~known]
        missing_w = weights[~known]
        low_idx, low_w = indices[low_mask], weights[low_mask]
        high_idx, high_w = indices[high_mask], weights[high_mask]
        if missing_idx.size:
            low_idx = np.concatenate([low_idx, missing_idx])
            low_w = np.concatenate([low_w, missing_w * low_fraction])
            high_idx = np.concatenate([high_idx, missing_idx])
            high_w = np.concatenate([high_w, missing_w * (1.0 - low_fraction)])
        low, low_score = self._build_scored(low_idx, low_w, categorical_remaining, depth + 1)
        high, high_score = self._build_scored(high_idx, high_w, categorical_remaining, depth + 1)
        node = NumericSplit(
            counts, candidate.attribute, candidate.threshold, low, high, low_fraction
        )
        return node, [(low, low_score), (high, high_score)]




def reference_grow(dataset: Dataset, config: Optional[TreeConfig] = None) -> Node:
    """One tree grown (and, per config, pruned) by the recursive grower."""
    return _ReferenceGrower(dataset, config).grow()


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
