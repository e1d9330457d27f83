"""Decision-tree induction: ID3/C4.5 with the paper's auditing adjustments.

Implements sec. 5.1 (information gain, gain ratio, numeric binary splits,
fractional-weight handling of missing values) plus the sec. 5.4
adjustments:

* **minInst pre-pruning** — a partition step is only admitted when at
  least one resulting subset contains at least ``min_class_instances``
  instances of one class (derived from the user's minimal error
  confidence via :func:`repro.mining.confidence.min_instances_for_confidence`);
* **integrated expected-error-confidence pruning** — a subtree is kept
  only if its expected error confidence (Def. 9) exceeds that of the
  collapsed leaf; the pruning criterion thereby reflects the
  classifier's actual use in data auditing rather than its
  misclassification rate.

The classic C4.5 behaviour (pessimistic-error subtree replacement as a
post-pass) remains available via :class:`PruningStrategy` for the
baseline / ablation experiments.

**Level by level.** A tree grows breadth-first, the attribute-list
scheme of SLIQ (Mehta et al., EDBT'96) and SPRINT (Shafer et al.,
VLDB'96): every node of one depth is searched by the same batched NumPy
kernels, so a search costs a handful of array operations per level
instead of a few dozen per node. A level is a set of *entries* (row id,
weight, node), laid out node by node; a child holds its parent's rows
that know the split attribute, in parent order, then the rows missing
it (sent down every branch with a fractional weight), in parent order.
Each numeric column is stable-sorted once, at the root; a split passes
each sorted list to the children by a stable partition on child id, and
equal-value runs that mix known and missing rows of the split attribute
are reordered known-first, which is where a child's own stable sort
puts them. Numeric splits are first screened in O(entries) per level
(:meth:`TreeGrower._search_numeric`), and the shortlist is decided with
exact arithmetic.

The trees are bit-identical to growing one node at a time (the
recursive grower kept as the reference in ``tests/reference_lanes.py``):
every count, weight total and entropy is summed in the order and
grouping the node-at-a-time search sums it — ``np.bincount`` adds each
bin in input order, a row sum of a C-contiguous matrix equals the
``.sum()`` of that row, so equal-length runs are summed as the rows of
one matrix (:func:`_run_sums`), and running sums restart per run
(:func:`_run_accumulate`).

Memory: the grower keeps one level's entry arrays (row, weight and node
per entry, plus one position per entry and numeric attribute), and
each grown node's class counts and split record until the bottom-up
pass. That pass builds node objects from the deepest level up and,
under the integrated pruning, collapses a subtree into a leaf as soon
as its root is scored. A level's searches and layout release each
per-entry array as soon as it is used up, because the auditor grows
several trees at once: on perfbench's ``fit`` input (80,000 QUIS rows,
eight trees) one tree's growing peaks 17–19 MiB above its dataset
(tracemalloc), and the workload peaks at 131 MiB resident with two
trees in flight, against 127 MiB growing one tree at a time before the
release and 166 MiB when every node searched on its own with dense
one-hot count matrices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.mining.dataset import Dataset
from repro.mining.intervals import ConfidenceBounds
from repro.mining.tree.node import Leaf, Node, NominalSplit, NumericSplit

__all__ = ["PruningStrategy", "TreeConfig", "TreeGrower", "grow_tree"]

_EPSILON = 1e-12
#: unit roundoff of float64 (2**-53)
_UNIT = np.finfo(np.float64).eps / 2


class PruningStrategy(enum.Enum):
    """Tree-simplification strategies (paper default: integrated Def.-9)."""

    NONE = "none"
    #: C4.5's pessimistic-error subtree replacement (post-pass)
    PESSIMISTIC = "pessimistic"
    #: the paper's integrated expected-error-confidence pruning
    EXPECTED_ERROR_CONFIDENCE = "expected-error-confidence"


@dataclass
class TreeConfig:
    """Induction parameters.

    ``min_instances`` is C4.5's classic minimum branch weight (at least two
    branches must carry this much weight for a split to be admitted).
    ``min_class_instances`` activates the minInst pre-pruning;
    :class:`repro.core.auditor.DataAuditor` derives it from the minimal
    error confidence. ``gain_ratio=False`` yields plain ID3 attribute
    selection. ``numeric_penalty`` applies C4.5 release 8's
    ``log2(candidates)/N`` correction to continuous-attribute gains.
    """

    min_instances: float = 2.0
    min_class_instances: Optional[float] = None
    max_depth: Optional[int] = None
    gain_ratio: bool = True
    numeric_penalty: bool = True
    pruning: PruningStrategy = PruningStrategy.EXPECTED_ERROR_CONFIDENCE
    bounds: ConfidenceBounds = field(default_factory=ConfidenceBounds)
    #: minimal error confidence the auditing context cares about; both the
    #: Def.-9 cutoff and the leaf-usefulness test use it. The auditor
    #: passes its own min_error_confidence; the default matches the
    #: paper's evaluation setting (80 %).
    min_detection_confidence: float = 0.8

    def __post_init__(self) -> None:
        if self.min_instances < 1:
            raise ValueError("min_instances must be at least 1")
        if self.min_class_instances is not None and self.min_class_instances < 1:
            raise ValueError("min_class_instances must be at least 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


# -- exact batched arithmetic ------------------------------------------------------


def _run_sums(
    values: np.ndarray, lengths: np.ndarray, pending: Optional[np.ndarray] = None
) -> np.ndarray:
    """The ``.sum()`` of every run of *values* (of the *pending* runs
    only, if given), bit for bit.

    Run ``i`` is the next ``lengths[i]`` entries. NumPy sums a 1-D array
    pairwise, so its result depends on the run's length; runs of one
    length are therefore summed together as the rows of one C-contiguous
    matrix, whose row sums equal the runs' own ``.sum()``.
    """
    sums = np.zeros(lengths.size)
    if values.size == 0:
        return sums
    offsets = np.cumsum(lengths) - lengths
    if pending is None:
        pending = np.arange(lengths.size)
    pending = pending[np.argsort(lengths[pending], kind="stable")]
    distinct, first, count = np.unique(
        lengths[pending], return_index=True, return_counts=True
    )
    for length, i, n_runs in zip(distinct.tolist(), first.tolist(), count.tolist()):
        if n_runs == 1:
            run = pending[i]
            start = offsets[run]
            sums[run] = np.add.reduce(values[start : start + length])
        else:
            runs = pending[i : i + n_runs]
            sums[runs] = values[offsets[runs, None] + np.arange(length)].sum(axis=1)
    return sums


def _weight_sums(weights: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`_run_sums` of runs of weights: a run of weights that are
    all 1.0 sums to its length, exactly, in any order."""
    ends = np.cumsum(lengths)
    not_one = np.concatenate(([0], np.cumsum(weights != 1.0)))
    fractional = not_one[ends] > not_one[ends - lengths]
    sums = _run_sums(weights, lengths, np.flatnonzero(fractional))
    sums[~fractional] = lengths[~fractional]
    return sums


def _known_weights(
    level: "_Level",
    node: np.ndarray,
    known: np.ndarray,
    totals: np.ndarray,
    wanted: np.ndarray,
) -> np.ndarray:
    """Per *wanted* node, the ``.sum()`` of its known entries' weights in
    node order — its total where it knows every entry (0 elsewhere)."""
    n_known = np.bincount(node[known], minlength=level.n_nodes)
    weights = np.where(wanted & (n_known == level.sizes), totals, 0.0)
    partial = wanted & (n_known < level.sizes)
    if partial.any():
        weights[partial] = _weight_sums(
            level.weights[known & partial[node]], n_known[partial]
        )
    return weights


def _run_accumulate(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Running sums restarted at every run of *values*, each exactly as
    ``np.cumsum`` of the run alone.

    Runs are bucketed by length (powers of two) into matrices padded with
    zeros at the end of each row and summed along the rows: padding
    after a run does not touch the run's own running sums.
    """
    out = np.empty_like(values)
    if values.size == 0:
        return out
    offsets = np.cumsum(lengths) - lengths
    nonempty = np.flatnonzero(lengths)
    widths = 1 << np.ceil(np.log2(lengths[nonempty])).astype(np.int64)
    for width in np.unique(widths).tolist():
        runs = nonempty[widths == width]
        if runs.size == 1:
            start, stop = offsets[runs[0]], offsets[runs[0]] + lengths[runs[0]]
            out[start:stop] = np.cumsum(values[start:stop])
            continue
        columns = np.arange(width)
        inside = columns < lengths[runs, None]
        at = (offsets[runs, None] + columns)[inside]
        block = np.zeros((runs.size, width))
        block[inside] = values[at]
        out[at] = np.cumsum(block, axis=1)[inside]
    return out


def _entropies(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of every run of *values*, each computed
    as ``-(p * log2 p).sum()`` over its positive entries ``p = v / v.sum()``."""
    totals = _run_sums(values, lengths)
    run_of = np.repeat(np.arange(lengths.size), lengths)
    positive = values > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = values[positive] / totals[run_of[positive]]
        terms = p * np.log2(p)
    entropies = -_run_sums(terms, np.bincount(run_of[positive], minlength=lengths.size))
    entropies[~(totals > 0)] = 0.0
    return entropies


def _entropy_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise entropy of a (rows × classes) count matrix."""
    totals = matrix.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, matrix / np.maximum(totals, _EPSILON), 0.0)
        logs = np.where(p > 0, np.log2(np.maximum(p, _EPSILON)), 0.0)
    return -(p * logs).sum(axis=1)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """``x · log2 x`` with ``0 · log2 0 = 0``."""
    return x * np.log2(np.where(x > 0, x, 1.0))


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer keys: one or two 16-bit
    radix passes while the keys fit 32 bits."""
    top = int(keys.max()) if keys.size else 0
    if top < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if top < 1 << 32:
        low = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
        high = (keys[low] >> 16).astype(np.uint16)
        return low[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


def _first_max(groups: np.ndarray, scores: np.ndarray, n_groups: int):
    """Per group (``groups`` non-decreasing), the index of its first
    maximal score; ``-1`` where a group has no finite score."""
    best = np.full(n_groups, -np.inf)
    np.maximum.at(best, groups, scores)
    hits = np.flatnonzero((scores == best[groups]) & np.isfinite(scores))
    first = np.full(n_groups, -1)
    winners, at = np.unique(groups[hits], return_index=True)
    first[winners] = hits[at]
    return first


# -- level state -----------------------------------------------------------------


@dataclass
class _Level:
    """The entries of one depth's nodes, laid out node by node."""

    rows: np.ndarray  #: training row of every entry
    weights: np.ndarray  #: its (fractional) weight
    sizes: np.ndarray  #: entries per node
    remaining: np.ndarray  #: (nodes × categorical attributes): still splittable
    #: numeric attribute → positions of its known entries, node by node,
    #: each node's sorted by (value, position)
    sorted: dict
    depth: int

    @property
    def n_nodes(self) -> int:
        return self.sizes.size

    @property
    def node(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_nodes), self.sizes)

    def subset(self, keep: np.ndarray) -> "_Level":
        """The level restricted to the nodes *keep* marks."""
        entry_keep = np.repeat(keep, self.sizes)
        position = np.cumsum(entry_keep) - 1
        return _Level(
            rows=self.rows[entry_keep],
            weights=self.weights[entry_keep],
            sizes=self.sizes[keep],
            remaining=self.remaining[keep],
            sorted={
                name: position[order[entry_keep[order]]]
                for name, order in self.sorted.items()
            },
            depth=self.depth,
        )


@dataclass
class _Search:
    """One attribute's best split per node of a level."""

    valid: np.ndarray
    gain: np.ndarray
    ratio: np.ndarray
    known_weight: np.ndarray
    threshold: Optional[np.ndarray] = None

    @classmethod
    def none(cls, n_nodes: int, known_weight: np.ndarray) -> "_Search":
        return cls(
            np.zeros(n_nodes, dtype=bool),
            np.zeros(n_nodes),
            np.zeros(n_nodes),
            known_weight,
        )


@dataclass
class _Split:
    """A grown node's split: its children are grown ids ``first_child …``."""

    attribute: str
    first_child: int
    threshold: float = 0.0
    low_fraction: float = 0.0
    codes: tuple = ()
    fractions: tuple = ()


class TreeGrower:
    """Grows one decision tree for a :class:`Dataset`, level by level."""

    def __init__(self, dataset: Dataset, config: Optional[TreeConfig] = None):
        self.dataset = dataset
        self.config = config or TreeConfig()
        self.n_labels = dataset.n_labels

    # -- public ------------------------------------------------------------

    def grow(self) -> Node:
        dataset = self.dataset
        self._categorical = [
            name for name in dataset.base_attrs if dataset.encoders[name].categorical
        ]
        self._counts: list[np.ndarray] = []
        self._splits: dict[int, _Split] = {}
        n_rows = dataset.n_rows
        level: Optional[_Level] = _Level(
            rows=np.arange(n_rows, dtype=np.int64),
            weights=np.ones(n_rows, dtype=float),
            sizes=np.array([n_rows]),
            remaining=np.ones((1, len(self._categorical)), dtype=bool),
            sorted={
                name: self._presorted(dataset.columns[name])
                for name in dataset.base_attrs
                if not dataset.encoders[name].categorical
            },
            depth=0,
        )
        while level is not None:
            level = self._grow_level(level)
        root = self._assemble()
        if self.config.pruning is PruningStrategy.PESSIMISTIC:
            from repro.mining.tree.prune import prune_pessimistic

            root = prune_pessimistic(root, self.config.bounds)
        return root

    @staticmethod
    def _presorted(column: np.ndarray) -> np.ndarray:
        known = np.flatnonzero(~np.isnan(column))
        return known[np.argsort(column[known], kind="stable")]

    # -- one level -----------------------------------------------------------

    def _grow_level(self, level: _Level) -> Optional[_Level]:
        """Record the level's nodes, split the ones that split, and
        return the next level (``None`` when every node is a leaf)."""
        config = self.config
        n_labels = self.n_labels
        node = level.node
        y_entries = self.dataset.y[level.rows]
        counts = np.bincount(
            node * n_labels + y_entries,
            weights=level.weights,
            minlength=level.n_nodes * n_labels,
        ).reshape(level.n_nodes, n_labels)
        first_id = len(self._counts)
        ids = np.arange(first_id, first_id + level.n_nodes)
        self._counts.extend(counts)
        totals = _weight_sums(level.weights, level.sizes)
        open_ = (totals >= 2 * config.min_instances) & (
            np.count_nonzero(counts > _EPSILON, axis=1) > 1
        )
        if config.max_depth is not None and level.depth >= config.max_depth:
            open_[:] = False
        if not open_.any():
            return None
        if not open_.all():
            level, ids, totals = level.subset(open_), ids[open_], totals[open_]
            node, y_entries = level.node, self.dataset.y[level.rows]
        if not self.dataset.base_attrs:
            return None
        searches = []
        for name in self.dataset.base_attrs:
            if name in self._categorical:
                index = self._categorical.index(name)
                searches.append(
                    self._search_categorical(
                        level, node, y_entries, name, level.remaining[:, index], totals
                    )
                )
            else:
                searches.append(self._search_numeric(level, node, y_entries, name, totals))
        chosen = self._select(searches)
        return self._apply(level, node, ids, chosen, searches)

    # -- split search ----------------------------------------------------------

    def _search_categorical(
        self,
        level: _Level,
        node: np.ndarray,
        y_entries: np.ndarray,
        name: str,
        remaining: np.ndarray,
        totals: np.ndarray,
    ) -> _Search:
        """Gain and gain ratio of a multiway split on *name*, per node:
        one weighted ``bincount`` over (node, category, class)."""
        config = self.config
        n_nodes, n_labels = level.n_nodes, self.n_labels
        n_categories = self.dataset.encoders[name].n_categories
        codes = self.dataset.columns[name][level.rows]
        known = (codes >= 0) & remaining[node]
        known_node = node[known]
        known_w = level.weights[known]
        joint = np.bincount(
            (known_node * n_categories + codes[known]) * n_labels + y_entries[known],
            weights=known_w,
            minlength=n_nodes * n_categories * n_labels,
        ).reshape(n_nodes, n_categories, n_labels)
        value_totals = joint.sum(axis=2)
        occupied = value_totals > _EPSILON
        ok = (
            remaining
            & (np.count_nonzero(occupied, axis=1) >= 2)
            # C4.5 constraint: at least two branches with min_instances weight
            & (np.count_nonzero(value_totals >= config.min_instances, axis=1) >= 2)
        )
        if config.min_class_instances is not None:
            # minInst pre-pruning: some subset must concentrate one class
            ok &= joint.max(axis=(1, 2)) >= config.min_class_instances
        known_weight = _known_weights(level, node, known, totals, ok)
        search = _Search.none(n_nodes, known_weight)
        nodes = np.flatnonzero(ok & (known_weight > 0))
        if nodes.size == 0:
            return search
        joint, value_totals, occupied = joint[nodes], value_totals[nodes], occupied[nodes]
        known_weight, total_weight = known_weight[nodes], totals[nodes]
        n_occupied = np.count_nonzero(occupied, axis=1)
        known_entropy = _entropies(
            joint.sum(axis=1).ravel(), np.full(nodes.size, n_labels)
        )
        parts = value_totals[occupied]
        weighted_child = _run_sums(
            parts / np.repeat(known_weight, n_occupied) * _entropy_rows(joint[occupied]),
            n_occupied,
        )
        gain = (known_weight / total_weight) * (known_entropy - weighted_child)
        missing_weight = total_weight - known_weight
        has_missing = missing_weight > _EPSILON
        lengths = n_occupied + has_missing
        split_parts = np.empty(lengths.sum())
        is_missing = np.zeros(split_parts.size, dtype=bool)
        is_missing[(np.cumsum(lengths) - 1)[has_missing]] = True
        split_parts[~is_missing] = parts
        split_parts[is_missing] = missing_weight[has_missing]
        split_info = _entropies(split_parts, lengths)
        valid = split_info > _EPSILON
        search.valid[nodes] = valid
        search.gain[nodes] = gain
        with np.errstate(divide="ignore", invalid="ignore"):
            search.ratio[nodes] = gain / split_info
        return search

    def _search_numeric(
        self,
        level: _Level,
        node: np.ndarray,
        y_entries: np.ndarray,
        name: str,
        totals: np.ndarray,
    ) -> _Search:
        """The best binary cut on *name*, per node, over its sorted list.

        The first maximum of the exact gain over the feasible boundaries
        (value changes) of a node is found in two steps:

        1. *Screen*, O(entries) for the whole level. Running class counts
           are accumulated exactly per (node, class), so prefix sums of
           the changes of ``Σ_c l_c·log2 l_c`` and ``Σ_c r_c·log2 r_c``
           give every boundary's weighted child entropy without its count
           vector, and minInst is decided exactly (a class reaches the
           bound left of a boundary iff some running count up to it
           does). The prefix sums run over the whole level, so the
           screened gain differs from the exact one by less than a
           per-node ``δ``, and the screened branch weights from the exact
           ones by less than ``η``::

               δ = 64·u·(n + L + 2)·((A + W·(2·|log2 K| + 4))/K
                                     + 2·|log2 K| + log2 L + 6)
               η = 8·u·(n + L + 2)·W

           (``u`` = 2**-53, ``n`` the node's known entries, ``L``
           classes, ``K`` its known weight, ``A`` and ``W`` the level's
           running sums of the terms' magnitudes and of the weights up
           to the node's last entry). That is at least four times a
           first-order rounding analysis: a node's share of a level-wide
           running sum errs by at most ``u`` times the running magnitude
           per addition, ``x·log2 x`` moves by at most ``|log2 K| + 2``
           times the error of a branch weight, a ``log2`` errs by a few
           ulp, and the exact gain's own rounding is bounded by its
           ``L``-term sums.
        2. *Recheck*. A boundary is shortlisted when it may be feasible
           (branch weights within ``η`` of ``min_instances``) and its
           screened gain is within ``2δ`` of its node's best surely
           feasible one, as the exact maximum always is. Shortlisted
           boundaries get their exact left count vectors (the running
           class counts at the boundary), the exact totals, feasibility
           and gains, and each node takes the first maximum.
        """
        config = self.config
        n_nodes, n_labels = level.n_nodes, self.n_labels
        values = self.dataset.columns[name][level.rows]
        order = level.sorted[name]
        s_node = node[order]
        s_value = values[order]
        s_weight = level.weights[order]
        inner = np.flatnonzero(
            (s_node[1:] == s_node[:-1]) & (s_value[1:] != s_value[:-1])
        )
        n_changes = np.bincount(s_node[inner], minlength=n_nodes)
        known_weight = _known_weights(
            level, node, ~np.isnan(values), totals, n_changes > 0
        )
        # per-entry arrays are released as soon as they are used up: this
        # search is where a tree's memory peaks, and the fit grows several
        # trees at once
        del values
        search = _Search.none(n_nodes, known_weight)
        if inner.size == 0:
            return search
        sizes = np.bincount(s_node, minlength=n_nodes)
        class_key = s_node * n_labels + y_entries[order]
        class_totals = np.bincount(
            class_key, weights=s_weight, minlength=n_nodes * n_labels
        ).reshape(n_nodes, n_labels)
        known_entropy = _entropies(class_totals.ravel(), np.full(n_nodes, n_labels))

        # running class counts, exact: per (node, class), in sorted order
        by_class = _stable_order(class_key)
        group = class_key[by_class]
        del class_key
        after = _run_accumulate(
            s_weight[by_class], np.bincount(group, minlength=n_nodes * n_labels)
        )
        group_total = class_totals.ravel()[group]
        right_after = group_total - after
        # the values before an entry are the values after the previous
        # entry of its group: 0 and the class total at a group's start
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        right_before = np.empty_like(after)
        right_before[1:] = right_after[:-1]
        right_before[starts] = group_total[starts]
        f_after = _xlog2x(after)
        f_right_after = _xlog2x(right_after)
        total_f = _xlog2x(class_totals)
        d_left = np.empty_like(after)
        d_left[1:] = f_after[1:] - f_after[:-1]
        d_left[starts] = f_after[starts]
        d_right = np.empty_like(after)
        d_right[1:] = f_right_after[1:] - f_right_after[:-1]
        d_right[starts] = f_right_after[starts] - total_f.ravel()[group[starts]]
        del group_total, right_after, f_after, f_right_after

        def in_sorted_order(grouped):
            terms = np.empty_like(grouped)
            terms[by_class] = grouped
            return terms

        # level-wide running sums, less the value before each node
        ends = np.cumsum(sizes) - 1
        b_node = s_node[inner]
        del s_node
        running_weight = np.cumsum(s_weight)
        left_f, right_f, left_total = (
            summed[inner] - np.concatenate(([0.0], summed[ends[:-1]]))[b_node]
            for summed in (
                np.cumsum(in_sorted_order(d_left)),
                np.cumsum(in_sorted_order(d_right)),
                running_weight,
            )
        )
        weight = known_weight[b_node]
        right_total = weight - left_total
        screened = known_entropy[b_node] - (
            _xlog2x(left_total)
            - left_f
            + _xlog2x(right_total)
            - (total_f.sum(axis=1)[b_node] + right_f)
        ) / weight
        class_ok = np.ones(inner.size, dtype=bool)
        if config.min_class_instances is not None:
            bound = config.min_class_instances
            first_left = np.full(n_nodes, s_weight.size)
            hits = np.flatnonzero(after >= bound)
            np.minimum.at(first_left, group[hits] // n_labels, by_class[hits])
            last_right = np.full(n_nodes, -1)
            hits = np.flatnonzero(right_before >= bound)
            np.maximum.at(last_right, group[hits] // n_labels, by_class[hits])
            class_ok = (first_left[b_node] <= inner) | (last_right[b_node] > inner)
        magnitude = np.cumsum(
            np.bincount(
                group // n_labels, np.abs(d_left) + np.abs(d_right), minlength=n_nodes
            )
        ) + np.abs(total_f).sum(axis=1)
        terms = sizes + n_labels + 2
        with np.errstate(divide="ignore", invalid="ignore"):
            log_weight = np.abs(np.log2(known_weight))
            slack = running_weight[ends]
            delta = (
                64
                * _UNIT
                * terms
                * (
                    (magnitude + slack * (2 * log_weight + 4)) / known_weight
                    + 2 * log_weight
                    + np.log2(n_labels)
                    + 6
                )
            )
        eta = (8 * _UNIT * terms * slack)[b_node]
        low = config.min_instances - eta
        high = config.min_instances + eta
        maybe = class_ok & (left_total >= low) & (right_total >= low)
        surely = class_ok & (left_total >= high) & (right_total >= high)
        best_sure = np.full(n_nodes, -np.inf)
        np.maximum.at(best_sure, b_node[surely], screened[surely])
        short = np.flatnonzero(
            maybe & (screened >= best_sure[b_node] - 2 * delta[b_node])
        )
        if short.size == 0:
            return search

        # exact recheck: each shortlisted boundary's left count vector is
        # the running count of every class at its last entry up to there
        at, q_node = inner[short], b_node[short]
        span = s_weight.size + 1
        keys = group * span + by_class
        wanted = (q_node[:, None] * n_labels + np.arange(n_labels)) * span + at[:, None]
        hit = np.searchsorted(keys, wanted.ravel(), side="right") - 1
        found = (hit >= 0) & (keys[hit] // span == wanted.ravel() // span)
        left_counts = np.where(found, after[hit], 0.0).reshape(short.size, n_labels)
        right_counts = class_totals[q_node] - left_counts
        left_totals = left_counts.sum(axis=1)
        right_totals = right_counts.sum(axis=1)
        feasible = (left_totals >= config.min_instances) & (
            right_totals >= config.min_instances
        )
        if config.min_class_instances is not None:
            feasible &= np.maximum(
                left_counts.max(axis=1), right_counts.max(axis=1)
            ) >= config.min_class_instances
        q_weight = known_weight[q_node]
        gains_known = known_entropy[q_node] - (
            left_totals / q_weight * _entropy_rows(left_counts)
            + right_totals / q_weight * _entropy_rows(right_counts)
        )
        best = _first_max(q_node, np.where(feasible, gains_known, -np.inf), n_nodes)
        nodes = np.flatnonzero(best >= 0)
        if nodes.size == 0:
            return search
        best = best[nodes]
        gain_known = gains_known[best]
        if config.numeric_penalty:
            # C4.5 release 8's correction, with the scalar log2 per node
            gain_known = gain_known - np.array(
                [math.log2(changes) for changes in n_changes[nodes].tolist()]
            ) / known_weight[nodes]
        gain = (known_weight[nodes] / totals[nodes]) * gain_known
        boundary = at[best]
        missing_weight = totals[nodes] - known_weight[nodes]
        lengths = 2 + (missing_weight > _EPSILON)
        split_parts = np.stack(
            [left_totals[best], right_totals[best], missing_weight], axis=1
        )
        split_info = _entropies(split_parts[np.arange(3) < lengths[:, None]], lengths)
        search.valid[nodes] = (gain_known > _EPSILON) & (split_info > _EPSILON)
        search.gain[nodes] = gain
        with np.errstate(divide="ignore", invalid="ignore"):
            search.ratio[nodes] = gain / split_info
        search.threshold = np.zeros(n_nodes)
        search.threshold[nodes] = (s_value[boundary] + s_value[boundary + 1]) / 2.0
        return search

    # -- split selection -------------------------------------------------------

    def _select(self, searches: list[_Search]) -> np.ndarray:
        """Each node's chosen attribute (index into ``base_attrs``), -1
        for none.

        Tie-break contract (pinned by tests/test_tree_tie_breaks.py):
        candidates are considered in dataset.base_attrs order and the
        FIRST maximal one wins — on equal scores the earlier attribute,
        as ``np.argmax`` and Python's ``max()`` both decide.
        """
        gain = np.stack([search.gain for search in searches], axis=1)
        candidate = np.stack([search.valid for search in searches], axis=1) & (
            gain > _EPSILON
        )
        chosen = np.full(gain.shape[0], -1)
        has = candidate.any(axis=1)
        if not self.config.gain_ratio:
            chosen[has] = np.argmax(np.where(candidate, gain, -np.inf), axis=1)[has]
            return chosen
        # C4.5: best gain ratio among candidates with at least average gain,
        # the average summed left to right in attribute order
        summed = np.zeros(gain.shape[0])
        for column in range(gain.shape[1]):
            summed = np.where(candidate[:, column], summed + gain[:, column], summed)
        with np.errstate(divide="ignore", invalid="ignore"):
            average = summed / np.count_nonzero(candidate, axis=1)
        eligible = candidate & (gain >= (average - _EPSILON)[:, None])
        ratio = np.stack([search.ratio for search in searches], axis=1)
        chosen[has] = np.argmax(np.where(eligible, ratio, -np.inf), axis=1)[has]
        return chosen

    # -- split application -----------------------------------------------------

    def _apply(
        self,
        level: _Level,
        node: np.ndarray,
        ids: np.ndarray,
        chosen: np.ndarray,
        searches: list[_Search],
    ) -> Optional[_Level]:
        """Split the chosen nodes and lay out the next level."""
        branch, n_children, fractions, splits, used = self._branches(
            level, node, chosen, searches
        )
        if not splits:
            return None
        first_child = np.cumsum(n_children) - n_children
        base = len(self._counts)  # the next level's nodes are recorded next
        for j, split in splits.items():
            split.first_child = base + int(first_child[j])
            self._splits[int(ids[j])] = split
        return self._next_level(
            level, node, branch, n_children, first_child, fractions, used
        )

    def _branches(
        self,
        level: _Level,
        node: np.ndarray,
        chosen: np.ndarray,
        searches: list[_Search],
    ) -> tuple:
        """Each entry's branch under the chosen splits, and the splits.

        Every entry gets a branch: the child it goes to (0, 1, …), -1 when
        it misses the split attribute (it goes down every branch), or -2
        (its node does not split, or its branch carries no weight). The
        per-entry temporaries die with this call, before the next level
        is laid out, where a tree's memory peaks.
        """
        dataset = self.dataset
        n_nodes = level.n_nodes
        branch = np.full(level.rows.size, -2)
        n_children = np.zeros(n_nodes, dtype=np.int64)
        fractions: list[np.ndarray] = [np.zeros(0)] * n_nodes
        splits: dict[int, _Split] = {}
        used = np.full(n_nodes, -1)  # categorical attribute a node splits on
        for index in np.unique(chosen[chosen >= 0]):
            name = dataset.base_attrs[index]
            search = searches[index]
            nodes = np.flatnonzero(chosen == index)
            entries = np.flatnonzero(chosen[node] == index)
            e_node = node[entries]
            e_weight = level.weights[entries]
            column = dataset.columns[name][level.rows[entries]]
            known_weight = search.known_weight
            if dataset.encoders[name].categorical:
                n_categories = dataset.encoders[name].n_categories
                known = column >= 0
                key = e_node[known] * n_categories + column[known]
                by_code = _stable_order(key)
                branch_weight = _weight_sums(
                    e_weight[known][by_code],
                    np.bincount(key, minlength=n_nodes * n_categories),
                ).reshape(n_nodes, n_categories)
                kept = branch_weight > _EPSILON
                rank = np.cumsum(kept, axis=1) - 1
                local = np.where(kept, rank, -2)
                e_branch = np.full(entries.size, -1)
                e_branch[known] = local[e_node[known], column[known]]
                for j in nodes:
                    codes = np.flatnonzero(kept[j])
                    if codes.size < 2:
                        continue
                    parts = branch_weight[j, codes] / known_weight[j]
                    n_children[j], fractions[j] = codes.size, parts
                    used[j] = self._categorical.index(name)
                    splits[j] = _Split(
                        name,
                        0,
                        codes=tuple(int(code) for code in codes),
                        fractions=tuple(float(part) for part in parts),
                    )
            else:
                threshold = search.threshold[e_node]
                known = ~np.isnan(column)
                low = known & (column <= threshold)
                high = known & (column > threshold)
                low_weight = _weight_sums(
                    e_weight[low], np.bincount(e_node[low], minlength=n_nodes)
                )
                high_weight = _weight_sums(
                    e_weight[high], np.bincount(e_node[high], minlength=n_nodes)
                )
                e_branch = np.where(low, 0, np.where(high, 1, -1))
                for j in nodes:
                    if low_weight[j] <= _EPSILON or high_weight[j] <= _EPSILON:
                        continue
                    low_fraction = float(low_weight[j] / known_weight[j])
                    n_children[j] = 2
                    fractions[j] = np.array([low_fraction, 1.0 - low_fraction])
                    splits[j] = _Split(
                        name,
                        0,
                        threshold=float(search.threshold[j]),
                        low_fraction=low_fraction,
                    )
            branch[entries] = e_branch
        branch[n_children[node] == 0] = -2
        return branch, n_children, fractions, splits, used

    def _next_level(
        self,
        level: _Level,
        node: np.ndarray,
        branch: np.ndarray,
        n_children: np.ndarray,
        first_child: np.ndarray,
        fractions: list[np.ndarray],
        used: np.ndarray,
    ) -> _Level:
        """Children laid out node by node: each child's known rows in
        parent order, then its parent's missing rows in parent order."""
        n_next = int(n_children.sum())
        parent = np.repeat(np.arange(level.n_nodes), n_children)
        fraction = np.concatenate([fractions[j] for j in np.flatnonzero(n_children)])

        goes = np.flatnonzero(branch >= 0)
        child_of = np.zeros(level.rows.size, dtype=np.int64)
        child_of[goes] = first_child[node[goes]] + branch[goes]
        n_known = np.bincount(child_of[goes], minlength=n_next)
        missing = np.flatnonzero(branch == -1)
        n_missing = np.bincount(node[missing], minlength=level.n_nodes)
        sizes = n_known + n_missing[parent]
        start = np.cumsum(sizes) - sizes

        # known rows: grouped by child, parent order kept
        by_child = goes[_stable_order(child_of[goes])]
        grouped = child_of[by_child]
        position = np.full(level.rows.size, -1)
        position[by_child] = start[grouped] + (
            np.arange(by_child.size) - (np.cumsum(n_known) - n_known)[grouped]
        )
        # missing rows: one copy per child of their parent, after its known rows
        missing_rank = np.zeros(level.rows.size, dtype=np.int64)
        missing_rank[missing] = np.arange(missing.size) - (
            np.cumsum(n_missing) - n_missing
        )[node[missing]]
        copies = np.repeat(missing, n_children[node[missing]])
        copy_child = first_child[node[copies]] + (
            np.arange(copies.size)
            - np.repeat(
                np.cumsum(n_children[node[missing]]) - n_children[node[missing]],
                n_children[node[missing]],
            )
        )
        copy_position = start[copy_child] + n_known[copy_child] + missing_rank[copies]

        total = int(sizes.sum())
        rows = np.empty(total, dtype=np.int64)
        weights = np.empty(total)
        rows[position[goes]] = level.rows[goes]
        weights[position[goes]] = level.weights[goes]
        rows[copy_position] = level.rows[copies]
        weights[copy_position] = level.weights[copies] * fraction[copy_child]
        # released before the sorted lists are passed on (the peak)
        del goes, by_child, grouped, copies, copy_child, copy_position

        remaining = level.remaining[parent]
        spent = used[parent] >= 0
        remaining[np.flatnonzero(spent), used[parent][spent]] = False

        def pass_sorted(order: np.ndarray, next_values: np.ndarray) -> np.ndarray:
            """A sorted list of this level, partitioned into the children's.

            Each entry goes to its child (a row missing the split
            attribute to every child of its parent); a stable partition
            on child id keeps each child's entries sorted by (value,
            parent position). A child's own order is (value, child
            position), and a child lists its parent's missing rows after
            its known ones, so equal-value runs that mix the two are
            reordered known-first.
            """
            b = branch[order]
            if not (b == -1).any():  # every row knows its split attribute
                source = order[b >= 0]
                return position[source[_stable_order(child_of[source])]]
            n_copies = np.where(b >= 0, 1, np.where(b == -1, n_children[node[order]], 0))
            source = np.repeat(order, n_copies)
            copy_index = np.arange(source.size) - np.repeat(
                np.cumsum(n_copies) - n_copies, n_copies
            )
            known = branch[source] >= 0
            child = np.where(known, child_of[source], first_child[node[source]] + copy_index)
            target = np.where(
                known,
                position[source],
                start[child] + n_known[child] + missing_rank[source],
            )
            partition = _stable_order(child)
            target, child = target[partition], child[partition]
            value = next_values[target]
            same_run = (child[1:] == child[:-1]) & (value[1:] == value[:-1])
            misplaced = same_run & (target[1:] < target[:-1])
            if misplaced.any():
                run = np.concatenate(([0], np.cumsum(~same_run)))
                members = np.flatnonzero(np.isin(run, run[1:][misplaced]))
                target[members] = target[members][
                    np.lexsort((target[members], run[members]))
                ]
            return target

        return _Level(
            rows=rows,
            weights=weights,
            sizes=sizes,
            remaining=remaining,
            sorted={
                name: pass_sorted(order, self.dataset.columns[name][rows])
                for name, order in level.sorted.items()
            },
            depth=level.depth + 1,
        )

    # -- pruning and assembly ----------------------------------------------------

    def _leaf_scores(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per grown node, its pruning score as a leaf: ``leaf_detection_useful``
        and Def. 9's ``expected_error_confidence``, batched with the
        scalar functions' operations in the same order (the sequential
        sum over classes is a ``cumsum`` along the class axis)."""
        config = self.config
        bounds, cutoff = config.bounds, config.min_detection_confidence
        n_nodes, n_labels = counts.shape
        n = counts.sum(axis=1)
        positive = n > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            top = counts.max(axis=1) / n
            potential = bounds.left_bound_array(top, n) - bounds.right_bound_array(
                np.zeros(n_nodes), n
            )
            useful = positive & (potential >= cutoff)
            probabilities = counts / n[:, None]
        predicted = np.argmax(probabilities, axis=1)
        left = bounds.left_bound_array(probabilities[np.arange(n_nodes), predicted], n)
        right = bounds.right_bound_array(
            probabilities.ravel(), np.repeat(n, n_labels)
        ).reshape(n_nodes, n_labels)
        contribution = left[:, None] - right
        included = (
            (probabilities > 0.0)
            & (np.arange(n_labels) != predicted[:, None])
            & (contribution > 0.0)
            & (contribution >= cutoff)
        )
        terms = np.where(included, probabilities * contribution, 0.0)
        expected = np.cumsum(terms, axis=1)[:, -1]
        expected[~positive] = 0.0
        return useful, expected

    def _assemble(self) -> Node:
        """Build the tree bottom-up from the grown nodes, collapsing a
        subtree into a leaf where the integrated pruning says so.

        A subtree's score is the lexicographic ``(has_useful_leaf,
        expErrorConf)`` of the node it returns, combined from its
        children's scores with exactly the arithmetic of
        ``subtree_expected_error_confidence`` (same child order, same
        summation order, same ``total <= 0`` guard).
        """
        counts = np.array(self._counts)
        scoring = self.config.pruning is PruningStrategy.EXPECTED_ERROR_CONFIDENCE
        if scoring:
            useful, expected = self._leaf_scores(counts)
        built: dict[int, tuple[Node, Optional[tuple[bool, float]]]] = {}
        for i in range(len(self._counts) - 1, -1, -1):
            node_counts = counts[i].copy()
            leaf_score = (bool(useful[i]), float(expected[i])) if scoring else None
            split = self._splits.get(i)
            if split is None:
                built[i] = (Leaf(node_counts), leaf_score)
                continue
            if split.codes:
                children = [built.pop(split.first_child + k) for k in range(len(split.codes))]
                node: Node = NominalSplit(
                    node_counts,
                    split.attribute,
                    {code: child for code, (child, _) in zip(split.codes, children)},
                    dict(zip(split.codes, split.fractions)),
                )
            else:
                children = [built.pop(split.first_child), built.pop(split.first_child + 1)]
                node = NumericSplit(
                    node_counts,
                    split.attribute,
                    split.threshold,
                    children[0][0],
                    children[1][0],
                    split.low_fraction,
                )
            if not scoring:
                built[i] = (node, None)
                continue
            # The paper replaces a subtree by a leaf "whenever this
            # transformation leads to a higher value for expErrorConf" and
            # separately deletes rules "not useful for error detection".
            # Both ideas combine into a lexicographic score: (1) does the
            # (sub)tree contain a leaf that *could* flag a deviating record
            # at the minimal confidence — leftBound(P(ĉ), n) − rightBound(0,
            # n) ≥ minConf — and (2) the Def.-9 expected error confidence
            # with the minimal-confidence cutoff. The usefulness component
            # is required because on clean training data a perfectly
            # structured subtree of pure leaves has expErrorConf 0, just
            # like the collapsed leaf, yet only the subtree can detect
            # anything. The collapse comparison adds _EPSILON to the leaf's
            # expErrorConf (leaf wins ties), but the *stored* score of a
            # collapsed leaf is the raw value — prune.py's recursion never
            # sees the epsilon either.
            subtree_useful = any(score[0] for _, score in children)
            total = node.n
            subtree_score = (
                subtree_useful,
                0.0
                if total <= 0
                else sum(child.n / total * score[1] for child, score in children),
            )
            if (leaf_score[0], leaf_score[1] + _EPSILON) >= subtree_score:
                built[i] = (Leaf(node_counts), leaf_score)
            else:
                built[i] = (node, subtree_score)
        return built[0][0]


def grow_tree(dataset: Dataset, config: Optional[TreeConfig] = None) -> Node:
    """Convenience wrapper: grow (and, per config, prune) one tree."""
    return TreeGrower(dataset, config).grow()
