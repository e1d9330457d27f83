"""The level-wise tree grower is pinned to the recursive one, bit for bit.

:class:`~repro.mining.tree.grow.TreeGrower` grows every node of a depth
through batched kernels, carries each numeric column's sort order from
the root, screens numeric cuts approximately and decides the shortlist
exactly. ``tests/reference_lanes.py`` keeps the node-at-a-time grower
(:func:`~tests.reference_lanes.reference_grow`) it replaced. The
property below draws random tables — nominal columns of 2–33 values,
integer and float columns with ties, rows scattered around latent
groups so trees grow several levels, 0–20 % nulls — and every
:class:`TreeConfig` field, and requires the two serialized trees to be
equal strings.

A second property pins every batched split search to the recursive
grower's per-node evaluation — the same candidates, with bit-identical
gains, gain ratios and thresholds — because gains decide a tree only
through ties, so a search that is off in the last bit rarely shows in
a tree.

The carried sorted lists are pinned directly, level by level, because a
wrong order inside a run of equal values changes a tree only when
fractional weights make the summation order matter: each numeric
attribute's list must equal a fresh stable sort of every node's known
entries by (value, position in the node).

Run the property deeply with ``--hypothesis-profile=deep`` (registered
in ``tests/conftest.py``); the default profile runs it in seconds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.serialize import _node_to_dict
from repro.mining import ConfidenceBounds, PruningStrategy, TreeConfig
from repro.mining.tree.grow import TreeGrower, grow_tree
from repro.quis import generate_quis_sample
from repro.schema import Schema, Table, nominal, numeric
from tests.datasets import training_dataset
from tests.reference_lanes import _ReferenceGrower, reference_grow


def _tree_text(root) -> str:
    return json.dumps(_node_to_dict(root), sort_keys=True)


@st.composite
def grouped_tables(draw):
    """A random table whose rows scatter around 2–6 latent groups.

    Each group has a prototype cell per column and a class; a row takes
    its group's cell with probability ``coherence``, else a random one,
    and any cell is null with probability ``null_rate``. Numeric pools
    are small, so equal values (ties) are common.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n_columns = draw(st.integers(2, 6))
    kinds = [draw(st.sampled_from(("nominal", "int", "float"))) for _ in range(n_columns)]
    cardinality = [draw(st.integers(2, 33)) for _ in range(n_columns)]
    n_rows = draw(st.integers(0, 300))
    null_rate = draw(st.sampled_from((0.0, 0.02, 0.1, 0.2)))
    coherence = draw(st.sampled_from((0.6, 0.8, 0.95)))
    n_groups = draw(st.integers(2, 6))
    n_classes = draw(st.integers(2, 7))
    rng = np.random.default_rng(seed)
    attributes, pools = [], []
    for i, kind in enumerate(kinds):
        name = f"X{i}"
        if kind == "nominal":
            values = [f"v{k}" for k in range(cardinality[i])]
            attributes.append(nominal(name, values))
            pools.append(values)
        elif kind == "int":
            attributes.append(numeric(name, 0, 1000, integer=True))
            pools.append(sorted(rng.choice(1000, size=cardinality[i], replace=False).tolist()))
        else:
            attributes.append(numeric(name, 0.0, 10.0))
            pools.append(np.round(rng.uniform(0, 10, cardinality[i]), 3).tolist())
    labels = [f"c{k}" for k in range(n_classes)]
    attributes.append(nominal("C", labels))
    pools.append(labels)
    prototypes = [[rng.integers(len(pool)) for pool in pools] for _ in range(n_groups)]
    rows = []
    for _ in range(n_rows):
        prototype = prototypes[rng.integers(n_groups)]
        row = []
        for column, pool in enumerate(pools):
            if rng.random() < null_rate:
                row.append(None)
            elif rng.random() < coherence:
                row.append(pool[prototype[column]])
            else:
                row.append(pool[rng.integers(len(pool))])
        rows.append(row)
    return Table(Schema(attributes), rows)


#: the properties' settings. A table comes from a drawn seed, so shrinking
#: cannot make a failing one simpler, only re-run the slow reference
#: grower for minutes: a red run reports the first failing example.
_PROPERTY = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)

configs = st.builds(
    TreeConfig,
    min_instances=st.sampled_from((1.0, 2.0, 5.0)),
    min_class_instances=st.sampled_from((None, 1.0, 3.0, 25.0)),
    max_depth=st.sampled_from((None, 2, 5)),
    gain_ratio=st.booleans(),
    numeric_penalty=st.booleans(),
    pruning=st.sampled_from(tuple(PruningStrategy)),
    bounds=st.sampled_from((ConfidenceBounds(0.75), ConfidenceBounds(0.95))),
    min_detection_confidence=st.sampled_from((0.5, 0.8)),
)


@_PROPERTY
@given(table=grouped_tables(), config=configs)
def test_level_wise_tree_equals_recursive_tree(table, config):
    base = [name for name in table.schema.names if name != "C"]
    dataset = training_dataset(table, "C", base)
    assert _tree_text(grow_tree(dataset, config)) == _tree_text(
        reference_grow(dataset, config)
    )


# -- the split search, node by node -----------------------------------------------


class _SearchCheckedGrower(TreeGrower):
    """Checks every batched search against the recursive grower's
    per-node evaluation: the same candidates, with bit-identical gains,
    gain ratios and thresholds — values no serialized tree shows."""

    def _reference_candidates(self, level, name, searched):
        reference = _ReferenceGrower(self.dataset, self.config)
        starts = np.cumsum(level.sizes) - level.sizes
        for j in np.flatnonzero(searched):
            rows = level.rows[starts[j] : starts[j] + level.sizes[j]]
            weights = level.weights[starts[j] : starts[j] + level.sizes[j]]
            y_node = self.dataset.y[rows]
            if self.dataset.encoders[name].categorical:
                yield j, reference._evaluate_categorical(name, rows, weights, y_node)
            else:
                yield j, reference._evaluate_numeric(name, rows, weights, y_node)

    def _check(self, level, name, search, searched):
        for j, candidate in self._reference_candidates(level, name, searched):
            assert bool(search.valid[j]) == (candidate is not None), (name, j)
            if candidate is not None:
                assert search.gain[j] == candidate.gain, (name, j)
                assert search.ratio[j] == candidate.gain_ratio, (name, j)
                if not candidate.categorical:
                    assert search.threshold[j] == candidate.threshold, (name, j)

    def _search_categorical(self, level, node, y_entries, name, remaining, totals):
        search = super()._search_categorical(
            level, node, y_entries, name, remaining, totals
        )
        self._check(level, name, search, remaining)
        return search

    def _search_numeric(self, level, node, y_entries, name, totals):
        search = super()._search_numeric(level, node, y_entries, name, totals)
        self._check(level, name, search, np.ones(level.n_nodes, dtype=bool))
        return search


@_PROPERTY
@given(table=grouped_tables(), config=configs)
def test_every_split_search_equals_the_recursive_one(table, config):
    base = [name for name in table.schema.names if name != "C"]
    dataset = training_dataset(table, "C", base)
    root = _SearchCheckedGrower(dataset, config).grow()
    assert _tree_text(root) == _tree_text(reference_grow(dataset, config))


# -- the carried sorted lists ---------------------------------------------------


class _CheckedGrower(TreeGrower):
    """Checks every level's sorted lists against fresh per-node sorts."""

    levels_checked = 0

    def _grow_level(self, level):
        starts = np.cumsum(level.sizes) - level.sizes
        for name, carried in level.sorted.items():
            values = self.dataset.columns[name][level.rows]
            expected = []
            for start, size in zip(starts.tolist(), level.sizes.tolist()):
                position = np.arange(start, start + size)
                known = position[~np.isnan(values[position])]
                expected.append(known[np.argsort(values[known], kind="stable")])
            assert np.array_equal(carried, np.concatenate(expected)), (
                f"level {level.depth}: the sorted list of {name} is not "
                f"each node's known entries sorted by (value, position)"
            )
        _CheckedGrower.levels_checked += 1
        return super()._grow_level(level)


def _mixed_run_table() -> Table:
    """Ties in N meet nulls in the split attribute A: every node below
    the root split on A holds runs of equal N values that mix rows
    knowing A with rows missing it (those come last in the child)."""
    rng = np.random.default_rng(7)
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            numeric("N", 0, 10, integer=True),
            nominal("C", ["x", "y", "z"]),
        ]
    )
    rows = []
    for _ in range(600):
        a = ["a", "b", "c"][rng.integers(3)]
        n = int(rng.integers(0, 6))
        c = {"a": "x", "b": "y", "c": "z"}[a] if rng.random() < 0.9 else "xyz"[n % 3]
        rows.append([None if rng.random() < 0.25 else a, n, c])
    return Table(schema, rows)


@pytest.mark.parametrize("case", ["mixed-runs", "quis"])
def test_carried_sorted_lists_equal_fresh_sorts(case):
    if case == "quis":
        sample = generate_quis_sample(3_000, seed=2003)
        table, class_attr = sample.dirty, "GBM"
    else:
        table, class_attr = _mixed_run_table(), "C"
    base = [name for name in table.schema.names if name != class_attr]
    dataset = training_dataset(table, class_attr, base)
    config = TreeConfig(pruning=PruningStrategy.NONE, min_instances=1)
    _CheckedGrower.levels_checked = 0
    root = _CheckedGrower(dataset, config).grow()
    assert _CheckedGrower.levels_checked > 2
    assert _tree_text(root) == _tree_text(reference_grow(dataset, config))
