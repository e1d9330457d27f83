"""Split tie-breaking regression tests (the contract
`grow.TreeGrower._select` documents).

Exact-gain ties are common on real tables (duplicated columns, symmetric
value patterns), and whichever candidate wins ends up in the persisted
model — so the tie-break is part of the byte-identity contract between
the level-wise grower and the recursive reference grower
(``tests/reference_lanes.py``):

* attribute ties → the **first** attribute in ``base_attrs`` order wins
  (``np.argmax`` and Python ``max`` keep the first maximal candidate);
* numeric cut-point ties within one attribute → the **lowest** cut wins
  (the first maximum in boundary order, which the screened shortlist
  and its exact recheck must preserve).

These tests pin both rules directly on the grown tree, independent of
the parity suite: if a future optimisation reorders candidate
evaluation, this file fails even if it happens to reorder both paths
consistently.
"""

from __future__ import annotations

from repro.mining import PruningStrategy, TreeConfig, grow_tree
from repro.mining.tree.node import NominalSplit, NumericSplit
from repro.schema import Schema, Table, nominal, numeric
from tests.datasets import training_dataset

_NO_PRUNING = TreeConfig(pruning=PruningStrategy.NONE, min_instances=1)


def _duplicate_nominal_table() -> Table:
    """B1 and B2 are identical copies, both perfectly predicting C."""
    schema = Schema(
        [
            nominal("B1", ["u", "v"]),
            nominal("B2", ["u", "v"]),
            nominal("C", ["x", "y"]),
        ]
    )
    rows = [["u", "u", "x"]] * 8 + [["v", "v", "y"]] * 8
    return Table(schema, rows)


def test_attribute_tie_first_base_attr_wins():
    table = _duplicate_nominal_table()
    root = grow_tree(training_dataset(table, "C", ["B1", "B2"]), _NO_PRUNING)
    assert isinstance(root, NominalSplit)
    assert root.attribute == "B1"


def test_attribute_tie_follows_base_attr_order():
    """The tie-break is positional, not alphabetical: reordering
    ``base_attrs`` flips the winner."""
    table = _duplicate_nominal_table()
    root = grow_tree(training_dataset(table, "C", ["B2", "B1"]), _NO_PRUNING)
    assert isinstance(root, NominalSplit)
    assert root.attribute == "B2"


def test_numeric_cut_tie_lowest_cut_wins():
    """N = 1,2,3 with classes x,y,x: the cuts at 1.5 and 2.5 are exactly
    symmetric (same entropy either way) — the lower one must win."""
    schema = Schema([numeric("N", 0, 10), nominal("C", ["x", "y"])])
    table = Table(schema, [[1.0, "x"], [2.0, "y"], [3.0, "x"]] * 4)
    root = grow_tree(training_dataset(table, "C", ["N"]), _NO_PRUNING)
    assert isinstance(root, NumericSplit)
    assert root.attribute == "N"
    assert root.threshold == 1.5


def test_numeric_attribute_tie_first_wins_with_lowest_cut():
    """Identical numeric columns: both tie-break rules compose — the
    first attribute wins and carries the lowest of its tied cuts."""
    schema = Schema(
        [
            numeric("N1", 0, 10),
            numeric("N2", 0, 10),
            nominal("C", ["x", "y"]),
        ]
    )
    table = Table(
        schema, [[1.0, 1.0, "x"], [2.0, 2.0, "y"], [3.0, 3.0, "x"]] * 4
    )
    root = grow_tree(training_dataset(table, "C", ["N1", "N2"]), _NO_PRUNING)
    assert isinstance(root, NumericSplit)
    assert root.attribute == "N1"
    assert root.threshold == 1.5
