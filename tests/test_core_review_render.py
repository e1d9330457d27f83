"""Tests for the interactive review session and tree rendering."""

import random

import pytest

from repro.core import AuditorConfig, DataAuditor, DecisionKind, ReviewSession
from repro.mining import TreeClassifier, TreeConfig
from repro.mining.tree import render_tree
from repro.schema import Schema, Table, nominal, numeric
from tests.datasets import training_dataset


def _world(n=1000, seed=31):
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    rows = [
        [a, rule[a], rng.randint(0, 100)]
        for a in (rng.choice("abc") for _ in range(n))
    ]
    table = Table(schema, rows)
    auditor = DataAuditor(schema, AuditorConfig(min_error_confidence=0.8)).fit(table)
    return schema, table, auditor


@pytest.fixture
def session():
    schema, table, auditor = _world()
    dirty = table.copy()
    # two seeded errors
    rows = [i for i in range(dirty.n_rows) if dirty.cell(i, "A") == "a"][:2]
    dirty.set_cell(rows[0], "B", "y")
    dirty.set_cell(rows[1], "B", "z")
    report = auditor.audit(dirty)
    return ReviewSession(report, dirty), rows, dirty


class TestReviewSession:
    def test_pending_matches_suspicious(self, session):
        review, rows, dirty = session
        pending_rows = [item.row for item in review.pending()]
        assert set(rows) <= set(pending_rows)
        assert review.n_pending == review.report.n_suspicious

    def test_items_expose_all_objections(self, session):
        review, rows, dirty = session
        item = next(item for item in review if item.row == rows[0])
        # both the B-classifier and the A-classifier object (sec. 5.3's
        # "finding the true reason" requires seeing all of them)
        assert len(item.findings) >= 1
        assert "observed" in item.describe()

    def test_accept_applies_strongest_proposal(self, session):
        review, rows, dirty = session
        decision = review.accept(rows[0])
        assert decision.kind is DecisionKind.ACCEPT
        corrected = review.corrected_table()
        record = corrected.record(rows[0])
        assert (record["A"], record["B"]) in {("a", "x"), ("b", "y")}

    def test_custom_correction_validated(self, session):
        review, rows, dirty = session
        with pytest.raises(ValueError, match="not admissible"):
            review.correct(rows[0], "B", "not-a-value")
        review.correct(rows[0], "B", "x", note="checked against source system")
        assert review.corrected_table().cell(rows[0], "B") == "x"

    def test_dismiss_keeps_record(self, session):
        review, rows, dirty = session
        review.dismiss(rows[1], note="confirmed correct outlier")
        assert review.corrected_table().rows[rows[1]] == dirty.rows[rows[1]]

    def test_decisions_leave_queue(self, session):
        review, rows, dirty = session
        before = review.n_pending
        review.dismiss(rows[0])
        assert review.n_pending == before - 1
        review.undo(rows[0])
        assert review.n_pending == before

    def test_unflagged_row_rejected(self, session):
        review, rows, dirty = session
        clean_row = next(
            i for i in range(dirty.n_rows) if not review.report.is_flagged(i)
        )
        with pytest.raises(ValueError, match="not among"):
            review.accept(clean_row)
        with pytest.raises(ValueError, match="not among"):
            review.dismiss(clean_row)

    def test_accept_specific_attribute(self, session):
        review, rows, dirty = session
        findings = review.report.findings_for_row(rows[0])
        target = findings[-1].attribute
        decision = review.accept(rows[0], attribute=target)
        assert decision.attribute == target

    def test_summary(self, session):
        review, rows, dirty = session
        review.accept(rows[0])
        review.dismiss(rows[1])
        text = review.summary()
        assert "1 accepted" in text and "1 dismissed" in text

    def test_size_mismatch_rejected(self, session):
        review, rows, dirty = session
        with pytest.raises(ValueError):
            ReviewSession(review.report, dirty.head(3))


class TestRenderTree:
    def test_renders_splits_and_leaves(self):
        schema, table, auditor = _world()
        classifier = auditor.classifiers["B"]
        dataset = classifier.dataset
        text = render_tree(classifier.root, dataset)
        assert "split on A" in text
        assert "A = a" in text
        assert "→ x" in text
        assert "n=" in text

    def test_max_depth_truncates(self):
        schema, table, auditor = _world()
        classifier = auditor.classifiers["B"]
        text = render_tree(classifier.root, classifier.dataset, max_depth=0)
        assert "…" in text

    def test_numeric_split_rendering(self):
        rng = random.Random(5)
        schema = Schema(
            [nominal("B", ["low", "high"]), numeric("N", 0, 100, integer=True)]
        )
        rows = []
        for _ in range(600):
            n = rng.randint(0, 100)
            rows.append(["low" if n < 50 else "high", n])
        dataset = training_dataset(Table(schema, rows), "B", ["N"])
        classifier = TreeClassifier(TreeConfig())
        classifier.fit(dataset)
        text = render_tree(classifier.root, dataset)
        assert "N <=" in text and "N >" in text
