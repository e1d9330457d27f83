"""Tests for the streaming :class:`AuditSession` API and for batch/row
audit parity at the auditor level.

The acceptance bar for the batch-first redesign: chunked auditing must
merge to a report identical to the whole-table audit (findings, ranking,
record confidences), chunk iterables must be consumed lazily (peak memory
bounded by chunk size), and the vectorized audit must reproduce the
row-loop fallback finding for finding."""

import io
import random

import numpy as np
import pytest

from repro.core import (
    AuditorConfig,
    AuditReport,
    AuditSession,
    DataAuditor,
    ModelPersistenceError,
)
from repro.mining.base import BatchPrediction, batch_length
from repro.mining.tree_classifier import TreeClassifier
from repro.io import CsvTableSource, write_table
from repro.schema import Schema, Table, nominal, numeric
from tests.reference_lanes import reference_predict


def _structured_table(n=1200, seed=21, error_rate=0.02):
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
    rows = []
    for _ in range(n):
        a = rng.choice(["a", "b", "c"])
        b = rule[a] if rng.random() > error_rate else rng.choice(["x", "y", "z"])
        number = rng.randint(0, 100) if rng.random() > 0.03 else None
        rows.append([a, b, number])
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    return Table(schema, rows)


def _chunked(table, sizes):
    start = 0
    for size in sizes:
        yield table.select(range(start, min(start + size, table.n_rows)))
        start += size
    if start < table.n_rows:
        yield table.select(range(start, table.n_rows))


def _assert_reports_equal(a: AuditReport, b: AuditReport):
    assert a.n_rows == b.n_rows
    assert a.min_error_confidence == b.min_error_confidence
    assert a.record_confidence == b.record_confidence
    assert a.findings == b.findings  # frozen dataclasses: field-wise equality
    assert a.suspicious_rows() == b.suspicious_rows()


@pytest.fixture(scope="module")
def table():
    return _structured_table()


@pytest.fixture(scope="module")
def session(table):
    return AuditSession(
        table.schema, AuditorConfig(min_error_confidence=0.8)
    ).fit(table)


class TestConstruction:
    def test_requires_schema_or_auditor(self):
        with pytest.raises(ValueError):
            AuditSession()

    def test_from_auditor(self, table):
        auditor = DataAuditor(table.schema).fit(table)
        session = AuditSession(auditor=auditor)
        assert session.is_fitted
        assert session.schema == table.schema

    def test_schema_auditor_mismatch_rejected(self, table):
        auditor = DataAuditor(table.schema)
        other = Schema([nominal("Z", ["1"])])
        with pytest.raises(ValueError):
            AuditSession(other, auditor=auditor)

    def test_config_with_auditor_rejected(self, table):
        with pytest.raises(ValueError):
            AuditSession(
                config=AuditorConfig(), auditor=DataAuditor(table.schema)
            )


class TestStreamingParity:
    @pytest.mark.parametrize(
        "sizes",
        [
            (1200,),  # one chunk = the whole table
            (400, 400, 400),
            (1, 499, 700),  # arbitrary uneven chunking
            (37,) * 33,  # many small chunks
        ],
    )
    def test_chunked_merge_equals_whole_table(self, session, table, sizes):
        whole = session.audit(table)
        merged = AuditReport.merge(session.audit_chunks(_chunked(table, sizes)))
        _assert_reports_equal(merged, whole)

    def test_chunk_reports_carry_global_rows(self, session, table):
        whole = session.audit(table)
        reports = list(session.audit_chunks(_chunked(table, (300, 300, 300, 300))))
        assert len(reports) == 4
        flagged_per_chunk = [
            row for report in reports for row in report.suspicious_rows()
        ]
        assert sorted(flagged_per_chunk) == sorted(whole.suspicious_rows())

    def test_csv_stream_equals_whole_table(self, session, table):
        whole = session.audit(table)
        buffer = io.StringIO()
        write_table(table, buffer, format="csv")
        buffer.seek(0)
        merged = AuditReport.merge(
            session.audit_source(CsvTableSource(table.schema, buffer), chunk_size=256)
        )
        _assert_reports_equal(merged, whole)

    def test_chunks_consumed_lazily(self, session, table):
        """Nothing is pulled from the chunk iterable before the previous
        report was yielded — the property that bounds peak memory by the
        chunk size instead of the stream length."""
        pulled = []

        def chunk_source():
            for index, chunk in enumerate(_chunked(table, (300, 300, 300, 300))):
                pulled.append(index)
                yield chunk

        stream = session.audit_chunks(chunk_source())
        assert pulled == []
        next(stream)
        assert pulled == [0]
        next(stream)
        assert pulled == [0, 1]

    def test_empty_chunk_stream(self, session):
        assert list(session.audit_chunks([])) == []


class TestMerge:
    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            AuditReport.merge([])

    def test_merge_mismatched_thresholds_rejected(self):
        a = AuditReport(1, [], [0.0], 0.8)
        b = AuditReport(1, [], [0.0], 0.9)
        with pytest.raises(ValueError):
            AuditReport.merge([a, b])

    def test_merge_tolerates_empty_chunks(self, session, table):
        """A poll that catches zero new rows still yields a (vacuous)
        report; merging must treat it as the no-op it is."""
        whole = session.audit(table)
        half = table.n_rows // 2
        first = session.audit(table.select(range(half)))
        empty = AuditReport(
            0, [], [], first.min_error_confidence, row_offset=half
        )
        second = session.audit(
            table.select(range(half, table.n_rows))
        ).with_row_offset(half)
        merged = AuditReport.merge([first, empty, second])
        _assert_reports_equal(merged, whole)

    def test_merge_identical_row_offsets_rejected(self, session, table):
        """Two chunks claiming the same stream position is double
        counting, not contiguity."""
        chunk = session.audit(table.head(100))
        with pytest.raises(ValueError, match="contiguous"):
            AuditReport.merge([chunk, session.audit(table.head(100))])

    def test_merge_is_associative(self, session, table):
        sizes = (300, 250, 400)  # + remainder chunk = 4 chunks
        reports, start = [], 0
        for chunk in _chunked(table, sizes):
            reports.append(session.audit(chunk).with_row_offset(start))
            start += chunk.n_rows
        flat = AuditReport.merge(reports)
        left = AuditReport.merge(
            [AuditReport.merge(reports[:2]), AuditReport.merge(reports[2:])]
        )
        right = AuditReport.merge(
            [reports[0], AuditReport.merge(reports[1:])]
        )
        _assert_reports_equal(flat, session.audit(table))
        _assert_reports_equal(left, flat)
        _assert_reports_equal(right, flat)

    def test_with_row_offset_zero_is_identity(self, session, table):
        report = session.audit(table)
        assert report.with_row_offset(0) is report

    def test_confidence_of_out_of_chunk_row_rejected(self, session, table):
        shifted = session.audit(table.head(10)).with_row_offset(100)
        assert shifted.confidence_of(105) == shifted.record_confidence[5]
        with pytest.raises(IndexError):
            shifted.confidence_of(5)  # precedes the chunk: loud, not wrong
        with pytest.raises(IndexError):
            shifted.confidence_of(110)


class TestPersistence:
    def test_save_load_roundtrip(self, session, table, tmp_path):
        path = tmp_path / "model.json"
        session.save(path)
        resumed = AuditSession.load(path)
        assert resumed.is_fitted
        _assert_reports_equal(resumed.audit(table), session.audit(table))

    def test_save_leaves_no_temp_files(self, session, tmp_path):
        session.save(tmp_path / "model.json")
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_crash_mid_save_keeps_previous_model_intact(
        self, session, table, tmp_path, monkeypatch
    ):
        """Atomicity contract of save(): a process killed between the
        temp-file write and the rename must leave the previous model
        byte-identical and no truncated/temp files behind — the online
        job never loads half a model."""
        import repro.core.serialize as serialize

        path = tmp_path / "model.json"
        session.save(path)
        before = path.read_bytes()

        def killed_before_rename(src, dst):
            raise KeyboardInterrupt  # the SIGINT arrives exactly here

        monkeypatch.setattr(serialize.os, "replace", killed_before_rename)
        with pytest.raises(KeyboardInterrupt):
            session.save(path)
        monkeypatch.undo()

        assert path.read_bytes() == before  # old model untouched …
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]  # … no debris
        resumed = AuditSession.load(path)
        _assert_reports_equal(resumed.audit(table), session.audit(table))

    def test_crash_mid_write_never_truncates(self, session, tmp_path, monkeypatch):
        """Same contract one step earlier: dying while the temp file is
        being written must not touch the published model either."""
        import repro.core.serialize as serialize

        path = tmp_path / "model.json"
        session.save(path)
        before = path.read_bytes()

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(serialize.os, "fsync", disk_full)
        with pytest.raises(ModelPersistenceError, match="No space left"):
            session.save(path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class _RowLoopTree(TreeClassifier):
    """A tree classifier that predicts one record at a time through the
    per-record reference walk instead of the vectorized batch path."""

    def predict_batch(self, columns, *, n_rows=None):
        probabilities, support = reference_predict(
            self, columns, batch_length(columns, n_rows)
        )
        return BatchPrediction(probabilities, support, self.dataset.class_encoder.labels)


class TestBatchRowParity:
    def test_audit_batch_equals_row_loop_fallback(self, table):
        """The redesigned (vectorized) audit must produce identical
        findings and record confidences to the row-at-a-time path."""
        from repro.core.auditor import _default_classifier_factory

        def row_loop_factory(cfg):
            # same tree configuration as production, row-loop prediction
            return _RowLoopTree(_default_classifier_factory(cfg).config)

        config_batch = AuditorConfig(min_error_confidence=0.8)
        config_rows = AuditorConfig(
            min_error_confidence=0.8, classifier_factory=row_loop_factory
        )
        dirty = table.copy()
        dirty.set_cell(5, "B", "x" if dirty.cell(5, "B") != "x" else "y")
        dirty.set_cell(17, "A", None)
        batch_report = (
            DataAuditor(table.schema, config_batch).fit(table).audit(dirty)
        )
        row_report = (
            DataAuditor(table.schema, config_rows).fit(table).audit(dirty)
        )
        _assert_reports_equal(batch_report, row_report)
