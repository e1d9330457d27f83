"""Job counts, chunk streams, model persistence and fit-worker failure.

Audits run serially; the only process pool is the per-attribute fit
fan-out (:mod:`repro.core.parallel`), whose byte-identity with the
serial fit is pinned by ``test_fit_parity_property.py``. This suite
covers the rest of that contract: job-count normalization, chunked
audits whose merged report equals the whole-table audit whatever order
chunks were audited in, one-line model-file errors, model documents
from before the audit fan-out was removed (they carry an ``n_jobs``),
and a failing fit worker. The fixture mirrors the E9 (base-profile
pollution) benchmark workload at test scale.
"""

import json
import multiprocessing
import random

import pytest

from repro.core import (
    AuditorConfig,
    AuditReport,
    AuditSession,
    DataAuditor,
    ModelPersistenceError,
    resolve_n_jobs,
)
from repro.core.serialize import auditor_to_dict
from repro.generator.profiles import base_profile
from repro.pollution.pipeline import PollutionPipeline, default_polluters
from repro.schema import Schema, nominal


def _assert_bit_exact(a: AuditReport, b: AuditReport):
    assert a.n_rows == b.n_rows
    assert a.min_error_confidence == b.min_error_confidence
    # exact float equality, not approx — both sides run one code path
    assert a.record_confidence == b.record_confidence
    assert a.findings == b.findings
    assert a.suspicious_rows() == b.suspicious_rows()


def _chunked(table, sizes):
    start = 0
    for size in sizes:
        yield table.select(range(start, min(start + size, table.n_rows)))
        start += size
    if start < table.n_rows:
        yield table.select(range(start, table.n_rows))


@pytest.fixture(scope="module")
def e9_audit():
    """E9-style workload: base-profile data, polluted, self-audited."""
    profile = base_profile(n_rules=25, seed=42)
    clean = profile.build_generator().generate(700, random.Random(1))
    dirty, _ = PollutionPipeline(default_polluters()).apply(clean, random.Random(2))
    auditor = DataAuditor(
        profile.schema, AuditorConfig(min_error_confidence=0.8)
    ).fit(dirty)
    return auditor, dirty


class _CrashingClassifier:
    def fit(self, dataset):
        raise RuntimeError("worker crash")


def _make_crashing(config):
    return _CrashingClassifier()


class TestResolveNJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_positive_passes_through(self):
        assert resolve_n_jobs(4) == 4

    def test_negative_is_cpu_relative(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-cores) == 1
        assert resolve_n_jobs(-cores - 10) == 1  # clamped, never 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)

    def test_config_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            AuditorConfig(fit_n_jobs=0)


class TestChunkStreamParity:
    def test_reports_arrive_in_stream_order(self, e9_audit):
        auditor, table = e9_audit
        reports = list(
            AuditSession(auditor=auditor).audit_chunks(_chunked(table, (100,) * 7))
        )
        assert [r.row_offset for r in reports] == [
            100 * i for i in range(len(reports))
        ]

    def test_chunk_order_independence(self, e9_audit):
        """Chunks audited in any order fold to the same merged report:
        auditing the chunk list reversed, then restoring stream order by
        row offset, reproduces the whole-table audit bit for bit."""
        auditor, table = e9_audit
        session = AuditSession(auditor=auditor)
        whole = session.audit(table)
        chunks = list(_chunked(table, (200, 200, 200, 100)))
        offsets = []
        start = 0
        for chunk in chunks:
            offsets.append(start)
            start += chunk.n_rows
        shuffled = [
            session.audit(chunk).with_row_offset(offset)
            for offset, chunk in reversed(list(zip(offsets, chunks)))
        ]
        merged = AuditReport.merge(
            sorted(shuffled, key=lambda r: r.row_offset)
        )
        _assert_bit_exact(merged, whole)

    def test_empty_stream(self, e9_audit):
        auditor, _ = e9_audit
        assert list(AuditSession(auditor=auditor).audit_chunks([])) == []


class TestMergeSchemaGuard:
    def test_mismatched_schemas_rejected(self, e9_audit):
        auditor, table = e9_audit
        report = auditor.audit(table)
        alien = AuditReport(
            2,
            [],
            [0.0, 0.0],
            report.min_error_confidence,
            row_offset=report.n_rows,
            schema=Schema([nominal("Z", ["1"])]),
        )
        with pytest.raises(ValueError, match="different schemas"):
            AuditReport.merge([report, alien])

    def test_schemaless_reports_still_merge(self):
        a = AuditReport(1, [], [0.0], 0.8)
        b = AuditReport(1, [], [0.0], 0.8, row_offset=1)
        assert AuditReport.merge([a, b]).n_rows == 2


class TestParallelModelPersistence:
    @pytest.mark.parametrize("n_jobs", [1, 4, -1, 0])
    def test_legacy_n_jobs_is_accepted_and_ignored(self, e9_audit, tmp_path, n_jobs):
        """Documents written while audits had a job count carry
        ``config.n_jobs``; any value, even the once-invalid 0, loads and
        audits exactly like the same document without it."""
        auditor, table = e9_audit
        plain = tmp_path / "plain.json"
        legacy = tmp_path / "legacy.json"
        AuditSession(auditor=auditor).save(plain)
        payload = json.loads(plain.read_text())
        payload["config"]["n_jobs"] = n_jobs
        legacy.write_text(json.dumps(payload))
        from_plain = AuditSession.load(plain)
        from_legacy = AuditSession.load(legacy)
        assert auditor_to_dict(from_legacy.auditor) == auditor_to_dict(
            from_plain.auditor
        )
        _assert_bit_exact(from_legacy.audit(table), from_plain.audit(table))

    def test_pre_parallel_models_default_to_serial(self, e9_audit, tmp_path):
        """Documents without ``n_jobs`` — written before the audit
        fan-out existed, and again since it was removed — audit like the
        model they were saved from."""
        auditor, table = e9_audit
        path = tmp_path / "model.json"
        AuditSession(auditor=auditor).save(path)
        assert "n_jobs" not in json.loads(path.read_text())["config"]
        _assert_bit_exact(AuditSession.load(path).audit(table), auditor.audit(table))

    def test_missing_file_one_line_error(self, tmp_path):
        with pytest.raises(ModelPersistenceError) as info:
            AuditSession.load(tmp_path / "nope.json")
        assert "\n" not in str(info.value)
        assert "cannot read model file" in str(info.value)

    def test_corrupt_file_one_line_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{ not json")
        with pytest.raises(ModelPersistenceError) as info:
            AuditSession.load(path)
        assert "\n" not in str(info.value)
        assert "not a valid auditor model" in str(info.value)

    def test_corrupt_config_one_line_error(self, e9_audit, tmp_path):
        auditor, _ = e9_audit
        path = tmp_path / "model.json"
        AuditSession(auditor=auditor).save(path)
        payload = json.loads(path.read_text())
        payload["config"]["n_bins"] = 1  # AuditorConfig rejects < 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelPersistenceError) as info:
            AuditSession.load(path)
        assert "\n" not in str(info.value)

    def test_unfitted_save_one_line_error(self, e9_audit, tmp_path):
        auditor, _ = e9_audit
        fresh = AuditSession(auditor.schema)
        with pytest.raises(ModelPersistenceError) as info:
            fresh.save(tmp_path / "model.json")
        assert "unfitted" in str(info.value)

    def test_unwritable_path_one_line_error(self, e9_audit, tmp_path):
        auditor, _ = e9_audit
        with pytest.raises(ModelPersistenceError) as info:
            AuditSession(auditor=auditor).save(tmp_path / "no" / "dir" / "m.json")
        assert "cannot write model file" in str(info.value)


class TestFitWorkerFailure:
    def test_worker_exception_propagates_and_leaves_no_children(self, e9_audit):
        """A classifier that raises inside a fit worker surfaces its own
        exception from a ``fit_n_jobs=2`` fit, and the pool is reaped."""
        _, table = e9_audit
        before = {child.pid for child in multiprocessing.active_children()}
        auditor = DataAuditor(
            table.schema,
            AuditorConfig(classifier_factory=_make_crashing, fit_n_jobs=2),
        )
        with pytest.raises(RuntimeError, match="worker crash"):
            auditor.fit(table)
        after = {child.pid for child in multiprocessing.active_children()}
        assert after <= before
