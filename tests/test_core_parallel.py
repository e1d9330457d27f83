"""Job counts, chunk streams, model persistence and the fit fan-out.

Audits run serially; the only fan-out is the per-attribute fit on a
thread pool (:mod:`repro.core.parallel`), whose byte-identity with the
serial fit is pinned by ``test_fit_parity_property.py``. This suite
covers the rest of that contract: job-count normalization against the
usable cores, the default fit on every usable core, a failing fit
(the error of the first failing attribute in audited order, at every
job count, with no thread left behind), chunked audits whose merged
report equals the whole-table audit whatever order chunks were audited
in, one-line model-file errors, and model documents from before the
audit fan-out was removed (they carry an ``n_jobs``). The fixture
mirrors the E9 (base-profile pollution) benchmark workload at test
scale.
"""

import json
import os
import random
import sys
import threading
import time

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
from repro.mining.tree_classifier import TreeClassifier
from repro.pollution.pipeline import PollutionPipeline, default_polluters
from repro.schema import Schema, Table, nominal


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


def _scripted_factory(started, *, fail=(), slow=()):
    """A classifier factory whose classifiers log the class attribute of
    every fit that starts, take 0.2 s for the attributes in *slow*, and
    raise ``RuntimeError("<attribute> failed")`` for those in *fail*."""

    class Scripted:
        def fit(self, dataset):
            started.append(dataset.class_attr)
            if dataset.class_attr in slow:
                time.sleep(0.2)
            if dataset.class_attr in fail:
                raise RuntimeError(f"{dataset.class_attr} failed")

    return lambda config: Scripted()


def _vocabulary_table():
    """Four nominal attributes in audited order A, B, C, D. B has the
    widest class vocabulary and A the next, so a fit submits B, A, C, D."""
    schema = Schema(
        [
            nominal("A", ["a1", "a2", "a3", "a4"]),
            nominal("B", [f"b{i}" for i in range(8)]),
            nominal("C", ["c1", "c2"]),
            nominal("D", ["d1", "d2"]),
        ]
    )
    rng = random.Random(5)
    rows = [
        [rng.choice(attribute.domain.values) for attribute in schema.attributes]
        for _ in range(20)
    ]
    return Table(schema, rows)


def _usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestResolveNJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_positive_passes_through(self):
        assert resolve_n_jobs(4) == 4

    def test_negative_is_cpu_relative(self):
        cores = _usable_cores()
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-cores) == 1
        assert resolve_n_jobs(-cores - 10) == 1  # clamped, never 0

    def test_minus_one_counts_only_usable_cores(self, monkeypatch):
        """A process confined to one CPU (``taskset``, a cpuset) fits
        serially by default, whatever the machine's CPU count."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_n_jobs(-1) == 1

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
    def test_worker_exception_propagates_and_leaves_no_children(self):
        """A classifier that raises in a ``fit_n_jobs=2`` fit surfaces its
        own exception, no attribute after it in audited order starts,
        and every fit thread is joined before ``fit`` returns."""
        table = _vocabulary_table()
        started = []
        before = threading.enumerate()
        auditor = DataAuditor(
            table.schema,
            AuditorConfig(
                classifier_factory=_scripted_factory(started, fail={"B"}, slow={"A"}),
                fit_n_jobs=2,
            ),
        )
        with pytest.raises(RuntimeError, match="^B failed$"):
            auditor.fit(table)
        assert threading.enumerate() == before
        assert sorted(started) == ["A", "B"]  # C and D never started

    @pytest.mark.parametrize("n_jobs", [1, 2, -1])
    def test_first_failing_attribute_in_audited_order_wins(self, n_jobs):
        """B fails at once and A only after 0.2 s, yet A comes first in
        audited order: its message is raised at every job count."""
        table = _vocabulary_table()
        auditor = DataAuditor(
            table.schema,
            AuditorConfig(
                classifier_factory=_scripted_factory(
                    [], fail={"A", "B"}, slow={"A"}
                ),
                fit_n_jobs=n_jobs,
            ),
        )
        with pytest.raises(RuntimeError, match="^A failed$"):
            auditor.fit(table)


class TestFitFanOut:
    def test_default_fits_on_every_usable_core(self, e9_audit, monkeypatch):
        """On two usable CPUs a default-config fit runs the classifiers'
        fits on two threads besides the caller's, and writes the
        ``fit_n_jobs=1`` model document."""
        _, table = e9_audit
        serial = DataAuditor(table.schema, AuditorConfig(fit_n_jobs=1)).fit(table)
        threads = set()
        grow = TreeClassifier.fit

        def recording_fit(self, dataset):
            threads.add(threading.get_ident())
            time.sleep(0.01)  # keep this thread busy while the other takes a fit
            grow(self, dataset)

        monkeypatch.setattr(TreeClassifier, "fit", recording_fit)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        auditor = DataAuditor(table.schema).fit(table)
        assert len(threads) == 2
        assert threading.get_ident() not in threads
        assert auditor_to_dict(auditor) == auditor_to_dict(serial)

    def test_more_threads_than_cores_under_fast_switching(self, e9_audit):
        """Eight fit threads switching every microsecond on the shared
        encoded arrays still write the serial model document."""
        _, table = e9_audit
        serial = DataAuditor(table.schema, AuditorConfig(fit_n_jobs=1)).fit(table)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = DataAuditor(
                table.schema, AuditorConfig(fit_n_jobs=8)
            ).fit(table)
        finally:
            sys.setswitchinterval(interval)
        assert auditor_to_dict(threaded) == auditor_to_dict(serial)
