"""E13 — audit-phase throughput: batch protocol vs row loop, whole-table
vs chunked, plus storage-backend ingest rates.

The deviation-detection phase is the online half of sec. 2.2's
warehouse-loading split ("new data can be checked for deviations and
loaded quickly"), so its throughput — not the offline induction — bounds
load latency. This bench measures, on one fitted QUIS model at 80k rows:

* the vectorized ``predict_batch`` audit path against the row-at-a-time
  ``predict_encoded`` fallback (the pre-redesign semantics, still
  available through the ABC), and
* the whole-table audit against the chunked stream
  (``AuditSession.audit_chunks``), asserting the merged chunk reports
  stay bit-exact with the whole-table report and recording both rates in
  ``benchmarks/results/E13_audit_throughput.txt``.

A second experiment compares the **storage backends** feeding that hot
path: write + chunked-read rows/s and on-disk size for CSV vs JSONL vs
SQLite (and Parquet when ``pyarrow`` is present), with the read-back
tables asserted identical across backends
(``benchmarks/results/E13_ingest_comparison.txt``).
"""

import os
import time

from repro.core import AuditorConfig, AuditReport, AuditSession, DataAuditor
from repro.io import open_source, write_table
from repro.mining.base import AttributeClassifier
from repro.quis import generate_quis_sample

N_RECORDS = 80_000
#: rows audited by the (slow) row-loop fallback; throughput extrapolates
ROW_LOOP_RECORDS = 4_000
CHUNK_SIZE = 10_000


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _chunks(table, size):
    for start in range(0, table.n_rows, size):
        yield table.select(range(start, min(start + size, table.n_rows)))


def test_batch_audit_throughput(benchmark, record_table):
    sample = generate_quis_sample(N_RECORDS, seed=2003)
    auditor = DataAuditor(sample.schema, AuditorConfig(min_error_confidence=0.8))
    auditor.fit(sample.dirty)
    session = AuditSession(auditor=auditor)
    cores = os.cpu_count() or 1

    def batch_audit():
        return auditor.audit(sample.dirty)

    report = benchmark.pedantic(batch_audit, rounds=1, iterations=1)
    _, batch_seconds = _timed(lambda: auditor.audit(sample.dirty))
    batch_rate = N_RECORDS / batch_seconds

    # the same audit through the ABC's row-loop fallback, on a slice;
    # patch once per distinct class (all classifiers share a type here —
    # saving "originals" per attribute would capture the patched method)
    subset = sample.dirty.select(range(ROW_LOOP_RECORDS))
    patched_classes = {type(c) for c in auditor.classifiers.values()}
    originals = {cls: cls.predict_batch for cls in patched_classes}
    for cls in patched_classes:
        cls.predict_batch = AttributeClassifier.predict_batch
    try:
        row_report, row_seconds = _timed(lambda: auditor.audit(subset))
    finally:
        for cls, original in originals.items():
            cls.predict_batch = original
    row_rate = ROW_LOOP_RECORDS / row_seconds
    batch_speedup = batch_rate / row_rate

    # sanity: same findings per row regardless of path
    assert row_report.findings == [
        finding for finding in report.findings if finding.row < ROW_LOOP_RECORDS
    ]

    # the chunked stream: merging its reports reproduces the whole table
    merged, chunk_seconds = _timed(
        lambda: AuditReport.merge(
            list(session.audit_chunks(_chunks(sample.dirty, CHUNK_SIZE)))
        )
    )
    assert merged.findings == report.findings
    assert merged.record_confidence == report.record_confidence

    lines = [
        "E13 — audit-phase throughput, batch protocol vs row loop",
        f"workload: QUIS sample, {N_RECORDS} records; "
        f"machine: {cores} core(s)",
        "",
        "batch protocol vs row loop",
        f"{'path':>10}  {'records':>8}  {'time[s]':>8}  {'rows/s':>9}",
        f"{'batch':>10}  {N_RECORDS:>8}  {batch_seconds:>8.2f}  {batch_rate:>9.0f}",
        f"{'row loop':>10}  {ROW_LOOP_RECORDS:>8}  {row_seconds:>8.2f}  {row_rate:>9.0f}",
        f"vectorized batch path: {batch_speedup:.1f}× the row-loop throughput",
        "",
        f"chunked stream (--chunk-size {CHUNK_SIZE}; merged report "
        f"bit-exact with the whole table)",
        f"{'audit':>10}  {'time[s]':>8}  {'rows/s':>9}",
        f"{'whole':>10}  {batch_seconds:>8.2f}  {batch_rate:>9.0f}",
        f"{'chunked':>10}  {chunk_seconds:>8.2f}  {N_RECORDS / chunk_seconds:>9.0f}",
    ]
    record_table("E13_audit_throughput", "\n".join(lines))

    # the batch redesign's reason to exist: a multiple of row-loop speed
    assert batch_speedup > 3.0
    # absolute floor so CI catches a vectorization regression
    assert batch_rate > 10_000


#: rows for the backend ingest comparison (write + chunked read per format)
INGEST_RECORDS = 40_000
INGEST_CHUNK = 10_000


def test_backend_ingest_throughput(tmp_path, record_table):
    """Storage-backend ingest comparison: rows/s into and out of each
    registered backend, with cross-backend equality asserted."""
    sample = generate_quis_sample(INGEST_RECORDS, seed=2003)
    table = sample.dirty
    schema = sample.schema

    formats = [("csv", "load.csv"), ("jsonl", "load.jsonl"), ("sqlite", "load.db")]
    try:
        import pyarrow  # noqa: F401

        formats.append(("parquet", "load.parquet"))
    except ImportError:
        pass

    results = {}
    baseline_rows = None
    for fmt, name in formats:
        path = tmp_path / name
        started = time.perf_counter()
        write_table(table, path)
        write_seconds = time.perf_counter() - started

        started = time.perf_counter()
        with open_source(schema, path) as source:
            rows = [row for chunk in source.chunks(INGEST_CHUNK) for row in chunk.rows]
        read_seconds = time.perf_counter() - started

        assert len(rows) == table.n_rows
        if fmt == "parquet":
            # documented float64 mapping: non-integer numerics come back
            # as floats, so exact equality is only checked numerically
            assert all(
                a == b
                or (a is not None and b is not None and float(a) == float(b))
                for row_a, row_b in zip(table.rows, rows)
                for a, b in zip(row_a, row_b)
            )
        elif baseline_rows is None:
            assert rows == table.rows
            baseline_rows = rows
        else:
            # every backend hands the auditor the identical row stream
            assert rows == baseline_rows
        results[fmt] = (write_seconds, read_seconds, path.stat().st_size)

    lines = [
        "E13b — storage-backend ingest comparison (repro.io)",
        f"workload: QUIS sample, {INGEST_RECORDS} records × {len(schema)} "
        f"attributes; chunked reads at {INGEST_CHUNK} rows/chunk",
        "read-back row streams asserted identical across backends",
        "",
        f"{'backend':>8}  {'write[s]':>9}  {'rows/s':>9}  {'read[s]':>9}  "
        f"{'rows/s':>9}  {'size[MiB]':>10}",
    ]
    for fmt, (write_seconds, read_seconds, size) in results.items():
        lines.append(
            f"{fmt:>8}  {write_seconds:>9.2f}  "
            f"{INGEST_RECORDS / write_seconds:>9.0f}  {read_seconds:>9.2f}  "
            f"{INGEST_RECORDS / read_seconds:>9.0f}  {size / 2**20:>10.2f}"
        )
    if "parquet" not in results:
        lines.append(
            "\nnote: pyarrow not installed — parquet column omitted "
            "(the backend degrades to a clean ImportError)."
        )
    record_table("E13_ingest_comparison", "\n".join(lines))

    # regression floor: every backend must ingest at a usable rate
    for fmt, (_, read_seconds, _) in results.items():
        assert INGEST_RECORDS / read_seconds > 5_000, (
            f"{fmt} chunked read only {INGEST_RECORDS / read_seconds:.0f} rows/s"
        )
