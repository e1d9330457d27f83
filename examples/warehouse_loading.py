#!/usr/bin/env python3
"""Asynchronous auditing during warehouse loading (paper sec. 2.2).

*"While the time-consuming structure induction can be prepared off-line,
new data can be checked for deviations and loaded quickly."*

This script plays both roles, through the streaming
:class:`~repro.core.session.AuditSession` API:

* the **offline** job induces the structure model from the historical
  warehouse content and persists it as JSON;
* the **online** load job resumes the session from the model (no training
  data needed) and screens the incoming load *as it arrives*, chunk by
  chunk — each chunk's report is available immediately for the
  load/quarantine decision, and the merged report equals the audit of the
  whole load.

The load is checked **where it lives**: the arriving batch lands in a
SQLite staging table and the online job audits that table directly
through the pluggable storage layer
(:meth:`AuditSession.audit_source <repro.core.session.AuditSession.audit_source>`
over ``sqlite:///…?table=…``) — no CSV export step.

Run with:  python examples/warehouse_loading.py
"""

import random
import tempfile
import time
from pathlib import Path

from repro import AuditorConfig, AuditReport, AuditSession, write_table
from repro.quis import generate_clean_quis, generate_quis_sample


def offline_structure_induction(model_path: Path) -> None:
    """Nightly job: induce and persist the structure model."""
    print("=== offline: structure induction on warehouse history ===")
    sample = generate_quis_sample(30_000, seed=11, error_rate=0.002)
    session = AuditSession(sample.schema, AuditorConfig(min_error_confidence=0.9))
    started = time.perf_counter()
    session.fit(sample.dirty)
    print(f"  induction over {sample.dirty.n_rows} records: "
          f"{time.perf_counter() - started:.1f}s")
    session.save(model_path)
    print(f"  structure model persisted to {model_path} "
          f"({model_path.stat().st_size / 1024:.0f} KiB)")


def online_load_check(model_path: Path, warehouse_path: Path) -> None:
    """Load-time job: screen an arriving load against the persisted model."""
    print("\n=== online: streaming deviation check of an incoming load ===")
    session = AuditSession.load(model_path)

    # an incoming load: mostly fine, a few corrupted records
    rng = random.Random(99)
    batch = generate_clean_quis(2_000, rng)
    corrupted_rows = [17, 303, 1500]
    batch.set_cell(17, "GBM", "936")     # engine code inconsistent with series
    batch.set_cell(303, "HUBRAUM", 15900)  # displacement out of band
    batch.set_cell(1500, "WERK", None)   # lost plant code

    # the load lands in the warehouse's staging table and is screened
    # right there — the auditor reads the database, not an export
    staging = f"sqlite:///{warehouse_path}?table=incoming_load"
    write_table(batch, staging)
    print(f"  load staged in {staging}")

    started = time.perf_counter()
    reports = []
    for report in session.audit_source(staging, chunk_size=500):
        reports.append(report)
        print(f"  chunk {len(reports)}: {report.n_rows} records screened, "
              f"{report.n_suspicious} quarantined")
    elapsed = time.perf_counter() - started
    report = AuditReport.merge(reports)
    print(f"  checked {batch.n_rows} records in {elapsed * 1000:.0f} ms "
          f"(no re-training, memory bounded by the chunk size)")

    quarantine = set(report.suspicious_rows())
    print(f"  loading {batch.n_rows - len(quarantine)} records, "
          f"quarantining {len(quarantine)}")
    for row in sorted(quarantine):
        marker = "seeded" if row in corrupted_rows else "other"
        best = report.findings_for_row(row)[0]
        print(f"    row {row:>5} [{marker:>6}] {best.attribute}: "
              f"observed {best.observed_value!r}, expected {best.predicted_label} "
              f"({best.confidence:.1%})")

    found = sum(1 for row in corrupted_rows if row in quarantine)
    print(f"  seeded errors caught: {found}/{len(corrupted_rows)}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "quis_structure_model.json"
        warehouse_path = Path(tmp) / "warehouse.db"
        offline_structure_induction(model_path)
        online_load_check(model_path, warehouse_path)


if __name__ == "__main__":
    main()
