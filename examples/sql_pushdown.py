#!/usr/bin/env python3
"""In-database auditing: push the deviation check into the warehouse.

The companion to ``warehouse_loading.py``: same offline/online split
(paper sec. 2.2), but instead of extracting the staged load and checking
it in Python, the online job compiles the fitted structure model to SQL
(:mod:`repro.compile`) and screens the staging table **inside SQLite**.
One screening query checks every audited attribute in a single scan, and
only the handful of rows it cannot certify clean come back to Python for
the exact confidence computation — the ranked findings are
byte-identical to the in-memory audit, while the database ships a
fraction of the rows (the compilation contract, the tree's SQL shape
and all, lives in ``docs/sql_compilation.md``).

Run with:  python examples/sql_pushdown.py
"""

import sqlite3
import tempfile
import time
from pathlib import Path

from repro import AuditorConfig, AuditSession, write_table
from repro.compile import compilation_plan
from repro.quis import generate_clean_quis, generate_quis_sample

import random


def offline_structure_induction(model_path: Path) -> AuditSession:
    """Nightly job: induce and persist the structure model."""
    print("=== offline: structure induction on warehouse history ===")
    sample = generate_quis_sample(20_000, seed=11, error_rate=0.002)
    session = AuditSession(sample.schema, AuditorConfig(min_error_confidence=0.9))
    session.fit(sample.dirty)
    session.save(model_path)
    print(f"  structure model persisted to {model_path.name}")
    return session


def online_in_database_check(model_path: Path, warehouse_path: Path) -> None:
    """Load-time job: screen the staging table without extracting it."""
    print("\n=== online: deviation screens compiled into the warehouse ===")
    session = AuditSession.load(model_path)

    # an incoming load lands in the staging table, errors included
    rng = random.Random(99)
    batch = generate_clean_quis(2_000, rng)
    batch.set_cell(17, "GBM", "936")        # engine code inconsistent with series
    batch.set_cell(303, "HUBRAUM", 15900)   # displacement out of band
    batch.set_cell(1500, "WERK", None)      # lost plant code
    staging = f"sqlite:///{warehouse_path}?table=incoming_load"
    write_table(batch, staging)
    print(f"  load staged in {staging}")

    # the model compiles: one screening query for all audited attributes
    plan = compilation_plan(session.auditor)
    queries = len(plan.statements)
    attributes = sum(len(statement.attributes) for statement in plan.statements)
    print(f"  model compiled to SQL: {queries} screening "
          f"{'query' if queries == 1 else 'queries'} over {attributes} "
          f"attributes ({plan.dialect.name} dialect)")
    with sqlite3.connect(warehouse_path) as connection:
        shipped = 0
        for statement in plan.statements:
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM ({})".format(
                    statement.sql('"incoming_load"')
                ),
                statement.params,
            ).fetchone()
            shipped += count
    print(f"  the screen returns {shipped} candidate rows — the database "
          f"ships {shipped / batch.n_rows:.1%} of the {batch.n_rows} rows "
          f"an extract would move")

    # engine="sql": the audit runs in-database, one whole-table report;
    # the run says which engine ran (and, after a fallback, why)
    started = time.perf_counter()
    run = session.audit_source(staging, engine="sql")
    (report,) = run
    elapsed = time.perf_counter() - started
    assert run.engine == "sql", run.notice
    print(f"  in-database audit of {report.n_rows} records in "
          f"{elapsed * 1000:.0f} ms: {report.n_suspicious} quarantined")

    # the contract: byte-identical to the in-memory engine
    (memory_report,) = session.audit_source(staging, engine="memory")
    assert report.findings == memory_report.findings
    print("  findings byte-identical to the in-memory audit")

    for row in sorted(report.suspicious_rows()):
        best = report.findings_for_row(row)[0]
        print(f"    row {row:>5} {best.attribute}: observed "
              f"{best.observed_value!r}, expected {best.predicted_label} "
              f"({best.confidence:.1%})")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "quis_structure_model.json"
        warehouse_path = Path(tmp) / "warehouse.db"
        offline_structure_induction(model_path)
        online_in_database_check(model_path, warehouse_path)


if __name__ == "__main__":
    main()
