"""Columnar-parity property suite: the column path is pinned to the row
path, byte for byte, on randomized stored tables.

These tests generate random schemas and tables — mixed
nominal/numeric/date columns, nulls, out-of-domain nominals, and
integers beyond 2**53 (where any float64 detour would silently corrupt
the value) — write them to a randomly drawn backend (CSV, JSONL, SQLite,
Parquet when pyarrow is present), and assert that the columnar ingest
lane (``io_path="columns"``) produces exactly the row lane's output:

* :meth:`AuditSession.audit_source` yields byte-identical merged
  reports (findings *and* per-record confidence) at every chunk size;
* :meth:`AuditSession.fit_source` induces a byte-identical model
  (canonical ``auditor_to_dict`` fingerprint);
* a randomly mistyped stored cell raises the *same* extraction error
  from both lanes, even though the column lane converts
  column-at-a-time and must replay buffered rows to recover the row
  path's first-error-in-row-order message.

Parallel fit workers are deliberately kept out of these properties
(job-count parity is pinned by ``test_fit_parity_property.py``) so the
randomized sweep stays fast.
"""

from __future__ import annotations

import datetime
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AuditorConfig, AuditReport, AuditSession
from repro.core.serialize import auditor_to_dict
from repro.io import open_source, write_table
from repro.schema import Schema, Table, date, nominal, numeric

try:
    import pyarrow  # noqa: F401

    HAVE_PYARROW = True
except ImportError:
    HAVE_PYARROW = False

BACKENDS = ["csv", "jsonl", "sqlite"] + (["parquet"] if HAVE_PYARROW else [])
_EXT = {"csv": "t.csv", "jsonl": "t.jsonl", "sqlite": "t.db", "parquet": "t.parquet"}

_DATE_START = datetime.date(2000, 1, 1)


@st.composite
def schema_and_table(draw, min_rows: int = 1, max_rows: int = 25):
    """A random 2–4 column schema plus a table of random rows.

    Cells come from small per-column pools (ties and constant columns
    arise naturally); every pool includes ``None``, nominal pools an
    out-of-domain value, and the ``bigint`` kind integers past 2**53.
    """
    n_attrs = draw(st.integers(2, 4))
    attributes = []
    pools = []
    for i in range(n_attrs):
        kind = draw(st.sampled_from(("nominal", "int", "bigint", "float", "date")))
        name = f"A{i}"
        if kind == "nominal":
            values = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
            attributes.append(nominal(name, values))
            pool = list(values) + ["zzz"]  # out-of-domain → unknown code
        elif kind == "int":
            attributes.append(numeric(name, 0, 100, integer=True))
            pool = draw(
                st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True)
            )
        elif kind == "bigint":
            # past float64's exact-integer range: a lossy detour through
            # floats would change these values and break byte parity
            attributes.append(numeric(name, 0, 2**70, integer=True))
            pool = [0, 2**53 + 1, 2**60 + 3, 2**64 + 7]
        elif kind == "float":
            attributes.append(numeric(name, 0.0, 10.0))
            pool = draw(
                st.lists(
                    st.floats(0, 10, allow_nan=False, allow_infinity=False),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
        else:
            attributes.append(date(name, _DATE_START, datetime.date(2001, 12, 31)))
            offsets = draw(
                st.lists(st.integers(0, 700), min_size=1, max_size=4, unique=True)
            )
            pool = [_DATE_START + datetime.timedelta(days=d) for d in offsets]
        pools.append(pool + [None])
    schema = Schema(attributes)
    n_rows = draw(st.integers(min_rows, max_rows))
    rows = [
        [draw(st.sampled_from(pools[i])) for i in range(n_attrs)]
        for _ in range(n_rows)
    ]
    return schema, Table(schema, rows)


def _report_fingerprint(report: AuditReport) -> tuple:
    return (tuple(report.findings), tuple(report.record_confidence))


def _model_fingerprint(session: AuditSession) -> bytes:
    return json.dumps(auditor_to_dict(session.auditor), sort_keys=True).encode()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(),
    fmt=st.sampled_from(BACKENDS),
    chunk_size=st.sampled_from((1, 2, 7, 1000)),
)
def test_audit_source_columns_matches_rows(data, fmt, chunk_size):
    """Randomized stored tables audit byte-identically on both lanes."""
    schema, table = data
    session = AuditSession(schema, AuditorConfig())
    session.fit(table)
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        write_table(table, location)
        reports = {
            io_path: AuditReport.merge(
                session.audit_source(
                    location, chunk_size=chunk_size, io_path=io_path
                )
            )
            for io_path in ("rows", "columns")
        }
    assert _report_fingerprint(reports["columns"]) == _report_fingerprint(
        reports["rows"]
    )
    # and both equal the in-memory whole-table audit
    assert _report_fingerprint(reports["rows"]) == _report_fingerprint(
        session.audit(table)
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=schema_and_table(), fmt=st.sampled_from(BACKENDS))
def test_fit_source_columns_matches_rows(data, fmt):
    """Randomized stored tables fit byte-identical models on both lanes."""
    schema, table = data
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        write_table(table, location)
        fingerprints = set()
        for io_path in ("rows", "columns"):
            session = AuditSession(schema, AuditorConfig())
            session.fit_source(location, io_path=io_path)
            fingerprints.add(_model_fingerprint(session))
    assert len(fingerprints) == 1


_BAD_CELL = {"nominal": 123, "numeric": "oops", "date": 42}


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(min_rows=1),
    position=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    chunk_size=st.sampled_from((1, 3, 1000)),
)
def test_mistyped_cell_error_identity_jsonl(data, position, chunk_size):
    """A random wrong-typed stored cell raises the same error both ways."""
    schema, table = data
    row = position[0] % table.n_rows
    col = position[1] % len(schema.names)
    name = schema.names[col]
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/bad.jsonl"
        write_table(table, location + ".tmp", format="jsonl")
        with open(location + ".tmp", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[row])
        record[name] = _BAD_CELL[schema.attribute(name).domain.kind.value]
        lines[row] = json.dumps(record)
        with open(location, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as row_err:
                source.read()
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as col_err:
                for _ in source.column_batches(chunk_size):
                    pass
    assert str(col_err.value) == str(row_err.value)
    assert f"line {row + 1}" in str(row_err.value)
