"""The measured operations of each workload, plain and traced.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned. One operation is

* ``fit`` — ``AuditSession.fit_source`` on a CSV file, then
  ``save_to_registry`` into a fresh registry;
* ``audit-stream`` — ``audit_source`` at the default chunk size →
  ``AuditReport.merge`` → ``ranked_findings`` → a JSONL findings file
  through ``open_sink``;
* ``audit-pushdown`` — the same with ``engine="sql"``;
* ``serve-inline`` — one ``POST /audit`` round trip with inline rows.

``op`` runs the composite public call, checks its output and returns
the ``time.perf_counter()`` stamps of the timed part. ``traced_op``
runs the same work split into the public calls of each layer, each
inside a span, and checks that the recombined output equals the
composite call's byte for byte, so both time the same work.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import shutil
import sqlite3
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.compile import audit_connection, compilation_plan
from repro.core import AuditReport, ColumnCache, Finding, error_confidence_batch
from repro.core.auditor import DataAuditor, FitColumnCache
from repro.core.findings import findings_schema, findings_to_table
from repro.core.serialize import auditor_to_dict
from repro.core.session import AuditSession
from repro.io import (
    DEFAULT_CHUNK_SIZE,
    JsonlTableSink,
    JsonlTableSource,
    open_sink,
    open_source,
    resolve_io_path,
)
from repro.quis import generate_quis_sample, quis_schema
from repro.registry import ModelRegistry, model_digest
from repro.serve import AuditService

from spans import Tracer

FIT_ROWS = 80_000
HISTORY_ROWS = 20_000
PARTITION_ROWS = 50_000
REQUEST_ROWS = 2_000
MODEL_NAME = "quis"
SQLITE_TABLE = "loads"

#: the staged load is ``partitions`` × PARTITION_ROWS rows; pushdown
#: audits the first partition of the same load (a 200k-row pushdown
#: takes over 10 s, too long to repeat within one run). A run makes at
#: least ``min_ops`` measured operations, so that a short ``--seconds``
#: still gives a median of several, and 200 requests leave ten samples
#: beyond the 95th percentile. ``kernel`` names the speed probe's kernel
#: whose drift the workload's operations follow (see ``speed.py``).
WORKLOADS = {
    "fit": {"min_ops": 2, "kernel": "numpy"},
    "audit-stream": {"partitions": 4, "min_ops": 5, "kernel": "mixed"},
    "audit-pushdown": {"partitions": 1, "min_ops": 5, "kernel": "mixed"},
    "serve-inline": {"min_ops": 200, "kernel": "mixed"},
}


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_findings(findings: list[Finding], out: Path) -> None:
    """The findings file: JSONL through the sink registry."""
    with open_sink(findings_schema(), out) as sink:
        sink.write(findings_to_table(findings))


def stream_audit(session: AuditSession, source: Path, out: Path, *, engine) -> int:
    """The composite audit: source → merged, ranked findings → JSONL file.
    Returns the number of findings written."""
    report = AuditReport.merge(list(session.audit_source(str(source), engine=engine)))
    findings = report.ranked_findings()
    write_findings(findings, out)
    return len(findings)


def audit_in_parts(auditor, table, tracer: Tracer, offset: int = 0) -> AuditReport:
    """``DataAuditor.audit(table, n_jobs=1).with_row_offset(offset)``
    split into its public parts, one span per layer."""
    with tracer.span("core.audit_cache"):
        cache = ColumnCache(table)
    record_confidence = np.zeros(table.n_rows, dtype=float)
    findings: list[Finding] = []
    config = auditor.config
    for class_attr, classifier in auditor.classifiers.items():
        dataset = classifier.dataset
        with tracer.span("core.audit_cache"):
            columns = {
                name: cache.encoded(name, dataset.encoders[name])
                for name in dataset.base_attrs
            }
            observed = cache.observed_codes(class_attr, dataset.class_encoder)
        with tracer.span("mining.predict"):
            batch = classifier.predict_batch(columns, n_rows=table.n_rows)
        with tracer.span("mining.confidence"):
            confidences = error_confidence_batch(
                batch.probabilities, batch.support, observed, config.bounds
            )
            np.maximum(record_confidence, confidences, out=record_confidence)
        with tracer.span("findings.build"):
            flagged = np.flatnonzero(confidences >= config.min_error_confidence)
            labels = dataset.class_encoder.labels
            predicted_codes = np.argmax(batch.probabilities[flagged], axis=1).tolist()
            proposals = {
                code: dataset.class_encoder.proposal_for(labels[code])
                for code in set(predicted_codes)
            }
            for row, predicted in zip(flagged.tolist(), predicted_codes):
                findings.append(
                    Finding(
                        row=row,
                        attribute=class_attr,
                        observed_label=labels[int(observed[row])],
                        observed_value=cache.observed_value(class_attr, row),
                        predicted_label=labels[predicted],
                        confidence=float(confidences[row]),
                        support=float(batch.support[row]),
                        proposal=proposals[predicted],
                    )
                )
    with tracer.span("findings.build"):
        return AuditReport(
            table.n_rows,
            findings,
            record_confidence.tolist(),
            config.min_error_confidence,
            schema=table.schema,
        ).with_row_offset(offset)


class _FetchedRows:
    """The already fetched result of one screening statement."""

    def __init__(self, rows: list):
        self.rows = rows

    def fetchall(self) -> list:
        return self.rows


def screen_timer(tracer: Tracer, screens: set):
    """A ``sqlite3.Connection`` class that runs each statement in
    *screens* to completion inside a ``compile.screen`` span."""

    class ScreenTimer(sqlite3.Connection):
        def execute(self, sql, parameters=()):
            if sql not in screens:
                return super().execute(sql, parameters)
            with tracer.span("compile.screen"):
                rows = super().execute(sql, parameters).fetchall()
            tracer.count("compile.candidate_rows", len(rows))
            return _FetchedRows(rows)

    return ScreenTimer


def rank_and_write(report: AuditReport, out: Path, tracer: Tracer) -> int:
    with tracer.span("findings.rank"):
        findings = report.ranked_findings()
    with tracer.span("io.write"):
        write_findings(findings, out)
    return len(findings)


class FitWorkload:
    """Offline structure induction: CSV file → fitted model → registry."""

    def __init__(self, data: Path):
        self.source = data / "history.csv"
        self.rows = FIT_ROWS
        self.scratch = data / "fits"
        self.digest: Optional[str] = None  # the first operation's model

    def _check(self, auditor, registry_dir: Path, version) -> None:
        stored = sha256(registry_dir / "objects" / f"{version.digest}.json")
        computed = model_digest(auditor_to_dict(auditor))
        if not version.digest == stored == computed:
            raise CheckFailed(
                f"registry digest {version.digest} != stored {stored} / "
                f"computed {computed}"
            )
        if self.digest is None:
            self.digest = version.digest
        elif version.digest != self.digest:
            raise CheckFailed(f"model digest {version.digest} != {self.digest}")

    def warm_up(self) -> None:
        """A small fit, so the first measured fit pays no lazy set-up."""
        AuditSession(quis_schema()).fit(generate_quis_sample(2_000, seed=0).dirty)

    def op(self, index: int) -> tuple[float, float]:
        registry_dir = self.scratch / str(index)
        started = time.perf_counter()
        session = AuditSession(quis_schema()).fit_source(self.source)
        version = session.save_to_registry(registry_dir, MODEL_NAME)
        ended = time.perf_counter()
        try:
            self._check(session.auditor, registry_dir, version)
        finally:
            shutil.rmtree(registry_dir)
        return started, ended

    def traced_op(self, tracer: Tracer, index: int) -> float:
        registry_dir = self.scratch / str(index)
        auditor = DataAuditor(quis_schema())
        with tracer.op():
            with tracer.span("io.read"):
                with open_source(auditor.schema, self.source) as source:
                    if resolve_io_path(source, "auto") == "columns":
                        table = source.read_columns()
                    else:
                        table = source.read()
            with tracer.span("core.fit_cache"):
                cache = FitColumnCache(table, n_bins=auditor.config.n_bins)
            classifiers = {}
            for class_attr in auditor.audited_attributes():
                with tracer.span("core.fit_cache"):
                    dataset = auditor.fit_dataset(class_attr, table, cache)
                with tracer.span(f"mining.fit.{class_attr}"):
                    classifier = auditor.config.make_classifier()
                    classifier.fit(dataset)
                classifiers[class_attr] = classifier
            auditor.classifiers = classifiers
            with tracer.span("registry.put"):
                version = ModelRegistry(registry_dir).put(auditor, MODEL_NAME)
        tracer.count("io.read_rows", table.n_rows)
        tracer.count("io.read_bytes", self.source.stat().st_size)
        tracer.count(
            "mining.tree_nodes",
            sum(c.root.node_count() for c in classifiers.values()),
        )
        try:
            self._check(auditor, registry_dir, version)
        finally:
            shutil.rmtree(registry_dir)
        return tracer.last("op")

    def close(self) -> None:
        pass


class AuditWorkload:
    """Online deviation check of a staged SQLite load into a findings file."""

    def __init__(self, data: Path, engine: Optional[str]):
        self.engine = engine
        self.session = AuditSession.load_from_registry(
            data / "registry", f"{MODEL_NAME}@v1"
        )
        self.source = data / "load.db"
        self.out = data / "findings.jsonl"
        self.reference = sha256(data / "reference.jsonl")
        connection = sqlite3.connect(self.source)
        try:
            (self.rows,) = connection.execute(
                f'SELECT COUNT(*) FROM "{SQLITE_TABLE}"'
            ).fetchone()
        finally:
            connection.close()

    def _check(self) -> None:
        digest = sha256(self.out)
        if digest != self.reference:
            raise CheckFailed(f"findings {digest[:12]} != reference {self.reference[:12]}")

    def warm_up(self) -> None:
        self.op(-1)

    def op(self, index: int) -> tuple[float, float]:
        started = time.perf_counter()
        stream_audit(self.session, self.source, self.out, engine=self.engine)
        ended = time.perf_counter()
        self._check()
        return started, ended

    def traced_op(self, tracer: Tracer, index: int) -> float:
        if self.engine == "sql":
            self._traced_pushdown(tracer)
        else:
            self._traced_stream(tracer)
        tracer.count("io.write_bytes", self.out.stat().st_size)
        self._check()
        return tracer.last("op")

    def _traced_stream(self, tracer: Tracer) -> None:
        auditor = self.session.auditor
        with tracer.op():
            reports = []
            with tracer.span("io.read"):
                source = open_source(auditor.schema, str(self.source))
                if resolve_io_path(source, "auto") == "columns":
                    stream = source.column_batches(DEFAULT_CHUNK_SIZE)
                else:
                    stream = source.chunks(DEFAULT_CHUNK_SIZE)
            try:
                offset = 0
                while True:
                    with tracer.span("io.read"):
                        chunk = next(stream, None)
                    if chunk is None:
                        break
                    reports.append(audit_in_parts(auditor, chunk, tracer, offset))
                    offset += chunk.n_rows
            finally:
                with tracer.span("io.read"):
                    source.close()
            with tracer.span("findings.merge"):
                report = AuditReport.merge(reports)
            n_findings = rank_and_write(report, self.out, tracer)
        tracer.count("io.read_rows", offset)
        tracer.count("io.read_bytes", self.source.stat().st_size)
        tracer.count("findings.count", n_findings)

    def _traced_pushdown(self, tracer: Tracer) -> None:
        """``audit_source(engine="sql")`` is ``audit_sqlite``: plan, then
        ``audit_connection`` on a fresh connection. The connection here
        times each screening statement of the plan as the engine runs it;
        what is left of the engine span is the Python-side recheck."""
        auditor = self.session.auditor
        with tracer.op():
            with tracer.span("compile.engine"):
                with tracer.span("compile.plan"):
                    plan = compilation_plan(auditor)
                screens = {
                    statement.sql(plan.dialect.quote(SQLITE_TABLE))
                    for statement in plan.statements
                }
                connection = sqlite3.connect(
                    self.source, factory=screen_timer(tracer, screens)
                )
                try:
                    report = audit_connection(auditor, connection, plan=plan)
                finally:
                    connection.close()
            with tracer.span("findings.merge"):
                report = AuditReport.merge([report])
            n_findings = rank_and_write(report, self.out, tracer)
        tracer.count("findings.count", n_findings)

    def close(self) -> None:
        pass


class ServeWorkload:
    """One client of a running ``repro serve``, posting inline loads."""

    def __init__(self, data: Path, port: int):
        self.port = port
        requests = sorted((data / "requests").iterdir())
        self.bodies = [path.read_bytes() for path in requests]
        self.references = [
            (data / "responses" / f"{path.stem}.jsonl").read_bytes()
            for path in requests
        ]
        self.rows = REQUEST_ROWS
        self.registry_dir = data / "registry"
        self.connection = self._connect()
        self.service: Optional[AuditService] = None

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def _round_trip(self, body: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        try:
            self.connection.request(
                "POST", "/audit", body=body, headers={"Content-Type": "application/json"}
            )
            response = self.connection.getresponse()
            return response, response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = self._connect()
            raise

    def _check(self, index: int, status: int, data: bytes, what: str) -> None:
        if status != 200:
            raise CheckFailed(f"{what}: HTTP {status}: {data[:200]!r}")
        if data != self.references[index % len(self.references)]:
            raise CheckFailed(f"{what} differs from the in-process audit")

    def warm_up(self) -> None:
        self.op(-1)

    def op(self, index: int) -> tuple[float, float]:
        started = time.perf_counter()
        response, data = self._round_trip(self.bodies[index % len(self.bodies)])
        ended = time.perf_counter()
        self._check(index, response.status, data, "response body")
        return started, ended

    def traced_op(self, tracer: Tracer, index: int) -> float:
        body = self.bodies[index % len(self.bodies)]
        payload = json.loads(body)
        if self.service is None:
            # the handler the server runs, in-process, over the same registry
            registry = ModelRegistry(self.registry_dir)
            self.service = AuditService(registry)
            self.auditor = registry.get(payload["model"])
        with tracer.op():
            with tracer.span("serve.ttfb"):
                self.connection.request(
                    "POST", "/audit", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = self.connection.getresponse()
            with tracer.span("serve.body"):
                data = response.read()
            with tracer.span("serve.handler"):
                _, lines = self.service.audit(payload)
                handled = "".join(lines).encode("utf-8")
            # the handler again, one span per layer
            with tracer.span("registry.resolve"):
                self.service.registry.resolve(payload["model"])
            with tracer.span("io.read"):
                text = "".join(
                    json.dumps(row, allow_nan=False) + "\n" for row in payload["rows"]
                )
                source = JsonlTableSource(self.auditor.schema, io.StringIO(text))
                table = source.read()
                source.close()
            report = audit_in_parts(self.auditor, table, tracer)
            with tracer.span("findings.rank"):
                findings = report.ranked_findings()
            with tracer.span("io.write"):
                buffer = io.StringIO()
                with JsonlTableSink(findings_schema(), buffer) as sink:
                    sink.write(findings_to_table(findings))
                rendered = buffer.getvalue().encode("utf-8")
        tracer.count("io.read_rows", table.n_rows)
        tracer.count("io.read_bytes", len(text.encode("utf-8")))
        tracer.count("io.write_bytes", len(rendered))
        tracer.count("findings.count", len(findings))
        tracer.count("serve.request_bytes", len(body))
        tracer.count("serve.response_bytes", len(data))
        self._check(index, response.status, data, "response body")
        self._check(index, 200, handled, "in-process handler output")
        self._check(index, 200, rendered, "recombined handler output")
        return tracer.last("serve.ttfb") + tracer.last("serve.body")

    def close(self) -> None:
        self.connection.close()


def make_workload(name: str, data: Path, port: Optional[int] = None):
    if name == "fit":
        return FitWorkload(data)
    if name == "audit-stream":
        return AuditWorkload(data, engine=None)
    if name == "audit-pushdown":
        return AuditWorkload(data, engine="sql")
    return ServeWorkload(data, port)
