"""Tests for the audit service daemon (``repro.serve``).

Three layers, matching the module split: :class:`AuditService` endpoint
semantics without sockets, the HTTP transport against a real
ephemeral-port server, and the ``repro serve`` process itself
(clean SIGTERM/SIGINT shutdown). The load-bearing assertion throughout:
the JSONL findings the service streams are **byte-identical** to
``repro audit --format jsonl`` on the same model and table."""

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.cli import main
from repro.core import AuditorConfig, AuditSession
from repro.registry import ModelRegistry, model_digest
from repro.core.serialize import auditor_to_dict, save_auditor
from repro.io import write_table
from repro.schema import Schema, Table, nominal, numeric
from repro.schema.serialize import schema_to_dict
from repro.errors import InputError
from repro.serve import AuditService, ServiceError, make_server


def _structured_table(n=400, seed=7, error_rate=0.05):
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
    rows = []
    for _ in range(n):
        a = rng.choice(["a", "b", "c"])
        b = rule[a] if rng.random() > error_rate else rng.choice(["x", "y", "z"])
        rows.append([a, b, rng.randint(0, 100)])
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    return Table(schema, rows)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One fitted model in a registry + its training/audit CSVs on disk."""
    root = tmp_path_factory.mktemp("serve")
    train = _structured_table(seed=7)
    load = _structured_table(n=150, seed=99, error_rate=0.2)
    train_csv = root / "train.csv"
    load_csv = root / "load.csv"
    write_table(train, train_csv)
    write_table(load, load_csv)
    session = AuditSession(
        train.schema, AuditorConfig(min_error_confidence=0.8)
    ).fit(train)
    registry = ModelRegistry(root / "registry")
    session.save_to_registry(registry, "svc")
    model_file = root / "model.json"
    session.save(model_file)
    return {
        "root": root,
        "schema": train.schema,
        "registry": registry,
        "session": session,
        "train_csv": train_csv,
        "load_csv": load_csv,
        "load": load,
        "model_file": model_file,
    }


@pytest.fixture
def service(corpus):
    return AuditService(corpus["registry"])


def _cli_jsonl(capsys, model, load_csv, extra=()):
    """stdout of ``repro audit --format jsonl`` — the byte baseline."""
    capsys.readouterr()  # drop anything buffered by earlier calls
    assert (
        main(
            ["audit", "--model", str(model), "--input", str(load_csv), "--format", "jsonl"]
            + list(extra)
        )
        == 0
    )
    return capsys.readouterr().out


class TestServiceEndpoints:
    def test_healthz_counts(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["models"] == 1
        service.mark_request()
        assert service.healthz()["requests_served"] == 1

    def test_list_and_show(self, service, corpus):
        listing = service.list_models()
        (entry,) = listing["models"]
        assert entry["name"] == "svc"
        assert entry["latest"]["ref"] == "svc@v1"
        shown = service.show_model("svc@v1")
        assert shown["digest"] == model_digest(
            auditor_to_dict(corpus["session"].auditor)
        )
        assert shown["provenance"]["schema_hash"]

    def test_show_unknown_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.show_model("nope@v1")
        assert excinfo.value.status == 404

    def test_fit_registers_with_provenance(self, corpus):
        service = AuditService(ModelRegistry(corpus["root"] / "fit-registry"))
        version = service.fit(
            {
                "name": "fresh",
                "schema": schema_to_dict(corpus["schema"]),
                "source": str(corpus["train_csv"]),
                "config": {"min_error_confidence": 0.8},
            }
        )
        assert version["ref"] == "fresh@v1"
        prov = version["provenance"]
        assert prov["source"] == str(corpus["train_csv"])
        assert prov["n_rows"] == 400
        assert prov["config"]["min_error_confidence"] == 0.8
        assert prov["schema_hash"] and prov["created_at"]
        # the same fit through the service or the session: same digest
        assert version["digest"] == model_digest(
            auditor_to_dict(corpus["session"].auditor)
        )

    @pytest.mark.parametrize(
        "mutate, status, fragment",
        [
            (lambda p: p.pop("name"), 400, "missing the 'name'"),
            (lambda p: p.pop("source"), 400, "missing the 'source'"),
            (lambda p: p.update(schema={"bad": 1}), 400, "invalid schema"),
            (lambda p: p.update(source="/no/such.csv"), 400, "cannot read source"),
            (lambda p: p.update(config={"polluters": 3}), 400, "unknown config"),
            (lambda p: p.update(io_path="rows"), 400, "unknown request fields ['io_path']"),
            (
                lambda p: p.update(config={"fit_path": "rows"}),
                400,
                "unknown config fields ['fit_path']",
            ),
        ],
    )
    def test_fit_rejections(self, corpus, mutate, status, fragment):
        service = AuditService(ModelRegistry(corpus["root"] / "rej-registry"))
        payload = {
            "name": "fresh",
            "schema": schema_to_dict(corpus["schema"]),
            "source": str(corpus["train_csv"]),
        }
        mutate(payload)
        assert status == 400
        with pytest.raises(InputError) as excinfo:
            service.fit(payload)
        assert fragment in str(excinfo.value)

    def test_audit_source_summary(self, service, corpus):
        summary, lines = service.audit(
            {"model": "svc", "source": str(corpus["load_csv"])}
        )
        body = "".join(lines)
        assert summary["model"] == "svc@v1"
        assert summary["rows"] == 150
        assert summary["findings"] == body.count("\n") > 0
        first = json.loads(body.splitlines()[0])
        assert {"row", "attribute", "confidence"} <= set(first)

    def test_audit_rows_inline(self, service, corpus):
        rows = [record.to_dict() for record in corpus["load"].records()]
        summary, lines = service.audit({"model": "svc@latest", "rows": rows})
        assert summary["rows"] == 150
        assert summary["findings"] == "".join(lines).count("\n")

    @pytest.mark.parametrize(
        "payload, status, fragment",
        [
            ({"source": "x.csv"}, 400, "missing the 'model'"),
            ({"model": "ghost", "source": "x.csv"}, 404, "no model named"),
            ({"model": "svc"}, 400, "exactly one of"),
            ({"model": "svc", "source": "a", "rows": []}, 400, "exactly one of"),
            ({"model": "svc", "source": "/no/such.csv"}, 400, "cannot audit source"),
            ({"model": "svc", "rows": "nope"}, 400, "must be a list"),
            ({"model": "svc", "rows": [], "chunk_size": 0}, 400, "chunk_size"),
            ({"model": "svc", "rows": [{"A": "q"}]}, 400, "invalid rows payload"),
            ({"model": "svc", "rows": [], "engine": "duckdb"}, 400, "'engine'"),
            ({"model": "svc", "rows": [], "jobs": 2}, 400, "unknown request fields ['jobs']"),
        ],
    )
    def test_audit_rejections(self, service, payload, status, fragment):
        with pytest.raises(InputError if status == 400 else ServiceError) as excinfo:
            service.audit(payload)
        if status != 400:
            assert excinfo.value.status == status
        assert fragment in str(excinfo.value)

    def test_audit_engine_sql_matches_memory(self, service, corpus):
        from repro.io.sqlite_backend import SqliteTableSink

        database = corpus["root"] / "load.db"
        if not database.exists():
            with SqliteTableSink(corpus["schema"], database, table="loads") as sink:
                sink.write(corpus["load"])
        url = f"sqlite:///{database}?table=loads"
        memory_summary, memory_lines = service.audit({"model": "svc", "source": url})
        sql_summary, sql_lines = service.audit(
            {"model": "svc", "source": url, "engine": "sql"}
        )
        assert "".join(sql_lines) == "".join(memory_lines)
        assert memory_summary["engine"] == "memory"
        assert sql_summary["engine"] == "sql"
        assert "notice" not in sql_summary  # pushdown ran, no fallback

    def test_audit_engine_sql_csv_falls_back_with_notice(self, service, corpus):
        summary, lines = service.audit(
            {"model": "svc", "source": str(corpus["load_csv"]), "engine": "sql"}
        )
        assert summary["engine"] == "memory"
        assert "not SQLite" in summary["notice"]
        assert summary["findings"] == "".join(lines).count("\n")

    def test_audit_engine_sql_honours_format(self, service, corpus):
        """A SQLite database under an unrecognized name, named as such
        by ``"format"``, is pushed down."""
        from repro.io.sqlite_backend import SqliteTableSink

        database = corpus["root"] / "load-sqlite.txt"
        with SqliteTableSink(corpus["schema"], database, table="loads") as sink:
            sink.write(corpus["load"])
        _, memory_lines = service.audit(
            {"model": "svc", "source": str(corpus["load_csv"])}
        )
        summary, lines = service.audit(
            {
                "model": "svc",
                "source": str(database),
                "format": "sqlite",
                "engine": "sql",
            }
        )
        assert "".join(lines) == "".join(memory_lines)
        assert summary["engine"] == "sql"
        assert "notice" not in summary

    def test_audit_engine_sql_runtime_failure_reports_memory(self, service, corpus):
        """A ``WITHOUT ROWID`` table defeats the pushdown at run time: the
        summary names the engine that ran and why."""
        import sqlite3

        database = corpus["root"] / "keyed.db"
        names = ", ".join(f'"{name}"' for name in corpus["schema"].names)
        with sqlite3.connect(database) as connection:
            connection.execute(
                f"CREATE TABLE keyed ({names}, PRIMARY KEY ({names})) WITHOUT ROWID"
            )
            connection.executemany(
                "INSERT OR IGNORE INTO keyed VALUES (?, ?, ?)", corpus["load"].rows
            )
        _, memory_lines = service.audit({"model": "svc", "source": str(database)})
        summary, lines = service.audit(
            {"model": "svc", "source": str(database), "engine": "sql"}
        )
        assert "".join(lines) == "".join(memory_lines)
        assert summary["engine"] == "memory"
        assert summary["notice"].startswith("SQL pushdown failed at runtime: ")
        assert summary["notice"].endswith("; auditing in memory")

    def test_audit_inline_rows_engine_sql_runs_in_memory(self, service, corpus):
        rows = [record.to_dict() for record in corpus["load"].records()]
        _, memory_lines = service.audit({"model": "svc", "rows": rows})
        summary, lines = service.audit({"model": "svc", "rows": rows, "engine": "sql"})
        assert "".join(lines) == "".join(memory_lines)
        assert summary["engine"] == "memory"
        assert summary["notice"] == "source is not SQLite; auditing in memory"

    def test_audit_honours_format(self, service, corpus):
        """A CSV stored under an unrecognized name audits with
        ``"format": "csv"`` exactly as the ``.csv`` file does."""
        renamed = corpus["root"] / "load.txt"
        renamed.write_bytes(corpus["load_csv"].read_bytes())
        with pytest.raises(InputError, match="cannot infer a table format"):
            service.audit({"model": "svc", "source": str(renamed)})
        summary, lines = service.audit(
            {"model": "svc", "source": str(renamed), "format": "csv"}
        )
        reference, reference_lines = service.audit(
            {"model": "svc", "source": str(corpus["load_csv"])}
        )
        assert "".join(lines) == "".join(reference_lines)
        assert summary == reference

    def test_model_cache_reuses_loaded_auditor(self, service):
        service.audit({"model": "svc", "rows": []})
        (cached,) = service._model_cache.values()
        service.audit({"model": "svc@v1", "rows": []})
        assert list(service._model_cache.values()) == [cached]


class TestBitIdentity:
    """The acceptance bar: service findings == CLI findings, byte for byte."""

    def test_stream_matches_cli_jsonl(self, service, corpus, capsys):
        baseline = _cli_jsonl(capsys, corpus["model_file"], corpus["load_csv"])
        assert baseline  # the noisy load must produce findings
        _, lines = service.audit({"model": "svc", "source": str(corpus["load_csv"])})
        assert "".join(lines) == baseline

    def test_inline_rows_match_cli_jsonl(self, service, corpus, capsys):
        baseline = _cli_jsonl(capsys, corpus["model_file"], corpus["load_csv"])
        rows = [record.to_dict() for record in corpus["load"].records()]
        _, lines = service.audit({"model": "svc", "rows": rows})
        assert "".join(lines) == baseline

    def test_chunked_source_matches_unchunked_cli(self, service, corpus, capsys):
        baseline = _cli_jsonl(capsys, corpus["model_file"], corpus["load_csv"])
        _, lines = service.audit(
            {"model": "svc", "source": str(corpus["load_csv"]), "chunk_size": 32}
        )
        assert "".join(lines) == baseline


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


def _raw_post(base, path, body, headers):
    """POST raw bytes with raw headers — for bodies and headers a
    well-behaved client library would never produce."""
    url = urlsplit(base)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        connection.putrequest("POST", path)
        sent = {"Content-Type": "application/json", "Content-Length": str(len(body))}
        sent.update(headers)
        for key, value in sent.items():
            connection.putheader(key, value)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


@pytest.fixture
def http_server(corpus):
    server = make_server(corpus["registry"], port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    server.service.stop_monitors()
    thread.join(timeout=10)


class TestHttpTransport:
    def test_full_round_trip(self, http_server, corpus, capsys):
        status, _, body = _get(f"{http_server}/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"

        status, _, body = _post(
            f"{http_server}/fit",
            {
                "name": "overhttp",
                "schema": schema_to_dict(corpus["schema"]),
                "source": str(corpus["train_csv"]),
                "config": {"min_error_confidence": 0.8},
            },
        )
        assert status == 201 and json.loads(body)["ref"] == "overhttp@v1"

        status, _, body = _get(f"{http_server}/models")
        assert status == 200
        assert {m["name"] for m in json.loads(body)["models"]} == {"svc", "overhttp"}

        status, _, body = _get(f"{http_server}/models/overhttp@latest")
        assert status == 200 and json.loads(body)["version"] == 1

        status, headers, body = _post(
            f"{http_server}/audit",
            {"model": "overhttp", "source": str(corpus["load_csv"])},
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert headers["X-Audit-Model"] == "overhttp@v1"
        assert int(headers["X-Audit-Rows"]) == 150
        assert int(headers["X-Audit-Findings"]) == body.count("\n")
        # over the wire and through chunked decoding: still the CLI bytes
        assert body == _cli_jsonl(
            capsys, corpus["model_file"], corpus["load_csv"]
        )

    def test_errors_are_json_with_status(self, http_server):
        for url, expected in [
            (f"{http_server}/models/ghost", 404),
            (f"{http_server}/nope", 404),
        ]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(url)
            assert excinfo.value.code == expected
            assert "error" in json.loads(excinfo.value.read().decode("utf-8"))

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_server}/audit", {"model": "svc"})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "path, body, headers, fragment",
        [
            ("/audit", b'{"model": 5, "rows": []}', {}, "'model' must be a string"),
            (
                "/monitors",
                b'{"name": "m", "model": ["svc"], "source": "x.csv"}',
                {},
                "'model' must be a string",
            ),
            (
                "/audit",
                b'{"model": "svc", "rows": [{"A": "a", "B": "x", "N": NaN}]}',
                {},
                "invalid rows payload",
            ),
            (
                "/audit",
                b'{"model": "svc", "rows": [{"A": "a", "B": "x", "N": -Infinity}]}',
                {},
                "invalid rows payload",
            ),
            (
                "/audit",
                b'{"model": "svc", "rows": []}',
                {"Content-Length": "twenty"},
                "Content-Length",
            ),
            (
                "/audit",
                b'{"model": "svc", "rows": [], "chunk_size": true}',
                {},
                "chunk_size",
            ),
            (
                "/audit",
                b'{"model": "svc", "rows": [], "io_path": "rows"}',
                {},
                "unknown request fields ['io_path'] (allowed: chunk_size, engine, "
                "format, model, rows, source)",
            ),
            (
                "/audit",
                b'{"model": "svc", "rows": [], "jobs": 2}',
                {},
                "unknown request fields ['jobs']",
            ),
            (
                "/fit",
                b'{"name": "n", "schema": {}, "source": "x.csv", "io_path": "auto"}',
                {},
                "unknown request fields ['io_path'] (allowed: config, format, "
                "name, schema, source)",
            ),
            (
                "/audit",
                b'{"model": "svc", "source": 5, "format": "csv"}',
                {},
                "'source' must be a location string, got 5",
            ),
            (
                "/monitors",
                b'{"name": "m", "model": "svc", "source": "x.jsonl", "state": 5}',
                {},
                "cannot start monitor 'm'",
            ),
        ],
        ids=[
            "numeric-model",
            "list-model-monitor",
            "nan-cell",
            "infinity-cell",
            "non-numeric-content-length",
            "boolean-chunk-size",
            "stale-io-path",
            "stale-jobs",
            "stale-fit-io-path",
            "numeric-source",
            "numeric-monitor-state",
        ],
    )
    def test_malformed_bodies_are_400(self, http_server, path, body, headers, fragment):
        """Malformed request bodies get a 400 JSON error naming the
        problem — never a 500 and never a silently accepted value."""
        status, payload = _raw_post(http_server, path, body, headers)
        assert status == 400
        assert fragment in payload["error"]

    def test_concurrent_requests(self, http_server, corpus):
        """4 concurrent clients per body, inline rows and the stored CSV
        of the same load: every response carries the same bytes."""
        rows = [record.to_dict() for record in corpus["load"].records()]
        payloads = [
            {"model": "svc", "rows": rows},
            {"model": "svc", "source": str(corpus["load_csv"])},
        ]
        results = []

        def hit(payload):
            results.append(_post(f"{http_server}/audit", payload))

        threads = [
            threading.Thread(target=hit, args=(payload,))
            for payload in payloads
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 8
        assert len({body for _, _, body in results}) == 1  # all identical


def _write_stream(table, path):
    from repro.io import open_sink

    with open_sink(table.schema, path) as sink:
        sink.write(table)


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


class TestFailureContract:
    """The service answers 400 only for an InputError — unusable request
    input, including a client-named location it cannot open; a fault of
    the program is a 500."""

    def test_internal_value_error_is_500(self, http_server, corpus, monkeypatch):
        from repro.mining.tree_classifier import TreeClassifier

        def broken(self, columns, *, n_rows=None):
            raise ValueError("boom")

        monkeypatch.setattr(TreeClassifier, "predict_batch", broken)
        status, payload = _raw_post(
            http_server,
            "/audit",
            json.dumps({"model": "svc", "source": str(corpus["load_csv"])}).encode(),
            {},
        )
        assert status == 500
        assert payload["error"] == "internal error: boom"

    @pytest.mark.parametrize("path", ["/fit", "/audit", "/monitors"])
    def test_unopenable_client_location_is_400(self, http_server, corpus, tmp_path, path):
        absent = str(tmp_path / "absent.jsonl")
        body = {
            "/fit": {"name": "n", "schema": schema_to_dict(corpus["schema"]),
                     "source": absent},
            "/audit": {"model": "svc", "source": absent},
            "/monitors": {"name": "m", "model": "svc", "source": absent},
        }[path]
        status, payload = _raw_post(http_server, path, json.dumps(body).encode(), {})
        assert status == 400
        assert "absent.jsonl" in payload["error"]


class TestModelCache:
    def test_cache_stays_bounded_and_evicted_versions_reload(self, corpus, tmp_path):
        """An auto-refitting monitor registers version after version; the
        service keeps only the most recently used models, and a version
        it evicted audits to the same bytes when it is asked for again."""
        from repro.core.serialize import auditor_from_dict
        from repro.serve import service as service_module

        registry = ModelRegistry(tmp_path / "registry")
        service = AuditService(registry)
        document = auditor_to_dict(corpus["session"].auditor)
        bound = service_module._MODEL_CACHE_SIZE
        body = {"model": "svc@latest", "source": str(corpus["load_csv"])}
        for step in range(bound + 2):
            document["config"]["min_error_confidence"] = 0.5 + step / 100
            registry.put(auditor_from_dict(document), "svc")
            _, lines = service.audit(body)
            if step == 0:
                first = "".join(lines)
            assert len(service._model_cache) <= bound
        assert len(service._model_cache) == bound
        assert registry.resolve("svc@v1").digest not in service._model_cache
        summary, lines = service.audit({**body, "model": "svc@v1"})
        assert summary["model"] == "svc@v1"
        assert "".join(lines) == first


class TestHostedMonitors:
    def _start(self, service, tmp_path, name="m", **overrides):
        stream = _structured_table(n=256, seed=3, error_rate=0.2)
        source = tmp_path / f"{name}.jsonl"
        _write_stream(stream, source)
        payload = {
            "name": name,
            "model": "svc",
            "source": str(source),
            "window_rows": 64,
            "poll_interval": 0.05,
        }
        payload.update(overrides)
        return service.start_monitor(payload), source

    def test_start_progress_and_stop(self, service, tmp_path):
        started, source = self._start(service, tmp_path)
        assert started["name"] == "m"
        assert started["model"] == "svc@v1"
        try:
            assert _wait_for(
                lambda: service.list_monitors()["monitors"][0]["rows"] == 256
            )
            (entry,) = service.list_monitors()["monitors"]
            assert entry["running"] is True
            assert entry["windows"] == 4
            assert entry["findings"] > 0
            assert entry["error"] is None
            assert entry["drift"]["windows"] == 4
            # a producer appending while the monitor runs is picked up
            _write_stream(_structured_table(n=64, seed=8), tmp_path / "more.jsonl")
            with open(source, "ab") as handle:
                handle.write((tmp_path / "more.jsonl").read_bytes())
            assert _wait_for(
                lambda: service.list_monitors()["monitors"][0]["rows"] == 320
            )
        finally:
            service.stop_monitors()
        (entry,) = service.list_monitors()["monitors"]
        assert entry["running"] is False
        # the monitor's state and findings live under the registry root
        monitors_dir = service.registry.root / "monitors"
        assert (monitors_dir / "m.state.json").exists()
        assert (monitors_dir / "m.findings.jsonl").stat().st_size > 0

    def test_duplicate_name_conflicts_while_running(self, service, tmp_path):
        self._start(service, tmp_path, name="dup")
        try:
            with pytest.raises(ServiceError) as excinfo:
                self._start(service, tmp_path, name="dup")
            assert excinfo.value.status == 409
        finally:
            service.stop_monitors()

    def test_bad_requests_are_400(self, service, tmp_path):
        cases = [
            {"model": "svc", "source": "x.jsonl"},  # no name
            {"name": "a/b", "model": "svc", "source": "x.jsonl"},  # bad name
            {"name": "m", "model": "svc"},  # no source
            {"name": "m", "model": "svc", "source": str(tmp_path / "ghost.jsonl")},
            {
                "name": "m",
                "model": "svc",
                "source": str(tmp_path / "ghost.jsonl"),
                "refit": "sometimes",
            },
        ]
        for payload in cases:
            with pytest.raises(InputError):
                service.start_monitor(payload)
        assert service.list_monitors() == {"monitors": []}

    def test_unknown_model_is_404(self, service, tmp_path):
        with pytest.raises(ServiceError) as excinfo:
            service.start_monitor(
                {"name": "m", "model": "ghost", "source": str(tmp_path / "s.jsonl")}
            )
        assert excinfo.value.status == 404

    def test_monitors_over_http(self, http_server, tmp_path):
        stream = _structured_table(n=128, seed=5, error_rate=0.2)
        source = tmp_path / "s.jsonl"
        _write_stream(stream, source)
        payload = {
            "name": "overhttp",
            "model": "svc",
            "source": str(source),
            "window_rows": 64,
            "poll_interval": 0.05,
        }
        status, _, body = _post(f"{http_server}/monitors", payload)
        assert status == 201 and json.loads(body)["name"] == "overhttp"

        def caught_up():
            _, _, listing = _get(f"{http_server}/monitors")
            monitors = json.loads(listing)["monitors"]
            return monitors and monitors[0]["rows"] == 128

        assert _wait_for(caught_up)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_server}/monitors", payload)
        assert excinfo.value.code == 409


def _spawn_daemon(registry_dir):
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--registry", str(registry_dir), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    assert match, f"no listen line from the daemon, got: {line!r}"
    return proc, f"http://{match.group(1)}:{match.group(2)}"


class TestDaemonProcess:
    @pytest.mark.parametrize(
        "signum, expected_code",
        [(signal.SIGTERM, 0), (signal.SIGINT, 130)],
    )
    def test_signal_shutdown_is_clean(self, tmp_path, signum, expected_code):
        proc, base = _spawn_daemon(tmp_path / "registry")
        try:
            deadline = time.monotonic() + 10
            while True:  # the socket is bound before the print, so retry briefly
                try:
                    status, _, _ = _get(f"{base}/healthz")
                    break
                except (urllib.error.URLError, ConnectionError):
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            assert status == 200
            proc.send_signal(signum)
            assert proc.wait(timeout=15) == expected_code
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()


class TestOneResolvePerRequest:
    """A request names the model version that produced its findings, even
    when ``@latest`` moves while it runs (a hosted monitor's auto-refit
    registers into the same registry)."""

    @pytest.fixture
    def racing(self, corpus, tmp_path, monkeypatch):
        """A service whose registry registers the next version of ``svc``
        right after every resolve."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.put(corpus["session"].auditor, "svc")
        resolve = registry.resolve

        def resolve_then_register(ref):
            version = resolve(ref)
            registry.put(corpus["session"].auditor, "svc")
            return version

        monkeypatch.setattr(registry, "resolve", resolve_then_register)
        return AuditService(registry)

    @pytest.mark.parametrize("body", ["source", "rows"])
    def test_audit_names_the_version_that_ran(self, racing, corpus, body):
        payload = {"model": "svc"}
        if body == "source":
            payload["source"] = str(corpus["load_csv"])
        else:
            payload["rows"] = [record.to_dict() for record in corpus["load"].records()]
        summary, _ = racing.audit(payload)
        assert summary["model"] == "svc@v1"

    def test_monitor_names_the_version_that_runs(self, racing, tmp_path):
        source = tmp_path / "s.jsonl"
        _write_stream(_structured_table(n=64, seed=3), source)
        try:
            started = racing.start_monitor(
                {"name": "m", "model": "svc", "source": str(source)}
            )
        finally:
            racing.stop_monitors()
        assert started["model"] == "svc@v1"


def test_cli_and_service_record_one_provenance(corpus, tmp_path, monkeypatch):
    """`repro fit --register` and `POST /fit` without a "format" store the
    same provenance for one CSV, apart from the creation time and the
    fit's wall time."""
    monkeypatch.delenv("REPRO_REGISTRY", raising=False)
    schema_json = tmp_path / "schema.json"
    schema_json.write_text(json.dumps(schema_to_dict(corpus["schema"])))
    registry = ModelRegistry(tmp_path / "registry")
    source = str(corpus["train_csv"])
    assert main(
        ["fit", "--schema", str(schema_json), "--input", source,
         "--register", "loads", "--registry", str(registry.root)]
    ) == 0
    served = AuditService(registry).fit(
        {"name": "loads", "schema": schema_to_dict(corpus["schema"]), "source": source}
    )
    by_cli = registry.resolve("loads@v1")
    assert served["digest"] == by_cli.digest

    def comparable(record):
        return {
            key: value
            for key, value in record.items()
            if key not in ("created_at", "fit_seconds")
        }

    assert comparable(served["provenance"]) == comparable(by_cli.provenance.to_dict())
    assert served["provenance"]["source_format"] == "csv"
