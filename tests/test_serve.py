"""Tests for the audit service daemon (``repro.serve``).

Three layers, matching the module split: :class:`AuditService` endpoint
semantics without sockets, the HTTP transport against a real
ephemeral-port server, and the ``repro serve`` process itself
(clean SIGTERM/SIGINT shutdown). The load-bearing assertion throughout:
the JSONL findings the service streams are **byte-identical** to
``repro audit --format jsonl`` on the same model and table."""

import datetime
import http.client
import json
import logging
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.cli import main
from repro.core import AuditorConfig, AuditSession, DataAuditor
from repro.registry import ModelRegistry, model_digest
from repro.core.serialize import auditor_to_dict, save_auditor
from repro.io import write_table
from repro.schema import Schema, Table, date, nominal, numeric
from repro.schema.serialize import schema_to_dict
from repro.errors import InputError
from repro.serve import AuditRequestHandler, AuditService, ServiceError, make_server


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
            (
                lambda p: p.update(config={"fit_n_jobs": "abc"}),
                400,
                "fit_n_jobs must be an integer, got 'abc'",
            ),
            (
                lambda p: p.update(config={"fit_n_jobs": 1.5}),
                400,
                "fit_n_jobs must be an integer, got 1.5",
            ),
            (
                lambda p: p.update(config={"fit_n_jobs": True}),
                400,
                "fit_n_jobs must be an integer, got True",
            ),
            (
                lambda p: p.update(config={"n_bins": 2.5}),
                400,
                "n_bins must be an integer, got 2.5",
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

    @pytest.mark.parametrize("name", [5, "", "a/b", "a@b", ".x"])
    def test_fit_refuses_a_bad_name_before_fitting(self, corpus, monkeypatch, name):
        def fit(self, table):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(DataAuditor, "fit", fit)
        service = AuditService(ModelRegistry(corpus["root"] / "name-registry"))
        with pytest.raises(InputError) as excinfo:
            service.fit(
                {
                    "name": name,
                    "schema": schema_to_dict(corpus["schema"]),
                    "source": str(corpus["train_csv"]),
                }
            )
        assert str(excinfo.value).startswith(f"'name': invalid model name {name!r}")
        assert service.registry.list() == []

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
            # a falsy engine is no request for the memory engine
            ({"model": "svc", "rows": [], "engine": 0}, 400, "got 0"),
            ({"model": "svc", "rows": [], "engine": False}, 400, "got False"),
            ({"model": "svc", "rows": [], "engine": ""}, 400, "got ''"),
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


@pytest.fixture(scope="module")
def typed_service(tmp_path_factory):
    """A service over one model whose schema holds a nominal (``A``), an
    integer (``N``) and a date (``D``) attribute."""
    schema = Schema(
        [
            nominal("A", ["a", "b"]),
            numeric("N", 0, 100, integer=True),
            date("D", datetime.date(2000, 1, 1), datetime.date(2030, 1, 1)),
        ]
    )
    rng = random.Random(1)
    first = datetime.date(2020, 1, 1)
    rows = [
        [rng.choice("ab"), rng.randint(0, 100), first + datetime.timedelta(rng.randint(0, 300))]
        for _ in range(200)
    ]
    registry = ModelRegistry(tmp_path_factory.mktemp("typed") / "registry")
    AuditSession(schema).fit(Table(schema, rows)).save_to_registry(registry, "typed")
    return AuditService(registry)


_GOOD_ROW = {"A": "a", "N": 1, "D": "2020-01-01"}


def _rows_with(faults):
    """Good rows up to the last fault; *faults* maps 1-based row numbers
    to the rows that replace them."""
    rows = [_GOOD_ROW] * max(faults)
    for number, row in faults.items():
        rows[number - 1] = row
    return rows


_LIST_ROW = ["a", 1, "2020-01-01"]
_FLOAT_N = dict(_GOOD_ROW, N=1.5)


class TestInlineRowErrors:
    """The full message of every way an inline row can be unusable. The
    first error in row order wins, within a batch and past the first
    8,192-row batch alike; a faster row parse must keep each string."""

    @pytest.mark.parametrize(
        "rows, message",
        [
            (_rows_with({2: _LIST_ROW}), "line 2: expected one JSON object per line, got list"),
            ([None], "line 1: expected one JSON object per line, got NoneType"),
            (
                [{"A": "a", "N": 1}],
                "line 1: keys do not match the schema (missing ['D'], unexpected [])",
            ),
            (
                [dict(_GOOD_ROW, Z=1)],
                "line 1: keys do not match the schema (missing [], unexpected ['Z'])",
            ),
            (
                [dict(_GOOD_ROW, A=5)],
                "line 1, attribute 'A': expected a string for a nominal cell, got 5",
            ),
            (
                [dict(_GOOD_ROW, N=True)],
                "line 1, attribute 'N': expected a number for a numeric cell, got True",
            ),
            (
                [dict(_GOOD_ROW, N=float("nan"))],
                "line 1, attribute 'N': non-finite numeric value nan "
                "(nan/inf are not admissible cell values)",
            ),
            (
                [_FLOAT_N],
                "line 1, attribute 'N': expected an integer for an integer-domain "
                "cell, got 1.5",
            ),
            (
                [dict(_GOOD_ROW, D="2020-13-01")],
                "line 1, attribute 'D': month must be in 1..12",
            ),
            (
                _rows_with({2: _FLOAT_N, 3: _LIST_ROW}),
                "line 2, attribute 'N': expected an integer for an integer-domain "
                "cell, got 1.5",
            ),
            (
                _rows_with({2: _LIST_ROW, 3: _FLOAT_N}),
                "line 2: expected one JSON object per line, got list",
            ),
            (
                _rows_with({8_500: _FLOAT_N, 9_000: _LIST_ROW}),
                "line 8500, attribute 'N': expected an integer for an "
                "integer-domain cell, got 1.5",
            ),
        ],
        ids=[
            "list-row",
            "null-row",
            "missing-key",
            "extra-key",
            "number-in-nominal",
            "true-in-numeric",
            "nan-in-numeric",
            "float-in-integer",
            "bad-date",
            "cell-error-before-list",
            "list-before-cell-error",
            "cell-error-past-first-batch",
        ],
    )
    def test_message(self, typed_service, rows, message):
        with pytest.raises(InputError) as excinfo:
            typed_service.audit({"model": "typed", "rows": rows})
        assert str(excinfo.value) == f"invalid rows payload: {message}"


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
def live_server(corpus):
    server = make_server(corpus["registry"], port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.service.stop_monitors()
    thread.join(timeout=10)


@pytest.fixture
def http_server(live_server):
    host, port = live_server.server_address[:2]
    return f"http://{host}:{port}"


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

    def test_accepted_connections_turn_nagle_off(self, http_server, monkeypatch):
        """Nagle's algorithm would hold each small response write until
        the client's delayed ACK; every accepted socket has it off."""
        nodelay = []
        setup = AuditRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(AuditRequestHandler, "setup", recording_setup)
        status, _, _ = _get(f"{http_server}/healthz")
        assert status == 200
        assert len(nodelay) == 1 and nodelay[0] != 0

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


def test_stream_sends_each_chunk_in_one_write():
    """A streamed response is the head, then one write per non-empty
    chunk (size line, data, CRLF), then one for the terminator."""
    writes = []

    class RecordingWriter:
        def write(self, data):
            writes.append(bytes(data))
            return len(data)

    handler = AuditRequestHandler.__new__(AuditRequestHandler)  # no socket
    handler.request_version = "HTTP/1.1"
    handler.requestline = "POST /audit HTTP/1.1"
    handler.client_address = ("127.0.0.1", 0)
    handler.wfile = RecordingWriter()
    lines = ['{"row": 1}\n', "", '{"attribute": "\u00e9"}\n' * 3]
    handler._stream_jsonl({"model": "m@v1"}, iter(lines))
    head, *chunks = writes
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"\r\nX-Audit-Model: m@v1\r\n" in head and head.endswith(b"\r\n\r\n")
    assert chunks == [
        b'b\r\n{"row": 1}\n\r\n',
        b"3c\r\n" + '{"attribute": "\u00e9"}\n'.encode("utf-8") * 3 + b"\r\n",
        b"0\r\n\r\n",
    ]


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

    @pytest.mark.parametrize("config", [{"fit_n_jobs": "abc"}, {"n_bins": 2.5}])
    def test_non_integer_config_count_is_400(self, http_server, corpus, config):
        """A count of the wrong type is the client's error, not a fault
        of the fit that would answer 500."""
        body = {
            "name": "n",
            "schema": schema_to_dict(corpus["schema"]),
            "source": str(corpus["train_csv"]),
            "config": config,
        }
        status, payload = _raw_post(http_server, "/fit", json.dumps(body).encode(), {})
        assert status == 400
        assert payload["error"].startswith("invalid auditor config: ")
        assert "must be an integer" in payload["error"]

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/fit", {"name": 5}),
            ("/audit", {"model": "svc", "rows": [], "engine": False}),
            ("/monitors", {"name": "m", "model": "svc", "window_rows": True}),
        ],
    )
    def test_mistyped_field_is_400(self, http_server, corpus, path, body):
        """A field of the wrong type is the client's error; it is not
        coerced, and it is no fault of the service that would answer 500."""
        body = {**body, "source": str(corpus["train_csv"])}
        if path == "/fit":
            body["schema"] = schema_to_dict(corpus["schema"])
        if path == "/audit":
            del body["source"]
        status, payload = _raw_post(http_server, path, json.dumps(body).encode(), {})
        assert status == 400, payload

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

    @pytest.mark.parametrize("path", ["/fit", "/audit"])
    def test_oversized_csv_field_is_400(self, http_server, corpus, tmp_path, path):
        lines = corpus["load_csv"].read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "x" * 200_000 + lines[2]  # line 3 of the file
        oversized = tmp_path / "oversized.csv"
        oversized.write_text("".join(lines), encoding="utf-8")
        body = {
            "/fit": {"name": "n", "schema": schema_to_dict(corpus["schema"]),
                     "source": str(oversized)},
            "/audit": {"model": "svc", "source": str(oversized)},
        }[path]
        status, payload = _raw_post(http_server, path, json.dumps(body).encode(), {})
        assert status == 400
        assert "line 3: field larger than field limit (131072)" in payload["error"]


@pytest.fixture
def watched_server(live_server, monkeypatch):
    """The running server with reads that time out after 0.5 s. ``ended``
    is released each time the server is done with a connection, after
    any traceback the connection caused has been printed."""
    monkeypatch.setattr(AuditRequestHandler, "timeout", 0.5)
    ended = threading.Semaphore(0)
    shutdown_request = live_server.shutdown_request

    def shutdown_and_signal(request):
        shutdown_request(request)
        ended.release()

    monkeypatch.setattr(live_server, "shutdown_request", shutdown_and_signal)
    return live_server, ended


#: a POST /audit promising a 100-byte body, and the 9 bytes of it sent
_SHORT_BODY_HEAD = (
    b"POST /audit HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
    b"Content-Length: 100\r\n"
)
_SHORT_BODY = b'{"model":'


class TestClientStallsAndHangUps:
    """A client that stalls or vanishes mid-request costs the server one
    connection: no worker thread stays blocked, no traceback is printed
    or logged, and the request log names what happened (408 a body that
    stalled past the read timeout, 499 a client that went away)."""

    @staticmethod
    def _logged_statuses(caplog):
        return [
            int(match.group(1))
            for record in caplog.records
            if (match := re.match(r"POST /audit -> (\d+) ", record.getMessage()))
        ]

    @staticmethod
    def _assert_no_traceback(caplog, capsys):
        assert "Traceback" not in capsys.readouterr().err
        assert not [record for record in caplog.records if record.exc_info]

    def test_stalled_body_ends_its_connection(self, watched_server, caplog, capsys):
        server, ended = watched_server
        caplog.set_level(logging.INFO, logger="repro.serve")
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as client:
            client.sendall(_SHORT_BODY_HEAD + b"\r\n" + _SHORT_BODY)
            # closed without a response, long before the client's own timeout
            assert client.recv(65536) == b""
        assert ended.acquire(timeout=30)
        status, _, _ = _get(f"http://{host}:{port}/healthz")
        assert status == 200
        assert self._logged_statuses(caplog) == [408]
        self._assert_no_traceback(caplog, capsys)

    @pytest.mark.parametrize("reset", [False, True], ids=["hang-up", "reset"])
    def test_client_gone_before_its_400(self, watched_server, caplog, capsys, reset):
        server, ended = watched_server
        caplog.set_level(logging.INFO, logger="repro.serve")
        host, port = server.server_address[:2]
        client = socket.create_connection((host, port), timeout=30)
        try:
            # the interim 100 response shows the server is past the head
            client.sendall(_SHORT_BODY_HEAD + b"Expect: 100-continue\r\n\r\n")
            assert client.recv(65536).startswith(b"HTTP/1.1 100 ")
            client.sendall(_SHORT_BODY)
            if reset:  # close with RST instead of FIN
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
        finally:
            client.close()
        assert ended.acquire(timeout=30)
        status, _, _ = _get(f"http://{host}:{port}/healthz")
        assert status == 200
        # after a hang-up the 400 may still be written whole: the RST
        # its first write draws can arrive after its last
        assert self._logged_statuses(caplog) in ([[499]] if reset else [[400], [499]])
        self._assert_no_traceback(caplog, capsys)

    def test_reset_of_an_idle_keep_alive_connection_is_quiet(
        self, watched_server, caplog, capsys
    ):
        server, ended = watched_server
        caplog.set_level(logging.INFO, logger="repro.serve")
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        response.read()
        # the server now waits for the next request on this connection
        connection.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        connection.close()
        assert ended.acquire(timeout=30)
        status, _, _ = _get(f"http://{host}:{port}/healthz")
        assert status == 200
        self._assert_no_traceback(caplog, capsys)


class TestFaultAfterStreamHead:
    """Once a streamed response's 200 head is sent, a fault can no longer
    become an error response: the connection ends without the
    terminating chunk, and the fault is logged as 500 with its
    traceback."""

    def test_fault_mid_stream_ends_the_connection(
        self, watched_server, corpus, caplog, monkeypatch
    ):
        from repro.serve import service as service_module

        def first_chunk_then_fault(findings):
            yield next(real(findings))
            raise RuntimeError("boom after the first chunk")

        real = service_module._findings_jsonl
        monkeypatch.setattr(service_module, "_findings_jsonl", first_chunk_then_fault)
        server, ended = watched_server
        caplog.set_level(logging.INFO, logger="repro.serve")
        host, port = server.server_address[:2]
        body = json.dumps({"model": "svc", "source": str(corpus["load_csv"])}).encode()
        with socket.create_connection((host, port), timeout=30) as client:
            client.sendall(
                b"POST /audit HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            received = b""
            while chunk := client.recv(65536):
                received += chunk
        assert ended.acquire(timeout=30)
        assert received.startswith(b"HTTP/1.1 200 OK\r\n")
        assert received.count(b"HTTP/1.1 ") == 1  # no 500 inside the body
        # the head, then the first chunk of findings
        assert re.search(rb"\r\n\r\n[0-9a-f]+\r\n\{", received)
        assert not received.endswith(b"0\r\n\r\n")
        status, _, _ = _get(f"http://{host}:{port}/healthz")
        assert status == 200
        assert TestClientStallsAndHangUps._logged_statuses(caplog) == [500]
        (fault,) = [record for record in caplog.records if record.exc_info]
        assert "boom after the first chunk" in str(fault.exc_info[1])


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("window_rows", 2.9, "'window_rows' must be an integer, got 2.9"),
            ("window_rows", True, "'window_rows' must be an integer, got True"),
            ("refit_rows", 10.5, "'refit_rows' must be an integer, got 10.5"),
            ("poll_interval", "0.5", "'poll_interval' must be a finite number, got '0.5'"),
            ("poll_interval", True, "'poll_interval' must be a finite number, got True"),
            ("poll_interval", float("nan"), "'poll_interval' must be a finite number, got nan"),
            ("format", 5, "'format' must be a string, got 5"),
            ("null_marker", 5, "'null_marker' must be a string, got 5"),
            ("state", 5, "'state' must be a string, got 5"),
            ("findings", 5, "'findings' must be a string, got 5"),
            ("refit_name", 5, "'refit_name' must be a string, got 5"),
            ("refit_name", "a/b", "'refit_name': invalid model name 'a/b'"),
            ("refit_name", "", "'refit_name': invalid model name ''"),
            ("window_row", 64, "unknown request fields ['window_row']"),
            ("drift", {"baseline_windows": 2.5}, "baseline_windows must be an integer, got 2.5"),
            ("drift", {"sustain_windows": True}, "sustain_windows must be an integer, got True"),
        ],
    )
    def test_mistyped_fields_are_400(self, service, tmp_path, field, value, message):
        stream = _structured_table(n=64, seed=3)
        source = tmp_path / "s.jsonl"
        _write_stream(stream, source)
        with pytest.raises(InputError) as excinfo:
            service.start_monitor(
                {"name": "m", "model": "svc", "source": str(source), field: value}
            )
        assert message in str(excinfo.value)
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
