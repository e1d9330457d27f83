"""The audit daemon's HTTP transport: stdlib only, long-running.

``repro serve`` boots a :class:`http.server.ThreadingHTTPServer` — one
thread per in-flight request, so a slow audit never blocks ``/healthz``
— whose handler delegates every route to an
:class:`~repro.serve.service.AuditService`:

=======  ====================  ==============================================
method   path                  semantics
=======  ====================  ==============================================
GET      ``/healthz``          liveness + registry/model/request counters
GET      ``/models``           every registered name with tags and latest
GET      ``/models/{ref}``     one resolved version with full provenance
POST     ``/fit``              fit from a ``repro.io`` source, register
POST     ``/audit``            stream JSONL findings for a source or payload
GET      ``/monitors``         hosted continuous monitors + drift statistics
POST     ``/monitors``         start a continuous monitor on a growing source
=======  ====================  ==============================================

Audit responses stream with ``Transfer-Encoding: chunked`` (findings
leave the socket while later chunks are still being checked — the
summary travels ahead in ``X-Audit-*`` headers); everything else is a
fixed-length JSON document. Errors are JSON ``{"error": …}`` documents:
400 for an :class:`~repro.errors.InputError` (the request is unusable),
the :class:`~repro.serve.service.ServiceError` status the service
decided (404, 409, 413, 500), and 500 for any other exception, which is
a fault of the program and is logged with its traceback. Request
logging goes through the ``repro.serve`` logger — one line per request
with method, path, status, and wall time.

Every accepted connection has Nagle's algorithm off (``TCP_NODELAY``)
and a read timeout (:attr:`AuditRequestHandler.timeout`). A request
body that stalls past the timeout is logged as 408; a socket error
while reading the body or writing any response means the client is
gone, and is logged as 499. Neither status is sent: the connection ends
with no further response bytes and no traceback. A client that resets
an idle keep-alive connection ends it quietly too. An exception raised
after a streamed response's head has left cannot become an error
response any more: it is logged as 500 with its traceback, and the
connection ends without the terminating zero-size chunk, which tells
the client the body is incomplete.

:func:`serve` runs until SIGTERM/SIGINT, then shuts down gracefully:
the listening socket closes, in-flight requests finish, and the process
exits 0 (130 for SIGINT, the CLI convention).
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Iterator, Optional, Union
from urllib.parse import unquote, urlsplit

from repro.errors import InputError
from repro.registry import ModelRegistry
from repro.serve.service import AuditService, ServiceError

__all__ = ["AuditRequestHandler", "make_server", "serve"]

logger = logging.getLogger("repro.serve")

_MAX_BODY_BYTES = 256 * 1024 * 1024  # refuse absurd payloads outright


class _ConnectionEnds(Exception):
    """No further response byte can or may be sent: a read or write on
    the connection failed (the client went away, 499, or stalled past
    the timeout, 408), or a streamed response failed after its head was
    sent (500). ``status`` is what the request log records."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class AuditRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the server's :class:`AuditService`."""

    protocol_version = "HTTP/1.1"  # keep-alive + chunked responses
    server_version = "repro-serve"
    # StreamRequestHandler.setup applies the next two to each accepted
    # socket. Writes are unbuffered, and with Nagle's algorithm on, a
    # write made while an earlier one is unacknowledged waits for the
    # client's delayed ACK (about 40 ms on Linux)
    disable_nagle_algorithm = True
    # seconds one socket read or write may block. A body that stalls
    # this long is logged 408 and a write 499; both end the connection,
    # as the stdlib's handle_one_request ends an idle keep-alive one
    timeout = 60

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> AuditService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # BaseHTTPRequestHandler writes to stderr unconditionally; route
        # through the logger so operators control verbosity and sinks
        logger.info("%s %s", self.address_string(), format % args)

    @contextmanager
    def _socket_io(self, timed_out: int = 499) -> Iterator[None]:
        """Reads and writes on the connection: a socket error means the
        client is gone, logged as 499, or as *timed_out* for a timeout."""
        try:
            yield
        except TimeoutError:
            raise _ConnectionEnds(timed_out) from None
        except OSError:
            raise _ConnectionEnds(499) from None

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        with self._socket_io():
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    def _read_body(self) -> dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # the body's extent is unknown, so the connection cannot be reused
            self.close_connection = True
            raise InputError("Content-Length must be an integer") from None
        if length <= 0:
            raise InputError("request body required (JSON object)")
        if length > _MAX_BODY_BYTES:
            raise ServiceError(413, f"request body exceeds {_MAX_BODY_BYTES} bytes")
        with self._socket_io(timed_out=408):
            raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise InputError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        path = unquote(urlsplit(self.path).path).rstrip("/") or "/"
        status = 500
        try:
            status = self._respond(method, path)
        except _ConnectionEnds as exc:
            # nothing more can or may reach the client: log why, end the
            # connection
            status = exc.status
            self.close_connection = True
        finally:
            self.service.mark_request()
            logger.info(
                "%s %s -> %d (%.1f ms)",
                method,
                path,
                status,
                (time.perf_counter() - started) * 1000,
            )

    def _respond(self, method: str, path: str) -> int:
        """Answer one request; returns the status sent."""
        try:
            return self._route(method, path)
        except InputError as exc:
            status, message = 400, str(exc)
        except ServiceError as exc:
            status, message = exc.status, str(exc)
        except _ConnectionEnds:
            raise
        except Exception as exc:  # last resort: never kill the worker thread
            logger.exception("unhandled error for %s %s", method, path)
            status, message = 500, f"internal error: {exc}"
        self._send_json(status, {"error": message})
        return status

    # -- routing ------------------------------------------------------------

    def _route(self, method: str, path: str) -> int:
        if method == "GET" and path == "/healthz":
            self._send_json(200, self.service.healthz())
            return 200
        if method == "GET" and path == "/models":
            self._send_json(200, self.service.list_models())
            return 200
        if method == "GET" and path.startswith("/models/"):
            ref = path[len("/models/") :]
            self._send_json(200, self.service.show_model(ref))
            return 200
        if method == "POST" and path == "/fit":
            self._send_json(201, self.service.fit(self._read_body()))
            return 201
        if method == "POST" and path == "/audit":
            summary, lines = self.service.audit(self._read_body())
            self._stream_jsonl(summary, lines)
            return 200
        if method == "GET" and path == "/monitors":
            self._send_json(200, self.service.list_monitors())
            return 200
        if method == "POST" and path == "/monitors":
            self._send_json(201, self.service.start_monitor(self._read_body()))
            return 201
        raise ServiceError(
            404,
            f"no route for {method} {path} (have GET /healthz, GET /models, "
            f"GET /models/{{ref}}, POST /fit, POST /audit, GET/POST /monitors)",
        )

    def _stream_jsonl(self, summary: dict[str, Any], lines) -> None:
        """Chunked-encoding JSONL response; summary rides in headers so
        the findings stream stays parseable line by line. Each chunk —
        size line, data, CRLF — leaves in one write, and so does the
        terminating zero-size chunk, which is sent only when every line
        was."""
        with self._socket_io():
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            for key, value in summary.items():
                self.send_header(f"X-Audit-{key.replace('_', '-').title()}", str(value))
            self.end_headers()
        try:
            for text in lines:
                data = text.encode("utf-8")
                if not data:
                    continue  # a zero-length chunk would terminate the stream
                with self._socket_io():
                    self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
        except _ConnectionEnds:
            raise
        except Exception:
            # the 200 head is out, so no error response can follow it
            logger.exception("unhandled error while streaming %s", self.path)
            raise _ConnectionEnds(500) from None
        with self._socket_io():
            self.wfile.write(b"0\r\n\r\n")

    # -- HTTP verbs ---------------------------------------------------------

    def handle_one_request(self) -> None:
        # a client may reset an idle keep-alive connection while the
        # stdlib waits for its next request line: nothing to answer
        try:
            super().handle_one_request()
        except ConnectionError:
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


def make_server(
    registry: Union[str, Path, ModelRegistry],
    host: str = "127.0.0.1",
    port: int = 8181,
) -> ThreadingHTTPServer:
    """Build (but do not run) the daemon; ``port=0`` picks an ephemeral
    port — read the bound one from ``server.server_address``."""
    if not isinstance(registry, ModelRegistry):
        registry = ModelRegistry(registry)
    server = ThreadingHTTPServer((host, port), AuditRequestHandler)
    server.daemon_threads = True  # a hung client must not block shutdown
    server.service = AuditService(registry)  # type: ignore[attr-defined]
    return server


def serve(
    registry: Union[str, Path, ModelRegistry],
    host: str = "127.0.0.1",
    port: int = 8181,
    *,
    server: Optional[ThreadingHTTPServer] = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code.

    SIGTERM drains gracefully and exits 0; SIGINT exits 130 (the shell
    convention for an interrupted foreground job). ``server=`` lets
    tests inject a pre-built (ephemeral-port) instance.
    """
    httpd = server if server is not None else make_server(registry, host, port)
    exit_code = 0

    def _shutdown(signum: int, frame) -> None:
        nonlocal exit_code
        exit_code = 130 if signum == signal.SIGINT else 0
        logger.info("received %s, shutting down", signal.Signals(signum).name)
        # shutdown() blocks until serve_forever() returns — calling it on
        # this (main) thread would deadlock, so hand it to a helper
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous = {
        signum: signal.signal(signum, _shutdown)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    bound_host, bound_port = httpd.server_address[:2]
    service: AuditService = httpd.service  # type: ignore[attr-defined]
    logger.info(
        "audit service listening on http://%s:%d (registry %s, %d models)",
        bound_host,
        bound_port,
        service.registry.root,
        len(service.registry.list()),
    )
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(registry {service.registry.root})",
        flush=True,
    )
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
        service.stop_monitors()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        logger.info("audit service stopped")
    return exit_code
