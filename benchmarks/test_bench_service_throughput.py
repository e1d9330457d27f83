"""E14 — audit service throughput: HTTP requests/s against the daemon.

The service (`repro serve`) is the deployed form of sec. 2.2's online
check, so the question it must answer is operational: how many audit
round trips per second does one daemon sustain, and what does the HTTP
transport cost over calling the library in-process? This bench boots
the real `ThreadingHTTPServer` on an ephemeral port with one fitted
QUIS model in a registry and measures:

* sequential ``POST /audit`` round trips per second for a staged load —
  asserting the streamed JSONL bodies stay **byte-identical** across
  every request and client pattern (the parity guarantee, which must
  hold everywhere; wall-clock rates are machine-dependent and not
  asserted),
* the same audit issued by 4 concurrent client threads (the threading
  server's request-level parallelism),
* the raw transport floor via ``GET /healthz``, and
* the in-process equivalent (`AuditSession.audit`) for the overhead
  comparison.

Results land in ``benchmarks/results/E14_service_throughput.txt``.
"""

import json
import threading
import time
import urllib.request

from repro.core import AuditorConfig, AuditSession
from repro.io import write_table
from repro.quis import generate_quis_sample
from repro.registry import ModelRegistry
from repro.serve import make_server

FIT_RECORDS = 20_000
LOAD_RECORDS = 2_000
#: sequential audit round trips timed
REQUESTS = 6
CLIENT_THREADS = 4
HEALTH_REQUESTS = 200


def _post_audit(base: str, payload: dict) -> str:
    request = urllib.request.Request(
        f"{base}/audit",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return response.read().decode("utf-8")


def test_service_throughput(tmp_path, record_table):
    # one fitted model in a registry, one staged load on disk
    sample = generate_quis_sample(FIT_RECORDS, seed=2003)
    session = AuditSession(
        sample.schema, AuditorConfig(min_error_confidence=0.8)
    ).fit(sample.dirty)
    registry = ModelRegistry(tmp_path / "registry")
    session.save_to_registry(registry, "quis")
    load = generate_quis_sample(LOAD_RECORDS, seed=77, error_rate=0.01).dirty
    load_csv = tmp_path / "load.csv"
    write_table(load, load_csv)

    server = make_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    lines = [
        "E14 — audit service throughput "
        f"(QUIS model fitted on {FIT_RECORDS} rows; "
        f"{LOAD_RECORDS}-row load per request)",
        "",
        f"{'pattern':>24} {'req/s':>8} {'rows/s':>10}",
    ]
    bodies = set()
    payload = {"model": "quis", "source": str(load_csv)}
    try:
        bodies.add(_post_audit(base, payload))  # warm the model cache
        started = time.perf_counter()
        for _ in range(REQUESTS):
            bodies.add(_post_audit(base, payload))
        elapsed = time.perf_counter() - started
        rate = REQUESTS / elapsed
        lines.append(
            f"{'sequential audit':>24} {rate:>8.2f} {rate * LOAD_RECORDS:>10.0f}"
        )

        # request-level parallelism: one slow audit per client thread
        def client():
            bodies.add(_post_audit(base, payload))

        clients = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
        started = time.perf_counter()
        for c in clients:
            c.start()
        for c in clients:
            c.join()
        elapsed = time.perf_counter() - started
        rate = CLIENT_THREADS / elapsed
        lines.append(
            f"{f'{CLIENT_THREADS} concurrent clients':>24} {rate:>8.2f} "
            f"{rate * LOAD_RECORDS:>10.0f}"
        )

        # the transport floor: a request that does no auditing at all
        started = time.perf_counter()
        for _ in range(HEALTH_REQUESTS):
            with urllib.request.urlopen(f"{base}/healthz", timeout=30) as resp:
                resp.read()
        health_rate = HEALTH_REQUESTS / (time.perf_counter() - started)
        lines.append(f"{'GET /healthz':>24} {health_rate:>8.1f} {'-':>10}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    # the parity bar: every response, sequential or concurrent, carried
    # the identical findings bytes
    assert len(bodies) == 1, f"{len(bodies)} distinct audit bodies"
    (body,) = bodies
    assert body.count("\n") > 0  # the noisy load must yield findings

    # in-process floor for the overhead comparison
    started = time.perf_counter()
    in_process = session.audit(load)
    in_process_seconds = time.perf_counter() - started
    lines += [
        f"{'in-process audit':>24} {1 / in_process_seconds:>8.2f} "
        f"{LOAD_RECORDS / in_process_seconds:>10.0f}",
        "",
        f"responses byte-identical across requests and client "
        f"patterns: yes ({body.count(chr(10))} findings per response; "
        f"in-process audit found {len(in_process.findings)})",
    ]
    record_table("E14_service_throughput", "\n".join(lines))
