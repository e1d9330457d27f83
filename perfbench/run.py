"""The auditor's benchmark: fit, stream audit, SQL pushdown and the service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit-stream --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. End-to-end times are rescaled to a
reference host speed sampled while they run (``perfbench/speed.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full-disclosure record. See ``perfbench/README.md`` for the
workloads and what each metric means.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import platform
import re
import resource
import select
import shutil
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: set-up runs per benchmark run; set-up time is their median
SETUP_REPEATS = 3
#: no operation starts later than this after process start (exit < 180 s)
RUN_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "requests_per_s": "req/s",
}

QUIS_ATTRIBUTES = (
    "BRV", "GBM", "KBM", "AGGT", "WERK", "HUBRAUM", "PROD_DATUM", "AUFTRAG",
)

PER_LAYER = {
    "io.read_s": "s",
    "io.read_rows": "count",
    "io.read_bytes": "bytes",
    "io.write_s": "s",
    "io.write_bytes": "bytes",
    "core.fit_cache_s": "s",
    "core.audit_cache_s": "s",
    "mining.fit_s": "s",
    **{f"mining.fit_s.{name}": "s" for name in QUIS_ATTRIBUTES},
    "mining.fit_max_s": "s",
    "mining.tree_nodes": "count",
    "mining.predict_s": "s",
    "mining.confidence_s": "s",
    "findings.build_s": "s",
    "findings.merge_s": "s",
    "findings.rank_s": "s",
    "findings.count": "count",
    "registry.put_s": "s",
    "registry.resolve_s": "s",
    "compile.plan_s": "s",
    "compile.screen_s": "s",
    "compile.candidate_rows": "count",
    "compile.useful_ratio": "ratio",
    "compile.recheck_s": "s",
    "serve.handler_ms": "ms",
    "serve.ttfb_ms": "ms",
    "serve.body_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.request_bytes": "bytes",
    "serve.response_bytes": "bytes",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


# -- disclosure ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the system under test's source files."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "pyarrow": importlib.util.find_spec("pyarrow") is not None,
        "scipy": importlib.util.find_spec("scipy") is not None,
    }


def peak_rss_mb(pid="self"):
    """Peak resident memory of a live process (VmHWM), in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return None


# -- set-up -------------------------------------------------------------------


def run_setup(workload: str, seed: int, out: Path, reference: bool) -> dict:
    command = [
        sys.executable, str(HERE / "inputs.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    if reference:
        command.append("--reference")
    result = subprocess.run(
        command, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120
    )
    if result.returncode != 0:
        raise BenchError(f"set-up failed: {result.stderr.strip()[-2000:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def start_server(registry: Path, log: Path) -> tuple[subprocess.Popen, int]:
    """``repro serve`` on an ephemeral port; returns once /healthz answers."""
    import http.client

    with open(log, "ab") as log_handle:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--registry", str(registry), "--port", "0"],
            stdout=subprocess.PIPE, stderr=log_handle, env=child_env(), cwd=ROOT,
        )
    try:
        ready, _, _ = select.select([process.stdout], [], [], 60)
        line = process.stdout.readline().decode() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise BenchError(f"server did not start: {line!r}")
        port = int(match.group(1))
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"server health check answered {response.status}")
    except BaseException:
        stop_server(process)
        raise
    return process, port


def stop_server(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def set_up(workload: str, seed: int, work: Path):
    """Run the set-up SETUP_REPEATS times; keep the last one's inputs
    (and server). Returns (data dir, setup times, inputs, server, port);
    each setup time is the set-up's speed record (see ``speed.py``)."""
    from speed import SpeedProbe

    times, records = [], []
    server = port = None
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        data = work / f"setup-{repeat}"
        record = run_setup(workload, seed, data, reference=last)
        seconds = record["setup_s"]
        if workload == "serve-inline":
            with SpeedProbe() as probe:
                started = time.perf_counter()
                server, port = start_server(data / "registry", work / "serve.log")
                start = probe.measure(started, time.perf_counter())
            seconds = {key: seconds[key] + start[key] for key in ("raw_s", "net_s", "s")}
            if not last:
                stop_server(server)
                server = None
        times.append(seconds)
        records.append(record["inputs"])
        if not last:
            shutil.rmtree(data)
    if any(inputs != records[0] for inputs in records):
        raise BenchError(f"set-up runs with one seed made different inputs: {records}")
    return data, times, records[-1], server, port


# -- measurement --------------------------------------------------------------


def measure(workload, name: str, seconds: int, traced: bool, tracer) -> dict:
    """The closed loop: operations back to back for *seconds* seconds,
    and at least the workload's ``min_ops``. Traced runs alternate plain
    and traced operations and take raw times; untraced runs sample the
    host's speed throughout and keep each plain operation's speed record.
    Each operation starts after an untimed full garbage collection, so
    that none pays for its predecessor's garbage."""
    from operations import WORKLOADS, CheckFailed
    from speed import SpeedProbe

    plain, traced_e2e, failures = [], [], []
    attempted = 0
    probe = None if traced else SpeedProbe(WORKLOADS[name]["kernel"])

    def plain_op(index: int):
        started, ended = workload.op(index)
        return probe.measure(started, ended) if probe else ended - started

    def attempt(operation):
        """Run one checked operation; its return value, or None if it failed."""
        nonlocal attempted
        attempted += 1
        try:
            return operation()
        except CheckFailed as exc:
            failures.append(str(exc))
        except Exception as exc:  # count it and keep measuring
            failures.append(f"{type(exc).__name__}: {exc}")

    with probe or contextlib.nullcontext():
        attempt(workload.warm_up)  # caches and lazy imports; checked, not timed
        min_ops = WORKLOADS[name]["min_ops"]
        started = time.perf_counter()
        index = 0
        while time.perf_counter() - STARTED < RUN_LIMIT_S:
            if time.perf_counter() - started >= seconds and index >= min_ops:
                break
            gc.collect()
            if traced and index % 2 == 1:
                value = attempt(lambda: workload.traced_op(tracer, index))
                samples = traced_e2e
            else:
                value = attempt(lambda: plain_op(index))
                samples = plain
            if value is not None:
                samples.append(value)
            index += 1
    return {
        "plain": plain,
        "traced": traced_e2e,
        "attempted": attempted,
        "failures": failures,
    }


def end_to_end_metrics(run: dict, rows: int, setup_times, rss_mb: float, serve: bool) -> dict:
    """Every time is the rescaled one. A run too short to have ten
    samples beyond its 95th percentile (every batch workload) reports its
    median as ``request_p95_ms``: the largest of a few samples is noise,
    not a tail."""
    from spans import median, quantile, supported_percentile

    samples = [record["s"] for record in run["plain"]]
    wall = median(samples)
    busy = sum(samples)
    p95_supported = (supported_percentile(len(samples)) or 0) >= 95
    return {
        "setup_s": median([record["s"] for record in setup_times]),
        "wall_s": wall,
        "rows_per_s": rows * len(samples) / busy if serve else rows / wall,
        "peak_rss_mb": rss_mb,
        "request_p50_ms": wall * 1000,
        "request_p95_ms": (quantile(samples, 0.95) if p95_supported else wall) * 1000,
        "requests_per_s": len(samples) / busy,
    }


def op_layer_metrics(layers: dict, counts: dict) -> dict:
    """The per-layer metrics of one traced operation."""

    def span(name: str) -> float:
        return layers.get(name, 0.0)

    fits = {name: span(f"mining.fit.{name}") for name in QUIS_ATTRIBUTES}
    candidates = counts.get("compile.candidate_rows", 0)
    handler = span("serve.handler")
    metrics = {
        "io.read_s": span("io.read"),
        "io.write_s": span("io.write"),
        "core.fit_cache_s": span("core.fit_cache"),
        "core.audit_cache_s": span("core.audit_cache"),
        "mining.fit_s": sum(fits.values()),
        **{f"mining.fit_s.{name}": value for name, value in fits.items()},
        "mining.fit_max_s": max(fits.values()),
        "mining.predict_s": span("mining.predict"),
        "mining.confidence_s": span("mining.confidence"),
        "findings.build_s": span("findings.build"),
        "findings.merge_s": span("findings.merge"),
        "findings.rank_s": span("findings.rank"),
        "registry.put_s": span("registry.put"),
        "registry.resolve_s": span("registry.resolve"),
        "compile.plan_s": span("compile.plan"),
        "compile.screen_s": span("compile.screen"),
        "compile.useful_ratio": counts.get("findings.count", 0) / candidates if candidates else 0.0,
        "compile.recheck_s": span("compile.engine"),  # engine self time
        "serve.handler_ms": handler * 1000,
        "serve.ttfb_ms": span("serve.ttfb") * 1000,
        "serve.body_ms": span("serve.body") * 1000,
        "serve.transport_ms": (span("serve.ttfb") + span("serve.body") - handler) * 1000 if handler else 0.0,
        "unattributed_s": span("op"),
    }
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            metrics[name] = counts.get(name, 0)
    return metrics


def per_layer_metrics(run: dict, tracer) -> dict:
    from spans import median, per_op_layer_seconds

    per_op = [
        op_layer_metrics(layers, counts)
        for layers, counts in zip(per_op_layer_seconds(tracer.spans), tracer.counters)
    ]
    metrics = {
        name: median([op[name] for op in per_op]) if per_op else 0.0
        for name in PER_LAYER
        if name not in ("trace.overhead_s", "error_rate")
    }
    if run["plain"] and run["traced"]:
        metrics["trace.overhead_s"] = median(run["traced"]) - median(run["plain"])
    else:
        metrics["trace.overhead_s"] = 0.0
    metrics["error_rate"] = len(run["failures"]) / run["attempted"]
    return metrics


def output_digests(workload, name: str, data: Path) -> dict:
    from operations import sha256

    if name == "fit":
        return {"model": workload.digest}
    if name == "serve-inline":
        digest = hashlib.sha256()
        for path in sorted((data / "responses").iterdir()):
            digest.update(path.read_bytes())
        return {"responses": digest.hexdigest()}
    return {"findings": sha256(data / "reference.jsonl")}


def check_ledger(key: str, entry: dict) -> list[str]:
    """Runs with one seed on one source tree must see identical inputs
    and outputs; the ledger remembers them across runs in this checkout."""
    path = STATE / "ledger.json"
    try:
        ledger = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    known = ledger.setdefault(key, entry)
    errors = []
    for part in ("inputs", "outputs"):
        for label, value in entry[part].items():
            if value is not None and known[part].get(label) not in (None, value):
                errors.append(f"{part} {label} differs from an earlier run with this seed")
    if known is entry:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1), encoding="utf-8")
        os.replace(tmp, path)
    return errors


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("fit", "audit-stream", "audit-pushdown", "serve-inline"),
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no system under test: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from operations import make_workload
    from spans import Tracer, supported_percentile

    name = args.workload
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = STATE / "work" / f"{name}-seed{args.seed}-{os.getpid()}"
    server = workload = None
    try:
        data, setup_times, inputs, server, port = set_up(name, args.seed, work)
        os.sync()  # no write-back of set-up files while the run measures
        workload = make_workload(name, data, port)
        tracer = Tracer() if args.trace else None
        run = measure(workload, name, args.seconds, bool(args.trace), tracer)
        if not run["plain"]:
            raise BenchError(f"no operation completed: {run['failures'][:3]}")
        rss = peak_rss_mb(server.pid if server else "self")
        code = src_digest()
        outputs = output_digests(workload, name, data)
        run_errors = check_ledger(
            f"{code[:16]}/{name}/{args.seed}",
            {
                "inputs": {label: item["sha256"] for label, item in inputs.items()},
                "outputs": outputs,
            },
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if workload is not None:
            workload.close()
        if server is not None:
            stop_server(server)
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
        metrics = per_layer_metrics(run, tracer)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(run, workload.rows, setup_times, rss, name == "serve-inline")
        units = END_TO_END
    if args.trace:
        op_times = {"op_seconds": run["plain"]}
    else:
        op_times = {
            f"op_{key}": [record[key] for record in run["plain"]]
            for key in ("raw_s", "kernel_s", "s")
        }
    disclosure = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "system": {"git_commit": git_commit(), "src_sha256": code},
        "inputs": inputs,
        "outputs": outputs,
        "setup_s": setup_times,
        "operations": len(run["plain"]) + len(run["traced"]),
        "samples": len(run["plain"]),
        **op_times,
        "p95_supported": (supported_percentile(len(run["plain"])) or 0) >= 95,
        "error_rate": len(run["failures"]) / run["attempted"],
        "failures": run["failures"][:20] + run_errors,
    }
    failed = len(run["failures"])
    result = {
        "correct": failed == 0 and not run_errors,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    (results / f"{stem}.json").write_text(
        json.dumps({"disclosure": disclosure, **result}, indent=1), encoding="utf-8"
    )
    for message in disclosure["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    print("disclosure " + json.dumps(disclosure))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
