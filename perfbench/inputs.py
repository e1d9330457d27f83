"""Set-up job: generate one workload's inputs from its seed.

Run as its own process, once per set-up repetition::

    python3 perfbench/inputs.py --workload audit-stream --seed 1 --out DIR [--reference]

It writes the workload's source files (and, where the workload audits,
fits and registers the serving model), then prints one JSON line: the
set-up time measured from process start (raw, and rescaled to the
reference host by the speed samples taken meanwhile, see ``speed.py``),
and the row count, byte size and SHA-256 of every input. With
``--reference`` it afterwards computes the expected outputs the
measured run checks against; that work is not part of the reported
set-up time.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before the heavy imports: they are set-up too

from speed import SpeedProbe

PROBE = SpeedProbe().__enter__()

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

from repro.core.findings import findings_to_table
from repro.core.session import AuditSession
from repro.io import JsonlTableSink, write_table
from repro.quis import generate_quis_sample, quis_schema
from repro.schema.table import Table

import operations
from operations import (
    FIT_ROWS,
    HISTORY_ROWS,
    MODEL_NAME,
    PARTITION_ROWS,
    REQUEST_ROWS,
    SQLITE_TABLE,
    WORKLOADS,
)

#: requests in the serve-inline pool (distinct loads the client rotates over)
POOL_SIZE = 16


def derive_seed(seed: int, label: str) -> int:
    """A distinct generator seed per input, fixed by the benchmark seed."""
    return int(hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()[:12], 16)


def describe(paths: list[Path], rows: int) -> dict:
    """Row count, byte size and SHA-256 over the files' bytes in order."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return {
        "rows": rows,
        "bytes": sum(path.stat().st_size for path in paths),
        "sha256": digest.hexdigest(),
    }


def write_sample(path: Path, rows: int, seed: int) -> Table:
    table = generate_quis_sample(rows, seed=seed).dirty
    write_table(table, path)
    return table


def fit_serving_model(out: Path, seed: int) -> AuditSession:
    """The offline half done ahead of the online workloads: history
    file → fit → registry."""
    history = out / "history.csv"
    write_sample(history, HISTORY_ROWS, derive_seed(seed, "history"))
    session = AuditSession(quis_schema()).fit_source(history)
    session.save_to_registry(out / "registry", MODEL_NAME)
    return session


def staged_load(seed: int, partitions: int) -> Table:
    """The staged warehouse load: daily partitions, each with its own
    seed, so a shorter load is a prefix of the longer one."""
    rows: list = []
    for part in range(partitions):
        rows.extend(
            generate_quis_sample(
                PARTITION_ROWS, seed=derive_seed(seed, f"load-{part}")
            ).dirty.rows
        )
    return Table.adopt(quis_schema(), rows)


def jsonl_text(table: Table) -> str:
    buffer = io.StringIO()
    with JsonlTableSink(table.schema, buffer) as sink:
        sink.write(table)
    return buffer.getvalue()


def setup(workload: str, seed: int, out: Path) -> tuple[dict, dict]:
    """Create the inputs; returns (row count per input, state the
    references are computed from)."""
    if workload == "fit":
        write_sample(out / "history.csv", FIT_ROWS, derive_seed(seed, "fit"))
        return {"history.csv": FIT_ROWS}, {}
    session = fit_serving_model(out, seed)
    inputs = {"history.csv": HISTORY_ROWS}
    if workload in ("audit-stream", "audit-pushdown"):
        partitions = WORKLOADS[workload]["partitions"]
        load = staged_load(seed, partitions)
        write_table(load, out / "load.db", table=SQLITE_TABLE)
        inputs["load.db"] = load.n_rows
        return inputs, {"session": session, "load": load}
    pool = generate_quis_sample(
        POOL_SIZE * REQUEST_ROWS, seed=derive_seed(seed, "pool")
    ).dirty
    requests = out / "requests"
    requests.mkdir()
    loads = []
    ref = f"{MODEL_NAME}@v1"
    for index in range(POOL_SIZE):
        load = Table.adopt(
            pool.schema, pool.rows[index * REQUEST_ROWS : (index + 1) * REQUEST_ROWS]
        )
        rows = [json.loads(line) for line in jsonl_text(load).splitlines()]
        (requests / f"{index:02d}.json").write_text(
            json.dumps({"model": ref, "rows": rows}), encoding="utf-8"
        )
        loads.append(load)
    inputs["requests"] = pool.n_rows
    return inputs, {"session": session, "loads": loads}


def write_references(workload: str, out: Path, state: dict) -> None:
    """The expected outputs, from the in-memory audit of the same rows."""
    if workload == "fit":
        return
    session: AuditSession = state["session"]
    if workload in ("audit-stream", "audit-pushdown"):
        report = session.audit(state["load"])
        operations.write_findings(report.ranked_findings(), out / "reference.jsonl")
        if workload == "audit-pushdown":
            # pushdown findings must equal the streaming path's on the
            # same load: check the stream against the reference here,
            # each measured pushdown against it in the run (audit-stream
            # checks its own operations against the reference)
            streamed = out / "streamed.jsonl"
            operations.stream_audit(session, out / "load.db", streamed, engine=None)
            if streamed.read_bytes() != (out / "reference.jsonl").read_bytes():
                raise SystemExit("error: streamed audit differs from in-memory audit")
            streamed.unlink()
        return
    responses = out / "responses"
    responses.mkdir()
    for index, load in enumerate(state["loads"]):
        report = session.audit(load)
        (responses / f"{index:02d}.jsonl").write_text(
            jsonl_text(findings_to_table(report.findings)), encoding="utf-8"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=False)
    row_counts, state = setup(args.workload, args.seed, args.out)
    setup_s = PROBE.measure(STARTED, time.perf_counter())
    PROBE.__exit__(None, None, None)
    inputs = {}
    for name, rows in row_counts.items():
        path = args.out / name
        paths = sorted(path.iterdir()) if path.is_dir() else [path]
        inputs[name] = describe(paths, rows)
    if args.reference:
        write_references(args.workload, args.out, state)
    print(json.dumps({"setup_s": setup_s, "inputs": inputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
