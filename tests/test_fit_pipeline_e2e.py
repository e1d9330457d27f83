"""End-to-end: parallel vectorized fit → registry → drift-triggered
auto-refit → serving.

The full production loop of the offline/online split, exercised through
the same entry points an operator uses:

1. ``repro fit --jobs 4 --register`` induces the model on 4 threads and
   registers it;
2. the registered bytes are identical to a serial fit of the same table,
   and to the cell-at-a-time reference fit (the parity contract holding
   at the CLI boundary);
3. ``repro monitor --refit auto`` on a drifting stream refits and moves
   ``latest`` in the registry;
4. the auto-refitted model round-trips through :mod:`repro.serve`:
   the service resolves it, audits with it, and its stored document
   re-serializes to the registry's own digest.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core import AuditSession, DataAuditor
from repro.registry import ModelRegistry, model_digest
from repro.core.serialize import auditor_to_dict
from repro.io import read_table, write_table
from repro.schema import Schema, Table, nominal, numeric
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.serve import AuditService
from tests import reference_lanes as ref


def _structured_table(n, seed, error_rate):
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


@pytest.fixture
def stand(tmp_path):
    from repro.io import open_sink

    train = _structured_table(1200, seed=21, error_rate=0.02)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(train.schema)))
    train_csv = tmp_path / "train.csv"
    write_table(train, train_csv)
    # a stream whose error rate steps up mid-way: the drift scenario
    drifting = Table(
        train.schema,
        _structured_table(1024, seed=31, error_rate=0.02).rows
        + _structured_table(1024, seed=32, error_rate=0.4).rows,
    )
    drifting_path = tmp_path / "drifting.jsonl"
    with open_sink(drifting.schema, drifting_path) as sink:
        sink.write(drifting)
    return {
        "dir": tmp_path,
        "schema": schema_path,
        "train_csv": train_csv,
        "drifting": drifting_path,
        "registry": tmp_path / "registry",
    }


def test_parallel_fit_register_refit_serve_round_trip(stand, capsys):
    # 1. parallel vectorized fit, registered and written to a file
    parallel_model = stand["dir"] / "model-par.json"
    assert (
        main(
            [
                "fit",
                "--schema",
                str(stand["schema"]),
                "--input",
                str(stand["train_csv"]),
                "--jobs",
                "4",
                "--model-out",
                str(parallel_model),
                "--register",
                "loads",
                "--registry",
                str(stand["registry"]),
            ]
        )
        == 0
    )

    # 2. serial fit: byte-identical model file, equal to the
    #    cell-at-a-time reference fit of the same table
    serial_model = stand["dir"] / "model-ser.json"
    assert (
        main(
            [
                "fit",
                "--schema",
                str(stand["schema"]),
                "--input",
                str(stand["train_csv"]),
                "--jobs",
                "1",
                "--model-out",
                str(serial_model),
            ]
        )
        == 0
    )
    assert parallel_model.read_bytes() == serial_model.read_bytes()
    schema = schema_from_dict(json.loads(stand["schema"].read_text()))
    reference = ref.reference_fit(
        DataAuditor(schema), read_table(schema, stand["train_csv"])
    )
    assert model_digest(auditor_to_dict(reference)) == model_digest(
        json.loads(serial_model.read_text())
    )
    registry = ModelRegistry(stand["registry"])
    assert registry.resolve("loads@v1").digest == model_digest(
        json.loads(parallel_model.read_text())
    )
    capsys.readouterr()

    # 3. drift-triggered auto-refit moves latest
    assert (
        main(
            [
                "monitor",
                str(stand["drifting"]),
                "--model",
                "loads@latest",
                "--registry",
                str(stand["registry"]),
                "--window-rows",
                "128",
                "--refit",
                "auto",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert registry.tags("loads")["latest"] == 2
    refitted = registry.resolve("loads@v2")
    assert refitted.provenance.extra["trigger"] == "drift"

    # 4. the refitted model round-trips through the serving layer
    service = AuditService(registry)
    shown = service.show_model("loads@latest")
    assert shown["ref"] == "loads@v2"
    summary, lines = service.audit(
        {"model": "loads@latest", "source": str(stand["drifting"])}
    )
    assert summary["model"] == "loads@v2"
    assert summary["rows"] == 2048
    assert summary["findings"] == "".join(lines).count("\n") > 0
    # the stored document re-serializes to the registry's own digest
    round_tripped = AuditSession.load_from_registry(registry, "loads@v2")
    assert model_digest(auditor_to_dict(round_tripped.auditor)) == refitted.digest


def test_service_fit_endpoint_accepts_fit_knobs(stand):
    """POST /fit takes the new scalar knobs and the result is identical
    to a default-config fit (execution knobs never change the model)."""
    service = AuditService(ModelRegistry(stand["dir"] / "svc-registry"))
    schema_payload = json.loads(stand["schema"].read_text())
    knobs = service.fit(
        {
            "name": "knobs",
            "schema": schema_payload,
            "source": str(stand["train_csv"]),
            "config": {"fit_n_jobs": 2},
        }
    )
    default = service.fit(
        {
            "name": "default",
            "schema": schema_payload,
            "source": str(stand["train_csv"]),
        }
    )
    assert knobs["digest"] == default["digest"]
    assert knobs["provenance"]["config"]["fit_n_jobs"] == 2
    assert "fit_path" not in knobs["provenance"]["config"]
