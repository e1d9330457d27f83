"""Failure-injection tests: malformed inputs must fail loudly and cleanly,
never silently corrupt results."""

import json
import random

import pytest

from repro.core import (
    AuditorConfig,
    DataAuditor,
    auditor_from_dict,
    auditor_to_dict,
    load_auditor,
)
from repro.pollution import PollutionLog
from repro.io import read_table
from repro.schema import Schema, Table, nominal, numeric
from repro.schema.serialize import domain_from_dict, schema_from_dict
from repro.schema.values import value_from_json, value_to_json


@pytest.fixture
def fitted(tmp_path):
    rng = random.Random(0)
    schema = Schema([nominal("A", ["a", "b"]), nominal("B", ["x", "y"])])
    rows = [[a, "x" if a == "a" else "y"] for a in (rng.choice("ab") for _ in range(300))]
    table = Table(schema, rows)
    auditor = DataAuditor(schema, AuditorConfig(min_error_confidence=0.8)).fit(table)
    return auditor, table


class TestModelPayloadCorruption:
    def test_wrong_format_marker(self, fitted):
        auditor, _ = fitted
        payload = auditor_to_dict(auditor)
        payload["format"] = "bogus"
        with pytest.raises(ValueError, match="format"):
            auditor_from_dict(payload)

    def test_unknown_node_type(self, fitted):
        auditor, _ = fitted
        payload = auditor_to_dict(auditor)
        tree = payload["classifiers"]["B"]["tree"]
        tree["type"] = "mystery"
        with pytest.raises(ValueError, match="node type"):
            auditor_from_dict(payload)

    def test_unknown_attribute_in_model(self, fitted):
        auditor, _ = fitted
        payload = auditor_to_dict(auditor)
        payload["classifiers"]["ZZ"] = payload["classifiers"].pop("B")
        with pytest.raises(KeyError):
            auditor_from_dict(payload)

    def test_truncated_file(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "repro-auditor-v1", "schema":')
        with pytest.raises(json.JSONDecodeError):
            load_auditor(path)

    def test_roundtrip_after_json_stringify(self, fitted):
        auditor, table = fitted
        payload = json.loads(json.dumps(auditor_to_dict(auditor)))
        clone = auditor_from_dict(payload)
        assert clone.audit(table).n_suspicious == auditor.audit(table).n_suspicious


class TestSchemaPayloadCorruption:
    def test_unknown_domain_kind(self):
        with pytest.raises(ValueError, match="domain kind"):
            domain_from_dict({"kind": "quantum"})

    def test_missing_attributes_key(self):
        with pytest.raises(KeyError):
            schema_from_dict({})

    def test_inverted_numeric_bounds(self):
        with pytest.raises(ValueError):
            schema_from_dict(
                {
                    "attributes": [
                        {
                            "name": "N",
                            "nullable": True,
                            "domain": {"kind": "numeric", "low": 9, "high": 1},
                        }
                    ]
                }
            )


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, "text", 42, 3.14, __import__("datetime").date(2001, 2, 3)],
    )
    def test_roundtrip(self, value):
        assert value_from_json(value_to_json(value)) == value

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="tag"):
            value_from_json({"t": "x", "v": 1})

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            value_to_json(True)


class TestPollutionLogPayload:
    def test_roundtrip(self):
        log = PollutionLog(5)
        log.record_cell(2, "A", "a", "b", "test")
        log.record_duplicate(3, 2, "dup")
        restored = PollutionLog.from_dict(json.loads(json.dumps(log.to_dict())))
        assert restored.corrupted_cells() == log.corrupted_cells()
        assert restored.row_origins == log.row_origins
        assert restored.n_duplicated == 1

    def test_empty_payload(self):
        restored = PollutionLog.from_dict({})
        assert restored.n_cell_changes == 0
        assert restored.row_origins is None


class TestCsvFailures:
    def test_missing_file(self, fitted):
        _, table = fitted
        with pytest.raises(FileNotFoundError):
            read_table(table.schema, "/nonexistent/file.csv")

    def test_audit_with_extra_schema_column_fails(self, fitted):
        auditor, table = fitted
        other_schema = Schema(
            [nominal("A", ["a", "b"]), nominal("B", ["x", "y"]), numeric("N", 0, 1)]
        )
        other = Table(other_schema, [["a", "x", 0.5]])
        with pytest.raises(ValueError, match="schema"):
            auditor.audit(other)
