"""Tests for the data auditing tool (multiple classification / regression,
findings, corrections, persistence)."""

import json
import random

import pytest

from repro.core import (
    AuditorConfig,
    DataAuditor,
    auditor_from_dict,
    auditor_to_dict,
    load_auditor,
    record_error_confidence,
    save_auditor,
)
from repro.errors import InputError
from repro.mining import KnnClassifier
from repro.schema import Schema, Table, nominal, numeric


def _structured_table(n=1500, seed=20):
    """A = model series, B = engine code (functionally dependent), N noise."""
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
    rows = []
    for _ in range(n):
        a = rng.choice(["a", "b", "c"])
        rows.append([a, rule[a], rng.randint(0, 100)])
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    return Table(schema, rows)


@pytest.fixture
def table():
    return _structured_table()


@pytest.fixture
def auditor(table):
    return DataAuditor(table.schema, AuditorConfig(min_error_confidence=0.8)).fit(table)


class TestConfig:
    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            AuditorConfig(min_error_confidence=0.0)
        with pytest.raises(ValueError):
            AuditorConfig(min_error_confidence=1.0)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            AuditorConfig(n_bins=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fit_n_jobs", "abc"),
            ("fit_n_jobs", 1.5),
            ("fit_n_jobs", True),
            ("n_bins", 2.5),
            ("n_bins", "10"),
            ("n_bins", False),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        """A count that is not an ``int`` (a ``bool`` included) is refused
        where the config is built, not deep inside a fit or stored in a
        registered model's provenance."""
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            AuditorConfig(**{field: value})

    def test_base_attribute_override(self, table):
        config = AuditorConfig(base_attributes={"B": ["A"]})
        auditor = DataAuditor(table.schema, config)
        assert auditor.base_attributes_for("B") == ["A"]
        assert auditor.base_attributes_for("A") == ["B", "N"]

    def test_audited_attributes_restriction(self, table):
        config = AuditorConfig(audited_attributes=["B"])
        auditor = DataAuditor(table.schema, config).fit(table)
        assert list(auditor.classifiers) == ["B"]


class TestFitAudit:
    def test_clean_table_mostly_unflagged(self, auditor, table):
        report = auditor.audit(table)
        assert report.n_suspicious <= table.n_rows * 0.01

    def test_seeded_error_found_and_ranked_first(self, auditor, table):
        dirty = table.copy()
        # break the functional dependency in one record
        row = next(i for i in range(dirty.n_rows) if dirty.cell(i, "A") == "a")
        dirty.set_cell(row, "B", "y")
        report = auditor.audit(dirty)
        assert report.is_flagged(row)
        assert report.suspicious_rows()[0] == row
        top = report.ranked_findings(1)[0]
        assert top.row == row
        assert top.confidence > 0.95

    def test_record_confidence_is_max_over_classifiers(self, auditor, table):
        dirty = table.copy()
        row = 0
        dirty.set_cell(row, "B", "z" if dirty.cell(row, "B") != "z" else "x")
        report = auditor.audit(dirty)
        row_findings = report.findings_for_row(row)
        assert row_findings
        assert report.record_confidence[row] == pytest.approx(
            record_error_confidence(f.confidence for f in row_findings), abs=1e-9
        )

    def test_unexpected_null_flagged(self, auditor, table):
        dirty = table.copy()
        dirty.set_cell(3, "B", None)
        report = auditor.audit(dirty)
        assert report.is_flagged(3)
        finding = report.findings_for_row(3)[0]
        assert finding.observed_label == "<null>"

    def test_out_of_domain_value_flagged(self, auditor, table):
        dirty = table.copy()
        dirty.set_cell(5, "B", "COMPLETELY_WRONG")
        report = auditor.audit(dirty)
        assert report.is_flagged(5)

    def test_unfitted_audit_raises(self, table):
        with pytest.raises(RuntimeError):
            DataAuditor(table.schema).audit(table)

    def test_schema_mismatch_rejected(self, auditor):
        other = Table(Schema([nominal("Z", ["1"])]), [["1"]])
        with pytest.raises(ValueError):
            auditor.audit(other)
        with pytest.raises(ValueError):
            DataAuditor(auditor.schema).fit(other)

    def test_audit_fresh_table(self, auditor):
        # separate training and audit data (the paper's closing demand)
        fresh = _structured_table(seed=99)
        fresh.set_cell(7, "B", "x" if fresh.cell(7, "B") != "x" else "y")
        report = auditor.audit(fresh)
        assert report.is_flagged(7)


class TestReservedClassLabels:
    """A nominal domain holding ``<null>`` or ``<unknown>`` would repeat
    that label in its class vocabulary, and fit and audit coded its cells
    differently: a two-attribute table fitted and audited on itself
    flagged its own ``<null>`` cells as deviating from ``<null>``. Such an
    attribute is refused when it is to be audited."""

    @staticmethod
    def _schema(values=("b", "<null>", "<unknown>")):
        return Schema([nominal("A", list(values)), nominal("B", ["x", "y"])])

    def test_audited_attribute_refused(self):
        with pytest.raises(InputError, match=r"\['A'\].*reserved class label"):
            DataAuditor(self._schema())

    @pytest.mark.parametrize("label", ["<null>", "<unknown>"])
    def test_either_label_refused(self, label):
        with pytest.raises(InputError, match="reserved class label"):
            DataAuditor(self._schema(("b", label)))

    def test_unaudited_attribute_allowed(self):
        """As a base attribute only, the domain is coded by the base
        encoder, which holds no reserved labels."""
        schema = self._schema()
        rows = [["<null>", "x"], ["b", "y"], [None, "x"], ["zzz", "y"]] * 10
        auditor = DataAuditor(schema, AuditorConfig(audited_attributes=["B"]))
        report = auditor.fit(Table(schema, rows)).audit(Table.adopt(schema, rows))
        assert report.n_rows == 40

    def test_loaded_model_refused(self):
        """A model document whose schema holds a reserved label in an
        audited attribute's domain is refused by the loader."""
        schema = self._schema(("b", "n", "u"))
        rows = [["b", "x"], ["n", "y"], ["u", "x"], [None, "y"]] * 10
        auditor = DataAuditor(schema).fit(Table(schema, rows))
        text = json.dumps(auditor_to_dict(auditor))
        assert text.count('"n"') == text.count('"u"') == 2  # domain + labels
        text = text.replace('"n"', '"<null>"').replace('"u"', '"<unknown>"')
        with pytest.raises(InputError, match="reserved class label"):
            auditor_from_dict(json.loads(text))


class TestCorrections:
    def test_correction_restores_consistency(self, auditor, table):
        dirty = table.copy()
        row = next(i for i in range(dirty.n_rows) if dirty.cell(i, "A") == "b")
        dirty.set_cell(row, "B", "x")
        report = auditor.audit(dirty)
        corrections = [c for c in report.corrections() if c.row == row]
        assert corrections
        # the classifier with the highest confidence proposes the repair;
        # both directions make the record consistent (A=b→B=y or B=x→A=a)
        best = corrections[0]
        assert (best.attribute, best.new_value) in {("B", "y"), ("A", "a")}

    def test_apply_corrections(self, auditor, table):
        dirty = table.copy()
        row = next(i for i in range(dirty.n_rows) if dirty.cell(i, "A") == "c")
        dirty.set_cell(row, "B", "x")
        report = auditor.audit(dirty)
        repaired = report.apply_corrections(dirty)
        # the repaired record is consistent with the dependency again
        rule = {"a": "x", "b": "y", "c": "z"}
        assert repaired.cell(row, "B") == rule[repaired.cell(row, "A")]
        # untouched rows stay identical
        assert repaired.rows[row + 1] == dirty.rows[row + 1]

    def test_one_correction_per_record(self, auditor, table):
        dirty = table.copy()
        dirty.set_cell(1, "B", "x" if dirty.cell(1, "B") != "x" else "y")
        report = auditor.audit(dirty)
        rows = [c.row for c in report.corrections()]
        assert len(rows) == len(set(rows))


class TestStructureModel:
    def test_rules_present_for_dependent_attribute(self, auditor):
        model = auditor.structure_model()
        assert "B" in model
        assert len(model["B"]) >= 3

    def test_describe_structure_mentions_rules(self, auditor):
        text = auditor.describe_structure()
        assert "classifier for B" in text
        assert "→" in text


class TestPersistence:
    def test_dict_roundtrip_preserves_findings(self, auditor, table):
        dirty = table.copy()
        dirty.set_cell(2, "B", "x" if dirty.cell(2, "B") != "x" else "z")
        payload = json.loads(json.dumps(auditor_to_dict(auditor)))
        clone = auditor_from_dict(payload)
        original = auditor.audit(dirty)
        restored = clone.audit(dirty)
        assert len(original.findings) == len(restored.findings)
        for a, b in zip(original.findings, restored.findings):
            assert a.row == b.row and a.attribute == b.attribute
            assert a.confidence == pytest.approx(b.confidence)

    def test_file_roundtrip(self, auditor, table, tmp_path):
        path = tmp_path / "model.json"
        save_auditor(auditor, path)
        clone = load_auditor(path)
        assert set(clone.classifiers) == set(auditor.classifiers)

    def test_unsupported_classifier_rejected(self, table):
        config = AuditorConfig(classifier_factory=lambda cfg: KnnClassifier())
        auditor = DataAuditor(table.schema, config).fit(table)
        with pytest.raises(TypeError):
            auditor_to_dict(auditor)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            auditor_from_dict({"format": "something-else"})

    def test_roundtrip_with_non_default_config(self, table, tmp_path):
        """Persisting a fitted auditor with every config knob off its
        default (bounds, bins, restricted audited/base attributes) must
        reproduce the audit exactly after save/load."""
        from repro.mining import ConfidenceBounds

        config = AuditorConfig(
            min_error_confidence=0.7,
            bounds=ConfidenceBounds(0.9),
            n_bins=4,
            audited_attributes=["B", "N"],
            base_attributes={"B": ["A"], "N": ["A", "B"]},
        )
        auditor = DataAuditor(table.schema, config).fit(table)
        dirty = table.copy()
        dirty.set_cell(4, "B", "z" if dirty.cell(4, "B") != "z" else "x")
        dirty.set_cell(9, "N", None)
        original = auditor.audit(dirty)

        path = tmp_path / "custom_model.json"
        save_auditor(auditor, path)
        restored_auditor = load_auditor(path)
        assert restored_auditor.config.min_error_confidence == 0.7
        assert restored_auditor.config.bounds == config.bounds
        assert restored_auditor.config.n_bins == 4
        assert list(restored_auditor.classifiers) == ["B", "N"]
        assert restored_auditor.base_attributes_for("B") == ["A"]

        restored = restored_auditor.audit(dirty)
        assert restored.findings == original.findings
        assert restored.record_confidence == original.record_confidence
        assert restored.suspicious_rows() == original.suspicious_rows()
