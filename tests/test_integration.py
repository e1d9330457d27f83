"""Cross-module integration tests: the full fig.-2 cycle and the
interactions the unit tests cannot see."""

import json
import random

import pytest

from repro import (
    AuditorConfig,
    DataAuditor,
    ExperimentConfig,
    PollutionPipeline,
    auditor_from_dict,
    auditor_to_dict,
    base_profile,
    default_polluters,
    evaluate_audit,
    run_experiment,
)
from tests.csv_text import from_csv_text, to_csv_text


@pytest.fixture(scope="module")
def small_world():
    """One generated+polluted+audited world shared by the assertions."""
    profile = base_profile(n_rules=40, seed=23)
    generator = profile.build_generator()
    clean = generator.generate(1200, random.Random(3))
    pipeline = PollutionPipeline(default_polluters(), factor=1.0)
    dirty, log = pipeline.apply(clean, random.Random(4))
    auditor = DataAuditor(profile.schema, AuditorConfig(min_error_confidence=0.8))
    auditor.fit(dirty)
    report = auditor.audit(dirty)
    return profile, clean, dirty, log, auditor, report


class TestFullCycle:
    def test_clean_data_satisfies_rules(self, small_world):
        profile, clean, *_ = small_world
        for record in clean.records():
            assert all(rule.satisfied_by(record) for rule in profile.rules)

    def test_audit_quality_band(self, small_world):
        profile, clean, dirty, log, auditor, report = small_world
        result = evaluate_audit(report, log, clean, dirty)
        # the operating band the paper reports (specificity ≈ 99 %)
        assert result.specificity > 0.95
        assert result.sensitivity > 0.02
        assert result.records.n_total == dirty.n_rows

    def test_findings_point_at_flagged_rows(self, small_world):
        *_, report = small_world
        flagged = set(report.suspicious_rows())
        assert {finding.row for finding in report.findings} == flagged

    def test_record_confidences_bounded(self, small_world):
        *_, report = small_world
        assert all(0.0 <= c <= 1.0 for c in report.record_confidence)

    def test_corrections_only_touch_flagged_rows(self, small_world):
        profile, clean, dirty, log, auditor, report = small_world
        corrected = report.apply_corrections(dirty)
        flagged = set(report.suspicious_rows())
        for row in range(dirty.n_rows):
            if row not in flagged:
                assert corrected.rows[row] == dirty.rows[row]

    def test_structure_model_attributes_subset(self, small_world):
        profile, *_, auditor, report = small_world
        model = auditor.structure_model()
        assert set(model) <= set(profile.schema.names)


class TestCsvRoundTripOfGeneratedData:
    def test_clean_table_roundtrip(self, small_world):
        profile, clean, *_ = small_world
        text = to_csv_text(clean)
        back = from_csv_text(profile.schema, text, validate=True)
        assert back == clean

    def test_dirty_table_roundtrip(self, small_world):
        profile, clean, dirty, *_ = small_world
        # dirty tables contain nulls and swapped (still in-kind) values
        text = to_csv_text(dirty)
        back = from_csv_text(profile.schema, text)
        assert back == dirty


class TestModelPersistenceAcrossBatches:
    def test_offline_online_split_consistent(self, small_world):
        profile, clean, dirty, log, auditor, report = small_world
        payload = json.loads(json.dumps(auditor_to_dict(auditor)))
        restored = auditor_from_dict(payload)
        # a fresh batch from the same generator, with one seeded error
        generator = profile.build_generator()
        batch = generator.generate(200, random.Random(77))
        restored_report = restored.audit(batch)
        original_report = auditor.audit(batch)
        assert len(restored_report.findings) == len(original_report.findings)


class TestExperimentPipeline:
    def test_run_experiment_smoke(self):
        result = run_experiment(
            ExperimentConfig(n_records=500, n_rules=20, profile_seed=9)
        )
        assert result.clean.n_rows == 500
        assert 0 <= result.sensitivity <= 1
        assert result.evaluation.cells.n_total == result.dirty.n_rows * 8

    def test_zero_pollution_factor_yields_empty_truth(self):
        result = run_experiment(
            ExperimentConfig(
                n_records=400, n_rules=20, pollution_factor=0.0, profile_seed=9
            )
        )
        assert result.log.n_cell_changes == 0
        assert result.evaluation.records.true_positive == 0
        assert result.evaluation.records.false_negative == 0
