"""repro — reproduction of *Systematic Development of Data Mining-Based
Data Quality Tools* (Luebbers, Grimmer, Jarke; VLDB 2003).

The package mirrors the paper's architecture:

* :mod:`repro.errors` — the failure contract: :class:`InputError`, the
  one error for input from outside the program that cannot be used;
* :mod:`repro.schema` — relational substrate (domains, schemas, tables);
* :mod:`repro.io` — pluggable table storage: ``TableSource`` /
  ``TableSink`` protocols and a format registry with CSV, JSONL, SQLite
  and (optional) Parquet backends, so the auditor speaks the
  warehouse's own formats (sec. 2.2) instead of forcing CSV exports;
* :mod:`repro.logic` — the TDG formula/rule language with its pragmatic
  satisfiability test and naturalness restrictions (sec. 4.1);
* :mod:`repro.generator` — the rule-pattern-based artificial test data
  generator (sec. 4.1);
* :mod:`repro.pollution` — controlled, logged data corruption (sec. 4.2);
* :mod:`repro.mining` — the auditing-adjusted C4.5 decision tree and the
  alternative classifiers (sec. 5), all speaking the batch-first
  :class:`~repro.mining.base.AttributeClassifier` protocol (whole encoded
  column arrays in, a distribution matrix + support vector out);
* :mod:`repro.core` — the data auditing tool itself: multiple
  classification / regression, error confidence, rankings, corrections,
  persistence, the streaming :class:`~repro.core.session.AuditSession`
  facade for the offline-fit / online-check warehouse-loading split
  (secs. 2.2, 5), and the per-attribute fit fan-out on threads
  (:mod:`repro.core.parallel`) behind ``AuditorConfig.fit_n_jobs``;
* :mod:`repro.registry` — the content-addressed, versioned on-disk
  model registry: named model versions (``loads@v3``) with provenance
  (schema hash, training source, config, fit time) behind the
  offline-fit / online-check hand-over;
* :mod:`repro.serve` — the long-running audit service daemon
  (``repro serve``): a stdlib HTTP API to fit, list, and audit against
  registry versions, streaming findings byte-identical to the CLI;
* :mod:`repro.testenv` — the fig.-2 benchmark pipeline, sec.-4.3 metrics,
  figure sweeps, and the fig.-1 calibration loop;
* :mod:`repro.quis` — the synthetic QUIS engine-composition case-study
  substrate (secs. 3.2, 6.2).

Quickstart::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(n_records=2000, n_rules=50))
    print(result.summary())

Warehouse-scale streaming audit (sec. 2.2)::

    from repro import AuditSession

    session = AuditSession(schema).fit(history)      # offline, slow
    session.save("model.json")

    session = AuditSession.load("model.json")        # online, fast
    for report in session.audit_source("sqlite:///wh.db?table=loads",
                                       chunk_size=10_000):
        quarantine(report.suspicious_rows())
"""

from repro.core import (
    AuditorConfig,
    AuditReport,
    AuditSession,
    Correction,
    DataAuditor,
    Finding,
    ModelPersistenceError,
    auditor_from_dict,
    auditor_to_dict,
    error_confidence,
    error_confidence_batch,
    expected_error_confidence,
    load_auditor,
    min_instances_for_confidence,
    record_error_confidence,
    resolve_n_jobs,
    save_auditor,
)
from repro.core.findings import findings_schema, findings_to_table
from repro.errors import InputError
from repro.generator import (
    BayesianNetwork,
    GeneratorProfile,
    RuleGenerationConfig,
    TestDataGenerator,
    base_profile,
    base_schema,
    generate_natural_rule_set,
)
from repro.logic import Rule, find_model, implies, is_natural_rule_set, is_satisfiable
from repro.mining import (
    AttributeClassifier,
    BatchPrediction,
    ConfidenceBounds,
    IntervalMethod,
    KnnClassifier,
    NaiveBayesClassifier,
    OneRClassifier,
    PrismClassifier,
    PruningStrategy,
    TreeClassifier,
    TreeConfig,
)
from repro.pollution import (
    Duplicator,
    Limiter,
    NullValuePolluter,
    PollutionLog,
    PollutionPipeline,
    Switcher,
    WrongValuePolluter,
    default_polluters,
)
from repro.io import (
    ColumnBatch,
    TableSink,
    TableSource,
    available_formats,
    detect_format,
    open_sink,
    open_source,
    read_table,
    register_format,
    write_table,
)
from repro.quis import generate_quis_sample, quis_schema
from repro.registry import (
    ModelRegistry,
    ModelVersion,
    Provenance,
    RegistryError,
    model_digest,
    schema_digest,
)
from repro.serve import AuditService, ServiceError, make_server, serve
from repro.schema import (
    Attribute,
    AttributeKind,
    DateDomain,
    NominalDomain,
    NumericDomain,
    Schema,
    Table,
    TextDomain,
    date,
    nominal,
    numeric,
    text,
)
from repro.testenv import (
    ExperimentConfig,
    ExperimentResult,
    TestEnvironment,
    calibrate,
    default_candidates,
    evaluate_audit,
    format_series,
    run_experiment,
    sweep_pollution_factor,
    sweep_records,
    sweep_rules,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    # failure contract (repro.errors)
    "InputError",
    # schema
    "AttributeKind",
    "Attribute",
    "NominalDomain",
    "NumericDomain",
    "DateDomain",
    "TextDomain",
    "Schema",
    "Table",
    "nominal",
    "numeric",
    "date",
    "text",
    # storage backends (repro.io)
    "TableSource",
    "TableSink",
    "ColumnBatch",
    "register_format",
    "available_formats",
    "detect_format",
    "open_source",
    "open_sink",
    "read_table",
    "write_table",
    # logic
    "Rule",
    "is_satisfiable",
    "find_model",
    "implies",
    "is_natural_rule_set",
    # generator
    "TestDataGenerator",
    "GeneratorProfile",
    "BayesianNetwork",
    "RuleGenerationConfig",
    "generate_natural_rule_set",
    "base_profile",
    "base_schema",
    # pollution
    "PollutionLog",
    "PollutionPipeline",
    "WrongValuePolluter",
    "NullValuePolluter",
    "Limiter",
    "Switcher",
    "Duplicator",
    "default_polluters",
    # mining
    "ConfidenceBounds",
    "IntervalMethod",
    "AttributeClassifier",
    "BatchPrediction",
    "TreeClassifier",
    "TreeConfig",
    "PruningStrategy",
    "NaiveBayesClassifier",
    "KnnClassifier",
    "OneRClassifier",
    "PrismClassifier",
    # core
    "DataAuditor",
    "AuditorConfig",
    "AuditSession",
    "ModelPersistenceError",
    "AuditReport",
    "resolve_n_jobs",
    "Finding",
    "Correction",
    "findings_schema",
    "findings_to_table",
    "error_confidence",
    "error_confidence_batch",
    "expected_error_confidence",
    "record_error_confidence",
    "min_instances_for_confidence",
    "auditor_to_dict",
    "auditor_from_dict",
    "save_auditor",
    "load_auditor",
    # test environment
    "ExperimentConfig",
    "ExperimentResult",
    "TestEnvironment",
    "run_experiment",
    "sweep_records",
    "sweep_rules",
    "sweep_pollution_factor",
    "format_series",
    "calibrate",
    "default_candidates",
    "evaluate_audit",
    # model registry (repro.registry)
    "ModelRegistry",
    "ModelVersion",
    "Provenance",
    "RegistryError",
    "model_digest",
    "schema_digest",
    # audit service (repro.serve)
    "AuditService",
    "ServiceError",
    "make_server",
    "serve",
    # QUIS case study
    "quis_schema",
    "generate_quis_sample",
]
