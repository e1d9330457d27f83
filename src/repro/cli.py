"""Command-line interface: the paper's pipeline as shell commands.

The stages of the fig.-2 test environment and the fig.-1 workflow map to
subcommands over portable artifacts (tables in any registered storage
format, JSON schemas / models / logs):

=============  ================================================================
``schema``     write a schema JSON (the base-profile schema or the QUIS one)
``generate``   artificial rule-compliant data (sec. 4.1) → table (+ schema)
``pollute``    controlled corruption (sec. 4.2) → dirty table + ground-truth log
``fit``        structure induction (sec. 5) → persisted model JSON and/or a
               registry version (``--register NAME``)
``audit``      deviation detection → ranked findings (any format or stdout);
               ``--model`` takes a model file or a registry ref (``name@v3``)
``evaluate``   sec. 4.3 metrics of a model against a logged corruption
``models``     the registry face: ``list`` / ``show`` / ``tag`` / ``rm``
``monitor``    continuous auditing of a growing table: tail + windowed audits
               with durable watermarks, drift detection, optional auto-refit
``serve``      the long-running audit daemon (HTTP fit/list/audit/monitors)
=============  ================================================================

Every table argument (``--input``, ``--output``, ``--out``, ``--clean``,
``--dirty``, ``--findings-out``) accepts any format the registry
(:mod:`repro.io`) knows: the format is inferred from the extension
(``.csv``, ``.jsonl``/``.ndjson``, ``.db``/``.sqlite``/``.sqlite3``,
``.parquet``/``.pq``) or a ``sqlite:///db?table=t`` URI, defaults to CSV
for unrecognized names, and can be forced with ``--input-format`` /
``--output-format``. Example session::

    repro generate --records 5000 --rules 80 --out clean.csv --schema-out schema.json
    repro pollute  --schema schema.json --input clean.csv \
                   --output warehouse.db --log-out truth.json
    repro fit      --schema schema.json --input warehouse.db --model-out model.json
    repro audit    --model model.json --input warehouse.db --top 10
    repro evaluate --schema schema.json --clean clean.csv --dirty warehouse.db \
                   --log truth.json --model model.json

``repro audit`` streams the input (any backend) through
:meth:`AuditSession.audit_source
<repro.core.session.AuditSession.audit_source>` in chunks (sec. 2.2's
online load check: memory stays bounded by the chunk size plus the
findings retained for ranking, not by the load's row count);
``--chunk-size N`` picks the chunk size and prints one line per chunk,
``--engine sql`` asks that method to screen a SQLite input in-database
(it decides, and the command prints its fallback notice), and
``--format jsonl`` emits machine-readable findings. Output is
bit-identical across chunk sizes, engines and storage backends:
auditing a SQLite table is bit-identical to auditing the equivalent CSV
export. Unreadable input ends ``pollute``, ``fit``, ``audit`` and
``evaluate`` with one ``error:`` line (the missing file, or the line and
attribute of a bad cell) instead of a traceback.
``repro fit --jobs N`` fits the per-attribute classifiers on N worker
processes; the model is byte-identical at any job count. ``fit`` and
``audit`` read their input as column batches (:mod:`repro.io.columnar`),
with no row objects between storage and the encoders. See
``docs/architecture.md`` for the execution model and the README for a
full flag reference.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import __version__
from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.findings import Finding, StreamReport, findings_to_table
from repro.core.serialize import save_auditor
from repro.core.session import AuditSession, ModelPersistenceError
from repro.generator.profiles import base_profile, base_schema
from repro.io.base import DEFAULT_CHUNK_SIZE
from repro.io.jsonl_backend import JsonlTableSink
from repro.io.registry import (
    available_formats,
    detect_format,
    open_sink,
    open_source,
)
from repro.pollution.log import PollutionLog
from repro.pollution.pipeline import PollutionPipeline, default_polluters
from repro.quis.simulator import quis_schema
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.schema.table import Table
from repro.testenv.metrics import evaluate_audit

__all__ = ["main", "build_parser"]

_FORMAT_NAMES = tuple(spec.name for spec in available_formats())
#: findings formats that can be written to stdout (text streams)
_STDOUT_FORMATS = ("jsonl",)
#: environment fallback for every --registry flag
_REGISTRY_ENV = "REPRO_REGISTRY"


def _registry_default() -> Optional[str]:
    return os.environ.get(_REGISTRY_ENV) or None


def _open_registry(registry_dir: Optional[str], *, flag: str = "--registry"):
    """A :class:`~repro.registry.ModelRegistry` for a CLI flag value, or a
    clear error when neither the flag nor ``$REPRO_REGISTRY`` is set."""
    from repro.registry import ModelRegistry

    if not registry_dir:
        raise SystemExit(
            f"error: this command needs a model registry; pass {flag} DIR "
            f"or set ${_REGISTRY_ENV}"
        )
    return ModelRegistry(registry_dir)


def _resolve_format(location: str, override: Optional[str]) -> str:
    """The registry format for a CLI table argument.

    Explicit ``--*-format`` wins; otherwise the extension/URI decides;
    unrecognized names keep the historical CSV behavior.
    """
    if override:
        return override
    try:
        return detect_format(location)
    except ValueError:
        return "csv"


def _table_options(fmt: str, null_marker: Optional[str]) -> dict:
    """Per-format open options (the null marker only means something to CSV)."""
    if fmt == "csv" and null_marker is not None:
        return {"null_marker": null_marker}
    return {}


def _open_input(schema, location: str, override: Optional[str], null_marker: Optional[str] = None):
    fmt = _resolve_format(location, override)
    return open_source(schema, location, format=fmt, **_table_options(fmt, null_marker))


def _read_input(schema, location: str, override: Optional[str], null_marker: Optional[str] = None) -> Table:
    """Materialize a CLI table argument as a row-major :class:`Table`."""
    with _open_input(schema, location, override, null_marker) as source:
        return source.read()


def _read_columns(schema, location: str, override: Optional[str], null_marker: Optional[str] = None):
    """Materialize a CLI table argument as one
    :class:`~repro.io.ColumnBatch` (what fit and audit consume)."""
    with _open_input(schema, location, override, null_marker) as source:
        return source.read_columns()


def _write_output(table: Table, location: str, override: Optional[str], null_marker: Optional[str] = None) -> None:
    fmt = _resolve_format(location, override)
    with open_sink(table.schema, location, format=fmt, **_table_options(fmt, null_marker)) as sink:
        sink.write(table)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (one subcommand per pipeline stage)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data auditing tools (VLDB 2003 reproduction): "
        "generate, pollute, fit, audit, evaluate.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schema = sub.add_parser("schema", help="write a schema JSON")
    p_schema.add_argument("--kind", choices=("base", "quis"), default="base")
    p_schema.add_argument("--out", required=True, type=Path)

    p_generate = sub.add_parser("generate", help="generate artificial test data")
    p_generate.add_argument("--records", type=int, default=5000)
    p_generate.add_argument("--rules", type=int, default=100)
    p_generate.add_argument("--seed", type=int, default=42)
    p_generate.add_argument("--data-seed", type=int, default=1)
    p_generate.add_argument(
        "--out",
        required=True,
        help="output table (any registered format, inferred from the extension)",
    )
    p_generate.add_argument(
        "--output-format",
        choices=_FORMAT_NAMES,
        help="force the output format instead of inferring it from --out",
    )
    p_generate.add_argument("--schema-out", type=Path)
    p_generate.add_argument(
        "--schema",
        type=Path,
        help="generate against this schema JSON instead of the base profile "
        "(requires --rules-file)",
    )
    p_generate.add_argument(
        "--rules-file",
        type=Path,
        help="text file with one TDG-rule per line "
        "(e.g. \"BRV = '404' -> GBM = '901'\"); used with --schema",
    )

    p_pollute = sub.add_parser("pollute", help="apply controlled corruption")
    p_pollute.add_argument("--schema", required=True, type=Path)
    p_pollute.add_argument("--input", required=True, help="clean table (any format)")
    p_pollute.add_argument("--output", required=True, help="dirty table (any format)")
    p_pollute.add_argument(
        "--input-format", choices=_FORMAT_NAMES, help="force the input format"
    )
    p_pollute.add_argument(
        "--output-format", choices=_FORMAT_NAMES, help="force the output format"
    )
    p_pollute.add_argument(
        "--null-marker",
        default="",
        help="CSV text standing for null on both ends (default: empty field)",
    )
    p_pollute.add_argument("--log-out", type=Path)
    p_pollute.add_argument("--factor", type=float, default=1.0)
    p_pollute.add_argument("--seed", type=int, default=2)

    p_fit = sub.add_parser("fit", help="induce and persist the structure model")
    p_fit.add_argument("--schema", required=True, type=Path)
    p_fit.add_argument("--input", required=True, help="training table (any format)")
    p_fit.add_argument(
        "--input-format", choices=_FORMAT_NAMES, help="force the input format"
    )
    p_fit.add_argument(
        "--null-marker",
        default="",
        help="CSV text standing for null (default: empty field)",
    )
    p_fit.add_argument(
        "--model-out",
        type=Path,
        help="write the fitted model to this JSON file "
        "(and/or register it with --register)",
    )
    p_fit.add_argument("--min-confidence", type=float, default=0.8)
    p_fit.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for structure induction — one attribute's "
        "classifier per task (default 1 = serial; -1 = all cores); the "
        "fitted model is byte-identical regardless of job count",
    )
    p_fit.add_argument(
        "--register",
        metavar="NAME",
        help="store the fitted model as the next version of NAME in the "
        "registry (records provenance: schema hash, training source, "
        "config, row count, fit time)",
    )
    p_fit.add_argument(
        "--registry",
        default=_registry_default(),
        help=f"registry directory for --register (default: ${_REGISTRY_ENV})",
    )

    p_audit = sub.add_parser("audit", help="detect deviations with a fitted model")
    p_audit.add_argument(
        "--model",
        required=True,
        help="a model JSON file, or a registry reference such as "
        "loads, loads@v3, loads@latest, or loads@<tag> (needs --registry)",
    )
    p_audit.add_argument(
        "--registry",
        default=_registry_default(),
        help=f"registry directory for registry --model references "
        f"(default: ${_REGISTRY_ENV})",
    )
    p_audit.add_argument(
        "--input",
        required=True,
        help="table to audit (any registered format, e.g. load.csv, "
        "events.jsonl, warehouse.db, sqlite:///wh.db?table=loads)",
    )
    p_audit.add_argument(
        "--input-format", choices=_FORMAT_NAMES, help="force the input format"
    )
    p_audit.add_argument(
        "--null-marker",
        default="",
        help="CSV text standing for null (default: empty field)",
    )
    p_audit.add_argument(
        "--findings-out", help="write all findings to this table (any format)"
    )
    p_audit.add_argument("--top", type=int, default=10)
    p_audit.add_argument(
        "--chunk-size",
        type=int,
        help="audit the input in chunks of this many rows and print one "
        f"line per chunk (default: {DEFAULT_CHUNK_SIZE}, no per-chunk lines); "
        "memory stays bounded by the chunk size either way",
    )
    p_audit.add_argument(
        "--format",
        choices=_FORMAT_NAMES,
        help="findings output format (default: inferred from --findings-out, "
        "csv if unrecognized); jsonl without --findings-out writes one "
        "JSON object per finding to stdout",
    )
    p_audit.add_argument(
        "--engine",
        choices=("memory", "sql"),
        default="memory",
        help="execution engine: 'memory' extracts and audits in-process "
        "(default); 'sql' compiles the fitted model to SQL and screens "
        "deviations inside the SQLite --input itself — same ranked "
        "findings; when the input is not SQLite, the model (e.g. kNN) "
        "has no SQL form or the pushdown fails at run time, a one-line "
        "note on stderr says why and the audit runs in memory",
    )

    p_evaluate = sub.add_parser(
        "evaluate", help="sec. 4.3 metrics against a pollution log"
    )
    p_evaluate.add_argument("--schema", required=True, type=Path)
    p_evaluate.add_argument("--clean", required=True, help="pre-pollution table")
    p_evaluate.add_argument("--dirty", required=True, help="polluted table")
    p_evaluate.add_argument(
        "--input-format",
        choices=_FORMAT_NAMES,
        help="force the format of --clean and --dirty",
    )
    p_evaluate.add_argument("--log", required=True, type=Path)
    p_evaluate.add_argument("--model", required=True, type=Path)

    p_models = sub.add_parser(
        "models", help="inspect and manage the versioned model registry"
    )
    p_models.add_argument(
        "--registry",
        default=_registry_default(),
        help=f"registry directory (default: ${_REGISTRY_ENV})",
    )
    models_sub = p_models.add_subparsers(dest="models_command", required=True)
    models_sub.add_parser("list", help="all registered names with versions/tags")
    p_models_show = models_sub.add_parser(
        "show", help="one resolved version with full provenance"
    )
    p_models_show.add_argument("ref", help="name, name@vN, name@latest, name@tag")
    p_models_tag = models_sub.add_parser(
        "tag", help="point a tag at a version (e.g. pin prod to loads@v3)"
    )
    p_models_tag.add_argument("ref", help="the version to tag (name[@ref])")
    p_models_tag.add_argument("tag", help="the tag to (re)point")
    p_models_rm = models_sub.add_parser(
        "rm", help="remove one version (name@ref) or a whole name"
    )
    p_models_rm.add_argument("ref", help="name or name@ref to remove")

    p_monitor = sub.add_parser(
        "monitor", help="continuously audit a growing table (tail + drift + refit)"
    )
    p_monitor.add_argument(
        "source",
        help="growing table to tail: a CSV/JSONL path being appended to, a "
        "SQLite database, or sqlite:///wh.db?table=loads",
    )
    p_monitor.add_argument(
        "--model",
        required=True,
        help="a model JSON file or a registry reference (name@v3, name@latest)",
    )
    p_monitor.add_argument(
        "--registry",
        default=_registry_default(),
        help=f"registry directory for registry --model references and "
        f"--refit auto (default: ${_REGISTRY_ENV})",
    )
    p_monitor.add_argument(
        "--input-format",
        choices=("csv", "jsonl", "sqlite"),
        help="force the source format instead of inferring it",
    )
    p_monitor.add_argument(
        "--null-marker",
        default="",
        help="CSV text standing for null (default: empty field)",
    )
    p_monitor.add_argument(
        "--state",
        type=Path,
        help="watermark state file; resuming with the same --state continues "
        "exactly where the previous run stopped "
        "(default: FINDINGS_OUT + '.state')",
    )
    p_monitor.add_argument(
        "--findings-out",
        type=Path,
        help="durable findings JSONL, appended window by window "
        "(default: SOURCE + '.findings.jsonl'; required for sqlite sources)",
    )
    p_monitor.add_argument(
        "--ranked-out",
        help="after a catch-up run, also write the globally ranked findings "
        "(any format) — byte-identical to 'repro audit' of the same rows",
    )
    p_monitor.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for appended rows until SIGTERM/Ctrl-C "
        "(default: catch up with the source and exit)",
    )
    p_monitor.add_argument("--poll-interval", type=float, default=1.0)
    p_monitor.add_argument(
        "--window-rows",
        type=int,
        default=256,
        help="rows per audit window — the commit/drift granularity "
        "(default 256)",
    )
    p_monitor.add_argument(
        "--drift-threshold",
        type=float,
        default=0.0,
        help="extra Wilson-interval separation (in finding-rate units) a "
        "window must show before it counts as drifted (default 0)",
    )
    p_monitor.add_argument(
        "--drift-confidence",
        type=float,
        default=0.95,
        help="confidence level of the drift intervals (default 0.95)",
    )
    p_monitor.add_argument(
        "--baseline-windows",
        type=int,
        default=3,
        help="windows that establish the per-attribute baseline rate",
    )
    p_monitor.add_argument(
        "--sustain-windows",
        type=int,
        default=2,
        help="consecutive drifted windows before the drift event fires",
    )
    p_monitor.add_argument(
        "--refit",
        choices=("off", "recommend", "auto"),
        default="off",
        help="response to sustained drift: log only, record a recommendation, "
        "or refit on recent rows and register the new version (moves "
        "@latest; needs --registry and a registry --model or --refit-name)",
    )
    p_monitor.add_argument(
        "--refit-name",
        help="registry name auto-refits register under "
        "(default: the name part of a registry --model reference)",
    )
    p_monitor.add_argument(
        "--refit-rows",
        type=int,
        default=4096,
        help="recent rows buffered as the auto-refit training set",
    )

    p_serve = sub.add_parser(
        "serve", help="run the long-running audit service daemon (HTTP)"
    )
    p_serve.add_argument(
        "--registry",
        default=_registry_default(),
        help=f"model registry directory backing the service "
        f"(default: ${_REGISTRY_ENV})",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8181,
        help="listen port (0 picks an ephemeral port, printed at start-up)",
    )

    return parser


def _load_schema(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return schema_from_dict(json.load(handle))


def _cmd_schema(args: argparse.Namespace) -> int:
    schema = quis_schema() if args.kind == "quis" else base_schema()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(schema_to_dict(schema), handle, indent=2)
    print(f"wrote {args.kind} schema ({len(schema)} attributes) to {args.out}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if (args.schema is None) != (args.rules_file is None):
        raise SystemExit("--schema and --rules-file must be used together")
    if args.schema is not None:
        from repro.generator.datagen import TestDataGenerator
        from repro.logic.parse import parse_rules

        schema = _load_schema(args.schema)
        rules = parse_rules(args.rules_file.read_text(encoding="utf-8"), schema)
        generator = TestDataGenerator(schema, rules)
        n_rules = len(rules)
        out_schema = schema
    else:
        profile = base_profile(n_rules=args.rules, seed=args.seed)
        generator = profile.build_generator()
        n_rules = len(profile.rules)
        out_schema = profile.schema
    table = generator.generate(args.records, random.Random(args.data_seed))
    _write_output(table, args.out, args.output_format)
    print(f"generated {table.n_rows} records over {n_rules} rules to {args.out}")
    if args.schema_out:
        with open(args.schema_out, "w", encoding="utf-8") as handle:
            json.dump(schema_to_dict(out_schema), handle, indent=2)
        print(f"wrote schema to {args.schema_out}")
    return 0


def _cmd_pollute(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    try:
        table = _read_input(schema, args.input, args.input_format, args.null_marker)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    pipeline = PollutionPipeline(default_polluters(), factor=args.factor)
    dirty, log = pipeline.apply(table, random.Random(args.seed))
    _write_output(dirty, args.output, args.output_format, args.null_marker)
    print(
        f"polluted {table.n_rows} → {dirty.n_rows} records "
        f"({log.n_cell_changes} cell changes, {log.n_duplicated} duplicates, "
        f"{log.n_deleted} deletions) to {args.output}"
    )
    if args.log_out:
        with open(args.log_out, "w", encoding="utf-8") as handle:
            json.dump(log.to_dict(), handle)
        print(f"wrote ground-truth log to {args.log_out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.jobs == 0:
        raise SystemExit("error: --jobs must not be 0 (use 1 for serial, -1 for all cores)")
    if args.model_out is None and args.register is None:
        raise SystemExit(
            "error: pass --model-out FILE, --register NAME, or both — "
            "a fit with neither destination would be discarded"
        )
    schema = _load_schema(args.schema)
    try:
        table = _read_columns(schema, args.input, args.input_format, args.null_marker)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    auditor = DataAuditor(
        schema,
        AuditorConfig(min_error_confidence=args.min_confidence, fit_n_jobs=args.jobs),
    )
    auditor.fit(table)
    if args.model_out is not None:
        save_auditor(auditor, args.model_out)
        print(
            f"induced structure model from {table.n_rows} records "
            f"in {auditor.fit_seconds:.1f}s → {args.model_out}"
        )
    if args.register is not None:
        from repro.registry import Provenance, RegistryError

        registry = _open_registry(args.registry)
        try:
            version = registry.put(
                auditor,
                args.register,
                provenance=Provenance(
                    source=str(args.input),
                    source_format=_resolve_format(args.input, args.input_format),
                    n_rows=table.n_rows,
                    fit_seconds=auditor.fit_seconds,
                ),
            )
        except RegistryError as exc:
            raise SystemExit(f"error: {exc}") from exc
        print(
            f"registered {version.ref} (digest {version.digest[:12]}) "
            f"in {registry.root}"
        )
    return 0


def _load_model(path, registry_dir: Optional[str] = None):
    """The session of a ``--model`` argument (``audit``, ``evaluate``,
    ``monitor``) and the registry version it resolved to, ``None`` for a
    model file.

    A *path* containing ``@`` is a registry reference (``name@v3``),
    resolved once in the store named by *registry_dir* /
    ``$REPRO_REGISTRY``; so is a bare name that is no file on disk when
    a registry is configured. A broken model or unknown reference ends
    in one ``error:`` line instead of a traceback."""
    from repro.registry import RegistryError

    text = str(path)
    use_registry = "@" in text or (
        registry_dir is not None and not Path(text).exists()
    )
    try:
        if not use_registry:
            return AuditSession.load(path), None
        registry = _open_registry(registry_dir)
        version = registry.resolve(text)
        return AuditSession(auditor=registry.get_version(version)), version
    except (ModelPersistenceError, RegistryError) as exc:
        raise SystemExit(f"error: {exc}") from exc


def _write_findings(findings: list[Finding], args: argparse.Namespace) -> None:
    """Findings leave through the same :class:`TableSink` layer as data
    tables — one code path whether they land in CSV, JSONL, a SQLite
    table, or (jsonl only) on stdout."""
    table = findings_to_table(findings)
    if args.findings_out:
        _write_output(table, args.findings_out, args.format)
        print(f"wrote all findings to {args.findings_out}")
    elif args.format == "jsonl":
        with JsonlTableSink(table.schema, sys.stdout) as sink:
            sink.write(table)


def _cmd_audit(args: argparse.Namespace) -> int:
    # flag validation first — don't pay a model load to report a bad flag
    if args.chunk_size is not None and args.chunk_size < 1:
        raise SystemExit("error: --chunk-size must be at least 1")
    # without --findings-out, jsonl streams to stdout and csv (the
    # historical default) is a no-op — only the file-only formats need
    # the output path
    if (
        args.format is not None
        and args.format not in ("csv",) + _STDOUT_FORMATS
        and not args.findings_out
    ):
        raise SystemExit(
            f"error: --format {args.format} needs --findings-out "
            f"(only {', '.join(_STDOUT_FORMATS)} can stream to stdout)"
        )
    session, _ = _load_model(args.model, args.registry)
    quiet = args.format == "jsonl" and not args.findings_out
    # the accumulator keeps the findings across chunks (the output), never
    # the per-row confidences — peak memory must not grow with row count
    report = StreamReport(session.config.min_error_confidence, schema=session.schema)
    try:
        with _open_input(
            session.schema, args.input, args.input_format, args.null_marker
        ) as source:
            run = session.audit_source(
                source,
                chunk_size=args.chunk_size or DEFAULT_CHUNK_SIZE,
                engine=args.engine,
            )
            for n_chunks, chunk in enumerate(run, start=1):
                report.extend(chunk)
                if args.chunk_size is not None and not quiet:
                    print(
                        f"  chunk {n_chunks}: {chunk.n_rows} records, "
                        f"{chunk.n_suspicious} suspicious"
                    )
    except BrokenPipeError:
        raise  # a closed stdout is main()'s to handle (exit 0), not bad input
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    if run.notice is not None:
        print(f"note: {run.notice}", file=sys.stderr)
    findings = report.ranked_findings()
    if not quiet:
        print(
            f"audited {report.n_rows} records: {report.n_suspicious} suspicious, "
            f"{len(findings)} findings at ≥ "
            f"{report.min_error_confidence:.0%} confidence"
        )
        for finding in findings[: args.top]:
            print(f"  {finding.describe()}")
    _write_findings(findings, args)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    try:
        clean = _read_input(schema, args.clean, args.input_format)
        dirty = _read_input(schema, args.dirty, args.input_format)
        with open(args.log, "r", encoding="utf-8") as handle:
            log = PollutionLog.from_dict(json.load(handle))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    session, _ = _load_model(args.model)
    report = session.audit(dirty)
    result = evaluate_audit(report, log, clean, dirty)
    print(result.records.to_table())
    print()
    print(result.summary())
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.registry import RegistryError

    registry = _open_registry(args.registry)
    try:
        if args.models_command == "list":
            names = registry.list()
            if not names:
                print(f"registry {registry.root} holds no models")
                return 0
            print(f"{'NAME':20} {'VERSIONS':>8}  {'LATEST':24} TAGS")
            for name in names:
                versions = registry.versions(name)
                latest = versions[-1]
                tags = ", ".join(
                    f"{t}→v{v}" for t, v in sorted(registry.tags(name).items())
                )
                print(
                    f"{name:20} {len(versions):>8}  "
                    f"{latest.digest[:12] + ' ' + latest.provenance.created_at:24} "
                    f"{tags}"
                )
        elif args.models_command == "show":
            print(json.dumps(registry.resolve(args.ref).to_record(), indent=2))
        elif args.models_command == "tag":
            version = registry.tag(args.ref, args.tag)
            print(f"tagged {version.ref} as {version.name}@{args.tag}")
        elif args.models_command == "rm":
            removed = registry.delete(args.ref)
            print(f"removed {removed} version(s) of {args.ref}")
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}") from exc
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.monitor.drift import DriftConfig
    from repro.monitor.refit import RefitPolicy

    # findings JSONL and stdout are the output; progress and drift events
    # go to stderr through the repro.monitor logger
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )

    # a registry reference also names the default refit target and the
    # concrete version recorded in the watermark
    session, version = _load_model(args.model, args.registry)

    findings_path = args.findings_out
    if findings_path is None:
        if str(args.source).startswith("sqlite:") or args.input_format == "sqlite":
            raise SystemExit(
                "error: --findings-out is required for SQLite sources "
                "(there is no file path to derive it from)"
            )
        findings_path = Path(str(args.source) + ".findings.jsonl")
    state_path = args.state or Path(str(findings_path) + ".state")

    try:
        drift = DriftConfig(
            confidence=args.drift_confidence,
            threshold=args.drift_threshold,
            baseline_windows=args.baseline_windows,
            sustain_windows=args.sustain_windows,
        )
        registry = _open_registry(args.registry) if args.refit == "auto" else None
        refit_name = args.refit_name or (version.name if version else None)
        if args.refit == "auto" and not refit_name:
            raise SystemExit(
                "error: --refit auto needs --refit-name (or a registry "
                "--model reference to take the name from)"
            )
        refit = RefitPolicy(
            args.refit,
            registry=registry,
            model_name=refit_name,
            refit_rows=args.refit_rows,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc

    def _emit(text_block: str) -> None:
        sys.stdout.write(text_block)
        sys.stdout.flush()

    try:
        watcher = session.monitor(
            args.source,
            state_path=state_path,
            findings_path=findings_path,
            format=args.input_format,
            null_marker=args.null_marker,
            window_rows=args.window_rows,
            poll_interval=args.poll_interval,
            drift=drift,
            refit=refit,
            model_ref=version.ref if version else str(args.model),
            emit=_emit,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc

    try:
        if args.follow:
            stop = threading.Event()

            def _terminate(signum: int, frame) -> None:
                stop.set()

            previous = signal.signal(signal.SIGTERM, _terminate)
            try:
                report = watcher.run(follow=True, stop=stop)
            finally:
                signal.signal(signal.SIGTERM, previous)
        else:
            report = watcher.run()
        status = watcher.status()
        print(
            f"monitored {status['rows']} rows in {status['windows']} windows: "
            f"{status['suspicious']} suspicious, {status['findings']} findings "
            f"(model {status['model']}, state {state_path})",
            file=sys.stderr,
        )
        if args.ranked_out:
            _write_output(
                findings_to_table(report.ranked_findings()), args.ranked_out, None
            )
            print(f"wrote ranked findings to {args.ranked_out}", file=sys.stderr)
    finally:
        watcher.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    registry = _open_registry(args.registry)
    return serve(registry, args.host, args.port)


_COMMANDS = {
    "schema": _cmd_schema,
    "generate": _cmd_generate,
    "pollute": _cmd_pollute,
    "fit": _cmd_fit,
    "audit": _cmd_audit,
    "evaluate": _cmd_evaluate,
    "models": _cmd_models,
    "monitor": _cmd_monitor,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Interactive failure modes exit cleanly instead of with a traceback:
    Ctrl-C returns 130 (the shell convention for SIGINT) and a
    downstream consumer closing the pipe early (``repro audit … |
    head``) returns 0 — the truncation was the consumer's choice, not
    an error.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout is gone; stop Python's exit-time flush from raising a
        # second (noisy) BrokenPipeError by pointing the fd at /dev/null
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass  # stdout is not a real fd (test harness); nothing to silence
        return 0


if __name__ == "__main__":
    sys.exit(main())
