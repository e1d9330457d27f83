"""The data auditing tool: the multiple classification / regression
approach of sec. 5.

For every attribute of the relation a classifier is induced predicting it
from the remaining (*base*) attributes. Checking a record compares each
observed value with the corresponding classifier's predicted class
distribution and converts the deviation into the error confidence of
Def. 7; the record-level confidence is the maximum over all classifiers
(Def. 8).

Structure induction (:meth:`DataAuditor.fit`) and deviation detection
(:meth:`DataAuditor.audit`) are separate steps that may run
asynchronously — sec. 2.2's warehouse-loading scenario induces offline and
checks new loads online; :mod:`repro.core.serialize` persists the fitted
state in between.

Domain knowledge plugs in through :attr:`AuditorConfig.base_attributes`
("If it is known that an attribute does not influence the value of a class
attribute, it can be removed from the set of base attributes") and
:attr:`AuditorConfig.audited_attributes`.

Both steps read a table through one encode-once column cache
(:class:`FitColumnCache` for the fit, :class:`ColumnCache` for the
check), the only code that turns raw cells into encoded arrays.

Structure induction fans out per attribute: ``fit(table)`` fits the
classifiers on ``AuditorConfig.fit_n_jobs`` threads (every usable core
by default; :mod:`repro.core.parallel`) and produces the same serialized
model as the serial fit, byte for byte.
Deviation detection runs serially, one batch-vectorized
:meth:`DataAuditor.audit_attribute` check per class attribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.findings import AuditReport, Finding
from repro.core.parallel import fit_classifiers, resolve_n_jobs
from repro.errors import InputError
from repro.mining.base import AttributeClassifier
from repro.mining.confidence import (
    error_confidence_batch,
    min_instances_for_confidence,
)
from repro.mining.dataset import (
    NULL_LABEL,
    UNKNOWN_LABEL,
    BaseEncoder,
    ClassEncoder,
    Dataset,
    encode_ordered_column,
    null_mask,
)
from repro.mining.intervals import ConfidenceBounds
from repro.mining.tree.grow import TreeConfig
from repro.mining.tree_classifier import TreeClassifier
from repro.mining.tree.rules import TreeRule
from repro.schema.domain import NominalDomain, TextDomain
from repro.schema.schema import Schema
from repro.schema.types import AttributeKind

__all__ = ["AuditorConfig", "ColumnCache", "FitColumnCache", "DataAuditor"]


class ColumnCache:
    """Encode-once column store shared by every classifier auditing one
    table.

    Each column is encoded once per table — once per chunk of a streamed
    audit. Base-attribute encoders are deterministic per schema
    attribute, so an encoded column is identical no matter which
    classifier requests it; caching by attribute name turns the audit's
    encoding cost from O(attributes²) into O(attributes). A class
    attribute's observed codes are derived from that same base encoding
    and the column's one cached null mask (:meth:`observed_codes`), not
    by a second walk over the raw cells, and the fit
    (:class:`FitColumnCache`) derives its training labels through the
    same method. An audit keeps one cache per table.

    ``table`` may be a row-major :class:`~repro.schema.table.Table` or a
    :class:`~repro.io.columnar.ColumnBatch`: the cache reads only the
    surface both share (``schema`` / ``n_rows`` / ``column``), and every
    encoding starts from the raw cells ``column`` returns. This cache and
    :class:`FitColumnCache` are the only code that turns raw cells into
    encoded arrays.
    """

    __slots__ = ("table", "_raw", "_encoded", "_encoders", "_masks")

    def __init__(self, table):
        self.table = table
        self._raw: dict[str, list] = {}
        self._encoded: dict[str, np.ndarray] = {}
        self._encoders: dict[str, BaseEncoder] = {}
        self._masks: dict[str, np.ndarray] = {}

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def schema(self) -> Schema:
        return self.table.schema

    # -- column views --------------------------------------------------------

    def raw(self, name: str) -> list:
        """The raw (decoded) cell values of one column."""
        if name not in self._raw:
            self._raw[name] = self.table.column(name)
        return self._raw[name]

    def base_encoder(self, name: str) -> BaseEncoder:
        if name not in self._encoders:
            self._encoders[name] = BaseEncoder(self.schema.attribute(name))
        return self._encoders[name]

    def mask(self, name: str) -> np.ndarray:
        """The column's null mask (shared by its base and class encodings)."""
        if name not in self._masks:
            self._masks[name] = null_mask(self.raw(name))
        return self._masks[name]

    def encoded(self, name: str, encoder) -> np.ndarray:
        """The column encoded by *encoder* (cached by attribute name —
        encoders are deterministic per schema attribute)."""
        if name not in self._encoded:
            if encoder.categorical:
                self._encoded[name] = encoder.encode_column(self.raw(name))
            else:  # reads the column's shared null mask
                self._encoded[name] = encode_ordered_column(
                    encoder.attribute, self.raw(name), self.mask(name)
                )
        return self._encoded[name]

    def observed_codes(self, name: str, class_encoder: ClassEncoder) -> np.ndarray:
        """The column encoded into class-label codes: the audit's observed
        classes and the fit's training labels.

        Derived from the column's base encoding, bit-identical to
        :meth:`ClassEncoder.code_of
        <repro.mining.dataset.ClassEncoder.code_of>` per cell: an ordered
        class bins the numeric view
        (:meth:`~repro.mining.dataset.ClassEncoder.encode_from_numeric`);
        a nominal class lists its domain values first, in base-code
        order, so in-domain codes coincide and only the unknown and null
        codes remap. :class:`DataAuditor` refuses a domain that holds a
        reserved class label, which would break that coincidence.
        """
        encoder = self.base_encoder(name)
        base = self.encoded(name, encoder)
        if class_encoder.attribute.kind is not AttributeKind.NOMINAL:
            return class_encoder.encode_from_numeric(base, self.mask(name))
        codes = base.copy()
        codes[base == encoder.unknown_code] = class_encoder.unknown_code
        codes[base < 0] = class_encoder.null_code
        return codes

    def observed_value(self, name: str, row: int):
        """One raw cell, for a finding's ``observed_value``."""
        return self.raw(name)[row]


class FitColumnCache(ColumnCache):
    """Encode-once column store for *structure induction*.

    Fitting induces one classifier per audited attribute, and every
    classifier's :class:`~repro.mining.dataset.Dataset` used to re-encode
    its own copy of each base column — O(attributes²) cell encodes, the
    fit path's dominant cost at scale. This cache extends the audit-side
    :class:`ColumnCache` (base encoders, base-encoded columns and null
    masks, each computed at most once per table) with class encoders
    (discretizers fitted on the base numeric view) and class-code
    vectors, derived from the base codes by the audit's own
    :meth:`~ColumnCache.observed_codes`.

    :meth:`dataset_for` assembles a classifier's training view from the
    shared arrays — bit-identical to the cell-at-a-time reference
    encoding the fit-parity suite keeps.
    A fit keeps one cache per table. Its dicts fill lazily and are not
    thread-safe, so every dataset is built before the fits fan out.
    """

    __slots__ = ("n_bins", "_class_encoders")

    def __init__(self, table, *, n_bins: int = 10):
        super().__init__(table)
        self.n_bins = n_bins
        self._class_encoders: dict[str, ClassEncoder] = {}

    def class_encoder(self, name: str) -> ClassEncoder:
        if name not in self._class_encoders:
            attribute = self.schema.attribute(name)
            view = ()  # nominal vocabularies come from the domain, not the data
            if attribute.kind is not AttributeKind.NOMINAL:
                numeric = self.encoded(name, self.base_encoder(name))
                view = numeric[~np.isnan(numeric)]
            self._class_encoders[name] = ClassEncoder(
                attribute, n_bins=self.n_bins, numeric_view=view
            )
        return self._class_encoders[name]

    def dataset_for(self, class_attr: str, base_attrs: Sequence[str]) -> Dataset:
        """One classifier's training view over the shared columns."""
        encoders = {name: self.base_encoder(name) for name in base_attrs}
        class_encoder = self.class_encoder(class_attr)
        return Dataset(
            class_attr,
            base_attrs,
            encoders=encoders,
            columns={name: self.encoded(name, encoders[name]) for name in base_attrs},
            class_encoder=class_encoder,
            y=self.observed_codes(class_attr, class_encoder),
            n_rows=self.table.n_rows,
        )


def refuse_reserved_labels(schema: Schema, class_attrs: Sequence[str]) -> None:
    """Raise :class:`InputError` if a nominal attribute among *class_attrs*
    holds a reserved class label (``<null>``, ``<unknown>``) in its
    domain: its class vocabulary would name that label twice, and the
    fit and the audit would code its cells differently."""
    reserved = {NULL_LABEL, UNKNOWN_LABEL}
    holders = [
        attribute.name
        for attribute in schema.attributes
        if attribute.name in class_attrs
        and isinstance(attribute.domain, NominalDomain)
        and not reserved.isdisjoint(attribute.domain.values)
    ]
    if holders:
        raise InputError(
            f"nominal attributes {holders!r} cannot be audited: their domains "
            f"hold a reserved class label ({NULL_LABEL!r} or {UNKNOWN_LABEL!r})"
        )


def _default_classifier_factory(config: "AuditorConfig") -> AttributeClassifier:
    """The production classifier: auditing-adjusted C4.5 with minInst
    pre-pruning derived from the minimal error confidence (sec. 5.4)."""
    min_inst = min_instances_for_confidence(config.min_error_confidence, config.bounds)
    return TreeClassifier(
        TreeConfig(
            min_class_instances=float(min_inst),
            bounds=config.bounds,
            min_detection_confidence=config.min_error_confidence,
        )
    )


@dataclass
class AuditorConfig:
    """Configuration of the data auditing tool.

    Attributes
    ----------
    min_error_confidence:
        Findings below this Def.-7 confidence are discarded ("If we let
        the user restrict his interest by giving a minimal confidence for
        detected errors…"). The paper's evaluation fixes 0.80.
    bounds:
        Confidence-interval parameterization shared by the error
        confidence, the expected-error-confidence pruning, and the
        derived minInst bound.
    n_bins:
        Equal-frequency bins for numeric/date class attributes.
    classifier_factory:
        Callable returning a fresh :class:`AttributeClassifier` per
        audited attribute; defaults to the adjusted C4.5. Classifiers fit
        at the same time, on shared read-only arrays, so the ones a
        factory builds must share no mutable state (every built-in family
        keeps its random generator per instance).
    base_attributes:
        Optional domain knowledge: explicit base-attribute lists per class
        attribute (default: all other attributes).
    audited_attributes:
        Restrict auditing to these attributes (default: all).
    fit_n_jobs:
        Thread count for structure induction: ``-1`` (the default) uses
        every usable core, ``1`` fits serially in the calling thread,
        ``N > 1`` fans out over *N* threads, and other negative counts
        are relative to the usable cores. Each task is one audited
        attribute's classifier fit, so no more threads start than there
        are audited attributes. Every job count produces a
        byte-identical serialized model.
    """

    min_error_confidence: float = 0.80
    bounds: ConfidenceBounds = field(default_factory=lambda: ConfidenceBounds(0.95))
    n_bins: int = 10
    classifier_factory: Optional[Callable[["AuditorConfig"], AttributeClassifier]] = None
    base_attributes: Mapping[str, Sequence[str]] = field(default_factory=dict)
    audited_attributes: Optional[Sequence[str]] = None
    fit_n_jobs: int = -1

    def __post_init__(self) -> None:
        counts = (("n_bins", self.n_bins), ("fit_n_jobs", self.fit_n_jobs))
        for name, value in counts:
            if type(value) is bool or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.min_error_confidence < 1.0:
            raise InputError("min_error_confidence must lie strictly in (0, 1)")
        if self.n_bins < 2:
            raise InputError("n_bins must be at least 2")
        if self.fit_n_jobs == 0:
            raise InputError(
                "fit_n_jobs must be a positive worker count or a negative "
                "cpu-relative count (-1 = all cores), not 0"
            )

    def make_classifier(self) -> AttributeClassifier:
        factory = self.classifier_factory or _default_classifier_factory
        return factory(self)


class DataAuditor:
    """The paper's data auditing tool (structure induction + deviation
    detection + correction proposal)."""

    def __init__(self, schema: Schema, config: Optional[AuditorConfig] = None):
        # open-vocabulary text attributes (TextDomain) exist for derived
        # reporting tables (findings, logs) and cannot be mined — reject
        # them here with a clear message instead of an AttributeError
        # deep inside dataset encoding
        unmineable = [
            attribute.name
            for attribute in schema.attributes
            if isinstance(attribute.domain, TextDomain)
        ]
        if unmineable:
            raise InputError(
                f"text attributes cannot be audited: {unmineable!r} use the "
                f"open-vocabulary TextDomain (meant for reporting tables "
                f"such as findings exports); audit relations need "
                f"nominal/numeric/date attributes"
            )
        self.schema = schema
        self.config = config or AuditorConfig()
        refuse_reserved_labels(schema, self.audited_attributes())
        self.classifiers: dict[str, AttributeClassifier] = {}
        self.fit_seconds: float = 0.0

    # -- structure induction -------------------------------------------------

    def audited_attributes(self) -> list[str]:
        if self.config.audited_attributes is not None:
            return [name for name in self.config.audited_attributes]
        return list(self.schema.names)

    def base_attributes_for(self, class_attr: str) -> list[str]:
        configured = self.config.base_attributes.get(class_attr)
        if configured is not None:
            return [name for name in configured if name != class_attr]
        return [name for name in self.schema.names if name != class_attr]

    def fit(self, table) -> "DataAuditor":
        """Induce one classifier per audited attribute (sec. 5's structure
        induction; may run offline, see module docstring).

        *table* may be a row-major :class:`~repro.schema.table.Table` or
        a :class:`~repro.io.columnar.ColumnBatch` (the columnar ingest of
        :meth:`AuditSession.fit_source
        <repro.core.session.AuditSession.fit_source>`) — both encode
        through the same caches and produce byte-identical models. Each
        table column is encoded exactly once into a shared
        :class:`FitColumnCache`, and every classifier trains on those
        shared arrays.

        Every audited attribute's dataset is built first, in the calling
        thread, so an encoding error surfaces in audited order. The
        classifiers then fit on :attr:`AuditorConfig.fit_n_jobs` threads
        (:func:`repro.core.parallel.fit_classifiers`; ``-1``, the
        default, is every usable core, ``1`` is serial). The fitted model
        and the error of a failing fit are the same at any job count.
        """
        if table.schema != self.schema:
            raise ValueError("table schema does not match the auditor's schema")
        started = time.perf_counter()
        cache = FitColumnCache(table, n_bins=self.config.n_bins)
        datasets = {
            class_attr: self.fit_dataset(class_attr, table, cache)
            for class_attr in self.audited_attributes()
        }
        self.classifiers = fit_classifiers(
            datasets,
            self.config.make_classifier,
            resolve_n_jobs(self.config.fit_n_jobs),
        )
        self.fit_seconds = time.perf_counter() - started
        return self

    def fit_dataset(
        self,
        class_attr: str,
        table,
        cache: Optional[FitColumnCache] = None,
    ) -> Dataset:
        """One classifier's training view of *table*, referencing the
        shared encoded arrays of *cache* (a fresh :class:`FitColumnCache`
        over *table* when none is given)."""
        if cache is None:
            cache = FitColumnCache(table, n_bins=self.config.n_bins)
        return cache.dataset_for(class_attr, self.base_attributes_for(class_attr))

    # -- deviation detection ---------------------------------------------------

    def audit(self, table) -> AuditReport:
        """Check every record of *table* for deviations (sec. 5.2).

        The table may be the training table itself (the paper: "a data
        auditing tool should work both when training sets and test data
        are separate and when there is only a single database which serves
        both for training and data audit") or a fresh load — and it may
        be a :class:`~repro.io.columnar.ColumnBatch` instead of a
        row-major :class:`~repro.schema.table.Table`: the check reads
        only the columnar surface, so batches flow straight through
        (byte-identical findings, pinned by the columnar parity suite).

        The check runs batch-first: every classifier receives whole
        encoded column arrays via
        :meth:`~repro.mining.base.AttributeClassifier.predict_batch` and
        the Def.-7 confidences are computed vectorized. Base-attribute
        encoders are deterministic per schema attribute, so each table
        column is encoded once (through a :class:`ColumnCache`) and
        shared across all classifiers that use it instead of being
        rebuilt per class attribute.

        A table that already sits in SQLite can be screened in-database
        instead: :meth:`AuditSession.audit_source
        <repro.core.session.AuditSession.audit_source>` with
        ``engine="sql"`` (``docs/sql_compilation.md``).
        """
        if not self.classifiers:
            raise RuntimeError("auditor is not fitted")
        if table.schema != self.schema:
            raise ValueError("table schema does not match the auditor's schema")
        cache = ColumnCache(table)
        record_confidence = np.zeros(table.n_rows, dtype=float)
        findings: list[Finding] = []
        for class_attr in self.classifiers:
            confidences, attr_findings = self.audit_attribute(class_attr, cache)
            np.maximum(record_confidence, confidences, out=record_confidence)
            findings.extend(attr_findings)
        return AuditReport(
            table.n_rows,
            findings,
            record_confidence.tolist(),
            self.config.min_error_confidence,
            schema=table.schema,
        )

    def audit_attribute(
        self,
        class_attr: str,
        cache: ColumnCache,
        rows: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, list[Finding]]:
        """One class attribute's deviation check.

        Returns the per-record Def.-7 error confidences of this
        classifier (the Def.-8 record confidence is the elementwise
        maximum over all attributes) and the findings at or above the
        configured threshold. Reads only the shared *cache*. *rows*
        gives the table position of each cached row when the cache holds
        a subset of a table (the SQL pushdown's candidate rows); the
        findings then carry those positions.
        """
        classifier = self.classifiers[class_attr]
        dataset = classifier.dataset
        assert dataset is not None
        n_rows = cache.n_rows
        columns = {
            name: cache.encoded(name, dataset.encoders[name])
            for name in dataset.base_attrs
        }
        observed_codes = cache.observed_codes(class_attr, dataset.class_encoder)
        batch = classifier.predict_batch(columns, n_rows=n_rows)
        confidences = error_confidence_batch(
            batch.probabilities, batch.support, observed_codes, self.config.bounds
        )
        findings: list[Finding] = []
        flagged = np.flatnonzero(confidences >= self.config.min_error_confidence)
        if flagged.size == 0:
            return confidences, findings
        labels = dataset.class_encoder.labels
        predicted_codes = np.argmax(batch.probabilities[flagged], axis=1)
        proposals = {
            code: dataset.class_encoder.proposal_for(labels[code])
            for code in set(predicted_codes.tolist())
        }
        local = flagged.tolist()
        positions = local if rows is None else rows[flagged].tolist()
        for row, position, predicted in zip(local, positions, predicted_codes.tolist()):
            findings.append(
                Finding(
                    row=position,
                    attribute=class_attr,
                    observed_label=labels[int(observed_codes[row])],
                    observed_value=cache.observed_value(class_attr, row),
                    predicted_label=labels[predicted],
                    confidence=float(confidences[row]),
                    support=float(batch.support[row]),
                    proposal=proposals[predicted],
                )
            )
        return confidences, findings

    # -- structure model ----------------------------------------------------------

    def structure_model(self) -> dict[str, list[TreeRule]]:
        """The per-attribute rule sets (sec. 5.4): "The rule sets generated
        by all classifiers … build the structure model of the data. In
        database terminology it can be seen as a set of integrity
        constraints that must hold with a given probability."

        Only tree classifiers contribute rules; other classifier types are
        skipped.
        """
        model: dict[str, list[TreeRule]] = {}
        for class_attr, classifier in self.classifiers.items():
            if isinstance(classifier, TreeClassifier):
                model[class_attr] = classifier.rules()
        return model

    def describe_structure(self, max_rules_per_attribute: int = 5) -> str:
        """Human-readable rendering of the structure model."""
        lines: list[str] = []
        for class_attr, rules in self.structure_model().items():
            lines.append(f"classifier for {class_attr}:")
            for rule in rules[:max_rules_per_attribute]:
                dataset = self.classifiers[class_attr].dataset
                assert dataset is not None
                lines.append(f"  {rule.describe(dataset)}")
            if len(rules) > max_rules_per_attribute:
                lines.append(f"  … {len(rules) - max_rules_per_attribute} more rules")
        return "\n".join(lines)
