"""Shared SQL expression builders for the model compiler.

Every compiled screen (:mod:`repro.compile.tree`) is assembled from the
same small vocabulary of expressions over one table row:

* **storage-cleanliness guards** (:func:`clean_expr`) — a cell is
  *clean* when its SQLite storage class is exactly what
  :class:`repro.io.sqlite_backend.SqliteTableSource` would convert
  without information loss: ``TEXT`` for nominal cells, strictly
  ISO-formatted ``TEXT`` for dates, and finite ``REAL`` (integral in
  an integer domain) / small ``INTEGER`` (``|v| ≤ 2⁵³``, exactly
  representable as a double) for numerics. Anything else — blobs, out-of-range integers, the text
  form of a >64-bit integer, a malformed date — is routed to the
  Python re-check, which converts it through the *same* code path as
  an in-memory read and therefore deviates (or errors) identically;
* **class-code expressions** (:func:`observed_class_expr`) — the
  observed cell's :class:`~repro.mining.dataset.ClassEncoder` label
  code, computed in SQL for clean storage;
* **ordered comparisons** (:func:`value_ge_expr`, :func:`value_le_expr`)
  — numeric-view comparisons against the class discretizer's cut
  points and the trees' split thresholds. Numeric constants are bound
  as parameters (exact doubles); date-ordinal comparisons are
  rewritten to lexicographic ISO-string comparisons, which order
  identically for the guarded ``YYYY-MM-DD`` shape.

All expressions assume the clean guard is checked *independently* by
the caller: on unclean storage their value is irrelevant because the
row is already a candidate.
"""

from __future__ import annotations

import datetime
import math
from typing import Sequence

from repro.compile.dialect import SqlDialect
from repro.mining.dataset import ClassEncoder
from repro.schema.attribute import Attribute
from repro.schema.types import AttributeKind

__all__ = [
    "SqlBuilder",
    "clean_expr",
    "observed_class_expr",
    "cut_count_expr",
    "value_ge_expr",
    "value_le_expr",
]

#: Largest integer exactly representable as an IEEE double (2**53): the
#: SQL-side comparisons certify rows via double arithmetic, so INTEGER
#: storage beyond it must take the Python re-check path instead.
_EXACT_INT = 2**53

#: Largest finite double — REAL storage outside it (``9e999`` infinities)
#: is unclean and re-checked in Python, where conversion rejects it with
#: the same error an in-memory read raises.
_MAX_REAL = 1.7976931348623157e308

_MIN_ORDINAL = datetime.date.min.toordinal()  # 0001-01-01 → 1
_MAX_ORDINAL = datetime.date.max.toordinal()  # 9999-12-31


class SqlBuilder:
    """Accumulator of one query's bound parameters.

    ``bind`` hands out numbered placeholders (``?7``), so expression
    fragments may be composed into the final statement in any textual
    order without disturbing parameter association.
    """

    def __init__(self, dialect: SqlDialect):
        self.dialect = dialect
        self.params: list[object] = []

    def bind(self, value: object) -> str:
        """Bind *value*; returns its numbered placeholder."""
        self.params.append(value)
        return self.dialect.placeholder(len(self.params))

    def col(self, name: str) -> str:
        """The quoted column reference for attribute *name*."""
        return self.dialect.quote(name)


def clean_expr(builder: SqlBuilder, attribute: Attribute) -> str:
    """Boolean SQL: the cell's storage is losslessly convertible.

    ``NULL`` counts as clean (it converts to ``None`` everywhere).
    """
    col = builder.col(attribute.name)
    if attribute.kind is AttributeKind.NOMINAL:
        return f"({col} IS NULL OR typeof({col}) = 'text')"
    if attribute.kind is AttributeKind.DATE:
        # Exactly the strings date.fromisoformat() accepts and SQLite's
        # date() normalizes to themselves: zero-padded YYYY-MM-DD with a
        # valid calendar day in year >= 1 (SQLite accepts year 0000,
        # Python does not, hence the lower bound).
        return (
            f"({col} IS NULL OR (typeof({col}) = 'text'"
            f" AND {col} GLOB '[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]'"
            f" AND date({col}) IS NOT NULL AND {col} = date({col})"
            f" AND {col} >= '0001-01-01'))"
        )
    # numeric: finite REAL, or INTEGER small enough that the encoder's
    # float() view is exact (BETWEEN instead of abs() — abs() overflows
    # on INT64_MIN); an integer domain takes only integral REALs, as
    # coerce_number does (round() returns an integral double unchanged)
    integral = (
        f" AND round({col}) = {col}"
        if getattr(attribute.domain, "integer", False)
        else ""
    )
    return (
        f"({col} IS NULL"
        f" OR (typeof({col}) = 'real'"
        f" AND {col} BETWEEN {builder.bind(-_MAX_REAL)} AND {builder.bind(_MAX_REAL)}"
        f"{integral})"
        f" OR (typeof({col}) = 'integer'"
        f" AND {col} BETWEEN -{_EXACT_INT} AND {_EXACT_INT}))"
    )


def value_ge_expr(builder: SqlBuilder, attribute: Attribute, cut: float) -> str:
    """Boolean SQL for ``numeric_view(col) >= cut`` on a clean, non-null
    ordered cell."""
    col = builder.col(attribute.name)
    if attribute.kind is AttributeKind.DATE:
        # integral ordinals: v >= cut  ⇔  v >= ceil(cut); ISO strings of
        # the guarded shape compare lexicographically in date order
        ordinal = math.ceil(cut)
        if ordinal <= _MIN_ORDINAL:
            return "1"
        if ordinal > _MAX_ORDINAL:
            return "0"
        iso = datetime.date.fromordinal(ordinal).isoformat()
        return f"{col} >= {builder.bind(iso)}"
    return f"{col} >= {builder.bind(float(cut))}"


def value_le_expr(builder: SqlBuilder, attribute: Attribute, threshold: float) -> str:
    """Boolean SQL for ``numeric_view(col) <= threshold`` (decision-tree
    numeric splits) on a clean, non-null ordered cell."""
    col = builder.col(attribute.name)
    if attribute.kind is AttributeKind.DATE:
        ordinal = math.floor(threshold)
        if ordinal < _MIN_ORDINAL:
            return "0"
        if ordinal >= _MAX_ORDINAL:
            return "1"
        iso = datetime.date.fromordinal(ordinal).isoformat()
        return f"{col} <= {builder.bind(iso)}"
    return f"{col} <= {builder.bind(float(threshold))}"


def cut_count_expr(
    builder: SqlBuilder, attribute: Attribute, cuts: Sequence[float]
) -> str:
    """Integer SQL: how many of *cuts* are ``<= numeric_view(col)`` — the
    :meth:`~repro.mining.discretize.EqualFrequencyDiscretizer.transform_value`
    bin index of a clean, non-null ordered cell."""
    if not cuts:
        return "0"
    terms = " + ".join(
        f"(CASE WHEN {value_ge_expr(builder, attribute, cut)} THEN 1 ELSE 0 END)"
        for cut in cuts
    )
    return f"({terms})"


def observed_class_expr(
    builder: SqlBuilder, attribute: Attribute, class_encoder: ClassEncoder
) -> str:
    """Integer SQL: the observed cell's class-label code on clean storage
    — exactly :meth:`~repro.mining.dataset.ClassEncoder.encode_column`
    restricted to convertible cells."""
    col = builder.col(attribute.name)
    null_code = class_encoder.null_code
    if attribute.kind is AttributeKind.NOMINAL:
        arms = "".join(
            f" WHEN {col} = {builder.bind(value)}"
            f" THEN {class_encoder.index_of_label(value)}"
            for value in attribute.domain.values  # type: ignore[attr-defined]
        )
        return (
            f"CASE WHEN {col} IS NULL THEN {null_code}{arms}"
            f" ELSE {class_encoder.unknown_code} END"
        )
    discretizer = class_encoder.discretizer
    if discretizer is None:
        # no finite training values: every non-null cell is <unknown>
        return (
            f"CASE WHEN {col} IS NULL THEN {null_code}"
            f" ELSE {class_encoder.unknown_code} END"
        )
    bins = cut_count_expr(builder, attribute, discretizer.cut_points)
    return f"CASE WHEN {col} IS NULL THEN {null_code} ELSE {bins} END"

