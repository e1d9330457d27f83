"""Compilation planning and in-database execution of audits.

The pushdown engine runs the whole deviation screen inside SQLite and
re-checks only the returned *candidate* rows in Python, through the
exact code path of the in-memory audit
(:meth:`DataAuditor.audit_attribute
<repro.core.auditor.DataAuditor.audit_attribute>`): raw cells are
converted by the same schema-driven converters the SQLite source uses,
encoded by the fitted encoders, predicted with ``predict_batch``, and
scored with :func:`~repro.mining.confidence.error_confidence_batch`.
Every primitive in that chain is per-row independent, so evaluating the
candidate *subset* yields bitwise the values the full in-memory audit
computes for those rows — all confidences are recomputed Python-side,
never trusted from SQL floats.

One statement screens every audited attribute in a single table scan::

    SELECT * FROM (
      SELECT rowid, dirty, <one flag per attribute>, <columns> FROM (
        SELECT rowid, dirty, <obs per attribute>, <leaf per attribute>,
               <columns> FROM table
      )
    ) WHERE dirty OR flag_1 OR ... OR flag_k ORDER BY rowid

where *dirty* catches any cell whose storage the SQLite reader would
not convert losslessly (those rows must reach the Python converter,
which raises or handles them exactly as an in-memory read would) and
each flag is one attribute's compiled *suspect* screen, a test of its
tree's leaf paired with the row's observed class code. Attribute *a* is
re-checked on the returned rows that are dirty or carry *a*'s flag;
rows its screen certifies clean provably score below the audit
threshold, so dropping them inside the database loses no finding. A
plan splits into more statements only where one would exceed the
dialect's parameter or expression-depth limits, or past SQLite's column
cap; attributes stay in classifier order.

Row positions come from ``rowid``, not from a window function:
``rowid - min(rowid)`` when the rowids are contiguous, else a lookup in
the ordered ``rowid`` column.

The emitted report matches the in-memory
:class:`~repro.core.findings.AuditReport` finding for finding —
same ranked findings, same suspicious-row ranking. The only documented
divergence: per-record confidences of rows *no* classifier flags may be
reported lower than in memory (a screened-out row keeps confidence
0.0), which cannot reorder the suspicious ranking because any
confidence able to overtake a flagged one would itself be at or above
the threshold and therefore flagged.

Only trees compile, because a tree is the only model this system stores
or serves. Anything without a SQL form — any other classifier, an
over-deep tree, an attribute exceeding the parameter cap on its own, a
``WITHOUT ROWID`` table — ends in
:class:`~repro.compile.screen.NotCompilable`, and
:meth:`AuditSession.audit_source
<repro.core.session.AuditSession.audit_source>`, the one caller that
chooses an engine, falls back to the in-memory path with a notice (see
``docs/sql_compilation.md``).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.compile.dialect import SQLITE, SqlDialect
from repro.compile.expressions import SqlBuilder, clean_expr, observed_class_expr
from repro.compile.screen import NotCompilable
from repro.compile.tree import compile_tree
from repro.core.auditor import ColumnCache
from repro.core.findings import AuditReport, Finding
from repro.io.cells import cell_converters, convert_row
from repro.io.sqlite_backend import _from_sql, resolve_table
from repro.mining.tree_classifier import TreeClassifier
from repro.schema.table import Table

__all__ = [
    "ScreenStatement",
    "CompilationPlan",
    "compilation_plan",
    "audit_connection",
]

#: Reserved prefix of every SELECT-list alias the engine introduces;
#: schemas whose attribute names collide with it are not compilable.
ALIAS_PREFIX = "__audit_"

#: Placeholder the quoted table name is spliced into at execution time
#: (statements are planned before a concrete table is known; the
#: control characters cannot appear in a planned statement).
_TABLE_TOKEN = "\x1ftable\x1f"


@dataclass(frozen=True)
class ScreenStatement:
    """One compiled screening query over a run of audited attributes.

    Its rows are ``(rowid, dirty, flag per attribute, cells…)`` for
    every row that is dirty or flagged for any of ``attributes``, in
    ``rowid`` order.
    """

    attributes: tuple[str, ...]
    template: str  # contains _TABLE_TOKEN where the table name goes
    params: tuple

    def sql(self, quoted_table: str) -> str:
        """The executable statement against *quoted_table*."""
        return self.template.replace(_TABLE_TOKEN, quoted_table)


@dataclass(frozen=True)
class CompilationPlan:
    """The outcome of compiling a fitted auditor against a dialect.

    ``compilable`` is all-or-nothing: if any audited attribute lacks a
    SQL form, the whole audit falls back to the in-memory path — a
    hybrid split would make the two engines' reports incomparable.
    """

    dialect: SqlDialect
    statements: tuple[ScreenStatement, ...] = ()
    reasons: dict[str, str] = field(default_factory=dict)

    @property
    def compilable(self) -> bool:
        """Whether every audited attribute compiled."""
        return not self.reasons

    def notice(self) -> Optional[str]:
        """A one-line operator notice when the plan is not compilable
        (``None`` when it is)."""
        if self.compilable:
            return None
        attribute, reason = next(iter(self.reasons.items()))
        shown = reason if attribute == "*" else f"{attribute}: {reason}"
        more = len(self.reasons) - 1
        if more > 0:
            shown += f" (+{more} more)"
        return f"SQL pushdown unavailable ({shown}); auditing in memory"


def compilation_plan(auditor, dialect: SqlDialect = SQLITE) -> CompilationPlan:
    """Compile *auditor*'s fitted classifiers into screening statements.

    Returns a :class:`CompilationPlan`; inspect ``plan.compilable`` /
    ``plan.notice()`` before executing. Attributes are packed into one
    statement in the auditor's classifier order, and a new statement is
    started only when the next attribute would push the current one
    past a dialect limit; the executed audit therefore folds findings in
    the same order as the in-memory loop.
    """
    if not auditor.classifiers:
        raise RuntimeError("auditor is not fitted")
    # a column named rowid would shadow the row identity positions come from
    colliding = [
        name
        for name in auditor.schema.names
        if name.startswith(ALIAS_PREFIX) or name.lower() == "rowid"
    ]
    if colliding:
        return CompilationPlan(
            dialect,
            reasons={
                "*": f"attribute names {colliding!r} collide with rowid or "
                f"the engine's {ALIAS_PREFIX!r} alias prefix"
            },
        )
    statements: list[ScreenStatement] = []
    reasons: dict[str, str] = {}
    pending = _PendingStatement(auditor.schema, dialect)
    for index, (class_attr, classifier) in enumerate(auditor.classifiers.items()):
        # the exact type: a subclass may override predict_batch,
        # which would break the compiled screen's parity
        if type(classifier) is not TreeClassifier:
            reasons[class_attr] = (
                f"{type(classifier).__name__} does not compile to SQL"
            )
            continue
        args = (auditor.config, index, class_attr, classifier)
        try:
            overflow = pending.add(*args)
            if overflow is not None and pending.members:
                statements.append(pending.statement())
                pending = _PendingStatement(auditor.schema, dialect)
                overflow = pending.add(*args)
            if overflow is not None:
                raise NotCompilable(overflow)
        except NotCompilable as exc:
            reasons[class_attr] = str(exc)
    if reasons:
        return CompilationPlan(dialect, reasons=reasons)
    statements.append(pending.statement())
    return CompilationPlan(dialect, statements=tuple(statements))


#: Columns one ``SELECT`` may return (SQLite's ``SQLITE_MAX_COLUMN``).
#: The fused statement's inner ``SELECT`` carries every attribute's
#: aliases, so a wide schema can pass this cap while each attribute
#: alone fits.
_MAX_COLUMNS = 2000


class _PendingStatement:
    """A screening statement being packed: the shared dirty guard plus
    one member per attribute added so far — ``(attribute, observed
    alias, leaf alias, flag alias)``, each alias a ``(name, SQL)``
    pair."""

    def __init__(self, schema, dialect: SqlDialect):
        self.schema = schema
        self.dialect = dialect
        self.builder = SqlBuilder(dialect)
        # the dirty guard spans EVERY schema attribute, not just the
        # classifiers' inputs: an in-memory audit converts the whole
        # table, so a row with any unconvertible cell must reach the
        # Python converter to fail (or convert) identically
        self.dirty_sql = "NOT (" + " AND ".join(
            clean_expr(self.builder, attribute) for attribute in schema.attributes
        ) + ")"
        self.members: list[tuple[str, tuple, tuple, tuple]] = []

    def add(self, config, index, class_attr, classifier) -> Optional[str]:
        """Compile *class_attr*'s tree screen into this statement.

        Returns ``None``, or why the statement cannot take it, in which
        case the statement is left as it was. Raises
        :class:`~repro.compile.screen.NotCompilable` when the tree has
        no SQL form.
        """
        dataset = classifier.dataset
        if dataset is None:
            raise NotCompilable("classifier is not fitted")
        prefix = f"{ALIAS_PREFIX}{index}_"
        quote = self.dialect.quote
        mark = len(self.builder.params)
        try:
            observed = observed_class_expr(
                self.builder, self.schema.attribute(class_attr), dataset.class_encoder
            )
            group, suspect = compile_tree(
                self.builder,
                classifier,
                config,
                quote(prefix + "obs"),
                quote(prefix + "grp"),
            )
        except NotCompilable:
            del self.builder.params[mark:]
            raise
        self.members.append(
            (
                class_attr,
                (prefix + "obs", observed),
                (prefix + "grp", group),
                (prefix + "flag", suspect),
            )
        )
        overflow = self._overflow()
        if overflow is not None:
            self.members.pop()
            del self.builder.params[mark:]
        return overflow

    def _overflow(self) -> Optional[str]:
        dialect = self.dialect
        n_params = len(self.builder.params)
        if n_params > dialect.max_parameters:
            return (
                f"statement needs {n_params} bound parameters, over the "
                f"{dialect.name} cap of {dialect.max_parameters}"
            )
        # the WHERE clause ORs the dirty guard with one flag per attribute
        n_terms = 1 + len(self.members)
        if n_terms > dialect.max_expression_depth:
            return (
                f"statement needs {n_terms} OR terms, over the {dialect.name} "
                f"expression nesting budget of {dialect.max_expression_depth}"
            )
        # the inner SELECT: rowid, dirty, two aliases per attribute,
        # every column
        width = 2 + len(self.schema.names) + 2 * len(self.members)
        if width > _MAX_COLUMNS:
            return (
                f"statement needs {width} result columns, over the "
                f"cap of {_MAX_COLUMNS}"
            )
        return None

    def statement(self) -> ScreenStatement:
        quote = self.dialect.quote

        def defs(aliases: list[tuple[str, str]]) -> str:
            return ", ".join(f"{sql} AS {quote(name)}" for name, sql in aliases)

        cols = ", ".join(quote(name) for name in self.schema.names)
        rowid = quote(ALIAS_PREFIX + "rowid")
        dirty = quote(ALIAS_PREFIX + "dirty")
        aliases = [
            (ALIAS_PREFIX + "rowid", "rowid"),
            (ALIAS_PREFIX + "dirty", self.dirty_sql),
            *(observed for _, observed, _, _ in self.members),
            *(group for _, _, group, _ in self.members),
        ]
        statement = f"SELECT {defs(aliases)}, {cols} FROM {_TABLE_TOKEN}"
        flags = [flag for *_, flag in self.members]
        statement = (
            f"SELECT {rowid}, {dirty}, {defs(flags)}, {cols} FROM ({statement})"
        )
        candidate = " OR ".join([dirty, *(quote(name) for name, _sql in flags)])
        statement = (
            f"SELECT * FROM ({statement}) WHERE {candidate} ORDER BY {rowid}"
        )
        attributes = tuple(attribute for attribute, *_ in self.members)
        return ScreenStatement(attributes, statement, tuple(self.builder.params))


def audit_connection(
    auditor,
    connection: sqlite3.Connection,
    *,
    table: Optional[str] = None,
    plan: Optional[CompilationPlan] = None,
) -> AuditReport:
    """Audit one table of an open SQLite *connection* in-database.

    Without *table* the database must hold exactly one user table; the
    table is resolved, and its columns checked, by the rule (and with
    the error messages) of :class:`~repro.io.SqliteTableSource`.
    Raises :class:`~repro.compile.screen.NotCompilable` when the plan
    (or the engine at runtime — e.g. a ``WITHOUT ROWID`` table, a
    connection with a lower parameter limit) cannot run the pushdown;
    callers fall back to the in-memory path.
    """
    if plan is None:
        plan = compilation_plan(auditor)
    if not plan.compilable:
        raise NotCompilable(plan.notice() or "plan is not compilable")
    if plan.dialect.name != "sqlite":
        raise NotCompilable(
            f"dialect {plan.dialect.name!r} has no execution engine yet"
        )
    database = connection.execute("PRAGMA database_list").fetchone()[2]
    table = resolve_table(connection, auditor.schema, table, database or ":memory:")
    getlimit = getattr(connection, "getlimit", None)
    if getlimit is not None:
        cap = getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
        worst = max((len(s.params) for s in plan.statements), default=0)
        if worst > cap:
            raise NotCompilable(
                f"statement needs {worst} bound parameters, over this "
                f"connection's limit of {cap}"
            )
    quoted = plan.dialect.quote(table)
    names = list(auditor.schema.names)
    converters = cell_converters(auditor.schema, _from_sql)
    try:
        n_rows = connection.execute(f"SELECT COUNT(*) FROM {quoted}").fetchone()[0]
        positions_of = _rowid_positions(connection, quoted, n_rows)
        record_confidence = np.zeros(n_rows, dtype=float)
        findings: list[Finding] = []
        for statement in plan.statements:
            rows = connection.execute(
                statement.sql(quoted), statement.params
            ).fetchall()
            findings.extend(
                _recheck_screen(
                    auditor,
                    statement,
                    rows,
                    positions_of,
                    converters,
                    names,
                    record_confidence,
                )
            )
    except sqlite3.OperationalError as exc:
        # e.g. a WITHOUT ROWID table has no rowid — fall back cleanly
        raise NotCompilable(f"SQL pushdown failed at runtime: {exc}") from exc
    return AuditReport(
        n_rows,
        findings,
        record_confidence.tolist(),
        auditor.config.min_error_confidence,
        schema=auditor.schema,
    )


def _rowid_positions(
    connection: sqlite3.Connection, quoted: str, n_rows: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The map from rowids to 0-based positions in ``rowid`` order.

    ``MIN`` and ``MAX`` run as two queries: each alone is one b-tree
    lookup, while a ``SELECT`` holding both scans the whole table.
    """
    if n_rows == 0:
        return lambda rowids: rowids
    (low,) = connection.execute(f"SELECT MIN(rowid) FROM {quoted}").fetchone()
    (high,) = connection.execute(f"SELECT MAX(rowid) FROM {quoted}").fetchone()
    if high - low + 1 == n_rows:  # no gaps: positions are offsets
        return lambda rowids: rowids - low
    ordered = np.fromiter(
        (
            rowid
            for (rowid,) in connection.execute(
                f"SELECT rowid FROM {quoted} ORDER BY rowid"
            )
        ),
        dtype=np.int64,
        count=n_rows,
    )
    return lambda rowids: np.searchsorted(ordered, rowids)


def _recheck_screen(
    auditor,
    statement: ScreenStatement,
    rows: list,
    positions_of,
    converters,
    names,
    record_confidence: np.ndarray,
) -> list[Finding]:
    """Re-audit the rows one screening statement returned.

    Each row is converted once, in row order. Only dirty rows can fail
    conversion and every statement returns all of them, so the first
    failure is the one a sequential extract raises, with the same row
    label. Attribute *a* is then re-checked on exactly its candidates
    (the rows that are dirty or carry *a*'s flag) by
    :meth:`DataAuditor.audit_attribute
    <repro.core.auditor.DataAuditor.audit_attribute>` itself, with the
    candidates' table positions as the findings' rows.
    """
    first_cell = 2 + len(statement.attributes)
    positions = positions_of(
        np.fromiter((row[0] for row in rows), dtype=np.int64, count=len(rows))
    )
    converted = [
        convert_row(f"row {position + 1}", row[first_cell:], converters, names)
        for position, row in zip(positions.tolist(), rows)
    ]
    findings: list[Finding] = []
    for flag, class_attr in enumerate(statement.attributes, start=2):
        picked = [i for i, row in enumerate(rows) if row[1] or row[flag]]
        if not picked:
            continue
        candidate_rows = positions[picked]
        cache = ColumnCache(
            Table.adopt(auditor.schema, [converted[i] for i in picked])
        )
        confidences, attr_findings = auditor.audit_attribute(
            class_attr, cache, rows=candidate_rows
        )
        record_confidence[candidate_rows] = np.maximum(
            record_confidence[candidate_rows], confidences
        )
        findings.extend(attr_findings)
    return findings
