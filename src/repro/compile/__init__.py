"""Model → SQL compilation: push deviation detection into the database.

The audit pipeline normally extracts every row out of the warehouse and
streams it through Python. This package instead compiles the *fitted*
models into SQL — trees path-by-path into nested ``CASE`` routing, 1R
and PRISM rules into disjunctive bucket conditions, naive Bayes into
arithmetic log-posterior scoring — and fuses them into one
deviation-screening query that runs entirely inside SQLite in a single
table scan, with one flag column per audited attribute. Only the rows
the screens cannot certify clean come back to Python, where they
are re-audited through the unmodified in-memory code path, so the
resulting :class:`~repro.core.findings.AuditReport` matches the
in-memory engine finding for finding (the contract, its per-family SQL
shapes, and the one documented divergence are specified in
``docs/sql_compilation.md``).

Entry points
------------
* :func:`compilation_plan` — compile a fitted auditor; inspect
  ``plan.compilable`` / ``plan.notice()`` for the fallback decision.
* :func:`audit_connection` — run the pushdown audit against one table
  of an open connection.
* :class:`NotCompilable` — raised wherever a model, schema, or engine
  has no SQL form.

Which engine runs is decided in one place,
:meth:`AuditSession.audit_source
<repro.core.session.AuditSession.audit_source>` with ``engine="sql"``:
it pushes down when its source is a SQLite table and the plan compiles,
and otherwise audits in memory with a one-line notice.

Dialects are descriptor-driven (:class:`SqlDialect`); only
:data:`~repro.compile.dialect.SQLITE` is executable today, but the
emitted SQL keeps identifier quoting, placeholders, and limits behind
the descriptor so DuckDB/Postgres can slot in later.
"""

from repro.compile.dialect import SQLITE, SqlDialect
from repro.compile.engine import (
    ALIAS_PREFIX,
    CompilationPlan,
    ScreenStatement,
    audit_connection,
    compilation_plan,
)
from repro.compile.screen import FamilyScreen, NotCompilable

__all__ = [
    "SqlDialect",
    "SQLITE",
    "ALIAS_PREFIX",
    "ScreenStatement",
    "CompilationPlan",
    "FamilyScreen",
    "NotCompilable",
    "compilation_plan",
    "audit_connection",
]
