"""SQL dialect descriptors for the model compiler.

The compiler (:mod:`repro.compile`) emits one deviation-screening query
for all audited attributes, split only where a statement would exceed
the dialect's limits. Everything dialect-specific — identifier quoting,
parameter placeholders, those limits — is routed through a
:class:`SqlDialect` so that DuckDB or PostgreSQL backends can slot in
later by providing another instance; today only :data:`SQLITE` is
implemented and executable.

Parameters are always *bound*, never inlined as text: a bound ``float``
arrives in the engine as the exact IEEE double Python holds, which the
byte-parity contract of :mod:`repro.compile.engine` depends on
(``docs/sql_compilation.md``). Placeholders are numbered (``?3``) so a
query can be assembled from fragments built in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SqlDialect", "SQLITE"]


@dataclass(frozen=True)
class SqlDialect:
    """Descriptor of one SQL target.

    Attributes
    ----------
    name:
        Registry key (``"sqlite"``); the execution engine refuses
        dialects it cannot run.
    max_parameters:
        Upper bound on bound parameters per statement. Attributes are
        packed into one statement up to this cap; compilation fails
        over to the in-memory path when one attribute alone needs more.
    max_expression_depth:
        Upper bound on expression-tree nesting (deep decision trees
        compile to deeply nested ``CASE`` expressions, and a statement's
        ``OR`` over its attributes' flags nests once per attribute).
    """

    name: str
    max_parameters: int = 32766
    max_expression_depth: int = 900

    def quote(self, identifier: str) -> str:
        """Quote *identifier* for use as a column or table name."""
        return '"' + identifier.replace('"', '""') + '"'

    def placeholder(self, index: int) -> str:
        """The 1-based numbered parameter placeholder (``?3``)."""
        return f"?{index}"


#: The one executable dialect: the stdlib ``sqlite3`` backend.
SQLITE = SqlDialect(name="sqlite")
