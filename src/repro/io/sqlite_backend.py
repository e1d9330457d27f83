"""SQLite backend: audit records directly out of a warehouse table.

The paper's tool checks records where they live; with this backend an
``AuditSession`` reads a SQLite warehouse table in chunked ``fetchmany``
batches (bounded memory, like the CSV stream) and the pipeline's sinks
can land generated / polluted / findings tables back in the database.

Locations
---------
Either a database path (``warehouse.db``, ``data.sqlite``) or a URI
selecting the table explicitly::

    sqlite:///relative/path.db?table=records
    sqlite:////absolute/path.db?table=records

Without ``table=``, a source requires the database to contain exactly
one user table (the unambiguous case); a sink defaults to ``data``.

Schema-driven type mapping
--------------------------
Declared column types follow the attribute kinds — ``TEXT`` for nominal
and date (ISO-8601) attributes — but **numeric columns are declared
without a type** on purpose: SQLite's type affinity would otherwise
rewrite values (``INTEGER`` affinity turns the TEXT form of a >64-bit
integer into a lossy ``REAL``; ``REAL`` affinity forces ints to
floats), while a typeless column has BLOB affinity and stores every
value exactly as bound. Integers beyond SQLite's 64-bit range are bound
as their canonical text form and parsed back through the schema, so
round trips are loss-free for admissible tables. Reads reject
non-finite floats and mistyped cells with errors naming row and
attribute.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qsl, urlsplit

from repro.errors import InputError
from repro.io.base import TableSink, TableSource
from repro.io.cells import cell_converters, coerce_number, parse_number
from repro.io.columnar import ColumnBatch, columns_from_rows, native_bulk
from repro.schema.attribute import Attribute
from repro.schema.schema import Schema
from repro.schema.types import AttributeKind, Value
import datetime

__all__ = [
    "SqliteTableSource",
    "SqliteTableSink",
    "parse_sqlite_url",
    "DEFAULT_TABLE",
]

DEFAULT_TABLE = "data"

#: SQLite INTEGER storage is a signed 64-bit word; ints beyond it are
#: bound as text and parsed back through the schema.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: SQLite's names for a row's id; a declared column of the same name, in
#: any letter case, shadows that name
_ROWID_ALIASES = ("rowid", "_rowid_", "oid")


def parse_sqlite_url(url: str) -> tuple[str, dict[str, str]]:
    """Split ``sqlite:///path?table=name`` into (database path, options).

    Three slashes give a relative path, four an absolute one (the
    SQLAlchemy convention). The only recognized query option is
    ``table``.
    """
    parts = urlsplit(url)
    if parts.scheme != "sqlite":
        raise InputError(f"not a sqlite URL: {url!r}")
    path = parts.path
    if parts.netloc:  # sqlite://host/… has no meaning for a file database
        raise InputError(
            f"sqlite URL {url!r} names a network location; "
            f"use sqlite:///relative.db or sqlite:////absolute.db"
        )
    if path.startswith("/") and not path.startswith("//"):
        path = path[1:]  # sqlite:///rel.db → rel.db
    elif path.startswith("//"):
        path = path[1:]  # sqlite:////abs.db → /abs.db
    options = dict(parse_qsl(parts.query))
    unknown = set(options) - {"table"}
    if unknown:
        raise InputError(f"unknown sqlite URL option(s): {sorted(unknown)!r}")
    if not path:
        raise InputError(f"sqlite URL {url!r} names no database file")
    return path, options


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _user_tables(connection: sqlite3.Connection) -> list[str]:
    rows = connection.execute(
        "SELECT name FROM sqlite_master "
        "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
    ).fetchall()
    return [name for (name,) in rows]


def _column_names(connection: sqlite3.Connection, table: str) -> list[str]:
    return [
        row[1] for row in connection.execute(f"PRAGMA table_info({_quote(table)})")
    ]


def rowid_alias(connection: sqlite3.Connection, table: str) -> Optional[str]:
    """The first of SQLite's row-id names that no column of *table*
    shadows, or ``None`` when the table has no row id to select: its
    columns take all three names, or it is a ``WITHOUT ROWID`` table."""
    shadowed = {name.lower() for name in _column_names(connection, table)}
    rowid = next((name for name in _ROWID_ALIASES if name not in shadowed), None)
    if rowid is None:
        return None
    try:
        connection.execute(f"SELECT {rowid} FROM {_quote(table)} LIMIT 0")
    except sqlite3.OperationalError:  # WITHOUT ROWID
        return None
    return rowid


def resolve_table(
    connection: sqlite3.Connection,
    schema: Schema,
    table: Optional[str],
    database: Union[str, Path],
) -> str:
    """The table of *database* that holds *schema*'s relation.

    *table* names it; without one the database must hold exactly one
    user table. Its columns must be the schema's attributes. The one
    rule behind the source, the tail reader and the SQL pushdown. A
    file that is not a SQLite database raises
    :class:`~repro.errors.InputError` too.
    """
    try:
        if table is None:
            tables = _user_tables(connection)
            if len(tables) != 1:
                raise InputError(
                    f"{database} holds {len(tables)} tables "
                    f"({tables!r}); select one with "
                    f"'sqlite:///{database}?table=NAME'"
                )
            table = tables[0]
        columns = _column_names(connection, table)
    except sqlite3.DatabaseError as exc:
        raise InputError(f"cannot read SQLite database {database}: {exc}") from exc
    if not columns:
        raise InputError(f"{database} has no table named {table!r}")
    if set(columns) != set(schema.names):
        raise InputError(
            f"columns of table {table!r} {columns!r} do not match "
            f"schema attributes {list(schema.names)!r}"
        )
    return table


def _to_sql(value: Value) -> object:
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, int) and not (_INT64_MIN <= value <= _INT64_MAX):
        return str(value)
    return value


def _from_sql(raw: object, kind: AttributeKind, integer: bool) -> Value:
    if raw is None:
        return None
    if kind is AttributeKind.NOMINAL:
        if not isinstance(raw, str):
            raise ValueError(f"expected text for a nominal cell, got {raw!r}")
        return raw
    if kind is AttributeKind.DATE:
        if not isinstance(raw, str):
            raise ValueError(f"expected an ISO date string, got {raw!r}")
        return datetime.date.fromisoformat(raw)
    if isinstance(raw, str):  # the >64-bit integer text form
        return parse_number(raw, integer)
    if isinstance(raw, (int, float)):
        return coerce_number(raw, integer)
    raise ValueError(f"expected a number for a numeric cell, got {raw!r}")


class SqliteTableSource(TableSource):
    """Chunked ``fetchmany`` reader over one SQLite table.

    Rows are streamed in row-id order, so auditing a table loaded from a
    CSV export visits records in exactly the export's order — the
    bit-identity bridge between ``--input warehouse.db`` and
    ``--input export.csv``. The order uses the first row-id name no
    attribute shadows (:func:`rowid_alias`); a table without a row id to
    select — a ``WITHOUT ROWID`` table, or one whose attributes shadow
    all three names — is read in scan order.

    Each ``fetchmany`` batch converts column-at-a-time straight off the
    driver's row tuples, which the SELECT already puts in schema order;
    text and integer columns are taken as fetched.

    ``connection`` and ``table`` name what the source reads; the SQL
    pushdown screens ``table`` over the same ``connection``.
    """

    def __init__(
        self,
        schema: Schema,
        database: Union[str, Path],
        *,
        table: Optional[str] = None,
    ):
        super().__init__(schema)
        path = Path(database)
        if not path.exists():
            raise FileNotFoundError(f"no such SQLite database: {database}")
        self.connection = sqlite3.connect(path)
        try:
            self.table = resolve_table(self.connection, schema, table, database)
        except Exception:
            self.close()
            raise

    def _execute_select(self) -> sqlite3.Cursor:
        select = "SELECT {} FROM {}".format(
            ", ".join(_quote(name) for name in self.schema.names),
            _quote(self.table),
        )
        rowid = rowid_alias(self.connection, self.table)
        if rowid is None:
            return self.connection.execute(select)
        return self.connection.execute(f"{select} ORDER BY {rowid}")

    def _iter_column_batches(self, batch_size: int):
        names = self.schema.names
        converters = cell_converters(self.schema, _from_sql)
        bulk = native_bulk(self.schema)
        cursor = self._execute_select()
        row_no = 0
        while True:
            batch = cursor.fetchmany(batch_size)
            if not batch:
                return
            cols = columns_from_rows(
                batch,
                range(row_no + 1, row_no + 1 + len(batch)),
                label="row",
                names=names,
                converters=converters,
                bulk=bulk,
            )
            row_no += len(batch)
            yield ColumnBatch(self.schema, dict(zip(names, cols)), len(batch))

    def close(self) -> None:
        self.connection.close()


class SqliteTableSink(TableSink):
    """Writer landing a table in a SQLite database.

    ``if_exists`` decides what happens when the target table is already
    present: ``"replace"`` (default) drops and recreates it, ``"fail"``
    raises, ``"append"`` keeps it and adds rows.
    """

    def __init__(
        self,
        schema: Schema,
        database: Union[str, Path],
        *,
        table: Optional[str] = None,
        if_exists: str = "replace",
    ):
        super().__init__(schema)
        if if_exists not in ("replace", "fail", "append"):
            raise ValueError(
                f"if_exists must be 'replace', 'fail' or 'append', got {if_exists!r}"
            )
        self.table = table or DEFAULT_TABLE
        self.if_exists = if_exists
        # autocommit off, transactions managed explicitly: the DDL and
        # every chunk ride one transaction, so a failed write rolls back
        # whole — Python's sqlite3 would otherwise autocommit DDL and a
        # dying replace-write would destroy the pre-existing table
        try:
            self._connection = sqlite3.connect(database, isolation_level=None)
        except sqlite3.OperationalError as exc:  # e.g. a missing directory
            raise OSError(f"cannot open SQLite database {database}: {exc}") from exc
        self._insert = "INSERT INTO {} ({}) VALUES ({})".format(
            _quote(self.table),
            ", ".join(_quote(name) for name in schema.names),
            ", ".join("?" for _ in schema.names),
        )

    @staticmethod
    def _column_decl(attribute: Attribute) -> str:
        # Nominal and date attributes are TEXT; numeric columns carry no
        # declared type so they keep BLOB affinity — INTEGER affinity
        # would degrade >64-bit integer text to lossy REAL and REAL
        # affinity would force ints to floats (see the module docstring).
        if attribute.kind in (AttributeKind.NOMINAL, AttributeKind.DATE):
            return f"{_quote(attribute.name)} TEXT"
        return _quote(attribute.name)

    def _write_header(self) -> None:
        self._connection.execute("BEGIN")
        existing = self.table in _user_tables(self._connection)
        if existing and self.if_exists == "fail":
            raise ValueError(
                f"table {self.table!r} already exists (pass if_exists='replace' "
                f"or 'append' to overwrite or extend it)"
            )
        if existing and self.if_exists == "replace":
            self._connection.execute(f"DROP TABLE {_quote(self.table)}")
            existing = False
        if not existing:
            decls = ", ".join(
                self._column_decl(attribute) for attribute in self.schema.attributes
            )
            self._connection.execute(f"CREATE TABLE {_quote(self.table)} ({decls})")

    def _write_rows(self, rows: list[list[Value]]) -> None:
        self._connection.executemany(
            self._insert, ([_to_sql(value) for value in row] for row in rows)
        )

    def close(self) -> None:
        try:
            self._connection.commit()
        except sqlite3.ProgrammingError:  # already closed
            return
        self._connection.close()

    def abort(self) -> None:
        # DDL is transactional in SQLite, so rolling back restores even a
        # dropped pre-existing table — a failed write leaves the
        # warehouse exactly as it was
        try:
            self._connection.rollback()
        except sqlite3.ProgrammingError:  # already closed
            return
        self._connection.close()
