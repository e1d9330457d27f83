"""Relational substrate: attribute kinds, domains, schemas, tables.

(Reading and writing tables — CSV, JSONL, SQLite, Parquet — is the
storage layer's job, :mod:`repro.io`.)
"""

from repro.schema.attribute import Attribute, date, nominal, numeric, text
from repro.schema.domain import DateDomain, Domain, NominalDomain, NumericDomain, TextDomain
from repro.schema.schema import Schema
from repro.schema.table import Row, Table
from repro.schema.types import NULL, AttributeKind, Value, is_null

__all__ = [
    "AttributeKind",
    "Value",
    "NULL",
    "is_null",
    "Domain",
    "NominalDomain",
    "NumericDomain",
    "DateDomain",
    "TextDomain",
    "Attribute",
    "nominal",
    "numeric",
    "date",
    "text",
    "Schema",
    "Table",
    "Row",
]
