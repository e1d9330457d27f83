"""JSON-compatible (de)serialization of schemas.

Needed for the asynchronous-auditing workflow (paper sec. 2.2): the
structure model induced offline is persisted together with the schema it
was induced for, and the online deviation-detection step reloads both.
A document that is not a schema raises :class:`~repro.errors.InputError`.
"""

from __future__ import annotations

import datetime
from typing import Any, Mapping

from repro.errors import decoding
from repro.schema.attribute import Attribute
from repro.schema.domain import DateDomain, Domain, NominalDomain, NumericDomain, TextDomain
from repro.schema.schema import Schema

__all__ = ["schema_to_dict", "schema_from_dict", "domain_to_dict", "domain_from_dict"]


def domain_to_dict(domain: Domain) -> dict[str, Any]:
    """Serialize one domain to plain JSON types."""
    if isinstance(domain, NominalDomain):
        return {"kind": "nominal", "values": list(domain.values)}
    if isinstance(domain, NumericDomain):
        return {
            "kind": "numeric",
            "low": domain.low,
            "high": domain.high,
            "integer": domain.integer,
        }
    if isinstance(domain, DateDomain):
        return {
            "kind": "date",
            "start": domain.start.isoformat(),
            "end": domain.end.isoformat(),
        }
    if isinstance(domain, TextDomain):
        return {"kind": "text"}
    raise TypeError(f"unsupported domain type: {type(domain).__name__}")


def domain_from_dict(payload: Mapping[str, Any]) -> Domain:
    """Inverse of :func:`domain_to_dict`."""
    kind = payload.get("kind")
    if kind == "nominal":
        return NominalDomain(payload["values"])
    if kind == "numeric":
        return NumericDomain(
            payload["low"], payload["high"], integer=bool(payload.get("integer", False))
        )
    if kind == "date":
        return DateDomain(
            datetime.date.fromisoformat(payload["start"]),
            datetime.date.fromisoformat(payload["end"]),
        )
    if kind == "text":
        return TextDomain()
    raise ValueError(f"unknown domain kind: {kind!r}")


def schema_to_dict(schema: Schema) -> dict[str, Any]:
    """Serialize a schema to plain JSON types."""
    return {
        "attributes": [
            {
                "name": attribute.name,
                "nullable": attribute.nullable,
                "domain": domain_to_dict(attribute.domain),
            }
            for attribute in schema.attributes
        ]
    }


def schema_from_dict(payload: Mapping[str, Any]) -> Schema:
    """Inverse of :func:`schema_to_dict`; a document it cannot decode
    raises :class:`~repro.errors.InputError` (``"invalid schema: …"``)."""
    with decoding("invalid schema"):
        return Schema(
            [
                Attribute(
                    entry["name"],
                    domain_from_dict(entry["domain"]),
                    nullable=bool(entry.get("nullable", True)),
                )
                for entry in payload["attributes"]
            ]
        )
