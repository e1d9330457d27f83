"""Schema-driven cell rendering and parsing shared by the backends.

One pair of primitives defines the loss-free text form of every cell —
the CSV backend uses both directions, the SQLite and JSONL backends
reuse the pieces that apply to them (date parsing, big-integer text
round-trips, the non-finite rejection):

* nominal — the raw string,
* numeric — ``str`` of an int / ``repr`` of a float (exact round trip),
* date — ISO format (``YYYY-MM-DD``),
* null — a configurable marker (default: empty field).

``nan`` / ``inf`` spellings are rejected here, at the parse site:
non-finite floats are not admissible cell values (no
:class:`~repro.schema.domain.NumericDomain` contains them), and
``float("nan")`` slipping through would only be caught much later, far
from the offending row. Backends wrap the :class:`ValueError` with the
row and attribute context (:func:`cell_context`).
"""

from __future__ import annotations

import datetime
import math

from repro.schema.types import AttributeKind, Value

__all__ = [
    "DEFAULT_NULL_MARKER",
    "render_cell",
    "parse_cell",
    "parse_number",
    "coerce_number",
    "check_finite",
    "cell_context",
    "convert_row",
    "cell_converters",
]

DEFAULT_NULL_MARKER = ""


def render_cell(value: Value, kind: AttributeKind, null_marker: str = DEFAULT_NULL_MARKER) -> str:
    """Render one cell to its canonical text form."""
    if value is None:
        return null_marker
    if kind is AttributeKind.DATE:
        return value.isoformat()  # type: ignore[union-attr]
    if kind is AttributeKind.NUMERIC:
        if isinstance(value, int):
            return str(value)
        return repr(float(value))
    return str(value)


def check_finite(number: float, text: object = None) -> float:
    """Reject non-finite numerics with a :class:`ValueError` at the source."""
    if not math.isfinite(number):
        shown = number if text is None else text
        raise ValueError(
            f"non-finite numeric value {shown!r} "
            f"(nan/inf are not admissible cell values)"
        )
    return number


def parse_number(text: str, integer: bool) -> Value:
    """Parse the text form of a numeric cell (exact for ints of any size)."""
    if integer:
        return int(text)
    number = check_finite(float(text), text)
    if number.is_integer() and "." not in text and "e" not in text.lower():
        return int(text)
    return number


def coerce_number(value: float, integer: bool) -> Value:
    """Validate an already-typed numeric cell (SQLite/JSONL read side).

    Mirrors the strictness of :func:`parse_number`: non-finite floats are
    rejected everywhere, and a non-integral float can never belong to an
    integer domain (integral floats pass — the domain admits them).
    """
    if isinstance(value, float):
        check_finite(value)
        if integer and not value.is_integer():
            raise ValueError(
                f"expected an integer for an integer-domain cell, got {value!r}"
            )
    return value


def parse_cell(
    text: str, kind: AttributeKind, null_marker: str, integer: bool
) -> Value:
    """Inverse of :func:`render_cell`, schema-driven."""
    if text == null_marker:
        return None
    if kind is AttributeKind.NOMINAL:
        return text
    if kind is AttributeKind.DATE:
        return datetime.date.fromisoformat(text)
    return parse_number(text, integer)


def cell_context(row_label: str, attribute: str, exc: Exception) -> ValueError:
    """A :class:`ValueError` naming the offending row and attribute."""
    return ValueError(f"{row_label}, attribute {attribute!r}: {exc}")


def cell_converters(schema, convert) -> list:
    """One single-argument converter per attribute of *schema*, each
    calling ``convert(raw, kind, integer)`` with the attribute's kind and
    integer flag bound (a backend's per-cell coercion)."""
    return [
        lambda raw, kind=a.kind, integer=getattr(a.domain, "integer", False): (
            convert(raw, kind, integer)
        )
        for a in schema.attributes
    ]


def convert_row(row_label: str, raw_cells, converters, names) -> list:
    """Convert one row of raw cells, localizing failures.

    The happy path is a bare comprehension (no per-cell try/except
    cost); only when a cell fails is the row re-walked to name the
    offending attribute in the error. Shared by every backend's read
    side so cell errors look the same regardless of storage format.
    """
    try:
        return [convert(raw) for convert, raw in zip(converters, raw_cells)]
    except ValueError:
        for convert, raw, name in zip(converters, raw_cells, names):
            try:
                convert(raw)
            except ValueError as exc:
                raise cell_context(row_label, name, exc) from None
        raise  # pragma: no cover - comprehension failed, cells did not
