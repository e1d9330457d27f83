"""Basic value types for the relational substrate.

The paper's target relations contain *nominal*, *numeric*, and *date*
attributes (sec. 3.2: "The majority of QUIS attributes are of nominal type,
furthermore there are a number of attributes of numerical or date type").
Null values are first-class citizens: the TDG logic (sec. 4.1) includes
``isnull`` / ``isnotnull`` atoms and the C4.5 adaptation handles missing
values, so the substrate must carry them everywhere.

Values are represented by plain Python objects:

* nominal values are ``str``,
* numeric values are ``int`` or ``float``,
* date values are :class:`datetime.date`,
* null is ``None``.
"""

from __future__ import annotations

import datetime
import enum
from typing import Union

__all__ = [
    "AttributeKind",
    "Value",
    "NULL",
    "is_null",
]


class AttributeKind(enum.Enum):
    """The three attribute kinds the paper's tooling distinguishes."""

    NOMINAL = "nominal"
    NUMERIC = "numeric"
    DATE = "date"

    @property
    def is_ordered(self) -> bool:
        """Whether values of this kind support ``<`` / ``>`` comparisons.

        Ordering atoms (``N < n`` etc.) are only defined for numerical
        attributes in Def. 1; we extend them to dates, which the paper
        treats as ordered values as well (production-date dependencies in
        the QUIS case study).
        """
        return self is not AttributeKind.NOMINAL


#: A cell value as stored in a :class:`repro.schema.Table`.
Value = Union[str, int, float, datetime.date, None]

#: The null marker. An alias for ``None``, exported for readability.
NULL = None


def is_null(value: Value) -> bool:
    """Return ``True`` iff *value* is the null marker."""
    return value is None
