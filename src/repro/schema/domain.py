"""Attribute domains.

A domain describes the set of legal non-null values of an attribute. The
test-data generator (sec. 4.1) requires "domain ranges for each attribute";
the satisfiability test (sec. 4.1.3) initializes its current ranges from
these domains and the data generator samples values from them.

Three concrete domains mirror the three attribute kinds:

* :class:`NominalDomain` — a finite, ordered set of string values,
* :class:`NumericDomain` — a closed interval of integers or floats,
* :class:`DateDomain` — a closed interval of calendar dates.

A fourth, :class:`TextDomain`, admits *any* string. It exists for
derived and reporting tables (audit findings, logs) that flow through
the storage backends of :mod:`repro.io` but are never mined — it has no
numeric view and cannot be sampled.

Ordered domains expose a common *numeric view* (:meth:`Domain.to_number` /
:meth:`Domain.from_number`) so that the mining layer can treat dates as
ordered numerics (equal-frequency discretization, numeric splits in the
decision tree) without special-casing.
"""

from __future__ import annotations

import datetime
import random
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

from repro.schema.types import AttributeKind, Value

__all__ = ["Domain", "NominalDomain", "NumericDomain", "DateDomain", "TextDomain"]


class Domain(ABC):
    """Abstract base class of attribute domains."""

    #: The attribute kind this domain belongs to.
    kind: AttributeKind

    @abstractmethod
    def contains(self, value: Value) -> bool:
        """Return ``True`` iff the non-null *value* lies in this domain."""

    @abstractmethod
    def sample_uniform(self, rng: random.Random) -> Value:
        """Draw a value uniformly from this domain."""

    @abstractmethod
    def to_number(self, value: Value) -> float:
        """Map a domain value to its numeric view (for mining/ordering)."""

    @abstractmethod
    def from_number(self, number: float) -> Value:
        """Map a numeric-view value back to a domain value (best effort)."""

    def __contains__(self, value: Value) -> bool:
        return value is not None and self.contains(value)


class NominalDomain(Domain):
    """A finite, ordered set of nominal (string) values.

    The order of *values* is preserved; it defines the index used by
    categorical start distributions (sec. 4.1.4 parameterizes normal /
    exponential distributions over nominal domains by value index) and by
    the numeric view.
    """

    kind = AttributeKind.NOMINAL

    def __init__(self, values: Sequence[str]):
        if not values:
            raise ValueError("a nominal domain needs at least one value")
        as_tuple = tuple(values)
        if len(set(as_tuple)) != len(as_tuple):
            raise ValueError("nominal domain values must be distinct")
        for v in as_tuple:
            if not isinstance(v, str):
                raise TypeError(f"nominal value must be str, got {type(v).__name__}")
        self.values: tuple[str, ...] = as_tuple
        self._index = {v: i for i, v in enumerate(as_tuple)}

    @property
    def size(self) -> int:
        """Number of distinct values."""
        return len(self.values)

    def index_of(self, value: str) -> int:
        """Return the position of *value* in the domain order."""
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(f"{value!r} is not in this nominal domain") from None

    def contains(self, value: Value) -> bool:
        return isinstance(value, str) and value in self._index

    def sample_uniform(self, rng: random.Random) -> str:
        return self.values[rng.randrange(len(self.values))]

    def to_number(self, value: Value) -> float:
        return float(self.index_of(value))  # type: ignore[arg-type]

    def from_number(self, number: float) -> str:
        idx = min(max(int(round(number)), 0), len(self.values) - 1)
        return self.values[idx]

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NominalDomain) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        if len(self.values) > 6:
            shown = ", ".join(map(repr, self.values[:5])) + f", … ({len(self.values)} values)"
        else:
            shown = ", ".join(map(repr, self.values))
        return f"NominalDomain({shown})"


class TextDomain(Domain):
    """All strings — the open-ended counterpart of :class:`NominalDomain`.

    For derived/reporting relations (audit findings, provenance logs)
    whose string columns have no finite vocabulary. Such tables are
    written and read through :mod:`repro.io` like any other, but they
    are not mined: a text domain has no value order, so it cannot be
    sampled and has no numeric view.
    """

    kind = AttributeKind.NOMINAL

    def contains(self, value: Value) -> bool:
        return isinstance(value, str)

    def sample_uniform(self, rng: random.Random) -> str:
        raise TypeError("a text domain is unbounded and cannot be sampled")

    def to_number(self, value: Value) -> float:
        raise TypeError("a text domain has no numeric view")

    def from_number(self, number: float) -> Value:
        raise TypeError("a text domain has no numeric view")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TextDomain)

    def __hash__(self) -> int:
        return hash(TextDomain)

    def __repr__(self) -> str:
        return "TextDomain()"


class NumericDomain(Domain):
    """A closed numeric interval ``[low, high]``.

    With ``integer=True`` the domain contains only the integers in the
    interval; otherwise any real number in it.
    """

    kind = AttributeKind.NUMERIC

    def __init__(self, low: float, high: float, *, integer: bool = False):
        if isinstance(low, bool) or isinstance(high, bool):
            raise TypeError("bounds must be numbers, not bool")
        if not (isinstance(low, (int, float)) and isinstance(high, (int, float))):
            raise TypeError("bounds must be numbers")
        if integer:
            low, high = int(low), int(high)
        if low > high:
            raise ValueError(f"empty numeric domain: low={low} > high={high}")
        self.low = low
        self.high = high
        self.integer = integer

    def contains(self, value: Value) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        # integer-valuedness must not go through float() — that loses
        # precision beyond 2**53 and would reject admissible large ints
        if self.integer and isinstance(value, float) and not value.is_integer():
            return False
        return self.low <= value <= self.high

    def sample_uniform(self, rng: random.Random) -> float:
        if self.integer:
            return rng.randint(int(self.low), int(self.high))
        return rng.uniform(self.low, self.high)

    def to_number(self, value: Value) -> float:
        return float(value)  # type: ignore[arg-type]

    def from_number(self, number: float) -> Value:
        number = min(max(number, self.low), self.high)
        if self.integer:
            return int(round(number))
        return float(number)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NumericDomain)
            and self.low == other.low
            and self.high == other.high
            and self.integer == other.integer
        )

    def __hash__(self) -> int:
        return hash((self.low, self.high, self.integer))

    def __repr__(self) -> str:
        tag = ", integer=True" if self.integer else ""
        return f"NumericDomain({self.low}, {self.high}{tag})"


class DateDomain(Domain):
    """A closed interval of calendar dates ``[start, end]``.

    The numeric view is the proleptic Gregorian ordinal
    (:meth:`datetime.date.toordinal`), making dates directly usable by the
    ordering atoms and the mining layer.
    """

    kind = AttributeKind.DATE

    def __init__(self, start: datetime.date, end: datetime.date):
        if not (isinstance(start, datetime.date) and isinstance(end, datetime.date)):
            raise TypeError("start and end must be datetime.date")
        if start > end:
            raise ValueError(f"empty date domain: start={start} > end={end}")
        self.start = start
        self.end = end

    @property
    def n_days(self) -> int:
        """Number of days in the interval (inclusive)."""
        return self.end.toordinal() - self.start.toordinal() + 1

    def contains(self, value: Value) -> bool:
        return isinstance(value, datetime.date) and self.start <= value <= self.end

    def sample_uniform(self, rng: random.Random) -> datetime.date:
        offset = rng.randrange(self.n_days)
        return datetime.date.fromordinal(self.start.toordinal() + offset)

    def to_number(self, value: Value) -> float:
        return float(value.toordinal())  # type: ignore[union-attr]

    def from_number(self, number: float) -> datetime.date:
        ordinal = int(round(number))
        ordinal = min(max(ordinal, self.start.toordinal()), self.end.toordinal())
        return datetime.date.fromordinal(ordinal)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DateDomain) and self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"DateDomain({self.start.isoformat()}, {self.end.isoformat()})"
