"""Encoded training data for the mining algorithms.

The classifiers of sec. 5 all consume the same view of a table:

* **base attributes** (the classifier inputs) are encoded per kind —
  nominal values become small integer codes (with one extra *unknown*
  code for out-of-domain values produced by pollution, and ``-1`` for
  null, which the C4.5 machinery treats as a missing value to distribute
  fractionally), ordered values become floats on the numeric view
  (``NaN`` for null / unparseable);
* the **class attribute** is encoded into a finite label set. Nominal
  classes use their domain values; numeric and date classes are
  discretized into equal-frequency bins (sec. 5's multiple
  classification / *regression* approach). Null is a first-class label —
  the paper's completeness dimension ("substituting an erroneously
  missing value by the suggestion of a data auditing application") needs
  the classifier to regard an unexpected null as a deviation, which it
  can only do if nulls are part of the class vocabulary. A single
  *unknown* label absorbs out-of-domain class values.

The encoders convert whole columns at once — bulk NumPy casts for
numeric columns, C-level ``map`` loops for nominal codes, null masks and
date ordinals. Raw cells reach them only through the column caches of
:mod:`repro.core.auditor` (``ColumnCache`` for the audit,
``FitColumnCache`` for the fit), which encode each column once, fit
class encoders on the numeric view, derive class codes from the base
codes and assemble each classifier's :class:`Dataset` from the shared
arrays. The cell-at-a-time formulation
(:meth:`BaseEncoder.encode` / :meth:`ClassEncoder.code_of` per cell)
lives on as the reference encoding in ``tests/reference_lanes.py``, and
``tests/test_fit_parity_property.py`` pins the two to bit-identical
arrays on randomized tables. The single documented divergence: a raw
``NaN`` float stored directly in a table cell (impossible through any
:mod:`repro.io` backend, which all reject non-finite values at parse
time) is counted by the per-cell reference when sizing class bins but
is indistinguishable from a kind-violating cell here.
"""

from __future__ import annotations

import datetime
import operator
from itertools import compress, repeat
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.mining.discretize import EqualFrequencyDiscretizer
from repro.schema.attribute import Attribute
from repro.schema.domain import NominalDomain
from repro.schema.types import AttributeKind, Value

__all__ = [
    "NULL_LABEL",
    "UNKNOWN_LABEL",
    "BaseEncoder",
    "ClassEncoder",
    "Dataset",
    "null_mask",
    "encode_ordered_column",
]

#: Class label representing a null class value.
NULL_LABEL = "<null>"
#: Class label absorbing out-of-domain class values.
UNKNOWN_LABEL = "<unknown>"


def null_mask(values: Sequence[Value]) -> np.ndarray:
    """Boolean mask of the null cells of a raw column."""
    return np.fromiter(
        map(operator.is_, values, repeat(None)), dtype=bool, count=len(values)
    )


def encode_ordered_column(
    attribute: Attribute, values: Sequence[Value], mask: np.ndarray
) -> np.ndarray:
    """Numeric view of an ordered column: ``float(to_number(v))`` per
    cell, ``NaN`` for null (per *mask*) and for kind-violating cells.

    Clean numeric columns take one bulk C-level cast; date columns one
    C-level ``date.toordinal`` map (``datetime`` cells included: they
    inherit it). Columns polluted with kind-violating cells (and domains
    without a numeric view) fall back to a cell-at-a-time loop with
    exactly the ``try/except`` semantics of :meth:`BaseEncoder.encode`,
    so the result is bit-identical to the per-cell
    :meth:`BaseEncoder.encode` in every case.
    """
    out = np.full(len(values), np.nan, dtype=np.float64)
    present = ~mask
    nonnull = list(compress(values, present.tolist())) if mask.any() else values
    if not len(nonnull):
        return out
    converted: Optional[np.ndarray] = None
    try:
        if attribute.kind is AttributeKind.DATE:
            converted = np.fromiter(
                map(datetime.date.toordinal, nonnull),
                dtype=np.float64,
                count=len(nonnull),
            )
        elif attribute.kind is AttributeKind.NUMERIC:
            # numpy converts int/float/bool/str elements exactly like
            # float() does (verified down to rounding and error cases);
            # anything else raises and routes to the fallback
            converted = np.asarray(nonnull, dtype=np.float64)
    except (TypeError, AttributeError, ValueError):
        converted = None
    if converted is None:
        domain = attribute.domain

        def _one(value: Value) -> float:
            try:
                return float(domain.to_number(value))
            except (TypeError, AttributeError, ValueError):
                return float("nan")

        converted = np.asarray([_one(v) for v in nonnull], dtype=np.float64)
    out[present] = converted
    return out


class BaseEncoder:
    """Encoder of one *base* (input) attribute."""

    def __init__(self, attribute: Attribute):
        self.attribute = attribute
        domain = attribute.domain
        if isinstance(domain, NominalDomain):
            self.categorical = True
            # null maps to -1 here too, so encode_column is one dict lookup
            # per cell (domain values are str, never None)
            self._codes = {value: i for i, value in enumerate(domain.values)}
            self._codes[None] = -1
            #: code used for non-null values outside the declared domain
            self.unknown_code = len(domain.values)
            self.n_categories = len(domain.values) + 1
        else:
            self.categorical = False
            self._codes = {}
            self.unknown_code = -1
            self.n_categories = 0

    def encode(self, value: Value) -> float:
        """Encode one cell; returns an int code (categorical, ``-1`` for
        missing) or a float (ordered, ``NaN`` for missing/unparseable)."""
        if self.categorical:
            if value is None:
                return -1
            code = self._codes.get(value)
            if code is None:
                return self.unknown_code
            return code
        if value is None:
            return float("nan")
        try:
            return float(self.attribute.domain.to_number(value))
        except (TypeError, AttributeError, ValueError):
            return float("nan")  # kind-violating cell (e.g. switched column)

    def encode_column(self, values: Sequence[Value]) -> np.ndarray:
        """Vectorized whole-column encoding, bit-identical to
        :meth:`encode` per cell (pinned by the fit-parity property
        suite)."""
        if self.categorical:
            return np.fromiter(
                map(self._codes.get, values, repeat(self.unknown_code)),
                dtype=np.int64,
                count=len(values),
            )
        return encode_ordered_column(self.attribute, values, null_mask(values))

    def decode_category(self, code: int) -> Optional[str]:
        """Nominal value of a category code (None for the unknown code)."""
        if not self.categorical:
            raise TypeError("decode_category on an ordered encoder")
        domain: NominalDomain = self.attribute.domain  # type: ignore[assignment]
        if 0 <= code < len(domain.values):
            return domain.values[code]
        return None


class ClassEncoder:
    """Encoder of the class attribute into a finite label vocabulary."""

    def __init__(
        self,
        attribute: Attribute,
        *,
        n_bins: int = 10,
        numeric_view: Sequence[float] = (),
    ):
        """*numeric_view* holds the non-null numeric view of an ordered
        class column, whose equal-frequency bins become the labels; a
        nominal class takes its labels from the domain."""
        discretizer = None
        if attribute.kind is not AttributeKind.NOMINAL and len(numeric_view):
            bins = max(2, min(n_bins, _distinct_count(numeric_view)))
            discretizer = EqualFrequencyDiscretizer(bins).fit(numeric_view)
        self._set_vocabulary(attribute, discretizer)

    def _set_vocabulary(
        self, attribute: Attribute, discretizer: Optional[EqualFrequencyDiscretizer]
    ) -> None:
        self.attribute = attribute
        self.discretizer = discretizer
        self.labels = _vocabulary(attribute, discretizer)
        self._label_codes = {label: i for i, label in enumerate(self.labels)}
        self._value_to_label = (
            {value: value for value in attribute.domain.values}  # type: ignore[attr-defined]
            if attribute.kind is AttributeKind.NOMINAL
            else {}
        )

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def index_of_label(self, label: str) -> int:
        return self._label_codes[label]

    @property
    def null_code(self) -> int:
        return self._label_codes[NULL_LABEL]

    @property
    def unknown_code(self) -> int:
        return self._label_codes[UNKNOWN_LABEL]

    def label_of(self, value: Value) -> str:
        """Class label of one observed cell value."""
        if value is None:
            return NULL_LABEL
        if self.attribute.kind is AttributeKind.NOMINAL:
            return self._value_to_label.get(value, UNKNOWN_LABEL)
        if self.discretizer is None or not _orderable(self.attribute, value):
            return UNKNOWN_LABEL
        number = self.attribute.domain.to_number(value)
        return self.labels[self.discretizer.transform_value(number)]

    def code_of(self, value: Value) -> int:
        return self._label_codes[self.label_of(value)]

    def encode_from_numeric(
        self, numeric: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Class codes from a precomputed numeric view + null mask.

        The fit's and the audit's column caches
        (:class:`repro.core.auditor.ColumnCache`) already hold the
        base-encoded float column of an ordered class attribute; this
        reuses it instead of re-walking the raw values. ``NaN`` cells
        that are not null are kind violations → the unknown label.
        """
        codes = np.full(len(numeric), self.unknown_code, dtype=np.int64)
        if self.discretizer is not None:
            finite = ~np.isnan(numeric)
            if finite.any():
                codes[finite] = self.discretizer.transform(numeric[finite])
        codes[mask] = self.null_code
        return codes

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-compatible state (labels + discretizer, no training data)."""
        return {
            "labels": list(self.labels),
            "discretizer": self.discretizer.to_state() if self.discretizer else None,
        }

    @classmethod
    def from_state(cls, attribute: Attribute, state: dict) -> "ClassEncoder":
        """Rebuild an encoder from :meth:`to_state` output (the attribute
        comes from the separately persisted schema); ``ValueError``
        unless the stored labels are exactly the vocabulary the attribute
        and discretizer define, so every class code the encoder produces
        names a label."""
        discretizer_state = state.get("discretizer")
        discretizer = (
            EqualFrequencyDiscretizer.from_state(discretizer_state)
            if discretizer_state
            else None
        )
        if discretizer is not None and attribute.kind is AttributeKind.NOMINAL:
            raise ValueError(f"nominal class attribute {attribute.name!r} has a discretizer")
        instance = cls.__new__(cls)
        instance._set_vocabulary(attribute, discretizer)
        if list(state["labels"]) != list(instance.labels):
            raise ValueError(
                f"class labels {state['labels']!r} of {attribute.name!r} are not "
                f"its vocabulary {list(instance.labels)!r}"
            )
        return instance

    def proposal_for(self, label: str) -> Value:
        """The concrete replacement value a predicted label suggests
        (sec. 5.3): the nominal value itself, the bin representative for
        discretized classes, or null for the null label."""
        if label == NULL_LABEL:
            return None
        if label == UNKNOWN_LABEL:
            return None
        if self.attribute.kind is AttributeKind.NOMINAL:
            return label
        assert self.discretizer is not None
        bin_index = self.labels.index(label)
        return self.attribute.domain.from_number(self.discretizer.representative(bin_index))


def _vocabulary(
    attribute: Attribute, discretizer: Optional[EqualFrequencyDiscretizer]
) -> tuple[str, ...]:
    """The class labels of *attribute*: its nominal values or the
    discretizer's bins, then the null and unknown labels."""
    if attribute.kind is AttributeKind.NOMINAL:
        values = list(attribute.domain.values)  # type: ignore[attr-defined]
    elif discretizer is not None:
        values = [discretizer.bin_label(i) for i in range(discretizer.n_bins)]
    else:
        values = []
    return tuple(values) + (NULL_LABEL, UNKNOWN_LABEL)


def _orderable(attribute: Attribute, value: Value) -> bool:
    try:
        attribute.domain.to_number(value)
        return True
    except (TypeError, AttributeError, ValueError):
        return False


def _distinct_count(view) -> int:
    """Distinct-value count of a numeric view (bin-count sizing).

    ``len(set(...))`` on a per-cell Python list and ``np.unique`` on an
    encoded float array agree: int/float values that compare equal hash
    equal, and ``-0.0 == 0.0`` dedups identically both ways.
    """
    if isinstance(view, np.ndarray):
        return int(np.unique(view).size)
    return len(set(view))


class Dataset:
    """One classifier's view: base encoders and encoded base columns,
    the class encoder and the class codes.

    All rows are retained — null and out-of-domain class values are
    legitimate labels (see module docstring), so nothing is silently
    dropped. A dataset holds arrays encoded elsewhere: the fit's
    :class:`repro.core.auditor.FitColumnCache` encodes every column of a
    table once and shares the arrays, read-only, with every classifier's
    dataset. The model loader builds one with no columns and no rows:
    prediction needs only the encoders and the class vocabulary, so a
    persisted model reloads without its training table (sec. 2.2's
    asynchronous auditing).
    """

    def __init__(
        self,
        class_attr: str,
        base_attrs: Sequence[str],
        *,
        encoders: Mapping[str, BaseEncoder],
        columns: Mapping[str, np.ndarray],
        class_encoder: ClassEncoder,
        y: np.ndarray,
        n_rows: int,
    ):
        self.class_attr = class_attr
        self.base_attrs = tuple(base_attrs)
        if class_attr in self.base_attrs:
            raise ValueError("class attribute cannot be one of its base attributes")
        self.encoders = dict(encoders)
        self.columns = dict(columns)
        self.class_encoder = class_encoder
        self.y = y
        self.n_rows = n_rows

    @property
    def n_labels(self) -> int:
        return self.class_encoder.n_labels
