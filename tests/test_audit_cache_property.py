"""Audit-cache property: :class:`~repro.core.auditor.ColumnCache` is pinned
to the per-cell reference encoding.

The audit encodes each column of a chunk once: its base encoding
(:meth:`ColumnCache.encoded <repro.core.auditor.ColumnCache.encoded>`)
and, derived from that encoding and the column's null mask, its
observed class codes (:meth:`ColumnCache.observed_codes
<repro.core.auditor.ColumnCache.observed_codes>`), which the fit's
training labels share. Here random columns — nulls, out-of-domain
strings, kind-violating cells in ordered columns, integers beyond
2**53, ``datetime`` cells in date columns — are checked cell for cell
against :meth:`BaseEncoder.encode
<repro.mining.dataset.BaseEncoder.encode>` (through
``reference_encode``) and :meth:`ClassEncoder.code_of
<repro.mining.dataset.ClassEncoder.code_of>`, on a row-major ``Table``
and on a ``ColumnBatch``, with either cache method asked first.

The example budget is left to the Hypothesis profile: tier-1 runs the
default, CI's ``paper-benches`` job runs ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auditor import ColumnCache
from repro.io.columnar import ColumnBatch
from repro.mining.dataset import BaseEncoder, ClassEncoder
from repro.schema import Schema, Table, date, nominal, numeric
from tests import reference_lanes as ref

_START = datetime.date(2000, 1, 1)
_END = datetime.date(2001, 12, 31)

#: integers a float64 cannot hold exactly, on both sides of zero
_HUGE = st.one_of(
    st.integers(min_value=2**53 + 1, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**53) - 1),
)
#: text no float() accepts, so a kind-violating cell is never read as
#: a number (a "nan" string would be the NaN divergence the dataset
#: module documents)
_WORDS = st.text(alphabet="xyz<>", max_size=4)
_DATES = st.dates(_START, _END)
_DATETIMES = st.datetimes(
    datetime.datetime(2000, 1, 1), datetime.datetime(2001, 12, 31, 23, 59)
)

#: kind → (attribute, cell strategy); every pool includes nulls
_KINDS = {
    "nominal": (
        nominal("C", ["a", "b", "c"]),
        st.one_of(st.none(), st.sampled_from(["a", "b", "c"]), _WORDS),
    ),
    "int": (
        numeric("C", 0, 100, integer=True),
        st.one_of(st.none(), st.integers(0, 100), _HUGE, _WORDS, _DATES),
    ),
    "float": (
        numeric("C", 0.0, 10.0),
        st.one_of(
            st.none(),
            st.floats(allow_nan=False),
            st.integers(0, 10),
            _HUGE,
            _WORDS,
        ),
    ),
    "date": (
        date("C", _START, _END),
        st.one_of(st.none(), _DATES, _DATETIMES, st.integers(0, 9), _WORDS),
    ),
}


@st.composite
def audited_columns(draw):
    """An attribute, a random column of its cells, and the class encoder a
    fit would build for it (ordered bins from the per-cell numeric view
    of the column itself, as the reference fit sizes them)."""
    attribute, cells = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    column = draw(st.lists(cells, max_size=40))
    n_bins = draw(st.integers(2, 5))
    if attribute.kind.is_ordered:
        numbers = map(BaseEncoder(attribute).encode, column)
        view = [number for number in numbers if not np.isnan(number)]
        encoder = ClassEncoder(attribute, n_bins=n_bins, numeric_view=view)
    else:
        encoder = ClassEncoder(attribute, n_bins=n_bins)
    return attribute, column, encoder


@settings(deadline=None)
@given(
    data=audited_columns(),
    columnar=st.booleans(),
    observed_first=st.booleans(),
)
def test_audit_cache_matches_per_cell_reference(data, columnar, observed_first):
    attribute, column, class_encoder = data
    schema = Schema([attribute])
    table = (
        ColumnBatch(schema, {"C": list(column)}, len(column))
        if columnar
        else Table.adopt(schema, [[value] for value in column])
    )
    base_encoder = BaseEncoder(attribute)
    cache = ColumnCache(table)
    if observed_first:
        observed = cache.observed_codes("C", class_encoder)
        encoded = cache.encoded("C", base_encoder)
    else:
        encoded = cache.encoded("C", base_encoder)
        observed = cache.observed_codes("C", class_encoder)

    reference = ref.reference_encode(base_encoder, column)
    assert encoded.dtype == reference.dtype
    assert np.array_equal(encoded, reference, equal_nan=True)

    expected = [class_encoder.code_of(value) for value in column]
    assert observed.dtype == np.int64
    assert observed.tolist() == expected
