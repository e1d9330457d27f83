"""Property tests: serialization round-trips over randomly generated
tables and schemas (CSV, schema JSON, value codec)."""

import datetime
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema import Schema, Table, date, nominal, numeric
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.schema.values import value_from_json, value_to_json
from tests.csv_text import from_csv_text, to_csv_text

SCHEMA = Schema(
    [
        nominal("A", ["alpha", "beta", "gamma", "with,comma", "with'quote"]),
        numeric("I", -50, 50, integer=True),
        numeric("F", -1.0, 1.0),
        date("D", datetime.date(1999, 1, 1), datetime.date(2003, 12, 31)),
    ]
)


def rows():
    return st.lists(
        st.tuples(
            st.sampled_from(list(SCHEMA.attribute("A").domain.values) + [None]),
            st.one_of(st.integers(-50, 50), st.none()),
            st.one_of(
                st.floats(-1.0, 1.0, allow_nan=False).map(lambda x: round(x, 9)),
                st.none(),
            ),
            st.one_of(
                st.dates(datetime.date(1999, 1, 1), datetime.date(2003, 12, 31)),
                st.none(),
            ),
        ).map(list),
        max_size=30,
    )


class TestCsvRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(rows())
    def test_arbitrary_tables_roundtrip(self, table_rows):
        table = Table(SCHEMA, table_rows)
        text = to_csv_text(table)
        back = from_csv_text(SCHEMA, text, validate=True)
        assert back == table

    @settings(max_examples=50, deadline=None)
    @given(rows(), st.sampled_from(["\\N", "NULL", "~"]))
    def test_roundtrip_with_custom_null_marker(self, table_rows, marker):
        table = Table(SCHEMA, table_rows)
        text = to_csv_text(table, null_marker=marker)
        back = from_csv_text(SCHEMA, text, null_marker=marker)
        assert back == table


class TestSchemaJsonRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["nominal", "numeric", "date"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_schemas_roundtrip(self, specs):
        attributes = []
        for index, (kind, nullable) in enumerate(specs):
            name = f"attr_{index}"
            if kind == "nominal":
                attributes.append(
                    nominal(name, [f"v{index}_{k}" for k in range(3)], nullable=nullable)
                )
            elif kind == "numeric":
                attributes.append(
                    numeric(name, index, index + 10, integer=index % 2 == 0, nullable=nullable)
                )
            else:
                attributes.append(
                    date(
                        name,
                        datetime.date(2000, 1, 1),
                        datetime.date(2000 + index, 12, 31),
                        nullable=nullable,
                    )
                )
        schema = Schema(attributes)
        payload = json.loads(json.dumps(schema_to_dict(schema)))
        assert schema_from_dict(payload) == schema


class TestValueCodecProperty:
    @settings(max_examples=100)
    @given(
        st.one_of(
            st.none(),
            st.text(max_size=30),
            st.integers(-(10**12), 10**12),
            st.floats(allow_nan=False, allow_infinity=False),
            st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 1, 1)),
        )
    )
    def test_roundtrip(self, value):
        encoded = json.loads(json.dumps(value_to_json(value)))
        assert value_from_json(encoded) == value
