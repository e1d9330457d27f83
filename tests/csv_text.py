"""CSV text through the storage layer: tables to and from inline CSV
strings, for tests that state their input as text."""

import io

from repro.io import read_table, write_table


def to_csv_text(table, **options) -> str:
    """*table* as CSV text (header row first), through ``write_table``."""
    buffer = io.StringIO()
    write_table(table, buffer, format="csv", **options)
    return buffer.getvalue()


def from_csv_text(schema, text: str, **options):
    """The table of *schema* that CSV *text* holds, through ``read_table``."""
    return read_table(schema, io.StringIO(text), format="csv", **options)
