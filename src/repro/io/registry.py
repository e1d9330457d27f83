"""The format registry: name → backend, with auto-detection.

One table of :class:`FormatSpec` entries drives everything that needs
to know "which formats exist": the CLI's ``--input-format`` /
``--output-format`` choices, extension-based detection
(:func:`detect_format`), the README's support matrix, and the
convenience one-liners (:func:`read_table`, :func:`write_table`).

Detection rules, in order:

1. a ``sqlite:`` URI (``sqlite:///db.sqlite?table=t``) → ``sqlite``,
   with the ``table`` option taken from the query string;
2. a path suffix registered by a backend (``.csv``, ``.jsonl`` /
   ``.ndjson``, ``.db`` / ``.sqlite`` / ``.sqlite3``, ``.parquet`` /
   ``.pq``) → that backend;
3. otherwise an :class:`~repro.errors.InputError` listing the known
   extensions —
   pass ``format=`` explicitly for unconventional names.

Third-party backends register the same way the built-ins do:
``register_format(FormatSpec(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from repro.errors import InputError
from repro.io.base import DEFAULT_CHUNK_SIZE, TableSink, TableSource
from repro.io.csv_backend import CsvTableSink, CsvTableSource
from repro.io.jsonl_backend import JsonlTableSink, JsonlTableSource
from repro.io.parquet_backend import ParquetTableSink, ParquetTableSource
from repro.io.sqlite_backend import (
    SqliteTableSink,
    SqliteTableSource,
    parse_sqlite_url,
)
from repro.schema.schema import Schema
from repro.schema.table import Table

__all__ = [
    "FormatSpec",
    "register_format",
    "available_formats",
    "format_spec",
    "detect_format",
    "open_source",
    "open_sink",
    "read_table",
    "read_table_chunks",
    "write_table",
]

Location = Union[str, Path, Any]  # paths, URIs, or open text streams


@dataclass(frozen=True)
class FormatSpec:
    """One registered storage format."""

    name: str
    extensions: tuple[str, ...]
    source_factory: Optional[Callable[..., TableSource]]
    sink_factory: Optional[Callable[..., TableSink]]
    description: str = ""
    #: optional third-party dependency the backend needs at use time
    requires: Optional[str] = None


_REGISTRY: dict[str, FormatSpec] = {}


def register_format(spec: FormatSpec) -> None:
    """Register (or replace) a storage format."""
    _REGISTRY[spec.name] = spec


def available_formats() -> tuple[FormatSpec, ...]:
    """All registered formats, in registration order."""
    return tuple(_REGISTRY.values())


def format_spec(name: str) -> FormatSpec:
    """Look a format up by name (an :class:`~repro.errors.InputError`
    naming the options)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise InputError(f"unknown table format {name!r} (known: {known})") from None


def detect_format(location: Location) -> str:
    """Infer the format of *location* from its URI scheme or extension."""
    text = str(location)
    if text.startswith("sqlite:"):
        return "sqlite"
    suffix = Path(text).suffix.lower()
    if suffix:
        for spec in _REGISTRY.values():
            if suffix in spec.extensions:
                return spec.name
    known = ", ".join(
        ext for spec in _REGISTRY.values() for ext in spec.extensions
    )
    raise InputError(
        f"cannot infer a table format from {location!r} "
        f"(known extensions: {known}; pass format= explicitly)"
    )


def _resolve(
    location: Location, format: Optional[str]
) -> tuple[FormatSpec, Location, dict]:
    """Normalize (location, format) to (spec, concrete target, options)."""
    options: dict = {}
    if isinstance(location, str) and location.startswith("sqlite:"):
        if format not in (None, "sqlite"):
            raise InputError(
                f"{location!r} is a sqlite URI but format={format!r} was "
                f"requested; drop the override or pass a plain path"
            )
        location, options = parse_sqlite_url(location)
        format = "sqlite"
    spec = format_spec(format) if format is not None else format_spec(
        detect_format(location)
    )
    return spec, location, options


def open_source(
    schema: Schema,
    location: Location,
    *,
    format: Optional[str] = None,
    **options,
) -> TableSource:
    """Open a :class:`TableSource` for *location* (format auto-detected)."""
    spec, target, url_options = _resolve(location, format)
    if spec.source_factory is None:
        raise InputError(f"format {spec.name!r} does not support reading")
    return spec.source_factory(schema, target, **{**url_options, **options})


def open_sink(
    schema: Schema,
    location: Location,
    *,
    format: Optional[str] = None,
    **options,
) -> TableSink:
    """Open a :class:`TableSink` for *location* (format auto-detected)."""
    spec, target, url_options = _resolve(location, format)
    if spec.sink_factory is None:
        raise InputError(f"format {spec.name!r} does not support writing")
    return spec.sink_factory(schema, target, **{**url_options, **options})


def read_table(
    schema: Schema,
    location: Location,
    *,
    format: Optional[str] = None,
    validate: bool = False,
    **options,
) -> Table:
    """Read a whole table from any registered format."""
    with open_source(schema, location, format=format, **options) as source:
        return source.read(validate=validate)


def read_table_chunks(
    schema: Schema,
    location: Location,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    format: Optional[str] = None,
    validate: bool = False,
    **options,
) -> Iterator[Table]:
    """Stream a table from any registered format in bounded chunks."""
    with open_source(schema, location, format=format, **options) as source:
        yield from source.chunks(chunk_size, validate=validate)


def write_table(
    data: Table,
    location: Location,
    *,
    format: Optional[str] = None,
    **options,
) -> None:
    """Write a whole table to any registered format.

    (The positional parameter is ``data``, not ``table``, so the SQLite
    backend's ``table=`` option stays usable as a keyword:
    ``write_table(loads, "wh.db", table="loads")``.)
    """
    with open_sink(data.schema, location, format=format, **options) as sink:
        sink.write(data)


register_format(
    FormatSpec(
        name="csv",
        extensions=(".csv",),
        source_factory=CsvTableSource,
        sink_factory=CsvTableSink,
        description="header-checked text tables (the pipeline's default)",
    )
)
register_format(
    FormatSpec(
        name="jsonl",
        extensions=(".jsonl", ".ndjson"),
        source_factory=JsonlTableSource,
        sink_factory=JsonlTableSink,
        description="one JSON object per row, keyed by attribute name",
    )
)
register_format(
    FormatSpec(
        name="sqlite",
        extensions=(".db", ".sqlite", ".sqlite3"),
        source_factory=SqliteTableSource,
        sink_factory=SqliteTableSink,
        description="warehouse tables via the stdlib sqlite3 module",
    )
)
register_format(
    FormatSpec(
        name="parquet",
        extensions=(".parquet", ".pq"),
        source_factory=ParquetTableSource,
        sink_factory=ParquetTableSink,
        description="columnar extracts (optional, needs pyarrow)",
        requires="pyarrow",
    )
)
