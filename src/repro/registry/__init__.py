"""Content-addressed, versioned on-disk model registry (``repro.registry``).

The persistence layer of the audit *service*: structure models stored
by digest of their canonical serialized form, addressed by
human-readable refs (``loads@v3``, ``loads@prod``, ``loads@latest``),
each version carrying a provenance record (schema hash, training
source, config, row count, fit wall time, creation time). See
:mod:`repro.registry.store` for the on-disk format and the
concurrency contract, and ``repro models`` for the CLI face.
"""

from repro.registry.store import (
    ModelRegistry,
    ModelVersion,
    Provenance,
    RegistryError,
    check_model_name,
    model_digest,
    parse_ref,
    schema_digest,
)

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "Provenance",
    "RegistryError",
    "model_digest",
    "schema_digest",
    "parse_ref",
    "check_model_name",
]
