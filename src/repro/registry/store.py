"""The content-addressed, versioned on-disk model registry.

The paper's auditor is meant to live *inside* warehouse loading
(sec. 2.2): the offline job induces structure models on a schedule, the
online job checks every arriving load against a **pinned, named**
model. That hand-over needs more than one JSON file on disk — it needs
versions that never change underneath a reader, provenance that says
which schema / training table / config produced each model, and writes
that cannot tear.

:class:`ModelRegistry` provides exactly that, with three invariants:

* **content addressing** — a model's identity is the SHA-256 digest of
  its canonical serialized form (:func:`model_digest`). Registering the
  byte-identical model twice stores one object; two models with the
  same digest *are* the same model. Loading re-hashes the object's
  bytes, so an object edited or corrupted on disk is refused.
* **immutability + atomicity** — object files are written once
  (:func:`~repro.core.serialize.write_atomic`) and never modified;
  name indexes are replaced atomically. A reader therefore sees either
  the old or the new state of a name, never a torn one, without taking
  any lock.
* **single writer** — mutations (`put`/`tag`/`delete`) serialize on a
  lockfile (``O_CREAT | O_EXCL``, the portable primitive), so two
  concurrent registrations of ``name`` get distinct version numbers
  instead of clobbering each other. Locks left behind by a crashed
  writer go stale after :attr:`ModelRegistry.lock_stale_seconds` and
  are broken.

On-disk layout (all JSON, human-inspectable)::

    <root>/
      objects/<sha256>.json     # canonical model payloads, immutable
      names/<name>.json         # version list + tag map for one name
      .lock                     # writer lockfile (absent when idle)

Version references (:func:`parse_ref`) are ``name``, ``name@latest``,
``name@v3``, ``name@<tag>``, or ``name@<digest-prefix>`` (≥ 8 hex
chars). ``latest`` is a tag maintained automatically: it always points
at the most recently registered version.
"""

from __future__ import annotations

import dataclasses
import datetime
import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.core.auditor import AuditorConfig, DataAuditor
from repro.core.serialize import auditor_from_dict, auditor_to_dict, write_atomic
from repro.schema.schema import Schema
from repro.schema.serialize import schema_to_dict

__all__ = [
    "RegistryError",
    "Provenance",
    "ModelVersion",
    "ModelRegistry",
    "model_digest",
    "schema_digest",
    "parse_ref",
]

_INDEX_FORMAT = "repro-registry-v1"


class RegistryError(RuntimeError):
    """A registry operation failed; ``str(exc)`` is one printable line."""


def _canonical_bytes(payload: Mapping[str, Any]) -> bytes:
    """The canonical JSON encoding content addresses are computed over:
    sorted keys, no whitespace, UTF-8. Stable across processes and
    Python versions for the plain-JSON payloads the serializers emit."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def model_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a serialized auditor (its registry identity)."""
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


def schema_digest(schema: Schema) -> str:
    """SHA-256 hex digest of a schema's canonical serialized form — the
    provenance field that ties a stored model to the relation shape it
    was induced for."""
    return hashlib.sha256(_canonical_bytes(schema_to_dict(schema))).hexdigest()


def parse_ref(ref: str) -> tuple[str, str]:
    """Split a version reference into ``(name, selector)``.

    ``"loads"`` → ``("loads", "latest")``; ``"loads@v3"`` →
    ``("loads", "v3")``. Empty parts are rejected."""
    name, sep, selector = ref.partition("@")
    if not name or (sep and not selector):
        raise RegistryError(f"invalid model reference {ref!r} (want name[@ref])")
    return name, selector or "latest"


def _config_json(config: AuditorConfig) -> dict[str, Any]:
    """The provenance form of an auditor config (scalar knobs only)."""
    return {
        "min_error_confidence": config.min_error_confidence,
        "n_bins": config.n_bins,
        "base_attributes": {k: list(v) for k, v in config.base_attributes.items()},
        "audited_attributes": (
            list(config.audited_attributes)
            if config.audited_attributes is not None
            else None
        ),
        "fit_n_jobs": config.fit_n_jobs,
    }


def _utc_now_iso() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
    )


@dataclass(frozen=True)
class Provenance:
    """Where one stored model version came from (recorded at ``put``).

    ``schema_hash`` and ``config`` are always filled in by the registry,
    from the auditor it stores; the caller supplies what it knows about
    the training run (``source``, ``source_format``, ``n_rows``,
    ``fit_seconds``). ``extra`` carries free-form caller context
    (experiment ids, operator names, …) as plain JSON types.
    """

    schema_hash: str = ""
    source: Optional[str] = None  #: training-table location / URI
    source_format: Optional[str] = None  #: registry format name of ``source``
    config: Optional[dict] = None  #: the auditor's AuditorConfig (JSON form)
    n_rows: Optional[int] = None  #: training row count
    fit_seconds: Optional[float] = None  #: structure-induction wall time
    created_at: str = ""  #: ISO-8601 UTC, filled in by the registry
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Provenance":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass(frozen=True)
class ModelVersion:
    """One immutable ``name@vN`` entry of the registry."""

    name: str
    version: int  #: 1-based, monotonically increasing per name
    digest: str  #: content address of the model object
    provenance: Provenance

    @property
    def ref(self) -> str:
        """The canonical pinnable reference, e.g. ``"loads@v3"``."""
        return f"{self.name}@v{self.version}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "digest": self.digest,
            "provenance": self.provenance.to_dict(),
        }

    def to_record(self) -> dict[str, Any]:
        """The version as ``repro models show`` prints it and the
        service's ``/models`` endpoints return it."""
        return {
            "name": self.name,
            "version": self.version,
            "ref": self.ref,
            "digest": self.digest,
            "provenance": self.provenance.to_dict(),
        }


class ModelRegistry:
    """A directory of named, versioned, content-addressed auditor models.

    Safe for concurrent use: any number of readers run lock-free
    against atomically-replaced files; writers serialize on the
    registry lockfile. All methods raise :class:`RegistryError` with a
    one-line message on failure.
    """

    #: how long a writer waits for the lock before giving up
    lock_timeout_seconds: float = 10.0
    #: a lockfile older than this is treated as left behind by a crash
    lock_stale_seconds: float = 60.0

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.names_dir = self.root / "names"
        self._lock_path = self.root / ".lock"
        for directory in (self.root, self.objects_dir, self.names_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- locking ------------------------------------------------------------

    def _acquire_lock(self) -> None:
        deadline = time.monotonic() + self.lock_timeout_seconds
        while True:
            try:
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    age = time.time() - self._lock_path.stat().st_mtime
                    if age > self.lock_stale_seconds:
                        # a crashed writer's leftovers; break the lock
                        self._lock_path.unlink()
                        continue
                except FileNotFoundError:
                    continue  # holder released between open and stat
                if time.monotonic() >= deadline:
                    raise RegistryError(
                        f"timed out after {self.lock_timeout_seconds:.0f}s "
                        f"waiting for the registry writer lock {self._lock_path}"
                    )
                time.sleep(0.02)
            else:
                os.write(fd, f"pid {os.getpid()} at {_utc_now_iso()}\n".encode())
                os.close(fd)
                return

    def _release_lock(self) -> None:
        try:
            self._lock_path.unlink()
        except FileNotFoundError:
            pass

    class _locked:
        def __init__(self, registry: "ModelRegistry"):
            self.registry = registry

        def __enter__(self):
            self.registry._acquire_lock()

        def __exit__(self, *exc_info):
            self.registry._release_lock()
            return False

    # -- on-disk primitives -------------------------------------------------

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        """:func:`~repro.core.serialize.write_atomic`, with its
        ``OSError`` as a :class:`RegistryError`."""
        try:
            write_atomic(path, data)
        except OSError as exc:
            raise RegistryError(f"cannot write {path}: {exc}") from exc

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / f"{digest}.json"

    def _index_path(self, name: str) -> Path:
        if not name or "/" in name or "@" in name or name.startswith("."):
            raise RegistryError(
                f"invalid model name {name!r} (no '/', '@', or leading '.')"
            )
        return self.names_dir / f"{name}.json"

    def _read_index(self, name: str) -> Optional[dict]:
        try:
            payload = json.loads(self._index_path(name).read_text("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(f"cannot read registry index for {name!r}: {exc}")
        if payload.get("format") != _INDEX_FORMAT:
            raise RegistryError(
                f"registry index for {name!r} has unsupported format "
                f"{payload.get('format')!r}"
            )
        return payload

    def _write_index(self, name: str, payload: dict) -> None:
        self._write_atomic(self._index_path(name), _canonical_bytes(payload))

    @staticmethod
    def _version_from_entry(name: str, entry: Mapping[str, Any]) -> ModelVersion:
        return ModelVersion(
            name=name,
            version=int(entry["version"]),
            digest=entry["digest"],
            provenance=Provenance.from_dict(entry["provenance"]),
        )

    # -- the public API -----------------------------------------------------

    def put(
        self,
        auditor: DataAuditor,
        name: str,
        *,
        provenance: Optional[Provenance] = None,
    ) -> ModelVersion:
        """Register a fitted auditor as the next version of *name*.

        The model object is stored by content digest (an already-stored
        identical model is reused, not rewritten); the name index gains
        one version entry carrying the provenance record (``schema_hash``
        and ``config`` come from *auditor*, ``created_at`` is filled in
        here) and the ``latest`` tag moves to it. Returns the new
        :class:`ModelVersion`.
        """
        if not auditor.classifiers:
            raise RegistryError(
                f"cannot register an unfitted auditor as {name!r}; fit() first"
            )
        try:
            payload = auditor_to_dict(auditor)
        except (TypeError, ValueError) as exc:
            raise RegistryError(f"cannot serialize model for {name!r}: {exc}")
        digest = model_digest(payload)
        base = provenance or Provenance()
        record = dataclasses.replace(
            base,
            schema_hash=schema_digest(auditor.schema),
            config=_config_json(auditor.config),
            created_at=base.created_at or _utc_now_iso(),
        )
        self._index_path(name)  # validate the name before touching disk
        object_path = self._object_path(digest)
        if not object_path.exists():
            self._write_atomic(object_path, _canonical_bytes(payload))
        with self._locked(self):
            index = self._read_index(name) or {
                "format": _INDEX_FORMAT,
                "name": name,
                "versions": [],
                "tags": {},
            }
            version = ModelVersion(
                name=name,
                version=len(index["versions"]) + 1,
                digest=digest,
                provenance=record,
            )
            index["versions"].append(version.to_dict())
            index["tags"]["latest"] = version.version
            self._write_index(name, index)
        return version

    def list(self) -> list[str]:
        """All registered model names, sorted."""
        return sorted(path.stem for path in self.names_dir.glob("*.json"))

    def versions(self, name: str) -> list[ModelVersion]:
        """All versions of *name*, oldest first."""
        index = self._read_index(name)
        if index is None:
            raise RegistryError(f"no model named {name!r} in registry {self.root}")
        return [self._version_from_entry(name, e) for e in index["versions"]]

    def tags(self, name: str) -> dict[str, int]:
        """The tag → version-number map of *name* (includes ``latest``)."""
        index = self._read_index(name)
        if index is None:
            raise RegistryError(f"no model named {name!r} in registry {self.root}")
        return dict(index["tags"])

    def resolve(self, ref: str) -> ModelVersion:
        """Resolve ``name[@selector]`` to one concrete version.

        Selectors: ``latest`` (default), ``vN``, a tag, or a digest
        prefix of at least 8 hex characters.
        """
        name, selector = parse_ref(ref)
        index = self._read_index(name)
        if index is None:
            known = ", ".join(self.list()) or "none"
            raise RegistryError(
                f"no model named {name!r} in registry {self.root} (known: {known})"
            )
        entries = index["versions"]
        tags = index["tags"]
        number: Optional[int] = None
        if selector in tags:
            number = int(tags[selector])
        elif selector.startswith("v") and selector[1:].isdigit():
            number = int(selector[1:])
        elif len(selector) >= 8 and all(c in "0123456789abcdef" for c in selector):
            matches = [e for e in entries if e["digest"].startswith(selector)]
            if len(matches) > 1:
                raise RegistryError(
                    f"digest prefix {selector!r} is ambiguous for {name!r} "
                    f"({len(matches)} versions match)"
                )
            if matches:
                # several versions may share a digest; the prefix pins the
                # newest one carrying it
                number = int(matches[-1]["version"])
        # look the entry up by its recorded number, not by list position:
        # deleted versions leave the survivors' numbering sparse
        entry = next(
            (e for e in entries if int(e["version"]) == number), None
        )
        if entry is None:
            options = ", ".join(
                [f"v{e['version']}" for e in entries] + sorted(tags)
            )
            raise RegistryError(
                f"cannot resolve {ref!r}: no version, tag, or digest matches "
                f"{selector!r} (have: {options})"
            )
        return self._version_from_entry(name, entry)

    def get(self, ref: str) -> DataAuditor:
        """Load the auditor a reference points at, ready to audit."""
        version = self.resolve(ref)
        return self.get_version(version)

    def get_version(self, version: ModelVersion) -> DataAuditor:
        """Load the model object of an already-resolved version.

        The object's bytes must hash to the version's digest: an object
        edited or corrupted on disk raises :class:`RegistryError` even
        when it still parses, instead of being served as that version.
        """
        path = self._object_path(version.digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise RegistryError(
                f"registry object {version.digest[:12]}… for {version.ref} "
                f"is missing from {self.objects_dir}"
            )
        except OSError as exc:
            raise RegistryError(f"cannot read registry object {path}: {exc}")
        actual = hashlib.sha256(data).hexdigest()
        if actual != version.digest:
            raise RegistryError(
                f"registry object for {version.ref} is corrupt: its bytes hash "
                f"to {actual}, not the recorded digest {version.digest}"
            )
        try:
            payload = json.loads(data)
        except ValueError as exc:
            raise RegistryError(f"cannot read registry object {path}: {exc}")
        try:
            return auditor_from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(
                f"registry object for {version.ref} is not a valid model: {exc}"
            )

    def tag(self, ref: str, tag: str) -> ModelVersion:
        """Point *tag* at the version *ref* resolves to (e.g. pin
        ``prod`` to ``loads@v3``). Tags move freely; ``latest`` is
        reserved for the registry itself."""
        if not tag or tag == "latest" or (tag.startswith("v") and tag[1:].isdigit()):
            raise RegistryError(
                f"invalid tag {tag!r} ('latest' and vN forms are reserved)"
            )
        with self._locked(self):
            version = self.resolve(ref)
            index = self._read_index(version.name)
            assert index is not None  # resolve() just found it
            index["tags"][tag] = version.version
            self._write_index(version.name, index)
        return version

    def delete(self, ref: str) -> int:
        """Remove a whole name (``"loads"``) or one version
        (``"loads@v2"``); returns the number of versions removed.

        Deleting a version keeps the numbering of the survivors (refs
        stay stable); tags pointing at a removed version are dropped.
        Object files no longer referenced by any name are garbage
        collected.
        """
        name, sep, selector = ref.partition("@")
        with self._locked(self):
            index = self._read_index(name)
            if index is None:
                raise RegistryError(f"no model named {name!r} in registry {self.root}")
            if not sep:  # the whole name
                removed = len(index["versions"])
                self._index_path(name).unlink()
            else:
                version = self.resolve(ref)
                index["versions"] = [
                    e for e in index["versions"] if int(e["version"]) != version.version
                ]
                index["tags"] = {
                    t: v for t, v in index["tags"].items() if int(v) != version.version
                }
                removed = 1
                if index["versions"]:
                    if "latest" not in index["tags"]:
                        index["tags"]["latest"] = int(
                            index["versions"][-1]["version"]
                        )
                    self._write_index(name, index)
                else:
                    self._index_path(name).unlink()
            self._collect_garbage()
        return removed

    def _collect_garbage(self) -> None:
        """Unlink object files referenced by no surviving version.
        Called under the writer lock."""
        referenced = set()
        for name in self.list():
            index = self._read_index(name)
            if index is not None:
                referenced.update(e["digest"] for e in index["versions"])
        for path in self.objects_dir.glob("*.json"):
            if path.stem not in referenced:
                try:
                    path.unlink()
                except OSError:
                    pass

    def __repr__(self) -> str:
        return f"ModelRegistry({str(self.root)!r}, {len(self.list())} names)"
