"""Tests for the content-addressed model registry (``repro.registry``).

The contract under test: models are addressed by the digest of their
canonical serialized form (identical models dedupe to one object),
named versions and provenance survive round trips, every write is
atomic (a reader sees the old or the new state of a name, never a torn
one), and concurrent writers serialize on the lockfile instead of
clobbering each other."""

import hashlib
import json
import multiprocessing
import random

import pytest

from repro.core import AuditorConfig, AuditSession, ModelPersistenceError
from repro.registry import (
    ModelRegistry,
    Provenance,
    RegistryError,
    model_digest,
    parse_ref,
    schema_digest,
)
from repro.core.serialize import auditor_from_dict, auditor_to_dict
from repro.schema import Schema, Table, nominal, numeric


def _structured_table(n=400, seed=7):
    rng = random.Random(seed)
    rule = {"a": "x", "b": "y", "c": "z"}
    rows = []
    for _ in range(n):
        a = rng.choice(["a", "b", "c"])
        b = rule[a] if rng.random() > 0.02 else rng.choice(["x", "y", "z"])
        rows.append([a, b, rng.randint(0, 100)])
    schema = Schema(
        [
            nominal("A", ["a", "b", "c"]),
            nominal("B", ["x", "y", "z"]),
            numeric("N", 0, 100, integer=True),
        ]
    )
    return Table(schema, rows)


@pytest.fixture(scope="module")
def table():
    return _structured_table()


@pytest.fixture(scope="module")
def fitted(table):
    return AuditSession(
        table.schema, AuditorConfig(min_error_confidence=0.8)
    ).fit(table)


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestRefParsing:
    def test_bare_name_means_latest(self):
        assert parse_ref("loads") == ("loads", "latest")

    def test_explicit_selector(self):
        assert parse_ref("loads@v3") == ("loads", "v3")
        assert parse_ref("loads@prod") == ("loads", "prod")

    @pytest.mark.parametrize("bad", ["", "@v1", "loads@"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(RegistryError):
            parse_ref(bad)


class TestPutGet:
    def test_put_returns_v1_and_get_round_trips(self, registry, fitted, table):
        version = registry.put(fitted.auditor, "loads")
        assert version.ref == "loads@v1"
        assert version.digest == model_digest(auditor_to_dict(fitted.auditor))
        restored = registry.get("loads@v1")
        assert restored.audit(table).findings == fitted.audit(table).findings

    def test_content_addressing_dedupes_objects(self, registry, fitted):
        v1 = registry.put(fitted.auditor, "loads")
        v2 = registry.put(fitted.auditor, "loads")
        assert (v1.version, v2.version) == (1, 2)
        assert v1.digest == v2.digest
        assert len(list(registry.objects_dir.glob("*.json"))) == 1

    def test_same_model_under_two_names_shares_one_object(self, registry, fitted):
        a = registry.put(fitted.auditor, "alpha")
        b = registry.put(fitted.auditor, "beta")
        assert a.digest == b.digest
        assert len(list(registry.objects_dir.glob("*.json"))) == 1

    def test_unfitted_rejected(self, registry, table):
        session = AuditSession(table.schema)
        with pytest.raises(RegistryError, match="unfitted"):
            registry.put(session.auditor, "loads")
        with pytest.raises(ModelPersistenceError, match="unfitted"):
            session.save_to_registry(registry, "loads")

    @pytest.mark.parametrize("bad", ["", "a/b", "x@y", ".hidden", 5])
    def test_invalid_names_rejected(self, registry, fitted, bad):
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.put(fitted.auditor, bad)

    def test_unknown_name_lists_known(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        with pytest.raises(RegistryError, match="known: loads"):
            registry.get("nope")


class TestProvenance:
    def test_schema_hash_and_created_at_filled_in(self, registry, fitted, table):
        version = registry.put(
            fitted.auditor,
            "loads",
            provenance=Provenance(
                source="sqlite:///wh.db?table=history",
                source_format="sqlite",
                n_rows=table.n_rows,
                fit_seconds=1.25,
            ),
        )
        record = registry.resolve("loads@v1").provenance
        assert record.schema_hash == schema_digest(table.schema)
        assert record.source == "sqlite:///wh.db?table=history"
        assert record.source_format == "sqlite"
        assert record.n_rows == table.n_rows
        assert record.fit_seconds == 1.25
        assert record.created_at  # ISO stamp filled in by the registry
        assert version.provenance == record

    def test_every_version_records_schema_hash(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        registry.put(fitted.auditor, "loads", provenance=Provenance(source="x.csv"))
        for version in registry.versions("loads"):
            assert version.provenance.schema_hash == schema_digest(
                fitted.schema
            )


class TestResolveTagDelete:
    def test_latest_follows_puts(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        registry.put(fitted.auditor, "loads")
        assert registry.resolve("loads").version == 2
        assert registry.resolve("loads@latest").version == 2
        assert registry.resolve("loads@v1").version == 1

    def test_digest_prefix_resolves(self, registry, fitted):
        version = registry.put(fitted.auditor, "loads")
        assert registry.resolve(f"loads@{version.digest[:12]}").version == 1

    def test_tag_pins_and_latest_moves_on(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        registry.tag("loads@v1", "prod")
        registry.put(fitted.auditor, "loads")
        assert registry.resolve("loads@prod").version == 1
        assert registry.resolve("loads").version == 2
        assert registry.tags("loads") == {"latest": 2, "prod": 1}

    def test_reserved_tags_rejected(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        for reserved in ("latest", "v3", ""):
            with pytest.raises(RegistryError):
                registry.tag("loads@v1", reserved)

    def test_unknown_selector_lists_options(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        with pytest.raises(RegistryError, match="have: v1"):
            registry.resolve("loads@v9")

    def test_delete_version_keeps_numbering(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        registry.put(fitted.auditor, "loads")
        assert registry.delete("loads@v1") == 1
        assert [v.version for v in registry.versions("loads")] == [2]
        assert registry.resolve("loads").version == 2

    def test_delete_name_collects_orphaned_objects(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        assert registry.delete("loads") == 1
        assert registry.list() == []
        assert list(registry.objects_dir.glob("*.json")) == []

    def test_delete_keeps_objects_shared_with_other_names(self, registry, fitted):
        registry.put(fitted.auditor, "alpha")
        registry.put(fitted.auditor, "beta")
        registry.delete("alpha")
        assert len(list(registry.objects_dir.glob("*.json"))) == 1
        assert registry.get("beta") is not None


class TestSessionFacade:
    def test_save_load_round_trip(self, registry, fitted, table):
        version = fitted.save_to_registry(registry, "loads")
        resumed = AuditSession.load_from_registry(registry, version.ref)
        assert resumed.is_fitted
        assert resumed.audit(table).findings == fitted.audit(table).findings

    def test_directory_path_accepted(self, tmp_path, fitted):
        fitted.save_to_registry(tmp_path / "reg", "loads")
        resumed = AuditSession.load_from_registry(tmp_path / "reg", "loads")
        assert resumed.is_fitted

    def test_errors_become_model_persistence_error(self, registry):
        with pytest.raises(ModelPersistenceError, match="no model named"):
            AuditSession.load_from_registry(registry, "missing@v1")


class TestCorruptionAndLocking:
    def test_torn_index_is_a_clear_error(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        (registry.names_dir / "loads.json").write_text("{trunc", encoding="utf-8")
        with pytest.raises(RegistryError, match="cannot read registry index"):
            registry.resolve("loads")

    def test_missing_object_is_a_clear_error(self, registry, fitted):
        version = registry.put(fitted.auditor, "loads")
        registry._object_path(version.digest).unlink()
        with pytest.raises(RegistryError, match="missing"):
            registry.get("loads")

    def test_edited_object_is_refused(self, registry, fitted):
        """An object edited on disk that still parses as a model must not
        be served as the version whose digest it no longer matches."""
        version = registry.put(fitted.auditor, "loads")
        path = registry._object_path(version.digest)
        payload = json.loads(path.read_text("utf-8"))
        payload["config"]["min_error_confidence"] = 0.5
        path.write_text(json.dumps(payload), encoding="utf-8")
        auditor_from_dict(json.loads(path.read_text("utf-8")))  # still parses
        with pytest.raises(RegistryError) as info:
            registry.get("loads@v1")
        message = str(info.value)
        assert "loads@v1" in message
        assert version.digest in message
        assert hashlib.sha256(path.read_bytes()).hexdigest() in message

    def test_lock_timeout_is_a_clear_error(self, registry, fitted):
        registry.lock_timeout_seconds = 0.1
        registry.lock_stale_seconds = 3600.0
        registry._acquire_lock()  # simulate another live writer
        try:
            with pytest.raises(RegistryError, match="timed out"):
                registry.put(fitted.auditor, "loads")
        finally:
            registry._release_lock()

    def test_stale_lock_is_broken(self, registry, fitted):
        import os
        import time

        registry._acquire_lock()  # a writer that crashed long ago …
        old = time.time() - 3600
        os.utime(registry._lock_path, (old, old))
        registry.lock_stale_seconds = 1.0
        version = registry.put(fitted.auditor, "loads")  # … must not brick us
        assert version.ref == "loads@v1"

    def test_no_temp_files_survive_a_put(self, registry, fitted):
        registry.put(fitted.auditor, "loads")
        leftovers = [
            p for p in registry.root.rglob("*") if ".tmp." in p.name
        ]
        assert leftovers == []

    @pytest.mark.parametrize("fsyncs_before", [0, 1], ids=["object", "index"])
    def test_interrupted_put_leaves_no_debris(
        self, registry, fitted, monkeypatch, fsyncs_before
    ):
        """Ctrl-C inside the object write or the index write of a put
        leaves neither a temp file nor the writer lock behind."""
        import os

        real_fsync, calls = os.fsync, []

        def interrupted(fd):
            calls.append(fd)
            if len(calls) > fsyncs_before:
                raise KeyboardInterrupt
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", interrupted)
        with pytest.raises(KeyboardInterrupt):
            registry.put(fitted.auditor, "loads")
        monkeypatch.undo()
        leftovers = [p for p in registry.root.rglob("*") if ".tmp." in p.name]
        assert leftovers == []
        assert not registry._lock_path.exists()


def _concurrent_put(args):
    """Register one version from a separate process (module-level so it
    pickles under spawn too)."""
    root, worker = args
    table = _structured_table(seed=7)  # deterministic: same digest everywhere
    session = AuditSession(
        table.schema, AuditorConfig(min_error_confidence=0.8)
    ).fit(table)
    registry = ModelRegistry(root)
    version = session.save_to_registry(registry, "loads")
    registry.tag(version.ref, f"worker{worker}")
    return version.version


class TestConcurrency:
    def test_two_processes_put_and_tag_without_tearing(self, tmp_path):
        """Two writers race `put`+`tag`; the lockfile must serialize them:
        both get distinct version numbers, both tags land, and the index
        read back is complete (never a torn/partial state)."""
        root = tmp_path / "registry"
        ModelRegistry(root)  # pre-create so both children race only on writes
        ctx = multiprocessing.get_context()
        with ctx.Pool(2) as pool:
            versions = pool.map(
                _concurrent_put, [(str(root), 1), (str(root), 2)]
            )
        assert sorted(versions) == [1, 2]
        registry = ModelRegistry(root)
        assert [v.version for v in registry.versions("loads")] == [1, 2]
        tags = registry.tags("loads")
        assert set(tags) == {"latest", "worker1", "worker2"}
        assert tags["latest"] == 2
        # identical training data → identical model → one shared object
        assert len(list(registry.objects_dir.glob("*.json"))) == 1
        assert not registry._lock_path.exists()

    def test_reader_during_writes_sees_whole_states_only(self, tmp_path, fitted):
        """Interleave reads with writes: every successful resolve must
        return a complete, loadable version (old or new state — never a
        torn index)."""
        registry = ModelRegistry(tmp_path / "registry")
        reader = ModelRegistry(tmp_path / "registry")
        for _ in range(5):
            registry.put(fitted.auditor, "loads")
            version = reader.resolve("loads")
            assert version.provenance.schema_hash
            assert reader.get_version(version).classifiers
