"""Backup, restore and migration through the lifecycle export pack.

A backup is :meth:`TenantOffboarder.export_tenant` into another store
(no delete), a restore is :meth:`TenantOffboarder.import_tenant`, and a
migration is export → import → verified offboard at the source
(:meth:`LogStore.migrate_tenant`).  Cold-tier tenants take the same
path: their segment members are exported by byte range and imported as
hot blocks.
"""

import json

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.clock import VirtualClock
from repro.common.errors import CatalogError, TenantNotFound
from repro.lifecycle.offboard import EXPORT_MANIFEST_MEMBER, TenantOffboarder, export_path
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import request_log_schema
from repro.meta.catalog import TIER_COLD, TIER_HOT, Catalog
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.tarpack.reader import PackReader

from tests.conftest import make_rows
from tests.lifecycle.test_cold import QUERIES, demote

MONTH_S = 30 * 24 * 3_600.0


def fresh_store(bucket):
    store = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
    store.create_bucket(bucket)
    return store


def make_cluster():
    return LogStore.create(
        config=small_test_config(cold_target_rows=200, cold_min_blocks=1)
    )


@pytest.fixture
def source():
    store = make_cluster()
    store.register_tenant(1, name="mover", retention_s=MONTH_S)
    store.register_tenant(2, name="stayer")
    store.put(1, make_rows(600, tenant_id=1))
    store.put(2, make_rows(200, tenant_id=2, seed=9))
    store.flush_all()
    return store


def answers(store):
    return [store.query(sql).rows for sql in QUERIES]


def read_manifest(store, bucket, tenant_id):
    pack = PackReader(store, bucket, export_path(tenant_id))
    return pack, json.loads(pack.read_member(EXPORT_MANIFEST_MEMBER))


class TestBackup:
    def test_pack_holds_every_block_byte_identical(self, source):
        vault = fresh_store("vault")
        blocks = list(source.catalog.tenant(1).blocks)
        key, n_blocks, n_bytes = source.lifecycle.offboarder.export_tenant(
            1, vault, "vault"
        )
        assert key == export_path(1)
        assert n_blocks == len(blocks)
        assert vault.head("vault", key).size == n_bytes
        pack, manifest = read_manifest(vault, "vault", 1)
        assert manifest["name"] == "mover"
        assert [b["path"] for b in manifest["blocks"]] == [b.path for b in blocks]
        for block, entry in zip(blocks, manifest["blocks"]):
            assert pack.read_member(entry["member"]) == source.oss.get(
                source.config.bucket, block.path
            )
        # A backup is an export without the delete: the source keeps all.
        assert source.catalog.tenant(1).blocks == blocks
        assert not source.oss.exists(source.config.bucket, key)

    def test_other_tenant_not_copied(self, source):
        vault = fresh_store("vault")
        source.lifecycle.offboarder.export_tenant(1, vault, "vault")
        assert [stat.key for stat in vault.list("vault")] == [export_path(1)]
        _pack, manifest = read_manifest(vault, "vault", 1)
        assert all(b["path"].startswith("tenants/1/") for b in manifest["blocks"])

    def test_reexport_replaces_pack(self, source):
        vault = fresh_store("vault")
        offboarder = source.lifecycle.offboarder
        _key, first, _bytes = offboarder.export_tenant(1, vault, "vault")
        source.put(1, make_rows(100, tenant_id=1, seed=3))
        source.flush_all()
        _key, second, _bytes = offboarder.export_tenant(1, vault, "vault")
        assert second > first
        assert len(vault.list("vault")) == 1
        _pack, manifest = read_manifest(vault, "vault", 1)
        assert len(manifest["blocks"]) == second

    def test_unknown_tenant(self, source):
        with pytest.raises(TenantNotFound):
            source.lifecycle.offboarder.export_tenant(404, fresh_store("vault"), "vault")


class TestImport:
    def test_into_fresh_catalog_and_store(self, source):
        vault = fresh_store("vault")
        source.lifecycle.offboarder.export_tenant(1, vault, "vault")
        catalog = Catalog(request_log_schema())
        store = fresh_store("newcluster")
        info = TenantOffboarder(catalog, store, "newcluster").import_tenant(
            1, vault, "vault"
        )
        original = source.catalog.tenant(1)
        assert (info.name, info.retention_s) == ("mover", MONTH_S)
        assert [(b.min_ts, b.max_ts, b.row_count) for b in info.blocks] == [
            (b.min_ts, b.max_ts, b.row_count) for b in original.blocks
        ]
        assert info.total_rows == original.total_rows
        for restored, block in zip(info.blocks, original.blocks):
            assert restored.tier == TIER_HOT
            assert restored.path.startswith("tenants/1/")
            reader = LogBlockReader(PackReader(store, "newcluster", restored.path))
            expected = LogBlockReader(
                PackReader(source.oss, source.config.bucket, block.path)
            )
            assert reader.read_column("log") == expected.read_column("log")

    def test_refuses_registered_tenant(self, source):
        vault = fresh_store("vault")
        offboarder = source.lifecycle.offboarder
        offboarder.export_tenant(1, vault, "vault")
        blocks = list(source.catalog.tenant(1).blocks)
        objects = len(source.oss.list(source.config.bucket, "tenants/1/"))
        with pytest.raises(CatalogError):
            offboarder.import_tenant(1, vault, "vault")
        assert source.catalog.tenant(1).blocks == blocks
        assert len(source.oss.list(source.config.bucket, "tenants/1/")) == objects

    def test_cold_tenant_restores_identical_answers(self, source):
        """A cold block's catalog path is a virtual ``segment#member``
        path with no object behind it: export must read the member's
        byte range out of the segment."""
        demote(source)
        assert {b.tier for b in source.catalog.tenant(1).blocks} == {TIER_COLD}
        vault = fresh_store("vault")
        source.lifecycle.offboarder.export_tenant(1, vault, "vault")
        destination = make_cluster()
        destination.lifecycle.offboarder.import_tenant(1, vault, "vault")
        assert {b.tier for b in destination.catalog.tenant(1).blocks} == {TIER_HOT}
        assert answers(destination) == answers(source)


class TestMigrate:
    def test_moves_tenant_between_clusters(self, source):
        expected = answers(source)
        stayer = source.query("SELECT ts, log FROM request_log WHERE tenant_id = 2").rows
        destination = make_cluster()
        report = source.migrate_tenant(1, destination)
        assert report.verified and report.residue == []
        assert report.query_rows == 0
        assert report.exported_blocks == len(destination.catalog.tenant(1).blocks)
        with pytest.raises(TenantNotFound):
            source.catalog.tenant(1)
        assert destination.catalog.tenant(1).retention_s == MONTH_S
        assert answers(destination) == expected
        # The other tenant is untouched at the source, absent at the
        # destination.
        after = source.query("SELECT ts, log FROM request_log WHERE tenant_id = 2").rows
        assert after == stayer
        assert destination.oss.list(destination.config.bucket, "tenants/2/") == []

    def test_cold_tenant_migrates(self, source):
        demote(source)
        expected = answers(source)
        destination = make_cluster()
        report = source.migrate_tenant(1, destination)
        assert report.verified
        assert source.catalog.segment_paths() == []
        assert answers(destination) == expected

    def test_keep_source(self, source):
        """Export + import without the offboard copies and keeps."""
        destination = make_cluster()
        source.lifecycle.offboarder.export_tenant(
            1, destination.oss, destination.config.bucket
        )
        destination.lifecycle.offboarder.import_tenant(1)
        assert len(source.catalog.tenant(1).blocks) > 0
        assert answers(destination) == answers(source)
