"""Tenant offboarding: portable export, verified zero-residue delete."""

import json

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.lifecycle.offboard import EXPORT_MANIFEST_MEMBER, export_path
from repro.logblock.reader import LogBlockReader
from repro.tarpack.reader import BytesRangeReader, PackReader

from tests.conftest import make_rows


@pytest.fixture
def store():
    store = LogStore.create(config=small_test_config(cold_target_rows=200))
    store.register_tenant(1, name="leaver")
    store.register_tenant(2, name="stayer")
    store.put(1, make_rows(400, tenant_id=1))
    store.put(2, make_rows(150, tenant_id=2, seed=5))
    store.flush_all()
    return store


class TestOffboard:
    def test_verified_full_delete(self, store):
        paths = [block.path for block in store.catalog.tenant(1).blocks]
        report = store.offboard_tenant(1)
        assert report.verified
        assert report.exported_blocks == len(paths)
        assert report.deleted_objects >= len(paths)
        assert report.residue == []
        # The three proofs: catalog, OSS listing, live query.
        assert 1 not in {t.tenant_id for t in store.catalog.tenants()}
        stored = [s.key for s in store.oss.list(store.config.bucket, "tenants/1/")]
        assert stored == []
        assert not any(store.oss.exists(store.config.bucket, path) for path in paths)
        assert report.query_rows == 0

    def test_export_archive_is_portable(self, store):
        rows_before = store.catalog.tenant(1).total_rows
        report = store.offboard_tenant(1)
        assert report.export_key == export_path(1)
        pack = PackReader(store.oss, store.config.bucket, report.export_key)
        names = pack.member_names()
        assert EXPORT_MANIFEST_MEMBER in names
        manifest = json.loads(pack.read_member(EXPORT_MANIFEST_MEMBER))
        assert manifest["tenant_id"] == 1
        assert len(manifest["blocks"]) == report.exported_blocks
        # Every exported member is a readable, self-contained LogBlock
        # holding the tenant's full corpus.
        recovered = 0
        for name in names:
            if name == EXPORT_MANIFEST_MEMBER:
                continue
            blob = pack.read_member(name)
            reader = LogBlockReader(PackReader(BytesRangeReader(blob), "export", name))
            recovered += reader.meta().row_count
        assert recovered == rows_before

    def test_other_tenants_untouched(self, store):
        before = store.query(
            "SELECT ts, log FROM request_log WHERE tenant_id = 2"
        ).rows
        store.offboard_tenant(1)
        after = store.query(
            "SELECT ts, log FROM request_log WHERE tenant_id = 2"
        ).rows
        assert after == before
        assert len(store.catalog.tenant(2).blocks) > 0

    def test_offboard_is_idempotent(self, store):
        first = store.offboard_tenant(1)
        assert first.verified
        again = store.offboard_tenant(1)
        assert again.verified
        assert again.deleted_objects == 0
        assert again.query_rows == 0

    def test_offboard_without_export(self, store):
        report = store.offboard_tenant(1, export=False)
        assert report.verified
        assert report.export_key is None
        assert not store.oss.exists(store.config.bucket, export_path(1))

    def test_offboard_flushes_unarchived_rows(self, store):
        store.put(1, make_rows(50, tenant_id=1, seed=77))
        report = store.offboard_tenant(1)
        assert report.verified and report.query_rows == 0

    def test_cold_tenant_offboards_cleanly(self, store):
        from tests.lifecycle.test_cold import demote

        demote(store)
        segments = store.catalog.segment_paths()
        assert segments
        report = store.offboard_tenant(1)
        assert report.verified
        stored = {s.key for s in store.oss.list(store.config.bucket, "tenants/")}
        assert not any(key in stored for key in segments)
