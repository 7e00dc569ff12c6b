"""ExpirySweeper: zero-read expiry, O(expired) scans, orphan draining."""

import pytest

from repro.builder.builder import DataBuilder
from repro.builder.compaction import Compactor
from repro.lifecycle.cold import ColdCompactor
from repro.lifecycle.sweeper import ExpirySweeper
from repro.meta.catalog import TIER_COLD, Catalog, LogBlockEntry
from repro.obs.context import Observability
from repro.rowstore.memtable import MemTable

from tests.conftest import BASE_TS, MICROS, make_rows

BUCKET = "test"
HOUR_US = 3_600 * MICROS


def archive(schema, store, catalog, tenant_id, count, start_ts, **builder_kw):
    """Rows → sealed memtable → LogBlocks on OSS, via the real builder."""
    builder_kw.setdefault("block_rows", 32)
    builder_kw.setdefault("target_rows", 64)
    builder = DataBuilder(schema, store, BUCKET, catalog, **builder_kw)
    memtable = MemTable()
    for row in make_rows(count, tenant_id=tenant_id, start_ts=start_ts):
        memtable.append(row)
    memtable.seal()
    builder.archive_memtable(memtable)
    return builder


class FailingDeleteStore:
    """Pass-through wrapper whose DELETEs fail while armed."""

    def __init__(self, inner):
        self._inner = inner
        self.failures_left = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def delete(self, bucket, key):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise RuntimeError("injected delete failure")
        return self._inner.delete(bucket, key)


class TestZeroReadExpiry:
    def test_sweep_issues_no_gets(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 256, BASE_TS)
        n_blocks = len(catalog.tenant(1).blocks)
        assert n_blocks > 1
        stored_bytes = catalog.tenant(1).total_bytes
        catalog.set_retention(1, 3_600.0)

        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        before = free_store.stats.snapshot()
        report = sweeper.sweep(BASE_TS + 256 * MICROS + 2 * HOUR_US)
        after = free_store.stats.snapshot()

        assert report.blocks_expired == n_blocks
        assert report.bytes_reclaimed == stored_bytes
        # The defining property: expiry is metadata-only on the read
        # side — not one OSS GET, not one decoded byte.
        assert after.get_requests == before.get_requests
        assert after.bytes_read == before.bytes_read
        assert after.delete_requests - before.delete_requests == n_blocks
        assert catalog.tenant(1).blocks == []
        assert catalog.tenant(1).expired_blocks_total == n_blocks
        assert not [s for s in free_store.list(BUCKET, "tenants/")]

    def test_partial_overlap_keeps_block(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 64, BASE_TS, target_rows=64)
        catalog.set_retention(1, 3_600.0)
        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        # Cutoff lands inside the block's [min_ts, max_ts]: rows age out
        # at block granularity, so the straddling block survives.
        report = sweeper.sweep(BASE_TS + 32 * MICROS + HOUR_US)
        assert report.blocks_expired == 0
        assert len(catalog.tenant(1).blocks) == 1

    def test_sweep_is_idempotent(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 128, BASE_TS)
        catalog.set_retention(1, 3_600.0)
        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        now_ts = BASE_TS + 128 * MICROS + 2 * HOUR_US
        first = sweeper.sweep(now_ts)
        assert first.blocks_expired > 0
        again = sweeper.sweep(now_ts)
        assert again.blocks_expired == 0
        assert again.entries_examined == 0

    def test_missing_object_counts_as_deleted(self, free_store, schema):
        """NoSuchKey is success: an object already gone (a healed retry,
        an operator's manual delete) still expires its entry and queues
        no orphan."""
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 64, BASE_TS, target_rows=64)
        catalog.set_retention(1, 3_600.0)
        (entry,) = catalog.tenant(1).blocks
        free_store.delete(BUCKET, entry.path)
        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        report = sweeper.sweep(BASE_TS + 64 * MICROS + 2 * HOUR_US)
        assert report.blocks_expired == 1
        assert catalog.tenant(1).blocks == []
        assert sweeper.orphans == []

    def test_other_tenants_untouched(self, free_store, schema):
        """Per-tenant independence, the multi-tenant layout's point:
        one tenant's TTL never touches another tenant's entries or
        objects, however old their rows are."""
        catalog = Catalog(schema)
        for tenant_id in (1, 2):
            catalog.register_tenant(tenant_id)
            archive(schema, free_store, catalog, tenant_id, 128, BASE_TS)
        catalog.set_retention(1, 3_600.0)
        kept = {entry.path for entry in catalog.tenant(2).blocks}
        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        report = sweeper.sweep(BASE_TS + 128 * MICROS + 2 * HOUR_US)
        assert report.tenants_touched == {1}
        assert catalog.tenant(1).blocks == []
        assert {entry.path for entry in catalog.tenant(2).blocks} == kept
        assert {stat.key for stat in free_store.list(BUCKET, "tenants/")} == kept


def place_block(catalog, store, tenant_id, min_ts, max_ts, path):
    """A hand-placed catalog entry over a 7-byte object: the exact
    ``max_ts`` lets a test pin the retention boundary precisely."""
    store.put(BUCKET, path, b"payload")
    catalog.add_block(
        LogBlockEntry(
            tenant_id=tenant_id,
            min_ts=min_ts,
            max_ts=max_ts,
            path=path,
            size_bytes=7,
            row_count=1,
        )
    )


class TestExpiryBoundary:
    def test_expired_blocks_selection(self, free_store, schema):
        """A block expires only when its newest row predates the cutoff;
        one whose rows straddle it stays, object and entry."""
        catalog = Catalog(schema)
        catalog.register_tenant(1, retention_s=100)
        place_block(catalog, free_store, 1, 0, 50 * MICROS, "old")
        place_block(catalog, free_store, 1, 0, 500 * MICROS, "new")
        report = ExpirySweeper(catalog, free_store, BUCKET).sweep(200 * MICROS)
        assert report.blocks_expired == 1
        assert [entry.path for entry in catalog.tenant(1).blocks] == ["new"]
        assert not free_store.exists(BUCKET, "old")
        assert free_store.exists(BUCKET, "new")

    def test_no_retention_never_expires(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1, retention_s=None)
        place_block(catalog, free_store, 1, 0, 1, "forever")
        report = ExpirySweeper(catalog, free_store, BUCKET).sweep(10**18)
        assert report.blocks_expired == 0
        assert report.entries_examined == 0
        assert free_store.exists(BUCKET, "forever")
        assert len(catalog.tenant(1).blocks) == 1

    def test_run_deletes_from_oss_and_catalog(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1, retention_s=10)
        place_block(catalog, free_store, 1, 0, 0, "victim")
        report = ExpirySweeper(catalog, free_store, BUCKET).sweep(100 * MICROS)
        assert report.blocks_expired == 1
        assert report.bytes_reclaimed == 7
        assert report.tenants_touched == {1}
        assert not free_store.exists(BUCKET, "victim")
        assert catalog.tenant(1).blocks == []
        assert catalog.tenant(1).expired_blocks_total == 1


class TestScanCostBound:
    def test_examined_entries_match_expired_count(self, free_store, schema):
        """Satellite: expiry work is O(expired blocks), not O(catalog)."""
        catalog = Catalog(schema)
        for tenant_id in (1, 2, 3):
            catalog.register_tenant(tenant_id)
            # One block per 32 rows; tenant 3 never gets a TTL.
            archive(
                schema, free_store, catalog, tenant_id, 1_280,
                BASE_TS, target_rows=32,
            )
        total_blocks = len(catalog.all_blocks())
        assert total_blocks >= 120
        catalog.set_retention(1, 3_600.0)
        catalog.set_retention(2, 1_000 * 3_600.0)  # nothing expired yet

        # Expire only tenant 1's oldest blocks: cutoff after ~160 rows.
        now_ts = BASE_TS + 160 * MICROS + HOUR_US
        candidates, examined = catalog.expired_candidates(now_ts)
        assert 0 < len(candidates) <= 5
        # Exactly the blocks whose newest row predates the cutoff.
        cutoff = now_ts - HOUR_US
        assert candidates == [
            entry for entry in catalog.tenant(1).blocks_by_age if entry.max_ts < cutoff
        ]
        # The bisect examines exactly the expired prefix — the other
        # 100+ catalog entries are never touched.
        assert examined == len(candidates)

        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        report = sweeper.sweep(now_ts)
        assert report.blocks_expired == len(candidates)
        assert report.entries_examined == len(candidates)
        assert report.entries_examined < total_blocks / 10

    def test_no_retention_examines_nothing(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 256, BASE_TS)
        blocks = list(catalog.tenant(1).blocks)
        _candidates, examined = catalog.expired_candidates(BASE_TS + 100 * HOUR_US)
        assert examined == 0
        # No TTL means keep forever, at any clock.
        report = ExpirySweeper(catalog, free_store, BUCKET).sweep(10**18)
        assert report.blocks_expired == 0
        assert catalog.tenant(1).blocks == blocks


class TestOrphanSweeping:
    def test_compactor_orphans_drain_through_sweeper(self, free_store, schema):
        """Satellite: compensation-delete leftovers converge via the
        sweeper's orphan sink, observable in the lifecycle counter."""
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        flaky = FailingDeleteStore(free_store)
        # Many small blocks so compaction has inputs to retire.
        archive(schema, flaky, catalog, 1, 200, BASE_TS, target_rows=25)
        small_blocks = len(catalog.tenant(1).blocks)
        assert small_blocks > 1

        compactor = Compactor(
            schema, flaky, BUCKET, catalog,
            small_threshold_rows=50, target_rows=400,
        )
        flaky.failures_left = small_blocks  # every input retire fails
        results = compactor.compact_all()
        assert results and compactor.orphans
        orphaned = len(compactor.orphans)

        obs = Observability.noop()
        sweeper = ExpirySweeper(catalog, flaky, BUCKET, obs=obs)
        sweeper.attach_orphan_source(compactor)
        flaky.failures_left = 0  # store healed
        cleared = sweeper.sweep_orphans()
        assert cleared == orphaned
        assert compactor.orphans == []
        counters = obs.registry.snapshot().counters
        assert sum(counters["logstore_lifecycle_orphans_swept_total"].values()) == orphaned
        # The retired inputs are really gone from the bucket.
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert stored == {entry.path for entry in catalog.tenant(1).blocks}

    def test_own_delete_failures_queue_and_retry(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        flaky = FailingDeleteStore(free_store)
        archive(schema, flaky, catalog, 1, 64, BASE_TS, target_rows=64)
        catalog.set_retention(1, 3_600.0)
        sweeper = ExpirySweeper(catalog, flaky, BUCKET)
        flaky.failures_left = 10
        report = sweeper.sweep(BASE_TS + 64 * MICROS + 2 * HOUR_US)
        # Catalog-first ordering: the entry is gone even though the
        # object DELETE failed; the object waits in the orphan queue.
        assert report.blocks_expired == 1
        assert catalog.tenant(1).blocks == []
        assert len(sweeper.orphans) == 1
        flaky.failures_left = 0
        assert sweeper.sweep_orphans() == 1
        assert sweeper.orphans == []
        assert not [s for s in free_store.list(BUCKET, "tenants/")]


class TestColdSegments:
    def make_cold_tenant(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 192, BASE_TS, target_rows=64)
        catalog.set_cold_age(1, 1.0)
        # 192 rows at 64 rows per cold member → one segment, 3 members.
        cold = ColdCompactor(schema, free_store, BUCKET, catalog, target_rows=64)
        results = cold.repack_all(BASE_TS + 192 * MICROS + HOUR_US)
        assert any(r.repacked for r in results)
        return catalog

    def test_segment_survives_until_last_member_expires(self, free_store, schema):
        catalog = self.make_cold_tenant(free_store, schema)
        info = catalog.tenant(1)
        members = sorted(
            (b for b in info.blocks if b.tier == TIER_COLD),
            key=lambda b: b.min_ts,
        )
        assert len(members) == 3
        segment = members[0].segment_path
        assert catalog.segment_refcount(segment) == len(members)
        catalog.set_retention(1, 3_600.0)

        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        # Expire only the first member's rows: the shared segment object
        # must survive while siblings still reference it.
        mid = sweeper.sweep(members[0].max_ts + HOUR_US + 1)
        assert mid.blocks_expired >= 1
        assert mid.segments_deleted == 0
        assert catalog.segment_refcount(segment) > 0
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert segment in stored

        final = sweeper.sweep(members[-1].max_ts + HOUR_US + 1)
        assert final.segments_deleted == 1
        assert catalog.segment_refcount(segment) == 0
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert segment not in stored

    def test_cold_expiry_reads_nothing(self, free_store, schema):
        catalog = self.make_cold_tenant(free_store, schema)
        catalog.set_retention(1, 3_600.0)
        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        before = free_store.stats.snapshot()
        report = sweeper.sweep(BASE_TS + 192 * MICROS + 2 * HOUR_US)
        after = free_store.stats.snapshot()
        assert report.blocks_expired == 3
        assert after.get_requests == before.get_requests
        assert after.bytes_read == before.bytes_read


class TestReconcile:
    def test_unreferenced_objects_removed(self, free_store, schema):
        catalog = Catalog(schema)
        catalog.register_tenant(1)
        archive(schema, free_store, catalog, 1, 64, BASE_TS, target_rows=64)
        free_store.put(BUCKET, "tenants/000001/stray-0-0.lgb", b"orphaned bytes")
        free_store.put(BUCKET, "tenants/000001/unrelated.txt", b"not a block")
        sweeper = ExpirySweeper(catalog, free_store, BUCKET)
        removed = sweeper.reconcile()
        assert removed == 1
        stored = {stat.key for stat in free_store.list(BUCKET, "tenants/")}
        assert "tenants/000001/stray-0-0.lgb" not in stored
        assert "tenants/000001/unrelated.txt" in stored  # not ours to touch
        assert {entry.path for entry in catalog.tenant(1).blocks} <= stored
