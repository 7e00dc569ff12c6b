"""Which program calls the traced run times, and the per-layer metrics.

Methods are wrapped on their class; module-level functions are wrapped
under the name their caller looks them up by; codecs are wrapped on
each registered ``Codec`` instance.  Span names are ``Class.method``
(or the function name).

Normalisation: ``*.self_ms`` and ``*.ms``/``*.us_per_row`` figures are
CPU time (``process_time``).  Write-side figures are per client write
(``put`` or INSERT), read-side figures per query, archive figures per
background call or per archived row, as each unit says.  A layer that
did no work on a workload reports 0.
"""

from __future__ import annotations

import importlib

# (module, class, methods).  FOLDED names are once-per-row calls.
METHODS = [
    ("repro.cluster.broker", "Broker", ("write", "write_nowait", "settle_writes", "query")),
    ("repro.obs.meter", "UsageMeter", ("record_ingest", "record_query")),
    ("repro.obs.alerts", "AlertEngine", ("evaluate",)),
    ("repro.cluster.shard", "Shard", ("write_async", "settle_writes", "seal_active", "scan_realtime")),
    ("repro.raft.group", "RaftGroup", ("propose_async", "settle_acked")),
    ("repro.raft.group_commit", "GroupCommitQueue", ("offer", "flush")),
    ("repro.raft.group_commit", "ReplicationPipeline", ("submit", "settle")),
    ("repro.wal.log", "WriteAheadLog", ("append", "append_many")),
    ("repro.rowstore.store", "RowStore", ("append_many",)),
    ("repro.rowstore.memtable", "MemTable", ("append_many", "scan", "rows_by_tenant")),
    ("repro.cluster.controller", "Controller", ("archive_all", "flush_all")),
    ("repro.builder.builder", "DataBuilder", ("archive_memtable",)),
    ("repro.logblock.writer", "LogBlockWriter", ("append_many", "append_columns", "finish")),
    ("repro.logblock.inverted", "InvertedIndexBuilder", ("add_many", "build")),
    ("repro.logblock.inverted", "InvertedIndex", ("to_bytes", "from_bytes")),
    ("repro.logblock.bloom", "BloomFilter", ("add_many", "to_bytes")),
    ("repro.logblock.bkd", "BkdIndexBuilder", ("add_many", "build")),
    ("repro.logblock.bkd", "BkdIndex", ("to_bytes", "from_bytes")),
    ("repro.tarpack.packer", "PackBuilder", ("build",)),
    ("repro.tarpack.reader", "PackReader", ("read_member", "manifest")),
    ("repro.oss.metered", "MeteredObjectStore", ("put", "get", "get_range", "get_ranges_parallel", "list", "delete")),
    ("repro.cache.multilevel", "CachingRangeReader", ("get_range", "get_ranges_parallel")),
    ("repro.cache.object_cache", "ObjectCache", ("get_or_load",)),
    ("repro.frontdoor.session", "Session", ("execute",)),
    ("repro.frontdoor.session", "PreparedStatement", ("execute",)),
    ("repro.frontdoor.rewrite", "SemanticRewriter", ("rewrite",)),
    ("repro.query.planner", "QueryPlanner", ("plan",)),
    ("repro.logblock.reader", "LogBlockReader", (
        "read_index", "read_bloom", "read_block", "read_block_arrays", "read_rows", "read_column_values",
    )),
    ("repro.query.kernels", "CompiledKernel", ("evaluate",)),
    ("repro.query.executor", "BlockExecutor", ("execute", "execute_aggregate", "execute_dedup", "materialize_dedup")),
    ("repro.query.dedup", "LatestVersionDedup", ("offer", "winners")),
    ("repro.query.aggregate", "Aggregator", ("consume", "consume_many", "consume_sma", "consume_columns", "merge", "results")),
    ("repro.lifecycle.manager", "LifecycleManager", ("tick",)),
]
FOLDED = {"LatestVersionDedup.offer", "Aggregator.consume"}

# (module the caller looks the name up in, function name)
FUNCTIONS = [
    ("repro.cluster.broker", "approx_rows_bytes"),
    ("repro.cluster.broker", "parse_sql"),
    ("repro.frontdoor.session", "parse_statement"),
    ("repro.cluster.broker", "filter_realtime_rows"),
    ("repro.query.executor", "evaluate_predicates"),
    ("repro.query.kernels", "top_k_order"),
    ("repro.tarpack.packer", "pack_members"),
]


def _post_counter(counter, measure):
    def post(recorder, args, kwargs, result, before):
        recorder.add(counter, measure(args, result, before))
    return post


def _count_compress(recorder, args, kwargs, result, before):
    recorder.add("codec.bytes_in", len(args[0]))
    recorder.add("codec.bytes_out", len(result))


def _read_modeled(args):
    return args[0].stats.time_charged_s


POSTS = {
    "WriteAheadLog.append": _post_counter("wal.bytes", lambda a, r, b: len(a[2])),
    "WriteAheadLog.append_many": _post_counter("wal.bytes", lambda a, r, b: sum(len(body) for _, body in a[1])),
    "MeteredObjectStore.put": _post_counter("oss.bytes_written", lambda a, r, b: len(a[3])),
    "QueryPlanner.plan": _post_counter("planner.blocks", lambda a, r, b: len(r.blocks)),
    "LatestVersionDedup.winners": _post_counter("dedup.winners", lambda a, r, b: len(r)),
}
READS = ("get", "get_range", "get_ranges_parallel")
for _read in READS:
    POSTS[f"MeteredObjectStore.{_read}"] = _post_counter(
        "oss.read_modeled_s", lambda a, r, b: a[0].stats.time_charged_s - b
    )


def install(instrumenter) -> None:
    """Wrap every call listed above (and every registered codec)."""
    from repro.codec.registry import available_codecs, get_codec

    for module_name, class_name, methods in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            name = f"{class_name}.{method}"
            pre = _read_modeled if class_name == "MeteredObjectStore" and method in READS else None
            instrumenter.wrap_method(
                cls, method, name, fold=name in FOLDED, pre=pre, post=POSTS.get(name)
            )
    for module_name, function in FUNCTIONS:
        instrumenter.wrap_attribute(importlib.import_module(module_name), function, function)
    for codec_name in available_codecs():
        codec = get_codec(codec_name)
        instrumenter.wrap_attribute(codec, "compress", "codec.compress", post=_count_compress)
        instrumenter.wrap_attribute(codec, "decompress", "codec.decompress")


def cache_counters(store) -> dict:
    cache = store.cache
    tiers = {
        "object": cache.objects.stats,
        "memory": cache.blocks.memory.stats,
        "ssd": cache.blocks.ssd.stats,
    }
    out = {}
    for tier, stats in tiers.items():
        out[f"{tier}.hits"] = stats.hits
        out[f"{tier}.misses"] = stats.misses
        out[f"{tier}.evictions"] = stats.evictions
    oss = store.oss.stats
    out["oss.get_requests"] = oss.get_requests
    out["oss.bytes_read"] = oss.bytes_read
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _p99(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def per_layer_metrics(recorder, ops: dict, samples, before: dict, after: dict) -> dict:
    """name -> (value, unit) for every per-layer metric except the
    tracing overhead, which needs the untraced run too."""
    own = recorder.self_times()

    def fam(*names):
        return recorder.family_totals(names, own)

    def self_ms(*names):
        return fam(*names)["self_cpu"] * 1e3

    def incl_ms(*names):
        return fam(*names)["inclusive_cpu"] * 1e3

    def calls(*names):
        return fam(*names)["calls"]

    counters = recorder.counters
    puts, queries = ops.get("put", 0), ops.get("query", 0)
    rows_put = ops.get("rows_put", 0)
    archive_calls = ops.get("background", 0) + ops.get("flush", 0)
    rows_archived = ops.get("rows_archived", 0)
    delta = {key: after[key] - before[key] for key in after}
    proposals = calls("RaftGroup.propose_async")
    blocks = calls("LogBlockWriter.finish")
    statements = calls("Session.execute")
    examined = samples.rows_vectorized + samples.rows_interpreted

    def hit_ratio(tier):
        hits, misses = delta[f"{tier}.hits"], delta[f"{tier}.misses"]
        return _div(hits, hits + misses)

    m = {}
    m["broker.write.self_ms"] = (_div(self_ms("Broker.write", "Broker.write_nowait", "Broker.settle_writes"), puts), "ms/put")
    m["broker.query.self_ms"] = (_div(self_ms("Broker.query"), queries), "ms/query")
    m["obs.meter.us_per_row"] = (
        _div(incl_ms("UsageMeter.record_ingest", "UsageMeter.record_query", "approx_rows_bytes") * 1e3,
             rows_put + samples.rows_returned), "us/row")
    m["obs.alerts.ms_per_tick"] = (_div(incl_ms("AlertEngine.evaluate"), calls("AlertEngine.evaluate")), "ms/tick")
    m["shard.write.self_ms"] = (_div(self_ms("Shard.write_async"), puts), "ms/put")
    m["shard.settle.self_ms"] = (_div(self_ms("Shard.settle_writes"), puts), "ms/put")
    m["shard.seals"] = (ops.get("memtables", 0), "count")
    m["shard.scan_realtime.ms_per_query"] = (_div(incl_ms("Shard.scan_realtime"), queries), "ms/query")
    propose = ("RaftGroup.propose_async", "GroupCommitQueue.offer", "GroupCommitQueue.flush", "ReplicationPipeline.submit")
    settle = ("RaftGroup.settle_acked", "ReplicationPipeline.settle")
    m["raft.propose.self_ms"] = (_div(self_ms(*propose), puts), "ms/put")
    m["raft.settle.self_ms"] = (_div(self_ms(*settle), puts), "ms/put")
    m["raft.settle.modeled_ms"] = (_div(fam(*settle)["inclusive_virtual"] * 1e3, puts), "ms/put")
    m["raft.proposals"] = (proposals, "count")
    m["raft.rows_per_proposal"] = (_div(rows_put, proposals), "rows/proposal")
    m["wal.append.self_ms"] = (_div(self_ms("WriteAheadLog.append", "WriteAheadLog.append_many"), puts), "ms/put")
    m["wal.appends"] = (calls("WriteAheadLog.append", "WriteAheadLog.append_many"), "count")
    m["wal.bytes_per_row"] = (_div(counters.get("wal.bytes", 0), rows_put), "B/row")
    m["rowstore.append.us_per_row"] = (_div(incl_ms("RowStore.append_many", "MemTable.append_many") * 1e3, rows_put), "us/row")
    m["rowstore.scan.ms_per_query"] = (_div(incl_ms("MemTable.scan"), queries), "ms/query")
    m["builder.archive.self_ms"] = (
        _div(self_ms("Controller.archive_all", "Controller.flush_all", "DataBuilder.archive_memtable"), archive_calls),
        "ms/call")
    m["builder.blocks_written"] = (blocks, "count")
    m["builder.rows_per_block"] = (_div(rows_archived, blocks), "rows/block")
    per_row = lambda ms: _div(ms * 1e3, rows_archived)  # noqa: E731
    m["logblock.encode.us_per_row"] = (
        per_row(self_ms("LogBlockWriter.append_many", "LogBlockWriter.append_columns", "LogBlockWriter.finish")), "us/row")
    m["logblock.inverted_build.us_per_row"] = (per_row(incl_ms("InvertedIndexBuilder.add_many", "InvertedIndexBuilder.build")), "us/row")
    m["logblock.inverted_serialize.us_per_row"] = (per_row(incl_ms("InvertedIndex.to_bytes")), "us/row")
    m["logblock.bloom.us_per_row"] = (per_row(incl_ms("BloomFilter.add_many", "BloomFilter.to_bytes")), "us/row")
    m["logblock.bkd.us_per_row"] = (
        per_row(incl_ms("BkdIndexBuilder.add_many", "BkdIndexBuilder.build", "BkdIndex.to_bytes")), "us/row")
    bytes_in = counters.get("codec.bytes_in", 0)
    m["codec.compress.ms_per_mb"] = (_div(incl_ms("codec.compress"), bytes_in / 1e6), "ms/MB")
    m["codec.decompress.ms_per_query"] = (_div(incl_ms("codec.decompress"), queries), "ms/query")
    m["codec.ratio"] = (_div(bytes_in, counters.get("codec.bytes_out", 0)), "ratio")
    m["tarpack.pack.ms"] = (_div(incl_ms("PackBuilder.build", "pack_members"), calls("PackBuilder.build", "pack_members")), "ms/pack")
    m["tarpack.read_member.ms_per_query"] = (_div(incl_ms("PackReader.read_member", "PackReader.manifest"), queries), "ms/query")
    m["oss.puts"] = (calls("MeteredObjectStore.put"), "count")
    m["oss.bytes_written_per_user_byte"] = (_div(counters.get("oss.bytes_written", 0), ops.get("user_bytes", 0)), "B/B")
    m["oss.requests_per_query"] = (_div(delta["oss.get_requests"], queries), "req/query")
    m["oss.bytes_read_per_query"] = (_div(delta["oss.bytes_read"], queries), "B/query")
    m["oss.modeled_ms_per_query"] = (_div(counters.get("oss.read_modeled_s", 0) * 1e3, queries), "ms/query")
    m["oss.self_ms_per_query"] = (
        _div(self_ms(*(f"MeteredObjectStore.{c}" for c in ("get", "get_range", "get_ranges_parallel", "list", "delete"))), queries),
        "ms/query")
    m["cache.object_hit_ratio"] = (hit_ratio("object"), "ratio")
    m["cache.memory_hit_ratio"] = (hit_ratio("memory"), "ratio")
    m["cache.ssd_hit_ratio"] = (hit_ratio("ssd"), "ratio")
    evictions = sum(delta[f"{tier}.evictions"] for tier in ("object", "memory", "ssd"))
    m["cache.evictions_per_query"] = (_div(evictions, queries), "evict/query")
    m["cache.self_ms_per_query"] = (
        _div(self_ms("CachingRangeReader.get_range", "CachingRangeReader.get_ranges_parallel", "ObjectCache.get_or_load"), queries),
        "ms/query")
    m["query.parse.ms_per_op"] = (_div(incl_ms("parse_sql", "parse_statement"), puts + queries), "ms/op")
    m["frontdoor.execute.self_ms"] = (_div(self_ms("Session.execute", "PreparedStatement.execute"), statements), "ms/stmt")
    m["frontdoor.rewrite.ms_per_query"] = (_div(incl_ms("SemanticRewriter.rewrite"), queries), "ms/query")
    m["planner.plan.ms_per_query"] = (_div(incl_ms("QueryPlanner.plan"), queries), "ms/query")
    m["planner.blocks_per_query"] = (_div(counters.get("planner.blocks", 0), queries), "blocks/query")
    m["pruning.self_ms_per_query"] = (_div(self_ms("evaluate_predicates"), queries), "ms/query")
    m["pruning.blocks_skipped_ratio"] = (
        _div(samples.blocks_pruned, samples.blocks_pruned + samples.blocks_scanned), "ratio")
    m["pruning.rows_examined_per_row_returned"] = (_div(samples.candidate_rows, samples.rows_returned), "rows/row")
    m["pruning.index_lookups_per_query"] = (_div(samples.index_lookups, queries), "lookups/query")
    readers = tuple(f"LogBlockReader.{c}" for c in (
        "read_index", "read_bloom", "read_block", "read_block_arrays", "read_rows", "read_column_values"))
    m["reader.decode.self_ms_per_query"] = (_div(self_ms(*readers, "BkdIndex.from_bytes"), queries), "ms/query")
    m["inverted.from_bytes.ms_per_query"] = (_div(incl_ms("InvertedIndex.from_bytes"), queries), "ms/query")
    m["kernels.eval.ms_per_query"] = (_div(incl_ms("CompiledKernel.evaluate", "top_k_order"), queries), "ms/query")
    m["kernels.vectorized_row_share"] = (_div(samples.rows_vectorized, examined), "ratio")
    executor = tuple(f"BlockExecutor.{c}" for c in ("execute", "execute_aggregate", "execute_dedup", "materialize_dedup"))
    m["executor.self_ms_per_query"] = (_div(self_ms(*executor), queries), "ms/query")
    m["executor.realtime_filter.ms_per_query"] = (_div(incl_ms("filter_realtime_rows"), queries), "ms/query")
    m["dedup.self_ms_per_query"] = (_div(self_ms("LatestVersionDedup.offer", "LatestVersionDedup.winners"), queries), "ms/query")
    m["dedup.candidates_per_winner"] = (
        _div(calls("LatestVersionDedup.offer"), counters.get("dedup.winners", 0)), "ratio")
    aggregate = tuple(f"Aggregator.{c}" for c in ("consume", "consume_many", "consume_sma", "consume_columns", "merge", "results"))
    m["aggregate.self_ms_per_query"] = (_div(self_ms(*aggregate), queries), "ms/query")
    m["aggregate.pushdown_block_share"] = (_div(samples.pushdown_blocks, samples.agg_blocks), "ratio")
    m["lifecycle.tick.ms"] = (_div(incl_ms("LifecycleManager.tick"), calls("LifecycleManager.tick")), "ms/tick")
    m["loadgen.lag_p99_ms"] = (_p99(samples.lag) * 1e3, "ms")
    return m

