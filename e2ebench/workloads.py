"""The three benchmark workloads and the client that times them.

Each workload builds its inputs from the seed alone and hands the
program only generated rows and SQL.  Every workload runs on
``small_test_config`` and sets only the knobs named in its docstring;
the README in this directory records why each was chosen and its sizes.

Work per run is fixed by the seed and ``--seconds`` (a nominal rate
times the seconds), never by the clock, so one seed gives identical
inputs and identical program counts on every run and on both sides of
a comparison; only the timings differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle
import random
import statistics
import time
import zlib
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.query.ast import CmpOp, Comparison
from repro.query.planner import coerce_expr
from repro.query.sql import parse_sql
from repro.workload.generator import LogRecordGenerator, WorkloadConfig
from repro.workload.queries import QuerySetGenerator

BASE_TS = 1_605_052_800_000_000  # 2020-11-11 00:00:00 UTC, in microseconds
BATCH_ROWS = 100


class CorrectnessError(Exception):
    """An answer or a store invariant disagreed with the benchmark's model."""


class HostSpeed:
    """How fast the host runs now, relative to a reference speed.

    Shared hosts slow down for seconds at a time: pure-Python code,
    memory-bound numpy passes and C codecs each swing by up to 2-3x,
    partly independently, and CPU time inflates with wall time.  Before
    each operation the client times :meth:`sample`, a fixed probe that
    runs no program code (Python dicts, pickle, a strided pass over a
    2 MiB array, zlib), and keeps the last ``WINDOW`` timings.
    :meth:`factor` is their median over ``REFERENCE_S``, the probe's
    time on the 2-vCPU host the benchmark was calibrated on while that
    host ran slowed (~290 us at full speed), raised to ``EXPONENT``;
    end-to-end times are divided by it, so they read as time at that
    reference speed.  The probe swings more than the store does: across
    that host's speed states the store's time went as the probe's to the
    power 0.64 (archive) to 0.83 (ingest), 0.74 for queries.
    """

    REFERENCE_S = 550e-6
    EXPONENT = 0.75
    WINDOW = 15

    def __init__(self) -> None:
        self._recent: deque = deque(maxlen=self.WINDOW)
        self._array = np.arange(1 << 18, dtype=np.int64)
        self._blob = bytes(range(256)) * 16
        self.factors: list[float] = []

    def _probe(self) -> int:
        rows = [{"tenant_id": i & 7, "ts": i * 1000, "api": "op%d" % (i & 3)} for i in range(40)]
        acc = sum(row["ts"] // 7 + len(row["api"]) for row in rows)
        acc += len(pickle.dumps(rows)) + int(self._array[::16].sum())
        return acc + len(zlib.compress(self._blob, 1))

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._probe()
        self._recent.append(time.perf_counter() - t0)

    def factor(self, fresh: int = 1) -> float:
        for _ in range(fresh):
            self.sample()
        value = (statistics.median(self._recent) / self.REFERENCE_S) ** self.EXPONENT
        self.factors.append(value)
        return value


def canonical_bytes(values) -> int:
    """The benchmark's own size of user data: UTF-8 bytes of each string,
    1 byte per bool, 8 per number, nothing for NULL."""
    total = 0
    for value in values:
        if value is None:
            continue
        if isinstance(value, str):
            total += len(value.encode())
        elif isinstance(value, bool):
            total += 1
        else:
            total += 8
    return total


def rows_digest(rows) -> str:
    """Order-insensitive digest of a list of result rows."""
    lines = sorted(repr(sorted(row.items())) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Samples:
    """Everything measured from outside the program: times in seconds at
    reference speed (see :class:`HostSpeed`), except the raw ``lag``."""

    setup_s: list = field(default_factory=list)
    put_service: list = field(default_factory=list)
    put_latency: list = field(default_factory=list)  # from due time (open loop)
    put_cpu: list = field(default_factory=list)
    rows_put: int = 0
    archive_wall: float = 0.0
    archive_cpu: float = 0.0
    archive_calls: int = 0
    rows_archived: int = 0
    query_service: list = field(default_factory=list)
    query_latency: list = field(default_factory=list)
    query_cpu: list = field(default_factory=list)
    query_modeled: list = field(default_factory=list)
    lag: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    measure_wall: float = 0.0
    # Program-side counts gathered from query results.
    rows_returned: int = 0
    candidate_rows: int = 0  # rows of the plan's LogBlocks + realtime rows evaluated
    rows_vectorized: int = 0
    rows_interpreted: int = 0
    blocks_pruned: int = 0
    blocks_scanned: int = 0
    index_lookups: int = 0
    pushdown_blocks: int = 0
    agg_blocks: int = 0
    errors: list = field(default_factory=list)
    speed_factors: list = field(default_factory=list)

    def service_total(self) -> float:
        return sum(self.put_service) + sum(self.query_service) + self.archive_wall


class Client:
    """The single client: times every operation against one store.

    Every time is divided by the :class:`HostSpeed` factor current when
    it was taken.  In a closed loop the probe runs just before each
    operation; in the open loop the caller samples it before waiting for
    the due time, so no probe time lands in a latency.  ``recorder``
    (traced runs only) opens one root span per operation, so every span
    inside carries that operation's trace id.
    """

    def __init__(self, store: LogStore, samples: Samples, speed: HostSpeed, recorder=None) -> None:
        self.store = store
        self.samples = samples
        self.speed = speed
        self.recorder = recorder
        self.acked: dict[int, int] = defaultdict(int)
        self.user_bytes = 0
        self.blocks_written = 0
        self.traced_ops = defaultdict(int)

    def _op(self, kind: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        self.traced_ops[kind] += 1
        return self.recorder.operation(kind)

    def _failed(self, what: str, exc: Exception) -> None:
        self.samples.failed += 1
        if len(self.samples.errors) < 5:
            self.samples.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def put(self, call, tenant_id: int, n_rows: int, user_bytes: int, due: float | None = None):
        """Run one write (``call()``), timing it; returns True when acked."""
        s = self.samples
        s.attempted += 1
        f = self.speed.factor(fresh=0 if due is not None else 1)
        with self._op("put"):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                call()
            except Exception as exc:  # an op that raises is a failed op
                self._failed("put", exc)
                return False
            c1, w1 = time.process_time(), time.perf_counter()
        s.put_service.append((w1 - w0) / f)
        s.put_latency.append((w1 - (due if due is not None else w0)) / f)
        s.put_cpu.append((c1 - c0) / f)
        s.rows_put += n_rows
        if self.recorder is not None:
            self.traced_ops["rows_put"] += n_rows
            self.traced_ops["user_bytes"] += user_bytes
        self.acked[tenant_id] += n_rows
        self.user_bytes += user_bytes
        return True

    def query(self, run, due: float | None = None):
        """Run one query (``run()`` returns a QueryResult); None on failure."""
        s = self.samples
        s.attempted += 1
        f = self.speed.factor(fresh=0 if due is not None else 1)
        with self._op("query"):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = run()
            except Exception as exc:
                self._failed("query", exc)
                return None
            c1, w1 = time.process_time(), time.perf_counter()
        s.query_service.append((w1 - w0) / f)
        s.query_latency.append((w1 - (due if due is not None else w0)) / f)
        s.query_cpu.append((c1 - c0) / f)
        s.query_modeled.append(result.latency_s)
        stats = result.stats
        s.rows_returned += len(result.rows)
        s.candidate_rows += sum(entry.row_count for entry in result.plan.blocks) + (
            stats.realtime_rows_vectorized + stats.realtime_rows_interpreted
        )
        s.rows_vectorized += stats.rows_evaluated_vectorized
        s.rows_interpreted += stats.rows_evaluated_interpreted
        s.blocks_pruned += stats.prune.blocks_pruned + stats.prune.blocks_short_circuited
        s.blocks_scanned += stats.prune.blocks_scanned
        s.index_lookups += stats.prune.index_lookups
        push = stats.pushdown
        s.pushdown_blocks += push.agg_catalog_hits + push.agg_sma_blocks + push.agg_columnar_blocks
        s.agg_blocks += (
            push.agg_catalog_hits + push.agg_sma_blocks
            + push.agg_columnar_blocks + push.agg_row_blocks
        )
        return result

    def background(self, flush: bool = False) -> None:
        """One ``run_background_tasks`` (or the final ``flush_all``)."""
        s = self.samples
        before = self.speed.factor()
        with self._op("flush" if flush else "background"):
            w0, c0 = time.perf_counter(), time.process_time()
            report = self.store.flush_all() if flush else self.store.run_background_tasks()
            c1, w1 = time.process_time(), time.perf_counter()
        # A long call can outlast the probe window: average both ends.
        f = (before + self.speed.factor(fresh=self.speed.WINDOW // 3)) / 2
        s.archive_wall += (w1 - w0) / f
        s.archive_cpu += (c1 - c0) / f
        s.archive_calls += 1
        s.rows_archived += report.rows_archived
        self.blocks_written += report.blocks_written
        if self.recorder is not None:
            self.traced_ops["rows_archived"] += report.rows_archived
            self.traced_ops["memtables"] += report.memtables_converted

    # -- invariants ---------------------------------------------------------

    def check_counts(self, table: str) -> None:
        """Every tenant's COUNT(*) equals the rows the client saw acked."""
        for tenant_id in sorted(self.acked):
            sql = f"SELECT COUNT(*) FROM {table} WHERE tenant_id = {tenant_id}"
            result = self.query(lambda sql=sql: self.store.query(sql))
            if result is None:
                continue
            count = result.rows[0]["COUNT(*)"] if result.rows else 0
            if count != self.acked[tenant_id]:
                raise CorrectnessError(
                    f"tenant {tenant_id}: COUNT(*) = {count}, acked {self.acked[tenant_id]}"
                )

    def check_blocks_exist(self) -> None:
        """Every catalog LogBlock path is an object in OSS."""
        store = self.store
        keys = {stat.key for stat in store.oss.inner.list(store.config.bucket)}
        missing = [b.path for b in store.catalog.all_blocks() if b.path.split("#")[0] not in keys]
        if missing:
            raise CorrectnessError(f"{len(missing)} catalog blocks missing in OSS, e.g. {missing[0]}")

    def program_counts(self) -> dict:
        stats = self.store.oss.stats
        return {
            "oss.puts": stats.put_requests,
            "oss.bytes_written": stats.bytes_written,
            "builder.blocks_written": self.blocks_written,
            "bytes_stored_per_user_byte": stats.bytes_written / max(1, self.user_bytes),
        }


def batched(rows, batch_rows: int = BATCH_ROWS):
    """Per-tenant batches of ``batch_rows`` in arrival order, then the tails."""
    buffers: dict[int, list] = defaultdict(list)
    for row in rows:
        buffer = buffers[row["tenant_id"]]
        buffer.append(row)
        if len(buffer) >= batch_rows:
            yield row["tenant_id"], buffer
            buffers[row["tenant_id"]] = []
    for tenant_id in sorted(buffers):
        if buffers[tenant_id]:
            yield tenant_id, buffers[tenant_id]


def put_rows(client: Client, tenant_id: int, rows: list) -> bool:
    nbytes = sum(canonical_bytes(row.values()) for row in rows)
    return client.put(lambda: client.store.put(tenant_id, rows), tenant_id, len(rows), nbytes)


# ---------------------------------------------------------------------------


class IngestArchive:
    """Closed-loop ``put`` batches on Raft shards, archived on a cadence.

    Knobs: ``use_raft=True`` (3 replicas, 1 WAL-only: the defaults).
    After every background tick each tenant's COUNT(*) must equal its
    acked rows; those gate queries are this workload's query samples.
    """

    name = "ingest_archive"
    tenants = 40
    theta = 0.99
    rows_per_second = 6_000  # nominal; sizes the run to about --seconds
    background_every = 20  # batches
    setup_repeats = 5

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.total_rows = int(self.rows_per_second * seconds)

    def setup(self, client_factory) -> dict:
        store = LogStore.create(config=small_test_config(use_raft=True))
        generator = LogRecordGenerator(
            WorkloadConfig(n_tenants=self.tenants, theta=self.theta, seed=self.seed)
        )
        return {"store": store, "client": client_factory(store), "generator": generator}

    def _rows(self, generator):
        for i in range(self.total_rows):
            tenant_id = generator.sampler.sample()
            yield generator.record(tenant_id, BASE_TS + i * 1_000)

    def measure(self, state: dict, client: Client, digest) -> None:
        batches = 0
        for tenant_id, rows in batched(self._rows(state["generator"])):
            digest.update(repr((tenant_id, rows)).encode())
            put_rows(client, tenant_id, rows)
            batches += 1
            if batches % self.background_every == 0:
                client.background()
                client.check_counts("request_log")
        client.background(flush=True)

    def verify(self, state: dict, client: Client) -> None:
        client.check_counts("request_log")
        client.check_blocks_exist()
        if client.store.pending_rows():
            raise CorrectnessError(f"{client.store.pending_rows()} rows left unarchived")


class QueryCold:
    """Closed loop of the §6.3 six-template mix over uniform tenants.

    Knobs: every cache tier (memory, SSD, object) at ``cache_bytes``,
    about a tenth of the archived corpus.  The corpus is loaded and
    archived during set-up; those puts and archive calls are this
    workload's write samples.
    """

    name = "query_cold"
    tenants = 40
    theta = 0.99
    corpus_rows = 40_000
    duration_s = 6 * 3600
    cache_bytes = 256 * 1024
    background_every = 20  # batches, during the corpus load
    queries_per_second = 110  # nominal; sizes the run to about --seconds
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.n_queries = int(self.queries_per_second * seconds)

    def setup(self, client_factory) -> dict:
        config = small_test_config(
            cache_memory_bytes=self.cache_bytes,
            cache_ssd_bytes=self.cache_bytes,
            cache_object_bytes=self.cache_bytes,
        )
        store = LogStore.create(config=config)
        client = client_factory(store)
        generator = LogRecordGenerator(
            WorkloadConfig(n_tenants=self.tenants, theta=self.theta, seed=self.seed)
        )
        corpus = list(generator.dataset(BASE_TS, self.duration_s, self.corpus_rows))
        for index, (tenant_id, rows) in enumerate(batched(corpus), start=1):
            put_rows(client, tenant_id, rows)
            if index % self.background_every == 0:
                client.background()
        client.background(flush=True)
        return {"store": store, "client": client, "corpus": corpus}

    def queries(self) -> list:
        """Balanced rounds: every tenant once per round in a shuffled
        order, each with a fresh time window, the §6.3 template rotating
        per tenant, so each (tenant, template) pair recurs equally often."""
        generator = QuerySetGenerator(
            data_start_ts=BASE_TS, data_duration_s=self.duration_s, seed=self.seed
        )
        rng = random.Random(self.seed)
        tenants = list(range(self.tenants))
        picks = []
        for round_ in range(-(-self.n_queries // self.tenants)):
            rng.shuffle(tenants)
            for tenant_id in tenants:
                specs = generator.queries_for_tenant(tenant_id)
                picks.append(specs[(round_ + tenant_id) % len(specs)])
        return picks[: self.n_queries]

    def reference(self, state: dict, picks) -> dict:
        """Digest of each distinct query's answer, computed from the
        generated rows with the AST's row-at-a-time evaluator: no
        LogBlocks, caches, skipping or vectorized kernels involved."""
        schema = state["store"].schema
        by_tenant = defaultdict(list)  # generated in timestamp order
        # The benchmark's copy of the corpus is not needed after this; drop
        # it so the store's garbage collections do not scan it.
        for row in state.pop("corpus"):
            by_tenant[row["tenant_id"]].append(row)
        ts_of = {t: [row["ts"] for row in rows] for t, rows in by_tenant.items()}
        expected = {}
        for spec in picks:
            if spec.sql in expected:
                continue
            parsed = parse_sql(spec.sql)
            where = coerce_expr(parsed.where, schema)
            lo, hi = _ts_bounds(where)
            keys = ts_of.get(spec.tenant_id, [])
            window = by_tenant[spec.tenant_id][bisect_left(keys, lo):bisect_right(keys, hi)]
            columns = parsed.projected_columns()
            rows = [{c: row[c] for c in columns} for row in window if where.evaluate_row(row)]
            expected[spec.sql] = rows_digest(rows)
        return expected

    def measure(self, state: dict, client: Client, digest, picks, expected) -> None:
        store = state["store"]
        for spec in picks:
            digest.update(spec.sql.encode())
            result = client.query(lambda sql=spec.sql: store.query(sql))
            if result is not None and rows_digest(result.rows) != expected[spec.sql]:
                raise CorrectnessError(f"wrong answer for {spec.sql!r}")

    def verify(self, state: dict, client: Client) -> None:
        client.check_blocks_exist()


def _ts_bounds(where) -> tuple[int, int]:
    """The ``ts >= lo AND ts <= hi`` window of a generated query (the
    row evaluator still checks it; this only narrows the rows tried)."""
    lo, hi = -(1 << 63), 1 << 63
    for child in getattr(where, "children", ()):
        if isinstance(child, Comparison) and child.column == "ts":
            if child.op is CmpOp.GE:
                lo = child.value
            elif child.op is CmpOp.LE:
                hi = child.value
    return lo, hi


# -- dashboard_mixed -----------------------------------------------------------

CREATE_RUNS = (
    "CREATE TABLE workflow_runs (run_id STRING, app_id STRING, status STRING, "
    "created_by STRING, total_tokens INT64, day STRING, finished_at STRING, "
    "VERSION BY run_id)"
)
INSERT_COLUMNS = ("run_id", "app_id", "status", "created_by", "total_tokens", "day", "finished_at")
DASHBOARD_QUERIES = {
    "latest": (
        "SELECT run_id, status FROM (SELECT *, ROW_NUMBER() OVER "
        "(PARTITION BY run_id ORDER BY version DESC) AS rn FROM workflow_runs) "
        "WHERE rn = 1 AND finished_at IS NOT NULL"
    ),
    "by_status": (
        "SELECT status, COUNT(DISTINCT run_id) FROM workflow_runs "
        "WHERE finished_at IS NOT NULL GROUP BY status"
    ),
    "by_day": (
        "SELECT day, COUNT(DISTINCT run_id) FROM workflow_runs "
        "WHERE finished_at IS NOT NULL GROUP BY day"
    ),
}
_DAYS = ("2020-11-11", "2020-11-12", "2020-11-13")
SPIN_S = 0.002
_FINAL_STATUSES = ("succeeded", "succeeded", "succeeded", "failed", "stopped")


class RunTraffic:
    """Dify-style workflow-run traffic for one tenant (deterministic).

    Runs move queued -> running (1-3 times) -> a final status; each
    transition is a new version of the run's row (INSERT-as-UPDATE) and
    only the final version carries ``finished_at``.
    """

    def __init__(self, tenant_id: int, rng: random.Random) -> None:
        self.tenant_id = tenant_id
        self.rng = rng
        self.inflight: list[list] = []  # [run_id, steps_left, app, user, day]
        self.next_run = 0

    def _new_run(self) -> list:
        rng = self.rng
        run = [
            f"run-{self.tenant_id}-{self.next_run:06d}",
            rng.randint(1, 3),
            f"app-{rng.randrange(6)}",
            f"user-{rng.randrange(20)}",
            _DAYS[self.next_run // 256 % len(_DAYS)],
        ]
        self.next_run += 1
        self.inflight.append(run)
        return run

    def rows(self, n: int) -> list[tuple]:
        rng = self.rng
        out = []
        for _ in range(n):
            if len(self.inflight) < 16 or rng.random() < 0.35:
                run_id, _, app, user, day = self._new_run()
                out.append((run_id, app, "queued", user, 0, day, None))
                continue
            run = self.inflight[rng.randrange(len(self.inflight))]
            run_id, steps, app, user, day = run
            if steps > 0:
                run[1] -= 1
                out.append((run_id, app, "running", user, rng.randrange(500), day, None))
            else:
                self.inflight.remove(run)
                finished = f"{day} {rng.randrange(24):02d}:{rng.randrange(60):02d}:00"
                out.append((
                    run_id, app, rng.choice(_FINAL_STATUSES), user,
                    rng.randrange(500, 5000), day, finished,
                ))
        return out


class RunLedger:
    """The benchmark's model of one tenant's table: every acked row in
    ack order, reduced to what the three dashboard queries read."""

    def __init__(self) -> None:
        self.latest: dict[str, tuple] = {}
        self.finished_by_status: dict[str, set] = defaultdict(set)
        self.finished_by_day: dict[str, set] = defaultdict(set)

    def apply(self, rows) -> None:
        for run_id, _app, status, _user, _tokens, day, finished_at in rows:
            self.latest[run_id] = (status, finished_at)
            if finished_at is not None:
                self.finished_by_status[status].add(run_id)
                self.finished_by_day[day].add(run_id)

    def expected(self, kind: str) -> list:
        if kind == "latest":
            return sorted(
                (run_id, status)
                for run_id, (status, finished_at) in self.latest.items()
                if finished_at is not None
            )
        groups = self.finished_by_status if kind == "by_status" else self.finished_by_day
        return sorted((key, len(runs)) for key, runs in groups.items())

    @staticmethod
    def observed(kind: str, rows: list) -> list:
        if kind == "latest":
            return sorted((row["run_id"], row["status"]) for row in rows)
        key = "status" if kind == "by_status" else "day"
        return sorted((row[key], row["COUNT(DISTINCT run_id)"]) for row in rows)


class DashboardMixed:
    """Open loop at a fixed rate: versioned INSERTs beside dashboards.

    Knobs: none beyond ``small_test_config`` (plain shards).  Every
    other operation is a prepared 10-row INSERT through a tenant
    session; the rest cycle through the three dashboard queries.  Each
    query's answer must equal the ledger's model at that moment.  The
    rate holds in reference-speed time (see :class:`HostSpeed`).
    """

    name = "dashboard_mixed"
    tenants = 16
    rate_ops_per_s = 72  # ~40% of what one client sustains at the seed commit
    insert_rows = 10
    background_every = 50  # operations
    # Mean per tenant, staggered from 1/16 to ~2x by tenant id, on the
    # same background cadence and with no final flush: shards that crossed
    # the seal threshold are archived, the rest stay realtime at uneven
    # fill levels, so the measured phase meets several archive stalls at
    # different times rather than one.
    preload_inserts = 60
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.n_ops = int(self.rate_ops_per_s * seconds)

    def setup(self, client_factory) -> dict:
        store = LogStore.create(config=small_test_config())
        sessions = {}
        for tenant_id in range(1, self.tenants + 1):
            sessions[tenant_id] = store.connect(tenant_id, store.issue_token(tenant_id))
        sessions[1].execute(CREATE_RUNS)
        placeholders = ", ".join(["(" + ", ".join("?" * len(INSERT_COLUMNS)) + ")"] * self.insert_rows)
        insert_sql = f"INSERT INTO workflow_runs ({', '.join(INSERT_COLUMNS)}) VALUES {placeholders}"
        inserts = {t: s.prepare(insert_sql) for t, s in sessions.items()}
        rng = random.Random(self.seed)
        traffic = {t: RunTraffic(t, random.Random(rng.randrange(1 << 30))) for t in sessions}
        ledgers = {t: RunLedger() for t in sessions}
        state = {
            "store": store, "sessions": sessions, "inserts": inserts,
            "traffic": traffic, "ledgers": ledgers,
        }
        # The preload is set-up work: its timings go to a scratch Samples,
        # but its rows count in the client's acked rows and user bytes.
        client = client_factory(store)
        measured, client.samples = client.samples, Samples()
        quota = {t: self.preload_inserts * (2 * t - 1) // self.tenants for t in sessions}
        order = [t for round_ in range(max(quota.values())) for t in sessions if quota[t] > round_]
        for i, tenant_id in enumerate(order):
            self._insert(state, client, tenant_id, traffic[tenant_id].rows(self.insert_rows))
            if (i + 1) % self.background_every == 0:
                client.background()
        client.samples = measured
        state["client"] = client
        state["ops"] = self._schedule(traffic)
        return state

    def _schedule(self, traffic) -> list:
        """(kind, tenant, payload) for every operation, in due order."""
        ops = []
        kinds = list(DASHBOARD_QUERIES)
        for i in range(self.n_ops):
            tenant_id = 1 + (i // 2) % self.tenants
            if i % 2 == 0:
                ops.append(("insert", tenant_id, traffic[tenant_id].rows(self.insert_rows)))
            else:
                ops.append(("query", tenant_id, kinds[(i // 2) % len(kinds)]))
        return ops

    def _insert(self, state, client: Client, tenant_id: int, rows, due=None) -> None:
        params = [value for row in rows for value in row]
        nbytes = canonical_bytes(params)
        insert = state["inserts"][tenant_id]
        if client.put(lambda: insert.execute(params), tenant_id, len(rows), nbytes, due=due):
            state["ledgers"][tenant_id].apply(rows)

    def _check(self, state, tenant_id: int, kind: str, result) -> None:
        ledger = state["ledgers"][tenant_id]
        if RunLedger.observed(kind, result.rows) != ledger.expected(kind):
            raise CorrectnessError(f"tenant {tenant_id}: dashboard {kind!r} disagrees with the ledger")

    def measure(self, state: dict, client: Client, digest) -> None:
        sessions = state["sessions"]
        interval = 1.0 / self.rate_ops_per_s
        due = time.perf_counter()
        for i, (kind, tenant_id, payload) in enumerate(state["ops"]):
            digest.update(repr((kind, tenant_id, payload)).encode())
            client.speed.sample()
            if i:
                # The schedule runs at a fixed rate in reference-speed time,
                # so a slowed host sees the same utilisation, not a higher one.
                due += interval * client.speed.factor(fresh=0)
            now = time.perf_counter()
            if now < due - SPIN_S:
                time.sleep(due - now - SPIN_S)
            while now < due:  # spin the last stretch: sleep wake-up is coarse
                now = time.perf_counter()
            client.samples.lag.append(now - due)
            if kind == "insert":
                self._insert(state, client, tenant_id, payload, due=due)
            else:
                sql = DASHBOARD_QUERIES[payload]
                result = client.query(lambda s=sessions[tenant_id], sql=sql: s.execute(sql), due=due)
                if result is not None:
                    self._check(state, tenant_id, payload, result)
            if (i + 1) % self.background_every == 0:
                client.background()
        client.background(flush=True)

    def verify(self, state: dict, client: Client) -> None:
        for tenant_id, session in state["sessions"].items():
            for kind, sql in DASHBOARD_QUERIES.items():
                self._check(state, tenant_id, kind, session.execute(sql))
        client.check_blocks_exist()


WORKLOADS = {cls.name: cls for cls in (IngestArchive, QueryCold, DashboardMixed)}
