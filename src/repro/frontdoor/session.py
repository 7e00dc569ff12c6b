"""Front-door sessions: authenticated, tenant-scoped statement dispatch.

A :class:`Session` is the unit of client state the SQL protocol layer
holds per connection (Figure 3's "Application (SQL Protocol)" edge):

* it is authenticated once, against the per-tenant token registry, and
  every statement it runs is scoped to that tenant — reads get the
  scope threaded through the planner (an out-of-scope filter raises
  :class:`AuthError`, a missing one is injected), writes must carry the
  session's tenant or none at all;
* it dispatches by statement class: SELECT → broker query path,
  INSERT → version-stamped ingest, CREATE TABLE → catalog DDL;
* it supports prepared-statement-style ``?`` parameter binding.

Versioned tables (``VERSION BY key``) get INSERT-as-UPDATE semantics
here: every inserted row is stamped with a nanosecond ``version`` from
the pool's shared :class:`VersionStamper` (strictly monotonic, so two
writes of the same key in the same clock instant still order), and
"latest row per key" reads resolve through the dedup machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import AuthError, QueryError
from repro.logblock.schema import ColumnType
from repro.query.planner import parse_timestamp
from repro.query.sql import (
    ParsedAlterTenant,
    ParsedCreateTable,
    ParsedInsert,
    ParsedQuery,
    bind_parameters,
    parse_statement,
)


class VersionStamper:
    """Strictly monotonic nanosecond version source.

    Derived from the virtual clock, bumped by at least 1 per stamp so
    rows stamped within one clock instant still have a total order —
    INSERT-as-UPDATE needs "later write, greater version" to hold
    unconditionally.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._last = 0

    def next(self) -> int:
        now_ns = int(round(self._clock.now() * 1e9))
        self._last = max(now_ns, self._last + 1)
        return self._last


@dataclass
class InsertResult:
    """Ack for one INSERT statement."""

    table: str
    rows_inserted: int
    versions: list[int | None] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)


class PreparedStatement:
    """A statement template with ``?`` placeholders, bound per execute."""

    def __init__(self, session: "Session", sql: str) -> None:
        self._session = session
        self.sql = sql

    def execute(self, params=()):
        return self._session.execute(self.sql, params)


class Session:
    """One authenticated client connection, scoped to one tenant.

    Admin sessions (``admin=True``, opened via the operator token) have
    no tenant scope: reads run unscoped, `_system` tables show every
    tenant, and INSERTs must carry an explicit ``tenant_id`` per row.
    """

    def __init__(
        self,
        store,
        tenant_id: int | None,
        stamper: VersionStamper,
        admin: bool = False,
    ) -> None:
        if not admin and tenant_id is None:
            raise AuthError("non-admin sessions must be scoped to a tenant")
        self._store = store
        self.tenant_id = tenant_id
        self.admin = admin
        self._stamper = stamper
        self.closed = False
        # The rows of the most recent INSERT, recorded *before* the
        # write is dispatched — a crash mid-write leaves them here for
        # the chaos ledger to mark indeterminate.
        self.last_insert_rows: list[dict] = []

    @property
    def scope(self) -> int | None:
        """The tenant filter this session's reads run under (None = admin)."""
        return None if self.admin else self.tenant_id

    # -- statement dispatch ------------------------------------------------

    def execute(self, sql: str, params=()):
        """Run one statement; return type depends on the statement class
        (SELECT → QueryResult, INSERT → InsertResult, CREATE → schema).
        """
        self._check_open()
        bound = bind_parameters(sql, params) if params else sql
        statement = parse_statement(bound)
        if isinstance(statement, ParsedQuery):
            # `statement=sql` keeps the client's original text (with
            # `?` placeholders) for the slow-query log.
            return self._store.query(bound, tenant_scope=self.scope, statement=sql)
        if isinstance(statement, ParsedInsert):
            return self._insert(statement)
        if isinstance(statement, ParsedCreateTable):
            return self._store.create_table(statement)
        if isinstance(statement, ParsedAlterTenant):
            return self._alter_tenant(statement)
        raise QueryError(f"unsupported statement {type(statement).__name__}")

    def _alter_tenant(self, statement: ParsedAlterTenant):
        """``ALTER TENANT ... SET RETENTION``: update the lifecycle policy.

        Admin sessions may alter any tenant; a scoped session only its
        own.  Clauses absent from the statement leave the existing knob
        untouched, so ``SET RETENTION TTL '30d'`` does not clear a
        configured cold-age.  Returns the resulting policy.
        """
        if not self.admin and statement.tenant_id != self.tenant_id:
            raise AuthError(
                f"session is scoped to tenant {self.tenant_id} and cannot "
                f"alter tenant {statement.tenant_id}"
            )
        from repro.lifecycle.policy import RetentionPolicy, parse_duration

        current = self._store.lifecycle.policy(statement.tenant_id)
        ttl_s = (
            parse_duration(statement.ttl) if statement.set_ttl else current.ttl_s
        )
        cold_age_s = (
            parse_duration(statement.cold_age)
            if statement.set_cold_age
            else current.cold_age_s
        )
        policy = RetentionPolicy(ttl_s=ttl_s, cold_age_s=cold_age_s)
        self._store.lifecycle.set_policy(statement.tenant_id, policy)
        return policy

    def prepare(self, sql: str) -> PreparedStatement:
        self._check_open()
        return PreparedStatement(self, sql)

    def explain(self, sql: str, params=()) -> str:
        self._check_open()
        bound = bind_parameters(sql, params) if params else sql
        return self._store.explain(bound, tenant_scope=self.scope)

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise QueryError("session is closed")

    # -- INSERT (version-stamped ingest) -----------------------------------

    def _insert(self, statement: ParsedInsert) -> InsertResult:
        schema = self._store.catalog.schema
        if statement.table != schema.name:
            raise QueryError(
                f"unknown table {statement.table!r} (expected {schema.name!r})"
            )
        columns = list(statement.columns) if statement.columns is not None else None
        if columns is None:
            columns = schema.column_names()
        else:
            for column in columns:
                schema.column(column)  # SchemaError on unknown column
        version_spec = self._store.catalog.version_spec
        rows: list[dict] = []
        versions: list[int | None] = []
        for values in statement.rows:
            if len(values) != len(columns):
                raise QueryError(
                    f"INSERT row has {len(values)} values for {len(columns)} columns"
                )
            row = {name: None for name in schema.column_names()}
            row.update(dict(zip(columns, values)))
            self._stamp_row(row, schema, version_spec)
            schema.validate_row(row)
            versions.append(
                row.get(version_spec.version_column) if version_spec is not None else None
            )
            rows.append(row)
        self.last_insert_rows = rows
        if self.admin:
            tenants = {row.get("tenant_id") for row in rows}
            if len(tenants) != 1:
                raise QueryError(
                    "admin INSERT must target exactly one tenant per statement"
                )
            target_tenant = tenants.pop()
        else:
            target_tenant = self.tenant_id
        self._store.put(target_tenant, rows)
        return InsertResult(
            table=statement.table,
            rows_inserted=len(rows),
            versions=versions,
            rows=rows,
        )

    def _stamp_row(self, row: dict, schema, version_spec) -> None:
        tenant = row.get("tenant_id")
        if self.admin:
            if tenant is None:
                raise QueryError(
                    "admin sessions have no tenant scope: INSERT rows must "
                    "carry an explicit tenant_id"
                )
        elif tenant is None:
            row["tenant_id"] = self.tenant_id
        elif tenant != self.tenant_id:
            raise AuthError(
                f"session is scoped to tenant {self.tenant_id} but the INSERT "
                f"carries tenant_id {tenant!r}"
            )
        # TIMESTAMP columns accept 'YYYY-MM-DD HH:MM:SS' strings.
        for name in schema.column_names():
            spec = schema.column(name)
            if spec.ctype is ColumnType.TIMESTAMP and isinstance(row.get(name), str):
                row[name] = parse_timestamp(row[name])
        if row.get("ts") is None and "ts" in schema.column_names():
            row["ts"] = int(self._store.clock.now() * 1_000_000)
        if version_spec is not None and row.get(version_spec.version_column) is None:
            row[version_spec.version_column] = self._stamper.next()


class SessionPool:
    """Owns live sessions and the shared version stamper."""

    def __init__(self, store, tokens, max_sessions: int = 64) -> None:
        self._store = store
        self._tokens = tokens
        self._max_sessions = max_sessions
        self.stamper = VersionStamper(store.clock)
        self._sessions: list[Session] = []

    def connect(self, tenant_id: int, token: str) -> Session:
        """Authenticate and open one tenant-scoped session."""
        self._tokens.validate(tenant_id, token)
        return self._open(Session(self._store, tenant_id, self.stamper))

    def connect_admin(self, token: str) -> Session:
        """Authenticate the operator token and open an unscoped session."""
        self._tokens.validate_admin(token)
        return self._open(Session(self._store, None, self.stamper, admin=True))

    def _open(self, session: Session) -> Session:
        self._sessions = [s for s in self._sessions if not s.closed]
        if len(self._sessions) >= self._max_sessions:
            raise QueryError(
                f"session pool exhausted ({self._max_sessions} live sessions)"
            )
        self._sessions.append(session)
        return session

    def live_sessions(self) -> int:
        self._sessions = [s for s in self._sessions if not s.closed]
        return len(self._sessions)

