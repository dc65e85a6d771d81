//! The [`Session`] facade: one object owning keys, planning, transport
//! and per-query leakage accounting for a **series** of queries — the
//! paper's actual subject (Corollary 5.2.2 bounds leakage over a
//! series, not a single query).
//!
//! ```text
//!   "SELECT c.name, o.total FROM c JOIN o ON … JOIN s ON … WHERE …"
//!        │ prepare (SqlPlanner → QueryPlan → lower(catalog))
//!        ▼
//!   PreparedQuery ─ execute ─▶ per-stage token cache ─▶ query_tokens
//!        │   (pairwise stages)      │ hit: reuse stage bundle
//!        │                          ▼
//!        │                ServerApi backend (local / remote)
//!        │                — a chain ships as one Request::Batch of
//!        │                  pairwise ExecuteJoins, one round trip —
//!        ▼                          │
//!   ResultSet ◀─ stitch + project ──┘ (per-column decrypt)
//!        │            each stage's JoinObservation
//!        ▼                          ▼
//!   rows/tuples               LeakageLedger (leakage_report())
//! ```
//!
//! # Plans, stages and the token cache
//!
//! The session's unit of execution is a [`QueryPlan`] — a logical
//! select-project-join tree lowered to a pipeline of **pairwise join
//! stages** (see [`crate::plan`]). A two-table [`JoinQuery`] is simply
//! a one-stage plan ([`QueryPlan::pairwise`]).
//!
//! The token cache is keyed by the **canonical pairwise stage** (both
//! sides, canonical filter sets). That granularity is forced by the
//! scheme: the two [`SjToken`](eqjoin_core::SjToken)s of one stage
//! share a fresh key `k`, and it is exactly the freshness of `k`
//! *across distinct stages* that keeps a series inside the closure
//! bound of Corollary 5.2.2. Re-using a cached side token inside a
//! *different* stage would make result rows comparable across the two —
//! super-additive leakage the paper's design rules out. Re-issuing the
//! *same* canonical stage under its old `k` reveals nothing new. Hence:
//! repeated stages skip `SJ.TkGen` entirely, and because the key is the
//! stage (not the whole plan), **overlapping chains share tokens** — a
//! series running `A⋈B⋈C` and later `A⋈B⋈D` pays for the `A⋈B`
//! bundle once.
//!
//! # What a multi-way chain adds to the leakage report
//!
//! Each pairwise stage is a query of its own in the ledger: a 3-table
//! chain records two [`LedgerEntry`](eqjoin_leakage::LedgerEntry)s.
//! The server additionally learns which stages belong to one chain
//! (they arrive in one batch) —
//! but that link adds no *pair* leakage beyond the transitive closure
//! the ledger already accounts for: the middle table's rows appear in
//! both stages' equality classes, so the closure over the union already
//! connects them. [`Session::leakage_report`] therefore stays the
//! paper's bound, now over `Σ stages` instead of `Σ queries`.
//!
//! The ledger keeps that closure incrementally, so a stage costs
//! `O(|σ(q)|)` however long the series has run, the report is `O(1)`,
//! and the visible pair set is built only when asked for
//! ([`Session::visible_pairs`]). [`ResultSet::leakage_delta`] is what
//! one query added to it — 0 for a repeat.

use crate::backend::{LocalBackend, RemoteBackend, TransportStats};
use crate::client::{ClientConfig, ClientStats, DbClient, TableConfig};
use crate::data::{Row, Table, Value};
use crate::encrypted::QueryTokens;
use crate::error::DbError;
use crate::join::{stitch_stages, JoinAlgorithm, StageLink};
use crate::plan::{ColumnId, LoweredPlan, QueryPlan};
use crate::protocol::{Request, Response, ServerApi};
use crate::query::JoinQuery;
use crate::server::{
    EncryptedJoinResult, JoinObservation, JoinOptions, PayloadProjection, ServerStats,
};
use eqjoin_leakage::{pairs_from_classes, LeakageLedger, Node, PairSet};
use eqjoin_pairing::Engine;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Session configuration: the client's crypto parameters plus execution
/// and caching policy, fixed at construction.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Client crypto configuration (`m`, `t`, seed, pre-filter).
    pub client: ClientConfig,
    /// Server-side execution options sent with every join.
    pub options: JoinOptions,
    /// Cache token bundles per canonical pairwise stage (on by default;
    /// see the module docs for why the cache key is the stage).
    pub token_cache: bool,
    /// Per-operation I/O deadline for remote sessions: every socket
    /// read and write of a round trip must complete within this window
    /// or the call fails with [`DbError::Timeout`]. `None` (the
    /// default) blocks indefinitely; in-process backends ignore it.
    pub deadline: Option<Duration>,
}

impl SessionConfig {
    /// Scheme dimensions `m` (filter attributes per table) and `t`
    /// (`IN`-clause bound); defaults: seed 0, pre-filter off, hash join,
    /// single-threaded, token cache on.
    pub fn new(m: usize, t: usize) -> Self {
        SessionConfig {
            client: ClientConfig::new(m, t),
            options: JoinOptions::default(),
            token_cache: true,
            deadline: None,
        }
    }

    /// Bound every socket read/write of a remote round trip; an elapsed
    /// deadline surfaces as [`DbError::Timeout`]. Only
    /// [`Session::remote`] honors it — in-process backends never block
    /// on a peer.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.client.seed = seed;
        self
    }

    /// Enable/disable the §4.3 selectivity pre-filter.
    pub fn prefilter(mut self, enabled: bool) -> Self {
        self.client.prefilter = enabled;
        self
    }

    /// Enable/disable the per-series token cache.
    pub fn token_cache(mut self, enabled: bool) -> Self {
        self.token_cache = enabled;
        self
    }

    /// Enable/disable the server's decrypt cache for this session's
    /// joins (on by default). With both caches on, a repeated prepared
    /// query skips `SJ.TkGen` client-side *and* every `SJ.Dec` pairing
    /// server-side.
    pub fn decrypt_cache(mut self, enabled: bool) -> Self {
        self.options.decrypt_cache = enabled;
        self
    }

    /// Pin the server decrypt-cache capacity (entries) for this
    /// session's joins; `0` (the default) defers to the server's
    /// configured cap (`eqjoind --decrypt-cache-cap`), and a pinned cap
    /// may only lower it.
    pub fn decrypt_cache_cap(mut self, cap: usize) -> Self {
        self.options.decrypt_cache_cap = cap;
        self
    }

    /// Select the server-side matching algorithm.
    pub fn algorithm(mut self, algorithm: JoinAlgorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Worker threads for the server's decryption phase (`0` = auto,
    /// the default: one per available core on the executing server).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }
}

/// Table name → ordered column names, as registered via
/// [`Session::create_table`]. SQL planners and plan lowering resolve
/// column references against this.
pub type Catalog = BTreeMap<String, Vec<String>>;

/// Rows per [`Request::CopyRows`] chunk when the caller does not pick a
/// size. Large enough to amortize the per-chunk round trip and the
/// batched fixed-base/pairing preparation, small enough that a chunk's
/// encrypted frame stays far below the transport frame cap.
pub const DEFAULT_COPY_CHUNK_ROWS: usize = 512;

/// A resolved SQL statement: a query plan, or one of the incremental
/// update statements ([`Session::run_sql`] dispatches on this).
#[derive(Clone, Debug)]
pub enum SqlStatement {
    /// `SELECT … FROM … JOIN …` — executes as a [`QueryPlan`].
    Select(QueryPlan),
    /// `INSERT INTO t VALUES (…), (…)` — plaintext rows the session
    /// encrypts and appends incrementally.
    Insert {
        /// Target table.
        table: String,
        /// Rows in schema column order.
        rows: Vec<Vec<Value>>,
    },
    /// `DELETE FROM t WHERE rowid IN (…)` — stable row ids to delete.
    Delete {
        /// Target table.
        table: String,
        /// Row ids.
        rows: Vec<u64>,
    },
    /// `COPY t FROM VALUES (…), (…)` — bulk-load rows the session
    /// streams to the backend in self-describing
    /// [`Request::CopyRows`] chunks.
    Copy {
        /// Target table.
        table: String,
        /// Rows in schema column order.
        rows: Vec<Vec<Value>>,
    },
}

/// What one SQL statement produced.
#[derive(Debug)]
pub enum SqlOutcome {
    /// A `SELECT`'s decrypted result set (boxed: result sets dwarf the
    /// update counters).
    Rows(Box<ResultSet>),
    /// Number of rows an `INSERT INTO` appended.
    Inserted(usize),
    /// Number of rows a `DELETE FROM` removed.
    Deleted(usize),
    /// Number of rows a `COPY … FROM VALUES` bulk-loaded.
    Copied(usize),
}

/// A pluggable SQL front-end. Implemented by `eqjoin-sql`'s
/// `SqlFrontend`; the `eqjoin` facade crate installs it automatically.
pub trait SqlPlanner {
    /// Parse `sql` and resolve it against `catalog` into a logical
    /// [`QueryPlan`].
    fn plan(&self, sql: &str, catalog: &Catalog) -> Result<QueryPlan, DbError>;

    /// Parse a full statement (`SELECT`/`INSERT INTO`/`DELETE FROM`).
    /// The default treats everything as a `SELECT`, so planners written
    /// before incremental updates keep working unchanged.
    fn statement(&self, sql: &str, catalog: &Catalog) -> Result<SqlStatement, DbError> {
        self.plan(sql, catalog).map(SqlStatement::Select)
    }
}

/// Anything [`Session::prepare`]/[`Session::execute`] accepts: SQL
/// text, a logical [`QueryPlan`], a two-table [`JoinQuery`], or an
/// already-prepared query.
#[derive(Clone)]
pub enum QueryInput {
    /// SQL text (requires an installed [`SqlPlanner`]).
    Sql(String),
    /// A logical plan, bypassing the SQL front-end.
    Plan(QueryPlan),
    /// A two-table query (shorthand for [`QueryPlan::pairwise`]).
    Query(JoinQuery),
    /// A previously prepared query.
    Prepared(PreparedQuery),
}

impl From<&str> for QueryInput {
    fn from(sql: &str) -> Self {
        QueryInput::Sql(sql.to_owned())
    }
}

impl From<String> for QueryInput {
    fn from(sql: String) -> Self {
        QueryInput::Sql(sql)
    }
}

impl From<QueryPlan> for QueryInput {
    fn from(plan: QueryPlan) -> Self {
        QueryInput::Plan(plan)
    }
}

impl From<&QueryPlan> for QueryInput {
    fn from(plan: &QueryPlan) -> Self {
        QueryInput::Plan(plan.clone())
    }
}

impl From<JoinQuery> for QueryInput {
    fn from(query: JoinQuery) -> Self {
        QueryInput::Query(query)
    }
}

impl From<&JoinQuery> for QueryInput {
    fn from(query: &JoinQuery) -> Self {
        QueryInput::Query(query.clone())
    }
}

impl From<PreparedQuery> for QueryInput {
    fn from(prepared: PreparedQuery) -> Self {
        QueryInput::Prepared(prepared)
    }
}

impl From<&PreparedQuery> for QueryInput {
    fn from(prepared: &PreparedQuery) -> Self {
        QueryInput::Prepared(prepared.clone())
    }
}

/// A planned query: the logical plan, its lowering (tables, pairwise
/// stages, resolved projection) and the per-stage cache keys.
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    plan: QueryPlan,
    lowered: LoweredPlan,
    stage_fingerprints: Vec<Vec<u8>>,
    fingerprint: Vec<u8>,
}

impl PreparedQuery {
    /// The logical plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The validated lowering: tables in join order, pairwise stages,
    /// resolved projection.
    pub fn lowered(&self) -> &LoweredPlan {
        &self.lowered
    }

    /// Canonical cache key of the whole plan: identical for
    /// semantically identical plans (filter order and duplicate `IN`
    /// values do not matter). The token cache uses the finer
    /// [`PreparedQuery::stage_fingerprints`].
    pub fn fingerprint(&self) -> &[u8] {
        &self.fingerprint
    }

    /// Canonical cache key per pairwise stage — what the session token
    /// cache is keyed on, so overlapping chains share stage tokens.
    pub fn stage_fingerprints(&self) -> &[Vec<u8>] {
        &self.stage_fingerprints
    }
}

/// Canonical byte encoding of a pairwise stage: table/column names
/// length-prefixed, followed by the stage's *effective* IN sets
/// ([`JoinQuery::canonical_filter_sets`] — deduplicated, same-column
/// filters intersected, sorted). Token generation consumes exactly the
/// same canonical sets, so two stages with the same fingerprint are
/// guaranteed to execute identically — sharing one token bundle between
/// them is safe.
fn fingerprint(query: &JoinQuery) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, bytes: &[u8]) {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    let mut out = Vec::new();
    put(&mut out, query.left_table.as_bytes());
    put(&mut out, query.left_join_column.as_bytes());
    put(&mut out, query.right_table.as_bytes());
    put(&mut out, query.right_join_column.as_bytes());
    for ((table, column), values) in query.canonical_filter_sets() {
        let mut enc = Vec::new();
        put(&mut enc, table.as_bytes());
        put(&mut enc, column.as_bytes());
        for v in &values {
            put(&mut enc, &v.canonical_bytes());
        }
        put(&mut out, &enc);
    }
    out
}

/// Decrypted result of one executed plan.
#[derive(Debug)]
pub struct ResultSet {
    /// Output column headers (qualified), in projection order.
    pub columns: Vec<ColumnId>,
    /// The projected plaintext rows, aligned with `columns`.
    pub rows: Vec<Row>,
    /// Matched server-side row indices per output row: `tuples[i][p]`
    /// is the row of table position `p` (join order) behind `rows[i]`.
    pub tuples: Vec<Vec<usize>>,
    /// Legacy pairwise view: `(first table row, last table row)` per
    /// output row (for a two-table plan, exactly the matched pairs).
    pub pairs: Vec<(usize, usize)>,
    /// Server-side execution statistics, summed over the plan's stages.
    pub stats: ServerStats,
    /// Per-stage server statistics (one entry per pairwise stage).
    pub stage_stats: Vec<ServerStats>,
    /// Ledger index of the plan's first stage (stages occupy
    /// `series_index .. series_index + stage_stats.len()`).
    pub series_index: u64,
    /// Pairs this query added to what the server can derive (the growth
    /// of the closure bound over its stages): 0 when it repeats what
    /// the series already revealed.
    pub leakage_delta: usize,
    /// Whether *every* stage's token bundle came from the session
    /// cache.
    pub cache_hit: bool,
    /// Per-stage token-cache outcome.
    pub stage_cache_hits: Vec<bool>,
}

/// Session-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Pairwise joins executed through this session (a multi-way chain
    /// counts one per stage).
    pub queries_executed: u64,
    /// Stage token bundles served from the cache.
    pub token_cache_hits: u64,
    /// Stage token bundles generated fresh.
    pub token_cache_misses: u64,
    /// Cumulative rows the *server* served from its decrypt cache over
    /// this session's joins (each skipped one `SJ.Dec` pairing). Works
    /// across all backends — the counter rides in every
    /// [`ServerStats`] coming back over the wire.
    pub decrypt_cache_hits: u64,
    /// Client-side crypto counters (includes `SJ.TkGen` calls and the
    /// per-column decrypt/skip counters projections drive).
    pub client: ClientStats,
    /// Joins dispatched to the backend whose outcome is *unknown*: the
    /// transport failed mid-exchange, so the server may have executed
    /// and observed them without the session receiving the observation
    /// to ledger. While this is non-zero, [`Session::leakage_report`]
    /// is a lower bound, not an exact account.
    pub queries_unaccounted: u64,
    /// Backend transport counters: round trips, batched requests and
    /// bytes on the wire (zero bytes for in-process backends). Benches
    /// read these to report what batching saves.
    pub transport: TransportStats,
}

/// Summary of the session's cumulative leakage (Corollary 5.2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakageReport {
    /// Number of recorded pairwise joins (chain stages count
    /// individually).
    pub queries: usize,
    /// Pairs currently visible to the adversarial server.
    pub visible_pairs: usize,
    /// The paper's bound: |closure(∪ per-query leakage)|.
    pub closure_bound: usize,
    /// Whether the visible set stays within the closure bound — `true`
    /// for Secure Join; the property super-additive schemes violate.
    pub within_bound: bool,
    /// Pairs visible beyond the bound (0 when `within_bound`).
    pub super_additive_excess: usize,
}

/// One encrypted-database session over a series of queries.
///
/// Owns the trusted [`DbClient`] (keys never leave it) and a
/// [`ServerApi`] backend, and threads every plan through prepare →
/// per-stage tokens (cached) → backend joins → stitch → per-column
/// decrypt → leakage ledger. See the [module docs](self) for the full
/// pipeline.
pub struct Session<E: Engine> {
    client: DbClient<E>,
    backend: Box<dyn ServerApi<E>>,
    config: SessionConfig,
    /// When set, every request ships inside a
    /// [`Request::WithTenant`] envelope naming this tenant — the
    /// session then lives entirely in that tenant's isolated namespace
    /// on a multi-tenant server.
    tenant: Option<String>,
    catalog: Catalog,
    planner: Option<Box<dyn SqlPlanner>>,
    token_cache: HashMap<Vec<u8>, QueryTokens<E>>,
    ledger: LeakageLedger,
    stats: SessionStats,
}

/// One resolved stage, ready to dispatch.
struct StageDispatch<E: Engine> {
    tokens: QueryTokens<E>,
    projection: PayloadProjection,
    cache_hit: bool,
}

impl<E: Engine> Session<E> {
    /// Session over an in-process [`LocalBackend`].
    pub fn local(config: SessionConfig) -> Self {
        Self::with_backend(config, Box::new(LocalBackend::new()))
    }

    /// Session over a [`RemoteBackend`] connected to an `eqjoind`
    /// server at `addr`. Connection failure is [`DbError::Transport`].
    /// [`SessionConfig::deadline`] becomes the connection's I/O
    /// timeout; idempotent requests retry per the default
    /// [`RetryPolicy`](crate::backend::RetryPolicy).
    pub fn remote<A: std::net::ToSocketAddrs + ToString>(
        config: SessionConfig,
        addr: A,
    ) -> Result<Self, DbError> {
        let remote = RemoteBackend::connect_with(
            addr,
            crate::backend::RemoteConfig {
                io_timeout: config.deadline,
                ..crate::backend::RemoteConfig::default()
            },
        )?;
        Ok(Self::with_backend(config, Box::new(remote)))
    }

    /// Session over an arbitrary backend (a multi-tenant registry, a
    /// pre-configured [`RemoteBackend`], a test double).
    pub fn with_backend(config: SessionConfig, backend: Box<dyn ServerApi<E>>) -> Self {
        Session {
            client: DbClient::with_config(config.client),
            backend,
            config,
            tenant: None,
            catalog: Catalog::new(),
            planner: None,
            token_cache: HashMap::new(),
            ledger: LeakageLedger::new(),
            stats: SessionStats::default(),
        }
    }

    /// Install a SQL front-end (builder style). Without one, only
    /// [`QueryPlan`]/[`JoinQuery`] inputs are accepted.
    pub fn with_planner(mut self, planner: Box<dyn SqlPlanner>) -> Self {
        self.planner = Some(planner);
        self
    }

    /// Scope this session to a tenant namespace (builder style): every
    /// request — uploads, joins, incremental updates — ships inside a
    /// [`Request::WithTenant`] envelope, so on a multi-tenant server
    /// the session sees only its own store, decrypt cache and stats.
    /// Rejects names that are not `[A-Za-z0-9_-]{1,64}` (tenant names
    /// become snapshot subdirectories server-side).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Result<Self, DbError> {
        let tenant = tenant.into();
        if !crate::protocol::valid_tenant_name(&tenant) {
            return Err(DbError::Protocol(format!(
                "invalid tenant name {tenant:?} (want [A-Za-z0-9_-]{{1,64}})"
            )));
        }
        self.tenant = Some(tenant);
        Ok(self)
    }

    /// The tenant namespace this session is scoped to, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Send one request, wrapped in the session's tenant envelope when
    /// one is configured. Every backend call goes through here so a
    /// tenant-scoped session cannot accidentally leak a bare request
    /// into the default namespace.
    fn dispatch(&self, request: Request<E>) -> Response {
        match &self.tenant {
            Some(tenant) => self.backend.handle(Request::WithTenant {
                tenant: tenant.clone(),
                inner: Box::new(request),
            }),
            None => self.backend.handle(request),
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The registered plaintext schemas.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Session counters (cache behavior, `SJ.TkGen` calls, transport
    /// round trips and bytes).
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats;
        stats.client = self.client.stats();
        stats.transport = self.backend.transport_stats();
        stats
    }

    /// The backend's cumulative transport counters (also embedded in
    /// [`Session::stats`]).
    pub fn transport_stats(&self) -> TransportStats {
        self.backend.transport_stats()
    }

    /// Ask the *server* for its observability snapshot over the wire
    /// ([`Request::Stats`]): the server-side transport counters plus
    /// its full Prometheus exposition. A tenant-scoped session gets
    /// counters scoped to its namespace. Never sent implicitly — the
    /// probe itself is one ordinary (counted) round trip.
    pub fn server_metrics(&self) -> Result<crate::protocol::ServerMetrics, DbError> {
        match self.dispatch(Request::Stats) {
            Response::Stats(metrics) => Ok(metrics),
            Response::Error(e) => Err(e),
            _ => Err(DbError::Protocol(
                "backend answered Stats with the wrong response kind".into(),
            )),
        }
    }

    /// Encrypt a plaintext table under the session keys and upload it to
    /// the backend.
    pub fn create_table(&mut self, table: &Table, config: TableConfig) -> Result<(), DbError> {
        let encrypted = self.client.encrypt_table(table, config)?;
        match self.dispatch(Request::InsertTable(encrypted)) {
            Response::TableInserted { .. } => {
                self.catalog
                    .insert(table.schema.name.clone(), table.schema.columns.clone());
                Ok(())
            }
            Response::Error(e) => Err(e),
            _ => Err(DbError::Protocol(
                "backend answered InsertTable with the wrong response kind".into(),
            )),
        }
    }

    /// Encrypt plaintext rows (schema column order) and append them to
    /// an existing table **incrementally**: stored rows — and their
    /// decrypt-cache entries server-side — are untouched, so a warm
    /// series stays warm and only the new rows cost anything. Returns
    /// the number of rows appended.
    pub fn insert_rows(&mut self, table: &str, rows: &[Vec<Value>]) -> Result<usize, DbError> {
        let (start_row, encrypted) = self.client.encrypt_rows(table, rows)?;
        match self.dispatch(Request::InsertRows {
            table: table.to_owned(),
            start_row,
            rows: encrypted,
        }) {
            Response::RowsInserted { rows, .. } => Ok(rows),
            Response::Error(e) => Err(e),
            _ => Err(DbError::Protocol(
                "backend answered InsertRows with the wrong response kind".into(),
            )),
        }
    }

    /// Stream a whole plaintext table to the backend as a COPY-style
    /// bulk load: the table is encrypted and shipped in chunks of
    /// `chunk_rows` rows (`0` = [`DEFAULT_COPY_CHUNK_ROWS`]), each a
    /// self-describing [`Request::CopyRows`] frame, so peak memory —
    /// client and wire — is one chunk, not one table. The first chunk
    /// creates the table server-side (a zero-row table still ships one
    /// empty chunk as a pure "create" declaration). Returns the number
    /// of rows loaded.
    pub fn copy_table(
        &mut self,
        table: &Table,
        config: TableConfig,
        chunk_rows: usize,
    ) -> Result<usize, DbError> {
        let name = &table.schema.name;
        // Register the client-side table state (keys, PRF streams, row
        // numbering) without materializing the whole encrypted table:
        // an empty shell of the schema encrypts zero rows.
        let shell = Table::new(table.schema.clone());
        let _ = self.client.encrypt_table(&shell, config)?;
        let loaded = self.copy_chunks(name, &table.rows, chunk_rows)?;
        self.catalog
            .insert(name.clone(), table.schema.columns.clone());
        Ok(loaded)
    }

    /// Bulk-append plaintext rows to a table this session already
    /// encrypts (the server half is create-or-append, so the table need
    /// not exist server-side yet). Rows are encrypted and shipped in
    /// [`DEFAULT_COPY_CHUNK_ROWS`]-row [`Request::CopyRows`] chunks.
    pub fn copy_rows(&mut self, table: &str, rows: &[Vec<Value>]) -> Result<usize, DbError> {
        self.copy_chunks(table, rows, DEFAULT_COPY_CHUNK_ROWS)
    }

    /// Encrypt and ship `rows` in chunks of `chunk_rows` (`0` =
    /// [`DEFAULT_COPY_CHUNK_ROWS`]), each encrypted straight from its
    /// slice of `rows`. Zero rows still ship one empty chunk.
    fn copy_chunks<R: AsRef<[Value]> + Sync>(
        &mut self,
        table: &str,
        rows: &[R],
        chunk_rows: usize,
    ) -> Result<usize, DbError> {
        if rows.is_empty() {
            return self.copy_chunk(table, rows);
        }
        let chunk = if chunk_rows == 0 {
            DEFAULT_COPY_CHUNK_ROWS
        } else {
            chunk_rows
        };
        rows.chunks(chunk)
            .map(|rows| self.copy_chunk(table, rows))
            .sum()
    }

    /// Encrypt and ship one COPY chunk.
    fn copy_chunk<R: AsRef<[Value]> + Sync>(
        &mut self,
        table: &str,
        rows: &[R],
    ) -> Result<usize, DbError> {
        let config = self
            .client
            .table_config(table)
            .cloned()
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?;
        let (start_row, encrypted) = self.client.encrypt_rows(table, rows)?;
        match self.dispatch(Request::CopyRows {
            table: table.to_owned(),
            join_column: config.join_column,
            filter_columns: config.filter_columns,
            start_row,
            rows: encrypted,
        }) {
            Response::CopyRows { rows, .. } => Ok(rows),
            Response::Error(e) => Err(e),
            _ => Err(DbError::Protocol(
                "backend answered CopyRows with the wrong response kind".into(),
            )),
        }
    }

    /// Delete rows by their stable ids (the row indices result sets
    /// report). Row-granular: only the deleted rows' cached decrypt
    /// state is dropped server-side.
    pub fn delete_rows(&mut self, table: &str, rows: &[u64]) -> Result<usize, DbError> {
        match self.dispatch(Request::DeleteRows {
            table: table.to_owned(),
            rows: rows.to_vec(),
        }) {
            Response::RowsDeleted { rows, .. } => Ok(rows),
            Response::Error(e) => Err(e),
            _ => Err(DbError::Protocol(
                "backend answered DeleteRows with the wrong response kind".into(),
            )),
        }
    }

    /// Run one SQL statement: `SELECT` executes like
    /// [`Session::execute`]; `INSERT INTO`/`DELETE FROM` apply
    /// incremental updates. Requires an installed [`SqlPlanner`] that
    /// understands statements (the bundled `eqjoin-sql` front-end does).
    pub fn run_sql(&mut self, sql: &str) -> Result<SqlOutcome, DbError> {
        let planner = self.planner.as_ref().ok_or(DbError::NoSqlPlanner)?;
        match planner.statement(sql, &self.catalog)? {
            SqlStatement::Select(plan) => self
                .execute(plan)
                .map(|result| SqlOutcome::Rows(Box::new(result))),
            SqlStatement::Insert { table, rows } => {
                self.insert_rows(&table, &rows).map(SqlOutcome::Inserted)
            }
            SqlStatement::Delete { table, rows } => {
                self.delete_rows(&table, &rows).map(SqlOutcome::Deleted)
            }
            SqlStatement::Copy { table, rows } => {
                self.copy_rows(&table, &rows).map(SqlOutcome::Copied)
            }
        }
    }

    /// Plan a query: SQL text goes through the installed [`SqlPlanner`],
    /// then the resulting [`QueryPlan`] (or a directly supplied one) is
    /// validated against the session catalog and lowered to pairwise
    /// stages.
    pub fn prepare(&mut self, input: impl Into<QueryInput>) -> Result<PreparedQuery, DbError> {
        let plan = match input.into() {
            QueryInput::Prepared(prepared) => return Ok(prepared),
            QueryInput::Plan(plan) => plan,
            QueryInput::Query(query) => QueryPlan::pairwise(&query),
            QueryInput::Sql(sql) => {
                let planner = self.planner.as_ref().ok_or(DbError::NoSqlPlanner)?;
                planner.plan(&sql, &self.catalog)?
            }
        };
        let lowered = plan.lower(&self.catalog)?;
        let stage_fingerprints: Vec<Vec<u8>> = lowered
            .stages
            .iter()
            .map(|stage| fingerprint(&stage.query))
            .collect();
        // Whole-plan fingerprint: the stages plus the projection.
        let mut fp = Vec::new();
        for sf in &stage_fingerprints {
            fp.extend_from_slice(&(sf.len() as u32).to_le_bytes());
            fp.extend_from_slice(sf);
        }
        fp.push(lowered.select_star as u8);
        for col in &lowered.projection {
            fp.extend_from_slice(&(col.position as u32).to_le_bytes());
            fp.extend_from_slice(&(col.column_index as u32).to_le_bytes());
        }
        Ok(PreparedQuery {
            plan,
            lowered,
            stage_fingerprints,
            fingerprint: fp,
        })
    }

    /// Fetch the token bundle for one pairwise stage — from the session
    /// cache when enabled and warm, freshly generated (and cached)
    /// otherwise. Returns `(tokens, cache_hit)` and updates the cache
    /// counters.
    fn tokens_for(
        &mut self,
        stage_fingerprint: &[u8],
        query: &JoinQuery,
    ) -> Result<(QueryTokens<E>, bool), DbError> {
        let (tokens, cache_hit) = if self.config.token_cache {
            match self.token_cache.get(stage_fingerprint) {
                Some(cached) => (cached.clone(), true),
                None => {
                    let fresh = self.client.query_tokens(query)?;
                    self.token_cache
                        .insert(stage_fingerprint.to_vec(), fresh.clone());
                    (fresh, false)
                }
            }
        } else {
            (self.client.query_tokens(query)?, false)
        };
        if cache_hit {
            self.stats.token_cache_hits += 1;
            eqjoin_obs::counter!("eqjoin_session_token_cache_hits_total").inc();
        } else {
            self.stats.token_cache_misses += 1;
            eqjoin_obs::counter!("eqjoin_session_token_cache_misses_total").inc();
        }
        Ok((tokens, cache_hit))
    }

    /// The payload columns stage `stage_idx` must ship, given the
    /// plan's projection: the stage that *introduces* a table provides
    /// its payloads; an anchor table's payloads were already provided
    /// by an earlier stage, so the request asks for none of them.
    fn stage_projection(lowered: &LoweredPlan, stage_idx: usize) -> PayloadProjection {
        let stage = &lowered.stages[stage_idx];
        let provides_left = stage_idx == 0;
        PayloadProjection {
            left: if provides_left {
                lowered.wanted_columns(stage.left_position)
            } else {
                Some(Vec::new())
            },
            right: lowered.wanted_columns(stage.right_position),
        }
    }

    /// Resolve all stages of `prepared` into dispatchable requests
    /// (token cache consulted per stage).
    fn dispatch_stages(
        &mut self,
        prepared: &PreparedQuery,
    ) -> Result<Vec<StageDispatch<E>>, DbError> {
        let mut out = Vec::with_capacity(prepared.lowered.stages.len());
        for (i, stage) in prepared.lowered.stages.iter().enumerate() {
            let (tokens, cache_hit) =
                self.tokens_for(&prepared.stage_fingerprints[i], &stage.query)?;
            out.push(StageDispatch {
                tokens,
                projection: Self::stage_projection(&prepared.lowered, i),
                cache_hit,
            });
        }
        Ok(out)
    }

    /// Record one executed join in the leakage ledger and return its
    /// series index and the pairs it added to the closure. This must
    /// happen for every join the server executed — the observation
    /// exists server-side whatever the client manages to do with the
    /// result afterwards.
    fn record_observation(&mut self, observation: &JoinObservation) -> (u64, usize) {
        let classes: Vec<Vec<Node>> = observation
            .equality_classes
            .iter()
            .map(|class| {
                class
                    .iter()
                    .map(|(table, row)| Node::new(table, *row))
                    .collect()
            })
            .collect();
        let series_index = self.stats.queries_executed;
        let added = self
            .ledger
            .record_closed(series_index, &pairs_from_classes(&classes));
        self.stats.queries_executed += 1;
        (series_index, added)
    }

    /// Stitch one plan's executed stages and decrypt the projected
    /// columns into a [`ResultSet`].
    fn assemble_result_set(
        &mut self,
        prepared: &PreparedQuery,
        stage_results: Vec<EncryptedJoinResult>,
        series_index: u64,
        leakage_delta: usize,
        stage_cache_hits: Vec<bool>,
    ) -> Result<ResultSet, DbError> {
        let lowered = &prepared.lowered;

        // Payload lookup: (table position, server row) → sealed column
        // payloads, taken from the stage that introduced the position.
        let mut payloads: HashMap<(usize, usize), &Vec<Vec<u8>>> = HashMap::new();
        let mut links = Vec::with_capacity(stage_results.len());
        for (i, result) in stage_results.iter().enumerate() {
            let stage = &lowered.stages[i];
            let mut pairs = Vec::with_capacity(result.pairs.len());
            for pair in &result.pairs {
                if i == 0 {
                    payloads
                        .entry((stage.left_position, pair.left_row))
                        .or_insert(&pair.left_payloads);
                }
                payloads
                    .entry((stage.right_position, pair.right_row))
                    .or_insert(&pair.right_payloads);
                pairs.push((pair.left_row, pair.right_row));
            }
            links.push(StageLink {
                left_position: stage.left_position,
                right_position: stage.right_position,
                pairs,
            });
        }
        let tuples = stitch_stages(&links);

        // Per-position decode maps: projected column → index within the
        // shipped payload subset.
        let positions = lowered.tables.len();
        let wanted: Vec<Option<Vec<usize>>> =
            (0..positions).map(|p| lowered.wanted_columns(p)).collect();
        let payload_slot = |position: usize, column_index: usize| -> Option<usize> {
            match &wanted[position] {
                None => Some(column_index),
                Some(cols) => cols.binary_search(&column_index).ok(),
            }
        };

        // Decrypt each projected value once per (position, row, column)
        // — cross products reuse the opened value — and account the
        // columns the projection never touched as skipped.
        let mut opened: HashMap<(usize, usize, usize), Value> = HashMap::new();
        let mut seen_rows: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        let mut rows = Vec::with_capacity(tuples.len());
        for tuple in &tuples {
            let mut values = Vec::with_capacity(lowered.projection.len());
            for col in &lowered.projection {
                let row_idx = tuple[col.position];
                let key = (col.position, row_idx, col.column_index);
                let value = match opened.get(&key) {
                    Some(v) => v.clone(),
                    None => {
                        let blobs = payloads.get(&(col.position, row_idx)).ok_or_else(|| {
                            DbError::Protocol(
                                "stitched tuple references a row the server sent no \
                                 payloads for"
                                    .into(),
                            )
                        })?;
                        let slot = payload_slot(col.position, col.column_index)
                            .ok_or(DbError::PayloadCorrupted)?;
                        let blob = blobs.get(slot).ok_or(DbError::PayloadCorrupted)?;
                        let v = self.client.open_value(
                            &lowered.tables[col.position],
                            row_idx,
                            col.column_index,
                            blob,
                        )?;
                        opened.insert(key, v.clone());
                        v
                    }
                };
                values.push(value);
            }
            for (position, &row_idx) in tuple.iter().enumerate() {
                if let Some(cols) = &wanted[position] {
                    if seen_rows.insert((position, row_idx)) {
                        let total = self.catalog[&lowered.tables[position]].len();
                        self.client
                            .note_skipped_column_decrypts((total - cols.len()) as u64);
                    }
                }
            }
            rows.push(Row(values));
        }

        let pairs = tuples
            .iter()
            .map(|t| (t[0], *t.last().expect("tuples are non-empty")))
            .collect();
        let mut stats = ServerStats::default();
        for s in &stage_results {
            stats.merge(&s.stats);
        }
        Ok(ResultSet {
            columns: lowered.projection.iter().map(|c| c.id.clone()).collect(),
            rows,
            tuples,
            pairs,
            stats,
            stage_stats: stage_results.into_iter().map(|r| r.stats).collect(),
            series_index,
            leakage_delta,
            cache_hit: stage_cache_hits.iter().all(|&h| h),
            stage_cache_hits,
        })
    }

    /// Execute a query end-to-end: per-stage tokens (cached on repeats)
    /// → backend joins (a chain ships as **one** batched round trip) →
    /// stitch → per-column decrypt → leakage ledger.
    pub fn execute(&mut self, input: impl Into<QueryInput>) -> Result<ResultSet, DbError> {
        let prepared = self.prepare(input)?;
        let mut results = self.run_series(vec![prepared])?;
        Ok(results.pop().expect("one plan in, one result out"))
    }

    /// Execute a whole prepared series in **one round trip**: every
    /// stage of every plan is resolved up front (cache consulted per
    /// stage — a repeat later in the slice reuses the tokens its first
    /// occurrence just generated), the series ships as a single
    /// [`Request::Batch`] of pairwise joins, and the backend answers
    /// with one same-arity [`Response::Batch`]. Over a
    /// [`RemoteBackend`] that is exactly
    /// one TCP round trip for the entire series.
    ///
    /// Results come back in input order. If any query fails, the first
    /// failure (in series order) is returned — but every join the
    /// server *did* execute is recorded in the leakage ledger first.
    /// The one unknowable case is a transport failure after dispatch:
    /// no observation comes back to record, so the affected joins are
    /// counted in [`SessionStats::queries_unaccounted`] instead.
    pub fn execute_all(&mut self, inputs: &[QueryInput]) -> Result<Vec<ResultSet>, DbError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let prepared = inputs
            .iter()
            .map(|input| self.prepare(input.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        self.run_series(prepared)
    }

    /// Degraded-mode variant of [`execute_all`](Self::execute_all):
    /// every query gets its **own** outcome instead of the first
    /// failure poisoning the batch. A query whose stages all came back
    /// yields `Ok(ResultSet)` even when its neighbors hit a timeout or
    /// a per-element server error; only failures that
    /// predate the fan-out (planning, token generation, or a
    /// whole-batch transport loss) reach every slot. Leakage
    /// accounting is identical to `execute_all` — every join the
    /// server executed is recorded before results are assembled.
    pub fn execute_all_partial(
        &mut self,
        inputs: &[QueryInput],
    ) -> Vec<Result<ResultSet, DbError>> {
        let prepared = inputs
            .iter()
            .map(|input| self.prepare(input.clone()))
            .collect();
        self.run_series_partial(prepared)
    }

    /// The shared execution core with all-or-nothing semantics: the
    /// first per-slot failure (in series order) fails the whole series.
    fn run_series(&mut self, prepared: Vec<PreparedQuery>) -> Result<Vec<ResultSet>, DbError> {
        self.run_series_partial(prepared.into_iter().map(Ok).collect())
            .into_iter()
            .collect()
    }

    /// The per-slot execution core: dispatch every stage of every
    /// still-viable plan (one plain request for a single pairwise
    /// stage, one batch otherwise), ledger every observation that came
    /// back, then stitch + decrypt per plan — each slot succeeding or
    /// failing on its own.
    fn run_series_partial(
        &mut self,
        prepared: Vec<Result<PreparedQuery, DbError>>,
    ) -> Vec<Result<ResultSet, DbError>> {
        // One record per dispatch: for `execute` this is exactly the
        // per-query end-to-end latency (tokens → backend → stitch →
        // decrypt); a batched series records its whole round trip once.
        let _span = eqjoin_obs::span!("session_query");
        // A slot that failed before dispatch keeps its own error and
        // ships no stages; the rest share one batch.
        enum Slot {
            Failed(DbError),
            Pending {
                prepared: PreparedQuery,
                cache_hits: Vec<bool>,
            },
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(prepared.len());
        let mut requests = Vec::new();
        for entry in prepared {
            let p = match entry {
                Ok(p) => p,
                Err(e) => {
                    slots.push(Slot::Failed(e));
                    continue;
                }
            };
            match self.dispatch_stages(&p) {
                Ok(dispatches) => {
                    let mut cache_hits = Vec::with_capacity(dispatches.len());
                    for d in dispatches {
                        cache_hits.push(d.cache_hit);
                        requests.push(Request::ExecuteJoin {
                            tokens: d.tokens,
                            options: self.config.options,
                            projection: d.projection,
                        });
                    }
                    slots.push(Slot::Pending {
                        prepared: p,
                        cache_hits,
                    });
                }
                Err(e) => slots.push(Slot::Failed(e)),
            }
        }
        let total_stages = requests.len();
        // Failures that hit the batch as a whole (nothing dispatched,
        // or the one response lost) land in every pending slot;
        // pre-dispatch failures keep their own error.
        let fail_pending = |slots: Vec<Slot>, e: DbError| -> Vec<Result<ResultSet, DbError>> {
            slots
                .into_iter()
                .map(|slot| match slot {
                    Slot::Failed(own) => Err(own),
                    Slot::Pending { .. } => Err(e.clone()),
                })
                .collect()
        };
        if total_stages == 0 {
            return fail_pending(
                slots,
                DbError::Protocol("plan lowered to zero stages".into()),
            );
        }

        let sent_before = self.backend.transport_stats().bytes_sent;
        let responses: Vec<Response> = if total_stages == 1 {
            let response = self.dispatch(requests.pop().expect("exactly one request"));
            vec![response]
        } else {
            match self.dispatch(Request::Batch(requests)) {
                Response::Batch(responses) => {
                    if responses.len() != total_stages {
                        return fail_pending(
                            slots,
                            DbError::Protocol(format!(
                                "batch arity mismatch: {total_stages} requests, {} responses",
                                responses.len()
                            )),
                        );
                    }
                    responses
                }
                Response::Error(e) => {
                    // If the batch reached the wire, a transport failure
                    // leaves every join's server-side outcome unknown;
                    // if nothing was sent, nothing was dispatched.
                    if matches!(e, DbError::Transport(_))
                        && self.backend.transport_stats().bytes_sent > sent_before
                    {
                        self.stats.queries_unaccounted += total_stages as u64;
                    }
                    return fail_pending(slots, e);
                }
                _ => {
                    return fail_pending(
                        slots,
                        DbError::Protocol(
                            "backend answered Batch with the wrong response kind".into(),
                        ),
                    )
                }
            }
        };

        // Pass 1 — leakage: the server observed *every* executed join
        // in the series, so record them all before any error or decrypt
        // failure can cut the processing short.
        let dispatched = self.backend.transport_stats().bytes_sent > sent_before;
        let mut executed: Vec<Result<(EncryptedJoinResult, u64, usize), DbError>> =
            Vec::with_capacity(responses.len());
        for response in responses {
            match response {
                Response::JoinExecuted {
                    result,
                    observation,
                } => {
                    self.stats.decrypt_cache_hits += result.stats.decrypt_cache_hits;
                    let (series_index, added) = self.record_observation(&observation);
                    executed.push(Ok((result, series_index, added)));
                }
                Response::Error(e) => {
                    // Per-element transport errors reach here when the
                    // connection died mid-exchange or a response
                    // outgrew the frame cap after the joins ran.
                    if matches!(e, DbError::Transport(_)) && dispatched {
                        self.stats.queries_unaccounted += 1;
                    }
                    executed.push(Err(e));
                }
                _ => executed.push(Err(DbError::Protocol(
                    "backend answered ExecuteJoin with the wrong response kind".into(),
                ))),
            }
        }

        // Pass 2 — stitch and decrypt per plan, in series order. A
        // failed stage fails its own plan's slot; every other plan
        // still assembles (its stage responses are all consumed either
        // way, so slots stay aligned).
        let mut executed = executed.into_iter();
        let mut results = Vec::with_capacity(slots.len());
        for slot in slots {
            let (p, stage_cache_hits) = match slot {
                Slot::Failed(e) => {
                    results.push(Err(e));
                    continue;
                }
                Slot::Pending {
                    prepared,
                    cache_hits,
                } => (prepared, cache_hits),
            };
            let n_stages = stage_cache_hits.len();
            let mut stage_results = Vec::with_capacity(n_stages);
            let mut first_error = None;
            let mut first_series_index = None;
            let mut leakage_delta = 0;
            for _ in 0..n_stages {
                match executed.next().expect("stage arity checked") {
                    Ok((result, series_index, added)) => {
                        first_series_index.get_or_insert(series_index);
                        leakage_delta += added;
                        stage_results.push(result);
                    }
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
            results.push(match first_error {
                Some(e) => Err(e),
                None => self.assemble_result_set(
                    &p,
                    stage_results,
                    first_series_index.expect("plans have at least one stage"),
                    leakage_delta,
                    stage_cache_hits,
                ),
            });
        }
        results
    }

    /// The embedded per-query ledger (full history and growth series).
    pub fn ledger(&self) -> &LeakageLedger {
        &self.ledger
    }

    /// Everything the adversarial server can currently derive about
    /// equality pairs (the closure of all observations so far), built
    /// on each call; [`leakage_report`](Self::leakage_report) has its
    /// size without building it.
    pub fn visible_pairs(&self) -> PairSet {
        self.ledger.visible_now()
    }

    /// The Corollary 5.2.2 verdict for the series executed so far.
    ///
    /// Exact while every dispatched join's observation came back; if
    /// [`SessionStats::queries_unaccounted`] is non-zero (a transport
    /// failure after dispatch), the report is a lower bound on what
    /// the server observed. `O(1)`: read from the ledger's counts.
    pub fn leakage_report(&self) -> LeakageReport {
        LeakageReport {
            queries: self.ledger.len(),
            visible_pairs: self.ledger.visible_len(),
            closure_bound: self.ledger.closure_bound_len(),
            within_bound: self.ledger.is_within_closure_bound(),
            super_additive_excess: self.ledger.super_additive_excess_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Schema, Value};
    use eqjoin_pairing::MockEngine;

    fn tables() -> (Table, Table) {
        let mut left = Table::new(Schema::new("L", &["k", "color"]));
        left.push_row(vec![Value::Int(1), "red".into()]);
        left.push_row(vec![Value::Int(2), "blue".into()]);
        left.push_row(vec![Value::Int(1), "red".into()]);
        let mut right = Table::new(Schema::new("R", &["k", "shape"]));
        right.push_row(vec![Value::Int(1), "disc".into()]);
        right.push_row(vec![Value::Int(3), "cube".into()]);
        (left, right)
    }

    fn third_table() -> Table {
        let mut t = Table::new(Schema::new("S", &["k", "tag"]));
        t.push_row(vec![Value::Int(1), "a".into()]);
        t.push_row(vec![Value::Int(1), "b".into()]);
        t.push_row(vec![Value::Int(2), "c".into()]);
        t
    }

    fn cfg(name: &str) -> TableConfig {
        TableConfig {
            join_column: "k".into(),
            filter_columns: vec![match name {
                "L" => "color",
                "R" => "shape",
                _ => "tag",
            }
            .to_owned()],
        }
    }

    fn session() -> Session<MockEngine> {
        let mut s = Session::local(SessionConfig::new(1, 3).seed(99));
        let (left, right) = tables();
        s.create_table(&left, cfg("L")).unwrap();
        s.create_table(&right, cfg("R")).unwrap();
        s
    }

    fn session3() -> Session<MockEngine> {
        let mut s = session();
        s.create_table(&third_table(), cfg("S")).unwrap();
        s
    }

    fn chain() -> QueryPlan {
        QueryPlan::scan("L")
            .join_on("L", "k", "R", "k")
            .join_on("R", "k", "S", "k")
    }

    #[test]
    fn create_execute_and_ledger() {
        let mut s = session();
        assert_eq!(s.catalog().len(), 2);
        let q = JoinQuery::on("L", "k", "R", "k");
        let result = s.execute(&q).unwrap();
        assert_eq!(result.rows.len(), 2, "both k=1 rows of L match R row 0");
        assert!(!result.cache_hit);
        assert_eq!(result.series_index, 0);
        // SELECT *: all columns of both tables, in join order.
        assert_eq!(
            result.columns,
            vec![
                ColumnId::new("L", "k"),
                ColumnId::new("L", "color"),
                ColumnId::new("R", "k"),
                ColumnId::new("R", "shape"),
            ]
        );
        assert_eq!(result.rows[0].0.len(), 4);
        assert_eq!(result.pairs, vec![(0, 0), (2, 0)]);
        assert_eq!(result.tuples, vec![vec![0, 0], vec![2, 0]]);
        let report = s.leakage_report();
        assert_eq!(report.queries, 1);
        assert!(report.within_bound);
        assert_eq!(report.super_additive_excess, 0);
    }

    #[test]
    fn chain_executes_as_pipelined_pairwise_stages() {
        let mut s = session3();
        let result = s.execute(chain()).unwrap();
        // k=1: L rows {0,2} × R row 0 × S rows {0,1} = 4 tuples.
        assert_eq!(result.stage_stats.len(), 2);
        assert_eq!(
            result.tuples,
            vec![vec![0, 0, 0], vec![0, 0, 1], vec![2, 0, 0], vec![2, 0, 1]]
        );
        assert_eq!(result.rows.len(), 4);
        assert_eq!(result.rows[0].0.len(), 6, "SELECT *: 2 + 2 + 2 columns");
        assert_eq!(result.pairs, vec![(0, 0), (0, 1), (2, 0), (2, 1)]);
        // Both stages are ledgered individually.
        let report = s.leakage_report();
        assert_eq!(report.queries, 2);
        assert!(report.within_bound);
        assert_eq!(s.stats().queries_executed, 2);
        // One round trip for the whole chain.
        assert_eq!(s.transport_stats().round_trips, 4, "3 uploads + 1 chain");
    }

    #[test]
    fn projection_decrypts_only_selected_columns() {
        let mut star = session3();
        let all = star.execute(chain()).unwrap();
        let star_opens = star.stats().client.column_decrypts;
        assert_eq!(star.stats().client.column_decrypts_skipped, 0);

        let mut s = session3();
        let plan = chain().project(&[("S", "tag"), ("L", "color")]);
        let result = s.execute(&plan).unwrap();
        assert_eq!(
            result.columns,
            vec![ColumnId::new("S", "tag"), ColumnId::new("L", "color")]
        );
        assert_eq!(result.tuples, all.tuples, "projection changes no matches");
        assert_eq!(
            result.rows[0],
            Row(vec!["a".into(), "red".into()]),
            "projection order respected"
        );
        // Opened: unique (L row, color) ∈ {0,2} → 2, (S row, tag) ∈ {0,1} → 2.
        let stats = s.stats().client;
        assert_eq!(stats.column_decrypts, 4);
        assert!(stats.column_decrypts < star_opens);
        // Skipped: L rows 0,2 skip 1 column each; R row 0 skips 2; S rows
        // 0,1 skip 1 each = 6.
        assert_eq!(stats.column_decrypts_skipped, 6);
    }

    #[test]
    fn overlapping_chains_share_stage_tokens() {
        let mut s = session3();
        s.execute(chain()).unwrap();
        assert_eq!(s.stats().token_cache_misses, 2);
        // A different plan sharing the L⋈R stage: only the new stage
        // generates tokens.
        let overlapping = QueryPlan::scan("L").join_on("L", "k", "R", "k");
        let r = s.execute(&overlapping).unwrap();
        assert!(r.cache_hit, "the shared stage must come from the cache");
        assert_eq!(s.stats().token_cache_hits, 1);
        assert_eq!(s.stats().token_cache_misses, 2);
        // Re-running the whole chain hits on every stage.
        let again = s.execute(chain()).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.stage_cache_hits, vec![true, true]);
        assert_eq!(s.stats().token_cache_hits, 3);
    }

    #[test]
    fn filter_naming_foreign_table_is_rejected() {
        let mut s = session();
        // Typo'd table: must error, not silently drop the filter.
        let q = JoinQuery::on("L", "k", "R", "k").filter("Lx", "color", vec!["red".into()]);
        assert_eq!(
            s.execute(&q).unwrap_err(),
            DbError::FilterTableNotInQuery {
                table: "Lx".into(),
                column: "color".into(),
            }
        );
        // Same guard on the low-level client path.
        let mut client = DbClient::<MockEngine>::with_config(ClientConfig::new(1, 3).seed(1));
        let (left, _) = tables();
        client.encrypt_table(&left, cfg("L")).unwrap();
        assert!(matches!(
            client.query_tokens(&q),
            Err(DbError::FilterTableNotInQuery { .. })
        ));
    }

    #[test]
    fn repeated_query_hits_cache_and_skips_tkgen() {
        let mut s = session();
        let q = JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["red".into()]);
        let r1 = s.execute(&q).unwrap();
        let tkgen_after_first = s.stats().client.tkgen_calls;
        assert_eq!(tkgen_after_first, 2);
        let r2 = s.execute(&q).unwrap();
        assert!(r2.cache_hit);
        assert_eq!(
            s.stats().client.tkgen_calls,
            tkgen_after_first,
            "repeat must not re-run SJ.TkGen"
        );
        assert_eq!(r1.rows, r2.rows);
        assert_eq!(s.stats().token_cache_hits, 1);
        assert_eq!(s.stats().token_cache_misses, 1);
    }

    #[test]
    fn duplicate_column_filters_intersect_and_cache_safely() {
        // Two IN filters on one column are a conjunction; execution must
        // intersect them (not last-wins), and the cache must never serve
        // one ordering's tokens for the other unless they really are the
        // same query. (Regression: order-sorted fingerprints used to
        // collide while execution was order-dependent.)
        let q_ab = JoinQuery::on("L", "k", "R", "k")
            .filter("L", "color", vec!["red".into(), "blue".into()])
            .filter("L", "color", vec!["blue".into()]);
        let q_ba = JoinQuery::on("L", "k", "R", "k")
            .filter("L", "color", vec!["blue".into()])
            .filter("L", "color", vec!["red".into(), "blue".into()]);
        let plain = JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["blue".into()]);
        assert_eq!(fingerprint(&q_ab), fingerprint(&q_ba));
        assert_eq!(fingerprint(&q_ab), fingerprint(&plain));

        let mut s = session();
        let r1 = s.execute(&q_ab).unwrap();
        let r2 = s.execute(&q_ba).unwrap();
        let r3 = s.execute(&plain).unwrap();
        assert!(r2.cache_hit && r3.cache_hit);
        assert_eq!(r1.pairs, r2.pairs);
        assert_eq!(r1.pairs, r3.pairs);
        // And the intersection is really what executes: only blue rows
        // of L (row 1, k=2) — no R row has k=2, so the join is empty,
        // whereas color IN (red, blue) alone would match.
        assert!(r1.rows.is_empty());
        let red = s
            .execute(JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["red".into()]))
            .unwrap();
        assert!(!red.rows.is_empty());
    }

    #[test]
    fn in_clause_bound_applies_to_effective_values_deterministically() {
        // t = 3; four literal values but only one distinct: valid, and
        // identically valid whether or not the cache is warm.
        let dup4 = JoinQuery::on("L", "k", "R", "k").filter(
            "L",
            "color",
            vec!["red".into(), "red".into(), "red".into(), "red".into()],
        );
        let mut cold = session();
        let r_cold = cold.execute(&dup4).unwrap();
        let mut warm = session();
        warm.execute(JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["red".into()]))
            .unwrap();
        let r_warm = warm.execute(&dup4).unwrap();
        assert!(r_warm.cache_hit);
        assert_eq!(r_cold.pairs, r_warm.pairs);
        // Four *distinct* values still exceed t = 3, cold or warm.
        let distinct4 = JoinQuery::on("L", "k", "R", "k").filter(
            "L",
            "color",
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
        );
        assert!(matches!(
            cold.execute(&distinct4),
            Err(DbError::InClauseTooLarge { got: 4, max: 3 })
        ));
        // A contradictory conjunction selects nothing and is rejected
        // like an empty IN list.
        let contradiction = JoinQuery::on("L", "k", "R", "k")
            .filter("L", "color", vec!["red".into()])
            .filter("L", "color", vec!["blue".into()]);
        assert!(matches!(
            cold.execute(&contradiction),
            Err(DbError::EmptyInClause)
        ));
    }

    #[test]
    fn leakage_recorded_even_when_decryption_fails() {
        // The server observed the join whether or not the client can
        // open the payloads; a decrypt failure must not erase the
        // observation from the ledger. Stage the failure with a backend
        // that corrupts sealed payloads on the way back — also the
        // smallest example of plugging a custom ServerApi into Session.
        struct CorruptingBackend(LocalBackend<MockEngine>);
        impl ServerApi<MockEngine> for CorruptingBackend {
            fn handle(&self, request: Request<MockEngine>) -> Response {
                let mut response = self.0.handle(request);
                if let Response::JoinExecuted { result, .. } = &mut response {
                    for pair in &mut result.pairs {
                        if let Some(b) = pair.left_payloads.first_mut().and_then(|p| p.first_mut())
                        {
                            *b ^= 0xff;
                        }
                    }
                }
                response
            }
        }

        let mut s = Session::<MockEngine>::with_backend(
            SessionConfig::new(1, 3).seed(99),
            Box::new(CorruptingBackend(LocalBackend::new())),
        );
        let (left, right) = tables();
        s.create_table(&left, cfg("L")).unwrap();
        s.create_table(&right, cfg("R")).unwrap();
        let err = s.execute(JoinQuery::on("L", "k", "R", "k")).unwrap_err();
        assert_eq!(err, DbError::PayloadCorrupted);
        let report = s.leakage_report();
        assert_eq!(report.queries, 1, "observation recorded despite the error");
        assert!(report.visible_pairs > 0, "the matched pairs were observed");
    }

    #[test]
    fn fingerprint_is_order_and_duplicate_insensitive() {
        let a = JoinQuery::on("L", "k", "R", "k")
            .filter("L", "color", vec!["red".into(), "blue".into()])
            .filter("R", "shape", vec!["disc".into()]);
        let b = JoinQuery::on("L", "k", "R", "k")
            .filter("R", "shape", vec!["disc".into(), "disc".into()])
            .filter("L", "color", vec!["blue".into(), "red".into()]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["red".into()]);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn plan_fingerprint_distinguishes_projections() {
        let mut s = session3();
        let star = s.prepare(chain()).unwrap();
        let projected = s.prepare(chain().project(&[("L", "color")])).unwrap();
        assert_eq!(star.stage_fingerprints(), projected.stage_fingerprints());
        assert_ne!(star.fingerprint(), projected.fingerprint());
    }

    #[test]
    fn distinct_queries_draw_fresh_tokens() {
        let mut s = session();
        let q1 = JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["red".into()]);
        let q2 = JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["blue".into()]);
        s.execute(&q1).unwrap();
        s.execute(&q2).unwrap();
        assert_eq!(
            s.stats().client.tkgen_calls,
            4,
            "2 sides × 2 distinct queries"
        );
        assert_eq!(s.stats().token_cache_hits, 0);
    }

    #[test]
    fn cache_off_always_regenerates() {
        let mut s =
            Session::<MockEngine>::local(SessionConfig::new(1, 3).seed(99).token_cache(false));
        let (left, right) = tables();
        s.create_table(&left, cfg("L")).unwrap();
        s.create_table(&right, cfg("R")).unwrap();
        let q = JoinQuery::on("L", "k", "R", "k");
        s.execute(&q).unwrap();
        s.execute(&q).unwrap();
        assert_eq!(s.stats().client.tkgen_calls, 4);
        assert_eq!(s.stats().token_cache_hits, 0);
    }

    #[test]
    fn repeated_prepared_query_skips_all_server_decrypts() {
        let mut s = session();
        let q = s.prepare(JoinQuery::on("L", "k", "R", "k")).unwrap();
        let inputs = vec![QueryInput::from(&q), QueryInput::from(&q)];
        let results = s.execute_all(&inputs).unwrap();
        assert_eq!(results[0].stats.decrypt_cache_hits, 0, "cold first run");
        assert_eq!(
            results[1].stats.decrypt_cache_hits as usize, results[1].stats.rows_decrypted,
            "the repeat must serve every row from the server cache"
        );
        assert_eq!(results[0].rows, results[1].rows);
        assert_eq!(
            s.stats().decrypt_cache_hits,
            results[1].stats.decrypt_cache_hits,
            "session accumulates the per-query counters"
        );
        // With the decrypt cache off the repeat recomputes everything.
        let mut off =
            Session::<MockEngine>::local(SessionConfig::new(1, 3).seed(99).decrypt_cache(false));
        let (left, right) = tables();
        off.create_table(&left, cfg("L")).unwrap();
        off.create_table(&right, cfg("R")).unwrap();
        let q2 = off.prepare(JoinQuery::on("L", "k", "R", "k")).unwrap();
        let off_results = off
            .execute_all(&[QueryInput::from(&q2), QueryInput::from(&q2)])
            .unwrap();
        assert_eq!(off.stats().decrypt_cache_hits, 0);
        // Cache on vs off: identical rows, pairs and leakage.
        for (a, b) in results.iter().zip(&off_results) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.pairs, b.pairs);
        }
        assert_eq!(s.leakage_report(), off.leakage_report());
    }

    #[test]
    fn recreating_a_table_invalidates_the_server_decrypt_cache() {
        let mut s = session();
        let q = JoinQuery::on("L", "k", "R", "k");
        s.execute(&q).unwrap();
        let warm = s.execute(&q).unwrap();
        assert!(warm.stats.decrypt_cache_hits > 0);
        // Re-create L: the token cache still serves the old bundle, but
        // the server must re-decrypt L (only R's 2 rows may hit).
        let (left, _) = tables();
        s.create_table(&left, cfg("L")).unwrap();
        let after = s.execute(&q).unwrap();
        assert!(after.cache_hit, "token cache unaffected by the upload");
        assert_eq!(
            after.stats.decrypt_cache_hits, 2,
            "L entries invalidated; only R served from cache"
        );
    }

    #[test]
    fn sql_without_planner_is_an_error() {
        let mut s = session();
        assert!(matches!(
            s.execute("SELECT * FROM L JOIN R ON k = k"),
            Err(DbError::NoSqlPlanner)
        ));
    }

    #[test]
    fn executing_against_missing_table_is_rejected_at_prepare_time() {
        let mut s = session();
        let q = JoinQuery::on("Ghost", "k", "R", "k");
        assert!(matches!(s.execute(&q), Err(DbError::UnknownTable(_))));
    }

    fn series_inputs() -> Vec<QueryInput> {
        vec![
            QueryInput::from(JoinQuery::on("L", "k", "R", "k")),
            QueryInput::from(JoinQuery::on("L", "k", "R", "k").filter(
                "L",
                "color",
                vec!["red".into()],
            )),
            // A repeat of the first query: must hit the cache entry the
            // first element of this very batch created.
            QueryInput::from(JoinQuery::on("L", "k", "R", "k")),
        ]
    }

    #[test]
    fn execute_all_matches_sequential_execute() {
        let mut batched = session();
        let mut sequential = session();
        let results = batched.execute_all(&series_inputs()).unwrap();
        let mut expected = Vec::new();
        for input in series_inputs() {
            expected.push(sequential.execute(input).unwrap());
        }
        assert_eq!(results.len(), expected.len());
        for (got, want) in results.iter().zip(&expected) {
            assert_eq!(got.rows, want.rows);
            assert_eq!(got.pairs, want.pairs);
            assert_eq!(got.series_index, want.series_index);
            assert_eq!(got.cache_hit, want.cache_hit);
        }
        assert!(results[2].cache_hit, "repeat inside the batch hits");
        assert_eq!(batched.leakage_report(), sequential.leakage_report());
        assert_eq!(
            batched.stats().client.tkgen_calls,
            sequential.stats().client.tkgen_calls
        );
    }

    #[test]
    fn execute_all_is_one_backend_round_trip() {
        let mut s = session();
        let before = s.transport_stats();
        s.execute_all(&series_inputs()).unwrap();
        let after = s.transport_stats();
        assert_eq!(after.round_trips - before.round_trips, 1);
        assert_eq!(after.batches - before.batches, 1);
        assert_eq!(after.requests - before.requests, 3);
    }

    #[test]
    fn execute_all_empty_series_skips_the_backend() {
        let mut s = session();
        let before = s.transport_stats();
        assert!(s.execute_all(&[]).unwrap().is_empty());
        assert_eq!(s.transport_stats(), before);
    }

    #[test]
    fn transport_failures_after_dispatch_are_counted_as_unaccounted() {
        // A backend whose connection dies after the request bytes go
        // out (bytes_sent grows, then a transport error): the session
        // cannot ledger what it never received, but it must flag that
        // the report is now a lower bound. If instead *nothing* was
        // sent (fail-fast on a dead connection), the ledger stays
        // exact and the flag must stay at zero.
        struct FlakyTransport {
            counters: crate::backend::TransportCounters,
            dispatches: std::sync::atomic::AtomicBool,
        }
        impl ServerApi<MockEngine> for FlakyTransport {
            fn handle(&self, request: Request<MockEngine>) -> Response {
                match request {
                    Request::InsertTable(t) => Response::TableInserted {
                        table: t.name.clone(),
                        rows: t.len(),
                    },
                    _ => {
                        if self.dispatches.load(std::sync::atomic::Ordering::SeqCst) {
                            // The request reached the wire before the
                            // connection died.
                            self.counters.add_bytes_sent(64);
                        }
                        Response::Error(DbError::Transport("connection reset".into()))
                    }
                }
            }
            fn transport_stats(&self) -> crate::backend::TransportStats {
                self.counters.snapshot()
            }
        }

        let mut s = Session::<MockEngine>::with_backend(
            SessionConfig::new(1, 3).seed(99),
            Box::new(FlakyTransport {
                counters: crate::backend::TransportCounters::default(),
                dispatches: std::sync::atomic::AtomicBool::new(true),
            }),
        );
        let (left, right) = tables();
        s.create_table(&left, cfg("L")).unwrap();
        s.create_table(&right, cfg("R")).unwrap();
        let q = JoinQuery::on("L", "k", "R", "k");
        assert!(matches!(s.execute(&q), Err(DbError::Transport(_))));
        assert_eq!(s.stats().queries_unaccounted, 1);
        let inputs = vec![QueryInput::from(&q), QueryInput::from(&q)];
        assert!(matches!(s.execute_all(&inputs), Err(DbError::Transport(_))));
        assert_eq!(s.stats().queries_unaccounted, 3, "1 single + 2 batched");
        assert_eq!(
            s.leakage_report().queries,
            0,
            "nothing ledgered — lower bound"
        );

        // Same failures with zero bytes dispatched (fail-fast path):
        // the server provably executed nothing, so nothing becomes
        // unaccounted.
        let mut dead = Session::<MockEngine>::with_backend(
            SessionConfig::new(1, 3).seed(99),
            Box::new(FlakyTransport {
                counters: crate::backend::TransportCounters::default(),
                dispatches: std::sync::atomic::AtomicBool::new(false),
            }),
        );
        let (left, right) = tables();
        dead.create_table(&left, cfg("L")).unwrap();
        dead.create_table(&right, cfg("R")).unwrap();
        assert!(matches!(dead.execute(&q), Err(DbError::Transport(_))));
        assert!(matches!(
            dead.execute_all(&inputs),
            Err(DbError::Transport(_))
        ));
        assert_eq!(dead.stats().queries_unaccounted, 0);
    }

    #[test]
    fn execute_all_records_leakage_for_executed_joins_despite_an_error() {
        // A backend that executes every join except the second one in
        // the series, which it rejects — the client must still record
        // the joins the server *did* observe.
        struct FailSecondJoin(LocalBackend<MockEngine>, std::sync::atomic::AtomicUsize);
        impl ServerApi<MockEngine> for FailSecondJoin {
            fn handle(&self, request: Request<MockEngine>) -> Response {
                match request {
                    Request::Batch(requests) => {
                        Response::Batch(requests.into_iter().map(|r| self.handle(r)).collect())
                    }
                    Request::ExecuteJoin { .. } => {
                        let n = self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        if n == 1 {
                            Response::Error(DbError::PayloadCorrupted)
                        } else {
                            self.0.handle(request)
                        }
                    }
                    other => self.0.handle(other),
                }
            }
        }

        let mut s = Session::<MockEngine>::with_backend(
            SessionConfig::new(1, 3).seed(99),
            Box::new(FailSecondJoin(
                LocalBackend::new(),
                std::sync::atomic::AtomicUsize::new(0),
            )),
        );
        let (left, right) = tables();
        s.create_table(&left, cfg("L")).unwrap();
        s.create_table(&right, cfg("R")).unwrap();
        let inputs = vec![
            QueryInput::from(JoinQuery::on("L", "k", "R", "k")),
            QueryInput::from(JoinQuery::on("L", "k", "R", "k").filter(
                "L",
                "color",
                vec!["red".into()],
            )),
            QueryInput::from(JoinQuery::on("L", "k", "R", "k").filter(
                "L",
                "color",
                vec!["blue".into()],
            )),
        ];
        assert!(matches!(
            s.execute_all(&inputs),
            Err(DbError::PayloadCorrupted)
        ));
        // Queries 0 and 2 executed server-side; both must be in the
        // ledger even though the series as a whole failed.
        assert_eq!(s.leakage_report().queries, 2);
    }

    #[test]
    fn execute_all_partial_isolates_per_query_failures() {
        // Same shape as above, but through the degraded-mode API: the
        // rejected query fails alone, its neighbors still answer, and
        // a query that cannot even plan gets its own slot error.
        struct FailSecondJoin(LocalBackend<MockEngine>, std::sync::atomic::AtomicUsize);
        impl ServerApi<MockEngine> for FailSecondJoin {
            fn handle(&self, request: Request<MockEngine>) -> Response {
                match request {
                    Request::Batch(requests) => {
                        Response::Batch(requests.into_iter().map(|r| self.handle(r)).collect())
                    }
                    Request::ExecuteJoin { .. } => {
                        let n = self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        if n == 1 {
                            Response::Error(DbError::PayloadCorrupted)
                        } else {
                            self.0.handle(request)
                        }
                    }
                    other => self.0.handle(other),
                }
            }
        }

        let mut s = Session::<MockEngine>::with_backend(
            SessionConfig::new(1, 3).seed(99),
            Box::new(FailSecondJoin(
                LocalBackend::new(),
                std::sync::atomic::AtomicUsize::new(0),
            )),
        );
        let (left, right) = tables();
        s.create_table(&left, cfg("L")).unwrap();
        s.create_table(&right, cfg("R")).unwrap();
        let inputs = vec![
            QueryInput::from(JoinQuery::on("L", "k", "R", "k")),
            QueryInput::from(JoinQuery::on("L", "k", "R", "k").filter(
                "L",
                "color",
                vec!["red".into()],
            )),
            QueryInput::from(JoinQuery::on("L", "k", "R", "k").filter(
                "L",
                "color",
                vec!["blue".into()],
            )),
            QueryInput::from(JoinQuery::on("L", "k", "NoSuchTable", "k")),
        ];
        let outcomes = s.execute_all_partial(&inputs);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes[0].is_ok(), "unaffected query must still answer");
        assert!(matches!(outcomes[1], Err(DbError::PayloadCorrupted)));
        assert!(
            outcomes[2].is_ok(),
            "later slots survive an earlier failure"
        );
        assert!(
            matches!(outcomes[3], Err(DbError::UnknownTable(_))),
            "a plan-time failure stays in its own slot"
        );
        // Both executed joins are in the ledger, exactly as with
        // `execute_all`.
        assert_eq!(s.leakage_report().queries, 2);
        // The session is not poisoned: the same series succeeds once
        // the fault clears (the flaky backend only rejects call #1).
        let ok = s
            .execute_all(&inputs[..3])
            .expect("series succeeds after the fault clears");
        assert_eq!(ok.len(), 3);
    }

    #[test]
    fn execute_all_partial_on_nothing_is_empty() {
        let mut s = session();
        assert!(s.execute_all_partial(&[]).is_empty());
    }

    #[test]
    fn chain_in_execute_all_mixes_with_pairwise_queries() {
        let mut s = session3();
        let inputs = vec![
            QueryInput::from(chain()),
            QueryInput::from(JoinQuery::on("L", "k", "R", "k")),
            QueryInput::from(chain().project(&[("S", "tag")])),
        ];
        let before = s.transport_stats();
        let results = s.execute_all(&inputs).unwrap();
        let after = s.transport_stats();
        assert_eq!(after.round_trips - before.round_trips, 1);
        assert_eq!(after.requests - before.requests, 5, "2 + 1 + 2 stages");
        assert_eq!(results.len(), 3);
        // The pairwise query and the projected chain both reuse stage
        // tokens the first chain generated in this very batch.
        assert!(results[1].cache_hit);
        assert!(results[2].cache_hit);
        assert_eq!(results[2].tuples, results[0].tuples);
        assert_eq!(
            results[0].series_index + u64::try_from(results[0].stage_stats.len()).unwrap(),
            results[1].series_index
        );
    }
}
