//! The [`Session`] facade: one object owning keys, planning, transport
//! and per-query leakage accounting for a **series** of queries — the
//! paper's actual subject (Corollary 5.2.2 bounds leakage over a
//! series, not a single query).
//!
//! ```text
//!   "SELECT c.name, o.total FROM c JOIN o ON … JOIN s ON … WHERE …"
//!        │ prepare (SqlPlanner → QueryPlan, validated)
//!        ▼
//!   QueryPlan ─ execute ─▶ per-stage token cache ─▶ query_tokens
//!        │ lower(catalog)           │ hit: reuse stage bundle
//!        │                          ▼
//!        │                ServerApi backend (local / remote)
//!        │                — a chain ships as one Request::Batch of
//!        │                  pairwise ExecuteJoins, one round trip —
//!        ▼                          │
//!   ResultSet ◀── walk + project ───┘ (per-column open, kept per slot)
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
//! A plan is lowered once, and the session memoizes the lowering: with
//! it go each stage's token-cache key and payload projection, and each
//! position's shipped columns, so a repeat looks them up instead of
//! deriving them again. [`Session::prepare`] or the first execution
//! fills the memo. All of it is derived from the catalog and the
//! tables' registered layouts, so the memo is cleared whenever a
//! registration changes: when the backend accepts a table from
//! [`Session::create_table`] or [`Session::copy_table`], and when it
//! refuses one and the client's previous registration is put back. A
//! lowering made against an older registration is never looked up.
//!
//! The token cache is keyed by the **canonical pairwise stage** (both
//! sides, canonical filter sets) and by each side's registered layout
//! (join column, then filter columns in order): a token puts an `IN`
//! set's polynomial, and its pre-filter tags, at its column's position
//! in that list, so a table re-created under another layout draws fresh
//! tokens, while one re-created under the same layout keeps hitting.
//! The stage granularity is forced by the
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
//! The ledger keeps that closure incrementally and records each stage's
//! equality classes as the server reported them, so a stage costs
//! `O(Σ class members)` — not `O(|σ(q)|)` pairs — however long the
//! series has run, the report is `O(1)`, and the visible pair set is
//! built only when asked for ([`Session::visible_pairs`]).
//! [`ResultSet::leakage_delta`] is what one query added to it — 0 for a
//! repeat. A row is its table and row id; a table the backend accepts
//! from [`Session::create_table`] or [`Session::copy_table`] numbers its
//! rows from 0 again, and the ledger counts them as new rows
//! ([`LeakageLedger::register`]).
//!
//! The ledger and the result read one answer. A stage's equality
//! classes are what the ledger records (mapped to tables by the stage
//! the session dispatched) and what the result reads its matches from:
//! two rows match when they share a class. Its payloads are the rows
//! the server shipped, each once. An answer whose classes name a third
//! side or name a matched row twice, or whose shipped rows are not
//! exactly the matched rows of a side that asked for columns, is a
//! [`DbError::Protocol`].
//!
//! # A series runs whole or not at all
//!
//! [`Session::execute`] and [`Session::execute_all`] share one failure
//! model. A plan that cannot be lowered or tokenized fails the call
//! before anything is sent: the server sees none of the series, and the
//! ledger records nothing. Once the series is sent, every join the
//! server executed is ledgered, and only then does the call return the
//! first failed stage's error, in series order. The server observed
//! those joins whatever the client does next, so the ledger holds them
//! even when the call fails. A transport failure after dispatch leaves
//! the server's side unknown, and is counted in
//! [`SessionStats::queries_unaccounted`].
//!
//! # Assembling the answer, and what a repeat opens
//!
//! A position's *slots* index its matched rows, ascending. Each stage's
//! classes are read once, into a map from each slot of the stage's
//! anchor position to the ascending slots of its attached position that
//! share the anchor's class. The tuples are one depth-first walk over
//! those maps: every slot of position 0, then for each the attached
//! slots of its anchor, position by position. Candidates ascend at
//! every depth, so the tuples come out in lexicographic order, for
//! chains and stars alike, with nothing to sort. At each tuple the walk
//! decodes every `(position, slot)` it has not decoded yet, reading the
//! shipped row where it lies, and every later tuple naming the row
//! clones from the slot. Each table's column count is read once per
//! position, for the skipped-column counter. The decode goes through
//! [`DbClient::open_value`], the one way a payload becomes a [`Value`],
//! which keeps every slot it opened: a repeat that gets the same sealed
//! bytes back runs no AEAD open (see [`crate::client`]). The session
//! drops a table's opened slots when the backend accepts it as a new
//! registration, and a row's when the backend acknowledges its
//! deletion.

use crate::backend::{LocalBackend, RemoteBackend, TransportStats};
use crate::client::{ClientConfig, ClientStats, DbClient, TableConfig, TableState};
use crate::data::{Row, Table, Value};
use crate::encrypted::QueryTokens;
use crate::error::DbError;
use crate::plan::{ColumnId, LoweredPlan, QueryPlan};
use crate::protocol::{Request, Response, ServerApi};
use crate::query::JoinQuery;
use crate::server::{
    matched_rows, ships_rows, EncryptedJoinResult, JoinObservation, PayloadProjection, ServerStats,
    ShippedRow,
};
use eqjoin_leakage::{LeakageLedger, PairSet};
use eqjoin_pairing::Engine;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Session configuration: the client's crypto parameters plus caching
/// policy, fixed at construction. How a join runs is the backend's.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Client crypto configuration (`m`, `t`, seed, pre-filter).
    pub client: ClientConfig,
    /// Decrypt threads of the backend [`Session::local`] builds.
    pub threads: usize,
    /// Cache token bundles per canonical pairwise stage (on by default;
    /// see the module docs for why the cache key is the stage).
    pub token_cache: bool,
}

impl SessionConfig {
    /// Scheme dimensions `m` (filter attributes per table) and `t`
    /// (`IN`-clause bound); defaults: seed 0, pre-filter off, token
    /// cache on, and auto decrypt threads for [`Session::local`].
    pub fn new(m: usize, t: usize) -> Self {
        SessionConfig {
            client: ClientConfig::new(m, t),
            threads: 0,
            token_cache: true,
        }
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

    /// Decrypt worker threads of the in-process backend (`0` = auto,
    /// the default: one per available core). Only [`Session::local`]
    /// honors it: other backends run on the configuration they were
    /// built with.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
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
/// text or a logical [`QueryPlan`]; a two-table [`JoinQuery`] converts
/// to its [`QueryPlan::pairwise`] plan.
#[derive(Clone)]
pub enum QueryInput {
    /// SQL text (requires an installed [`SqlPlanner`]).
    Sql(String),
    /// A logical plan, bypassing the SQL front-end.
    Plan(QueryPlan),
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
        QueryInput::Plan(QueryPlan::pairwise(&query))
    }
}

impl From<&JoinQuery> for QueryInput {
    fn from(query: &JoinQuery) -> Self {
        QueryInput::Plan(QueryPlan::pairwise(query))
    }
}

/// Canonical byte encoding of a pairwise stage: table/column names
/// length-prefixed, followed by the stage's *effective* IN sets
/// ([`JoinQuery::canonical_filter_sets`] — deduplicated, same-column
/// filters intersected, sorted). Token generation consumes exactly the
/// same canonical sets, so two stages with the same fingerprint over
/// tables of the same layouts (which [`Session::stage_key`] adds) are
/// guaranteed to execute identically — sharing one token bundle between
/// them is safe.
fn fingerprint(query: &JoinQuery) -> Vec<u8> {
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

/// Append `bytes` to `out`, length-prefixed.
fn put(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Decrypted result of one executed plan: the projected rows and,
/// aligned with them, the matched row ids behind each, in lexicographic
/// order of those ids (see the [module docs](self) for the walk that
/// produces them).
#[derive(Debug)]
pub struct ResultSet {
    /// Output column headers (qualified), in projection order.
    pub columns: Vec<ColumnId>,
    /// The projected plaintext rows, aligned with `columns`.
    pub rows: Vec<Row>,
    /// Matched server-side row indices per output row, in lexicographic
    /// order: `tuples[i][p]` is the row of table position `p` (join
    /// order) behind `rows[i]`. For a two-table plan these are exactly
    /// the matched `(left row, right row)` pairs; a plan's
    /// `(first table row, last table row)` view is
    /// `(t[0], t[t.len() - 1])` of each tuple `t`.
    pub tuples: Vec<Vec<usize>>,
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
/// per-stage tokens (cached) → backend joins → leakage ledger → the
/// walk over each stage's classes → per-column decrypt. See the
/// [module docs](self) for the full pipeline.
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
    /// Each plan's lowering, until a table's registration changes (see
    /// the module docs).
    lowerings: HashMap<QueryPlan, Arc<Lowering>>,
    token_cache: HashMap<Vec<u8>, Arc<QueryTokens<E>>>,
    ledger: LeakageLedger,
    stats: SessionStats,
}

/// A plan lowered against the catalog, with what every execution of it
/// derives from the tables' registrations, computed once.
struct Lowering {
    plan: LoweredPlan,
    /// One per stage, in stage order.
    stages: Vec<StageRequest>,
    /// One per table position.
    positions: Vec<PositionColumns>,
    /// Each output column as (position, index among the columns that
    /// position ships).
    outputs: Vec<(usize, usize)>,
}

/// What a stage's request carries besides its tokens.
struct StageRequest {
    /// The token-cache key ([`Session::stage_key`]).
    key: Vec<u8>,
    projection: PayloadProjection,
}

/// One stage the server executed, as the ledger recorded it.
struct Executed {
    result: EncryptedJoinResult,
    observation: JoinObservation,
    series_index: u64,
    /// Pairs it added to the closure.
    added: usize,
}

/// The payload columns a position's rows ship.
struct PositionColumns {
    /// Schema indices of the payload columns shipped, in shipped order.
    columns: Vec<usize>,
    /// Columns of each row the projection leaves sealed.
    skipped: u64,
}

impl<E: Engine> Session<E> {
    /// Session over an in-process [`LocalBackend`] whose joins run on
    /// [`SessionConfig::threads`] decrypt workers.
    pub fn local(config: SessionConfig) -> Self {
        let backend = LocalBackend::with_config(Some(config.threads), None);
        Self::with_backend(config, Box::new(backend))
    }

    /// Session over a [`RemoteBackend`] connected to an `eqjoind`
    /// server at `addr`. Connection failure is [`DbError::Transport`].
    /// The connection has the default
    /// [`RemoteConfig`](crate::backend::RemoteConfig): no I/O timeout,
    /// and idempotent requests retry per the default
    /// [`RetryPolicy`](crate::backend::RetryPolicy). To bound every
    /// socket read and write, connect with
    /// [`RemoteBackend::connect_with`] and pass the backend to
    /// [`Session::with_backend`].
    pub fn remote<A: std::net::ToSocketAddrs + ToString>(
        config: SessionConfig,
        addr: A,
    ) -> Result<Self, DbError> {
        let remote = RemoteBackend::connect(addr)?;
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
            lowerings: HashMap::new(),
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

    /// Ask the *server* for its Prometheus text exposition over the
    /// wire ([`Request::Stats`]): the text its `--metrics-addr`
    /// listener serves, per-tenant series included. Never sent
    /// implicitly — the probe itself is one ordinary (counted) round
    /// trip.
    pub fn server_metrics(&self) -> Result<String, DbError> {
        match self.dispatch(Request::Stats) {
            Response::Stats(exposition) => Ok(exposition),
            Response::Error(e) => Err(e),
            _ => Err(DbError::Protocol(
                "backend answered Stats with the wrong response kind".into(),
            )),
        }
    }

    /// Encrypt a plaintext table under the session keys and upload it to
    /// the backend. The session's registration of the table (schema,
    /// layout, row numbering) changes only once the backend accepts the
    /// upload; an error leaves the previous one in place.
    pub fn create_table(&mut self, table: &Table, config: TableConfig) -> Result<(), DbError> {
        let name = &table.schema.name;
        let previous = self.client.registration(name);
        let encrypted = self.client.encrypt_table(table, config)?;
        let outcome = match self.dispatch(Request::InsertTable(encrypted)) {
            Response::TableInserted { .. } => Ok(()),
            Response::Error(e) => Err(e),
            _ => Err(DbError::Protocol(
                "backend answered InsertTable with the wrong response kind".into(),
            )),
        };
        // Refused, the server keeps the table it had (if any), and so
        // must the client: it never encrypts or tokenizes for a layout
        // the server does not hold.
        outcome.inspect_err(|_| self.refused(name, previous))?;
        self.registered(table);
        Ok(())
    }

    /// The server accepted `table` as a new registration: it holds the
    /// table under this schema, and its rows are numbered from 0 again,
    /// so the ledger must not take them for the rows they replace.
    fn registered(&mut self, table: &Table) {
        let name = &table.schema.name;
        self.catalog
            .insert(name.clone(), table.schema.columns.clone());
        self.lowerings.clear();
        self.ledger.register(name);
        self.client.forget_opened_table(name);
    }

    /// The server refused an upload of `table`: put back the client's
    /// registration from before it (`None`: the table was new).
    fn refused(&mut self, table: &str, previous: Option<TableState>) {
        self.client.restore_registration(table, previous);
        self.lowerings.clear();
    }

    /// Encrypt plaintext rows (schema column order) and append them to
    /// an existing table **incrementally**: stored rows — and their
    /// decrypt-cache entries server-side — are untouched, so a warm
    /// series stays warm and only the new rows cost anything. Returns
    /// the number of rows appended. A refused insert keeps the row ids
    /// it was given: the next insert starts after them, and the gap it
    /// leaves is one the store accepts.
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
    /// of rows loaded. As with [`Session::create_table`], the session's
    /// registration changes only once the backend accepts the first
    /// chunk.
    pub fn copy_table(
        &mut self,
        table: &Table,
        config: TableConfig,
        chunk_rows: usize,
    ) -> Result<usize, DbError> {
        let name = &table.schema.name;
        let chunk = if chunk_rows == 0 {
            DEFAULT_COPY_CHUNK_ROWS
        } else {
            chunk_rows
        };
        let (first, rest) = table.rows.split_at(chunk.min(table.rows.len()));
        // Register the client-side table state (keys, PRF streams, row
        // numbering) without materializing the whole encrypted table:
        // an empty shell of the schema encrypts zero rows.
        let previous = self.client.registration(name);
        let shell = Table::new(table.schema.clone());
        let _ = self.client.encrypt_table(&shell, config)?;
        let mut loaded = self
            .copy_chunk(name, first)
            .inspect_err(|_| self.refused(name, previous))?;
        self.registered(table);
        for rows in rest.chunks(chunk) {
            loaded += self.copy_chunk(name, rows)?;
        }
        Ok(loaded)
    }

    /// Bulk-append plaintext rows to a table this session already
    /// encrypts (the server half is create-or-append, so the table need
    /// not exist server-side yet). Rows are encrypted and shipped in
    /// [`DEFAULT_COPY_CHUNK_ROWS`]-row [`Request::CopyRows`] chunks;
    /// zero rows still ship one empty chunk.
    pub fn copy_rows(&mut self, table: &str, rows: &[Vec<Value>]) -> Result<usize, DbError> {
        if rows.is_empty() {
            return self.copy_chunk(table, rows);
        }
        rows.chunks(DEFAULT_COPY_CHUNK_ROWS)
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
    /// state is dropped server-side, and only their opened payloads
    /// client-side.
    pub fn delete_rows(&mut self, table: &str, rows: &[u64]) -> Result<usize, DbError> {
        match self.dispatch(Request::DeleteRows {
            table: table.to_owned(),
            rows: rows.to_vec(),
        }) {
            Response::RowsDeleted { rows: deleted, .. } => {
                self.client.forget_opened_rows(table, rows);
                Ok(deleted)
            }
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

    /// Plan a query and validate it: SQL text goes through the
    /// installed [`SqlPlanner`], and the resulting [`QueryPlan`] (or a
    /// directly supplied one) must lower against the session catalog.
    /// The lowering is memoized, and the plan comes back as it is: a
    /// plan prepared before a table was re-created is lowered again
    /// against the new registration when it is executed.
    pub fn prepare(&mut self, input: impl Into<QueryInput>) -> Result<QueryPlan, DbError> {
        let plan = self.logical_plan(input.into())?;
        self.lowering(&plan)?;
        Ok(plan)
    }

    /// The logical plan behind `input` (SQL goes through the planner).
    fn logical_plan(&self, input: QueryInput) -> Result<QueryPlan, DbError> {
        match input {
            QueryInput::Plan(plan) => Ok(plan),
            QueryInput::Sql(sql) => {
                let planner = self.planner.as_ref().ok_or(DbError::NoSqlPlanner)?;
                planner.plan(&sql, &self.catalog)
            }
        }
    }

    /// Plan `input` and look up its lowering.
    fn lower(&mut self, input: QueryInput) -> Result<Arc<Lowering>, DbError> {
        let plan = self.logical_plan(input)?;
        self.lowering(&plan)
    }

    /// `plan`'s memoized lowering; lowered against the catalog and
    /// memoized first if it is not there.
    fn lowering(&mut self, plan: &QueryPlan) -> Result<Arc<Lowering>, DbError> {
        if let Some(lowering) = self.lowerings.get(plan) {
            return Ok(Arc::clone(lowering));
        }
        let lowering = Arc::new(self.lower_plan(plan)?);
        self.lowerings.insert(plan.clone(), Arc::clone(&lowering));
        Ok(lowering)
    }

    /// Lower `plan` against the catalog, and derive what each execution
    /// of it needs from the tables' registrations.
    fn lower_plan(&self, plan: &QueryPlan) -> Result<Lowering, DbError> {
        let plan = plan.lower(&self.catalog)?;
        let wanted: Vec<_> = (0..plan.tables.len())
            .map(|p| plan.wanted_columns(p))
            .collect();
        let stages = plan
            .stages
            .iter()
            .enumerate()
            .map(|(i, stage)| StageRequest {
                key: self.stage_key(&stage.query),
                // The stage that introduces a table ships its payloads;
                // an anchor's were shipped by an earlier stage, so the
                // request asks for none of them.
                projection: PayloadProjection {
                    left: match i {
                        0 => wanted[stage.left_position].clone(),
                        _ => Some(Vec::new()),
                    },
                    right: wanted[stage.right_position].clone(),
                },
            })
            .collect();
        let positions: Vec<_> = wanted
            .into_iter()
            .zip(&plan.tables)
            .map(|(wanted, table)| {
                let width = self.catalog[table].len();
                let columns = wanted.unwrap_or_else(|| (0..width).collect());
                PositionColumns {
                    skipped: width.saturating_sub(columns.len()) as u64,
                    columns,
                }
            })
            .collect();
        let outputs = plan
            .projection
            .iter()
            .map(|c| {
                positions[c.position]
                    .columns
                    .iter()
                    .position(|&i| i == c.column_index)
                    .map(|k| (c.position, k))
                    .ok_or(DbError::PayloadCorrupted)
            })
            .collect::<Result<_, _>>()?;
        Ok(Lowering {
            plan,
            stages,
            positions,
            outputs,
        })
    }

    /// The token-cache key of one pairwise stage: its [`fingerprint`],
    /// then each side's registered layout (join column, filter columns
    /// in order; empty for a table the client does not know, whose
    /// token generation fails anyway).
    fn stage_key(&self, query: &JoinQuery) -> Vec<u8> {
        let mut key = fingerprint(query);
        for table in [&query.left_table, &query.right_table] {
            let mut layout = Vec::new();
            if let Some(config) = self.client.table_config(table) {
                put(&mut layout, config.join_column.as_bytes());
                for column in &config.filter_columns {
                    put(&mut layout, column.as_bytes());
                }
            }
            put(&mut key, &layout);
        }
        key
    }

    /// Fetch the token bundle for one pairwise stage, whose cache key
    /// is `key` — from the session cache when enabled and warm, freshly
    /// generated (and cached) otherwise. Returns `(tokens, cache_hit)`
    /// and updates the cache counters.
    fn tokens_for(
        &mut self,
        key: &[u8],
        query: &JoinQuery,
    ) -> Result<(Arc<QueryTokens<E>>, bool), DbError> {
        let (tokens, cache_hit) = if self.config.token_cache {
            match self.token_cache.get(key) {
                Some(cached) => (Arc::clone(cached), true),
                None => {
                    let fresh = Arc::new(self.client.query_tokens(query)?);
                    self.token_cache.insert(key.to_vec(), Arc::clone(&fresh));
                    (fresh, false)
                }
            }
        } else {
            (Arc::new(self.client.query_tokens(query)?), false)
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

    /// Record one executed join in the leakage ledger and return its
    /// series index and the pairs it added to the closure. This must
    /// happen for every join the server executed — the observation
    /// exists server-side whatever the client manages to do with the
    /// result afterwards. `tables` names the join's two sides, as the
    /// session dispatched it; a class member naming any other side is a
    /// protocol error, and nothing of that observation is recorded.
    fn record_observation(
        &mut self,
        observation: &JoinObservation,
        tables: [&str; 2],
    ) -> Result<(u64, usize), DbError> {
        let classes = &observation.equality_classes;
        if let Some(&(side, _)) = classes.iter().flatten().find(|m| m.0 > 1) {
            return Err(DbError::Protocol(format!(
                "equality class member on side {side} (a join has sides 0 and 1)"
            )));
        }
        let series_index = self.stats.queries_executed;
        let added = self.ledger.record_closed(series_index, &tables, classes);
        self.stats.queries_executed += 1;
        Ok((series_index, added))
    }

    /// Assemble one plan's executed stages into a [`ResultSet`]. Each
    /// stage's classes are read once, into slot space: a position's
    /// slots index its matched rows (ascending), and a stage maps each
    /// slot of its anchor to the ascending slots of its attached
    /// position that share the anchor's class. The tuples are then one
    /// depth-first walk over those maps; its payloads are the rows each
    /// stage shipped, checked against the matched rows and decoded at
    /// the first tuple that names them.
    fn assemble_result_set(
        &mut self,
        lowering: &Lowering,
        mut stages: Vec<Executed>,
        stage_cache_hits: Vec<bool>,
    ) -> Result<ResultSet, DbError> {
        // Position 0 is introduced by stage 0's left side and position
        // i + 1 by stage i's right side; a later stage anchored at a
        // position asks for none of its columns and ships none of its
        // rows. `matched[p]` lists the rows position `p` can take.
        let lowered = &lowering.plan;
        let mut matched: Vec<Vec<usize>> = Vec::with_capacity(lowered.tables.len());
        let mut links = Vec::with_capacity(stages.len());
        for (i, executed) in stages.iter_mut().enumerate() {
            let stage = &lowered.stages[i];
            let projection = &lowering.stages[i].projection;
            let classes = &executed.observation.equality_classes;
            let (left, right) = matched_rows(classes)?;
            for (rows, wanted, matched) in [
                (&mut executed.result.left_rows, &projection.left, &left),
                (&mut executed.result.right_rows, &projection.right, &right),
            ] {
                check_shipped(rows, matched, ships_rows(wanted.as_deref()))?;
                // Vouched for, the shipped rows are the matched rows;
                // an honest server already sends them in that order.
                if !rows.is_sorted_by_key(|r| r.0) {
                    rows.sort_unstable_by_key(|r| r.0);
                }
            }
            if i == 0 {
                matched.push(left);
            }
            debug_assert_eq!(stage.right_position, matched.len());
            let link = StageSlots::new(
                classes,
                stage.left_position,
                &matched[stage.left_position],
                &right,
            );
            matched.push(right);
            links.push(link);
        }

        let mut positions = Vec::with_capacity(matched.len());
        for (p, matched) in matched.into_iter().enumerate() {
            let shipped = match p {
                0 => &stages[0].result.left_rows,
                _ => &stages[p - 1].result.right_rows,
            };
            positions.push(PositionRows {
                table: &lowered.tables[p],
                columns: &lowering.positions[p],
                shipped,
                decoded: vec![None; matched.len()],
                matched,
            });
        }

        // The walk: `cursors[p]` runs over position p's candidates —
        // every slot at position 0, else the attached slots of the
        // anchor's current slot — and `slots[p]` is the one taken. The
        // candidates ascend at every depth, so the tuples come out in
        // lexicographic order.
        let mut tuples = Vec::new();
        let mut rows = Vec::new();
        let mut slots = vec![0; positions.len()];
        let mut cursors = Vec::with_capacity(positions.len());
        cursors.push(0..positions[0].matched.len());
        while let Some(p) = cursors.len().checked_sub(1) {
            let Some(k) = cursors[p].next() else {
                cursors.pop();
                continue;
            };
            slots[p] = match p {
                0 => k,
                _ => links[p - 1].attached[k],
            };
            if let Some(link) = links.get(p) {
                cursors.push(link.of_anchor[slots[link.anchor]].clone());
                continue;
            }
            for (pos, &slot) in positions.iter_mut().zip(&slots) {
                if pos.decoded[slot].is_none() {
                    pos.decoded[slot] = Some(pos.decode(&mut self.client, slot)?);
                }
            }
            let values = lowering
                .outputs
                .iter()
                .map(|&(p, k)| {
                    positions[p].decoded[slots[p]]
                        .as_ref()
                        .and_then(|values| values.get(k).cloned())
                        .ok_or(DbError::PayloadCorrupted)
                })
                .collect::<Result<Vec<_>, _>>()?;
            rows.push(Row(values));
            tuples.push(
                positions
                    .iter()
                    .zip(&slots)
                    .map(|(pos, &slot)| pos.matched[slot])
                    .collect(),
            );
        }

        let mut stats = ServerStats::default();
        for stage in &stages {
            stats.merge(&stage.result.stats);
        }
        Ok(ResultSet {
            columns: lowered.projection.iter().map(|c| c.id.clone()).collect(),
            rows,
            tuples,
            stats,
            series_index: stages
                .first()
                .map_or(self.stats.queries_executed, |s| s.series_index),
            leakage_delta: stages.iter().map(|s| s.added).sum(),
            stage_stats: stages.into_iter().map(|s| s.result.stats).collect(),
            cache_hit: stage_cache_hits.iter().all(|&h| h),
            stage_cache_hits,
        })
    }

    /// Execute a query end-to-end: per-stage tokens (cached on repeats)
    /// → backend joins (a chain ships as **one** batched round trip) →
    /// leakage ledger → tuples and per-column decrypt.
    pub fn execute(&mut self, input: impl Into<QueryInput>) -> Result<ResultSet, DbError> {
        let lowering = self.lower(input.into())?;
        self.run(&[lowering])?
            .pop()
            .ok_or_else(|| DbError::Protocol("a plan produced no result".into()))
    }

    /// Execute a whole series in **one round trip**: every
    /// stage of every plan is resolved up front (cache consulted per
    /// stage — a repeat later in the slice reuses the tokens its first
    /// occurrence just generated), the series ships as a single
    /// [`Request::Batch`] of pairwise joins, and the backend answers
    /// with one same-arity [`Response::Batch`]. Over a
    /// [`RemoteBackend`] that is exactly
    /// one TCP round trip for the entire series.
    ///
    /// A series runs whole or not at all. A plan that cannot be lowered
    /// or tokenized fails the call before anything is sent. Once the
    /// series is sent, every join the server executed is recorded in
    /// the leakage ledger, and then the first failed stage's error (in
    /// series order) is returned, or else every plan's result, in input
    /// order. The one unknowable case is a transport failure after
    /// dispatch: no observation comes back to record, so the affected
    /// joins are counted in [`SessionStats::queries_unaccounted`]
    /// instead.
    pub fn execute_all(&mut self, inputs: &[QueryInput]) -> Result<Vec<ResultSet>, DbError> {
        let lowerings = inputs
            .iter()
            .map(|input| self.lower(input.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        self.run(&lowerings)
    }

    /// The execution core, in four steps: draw every stage's tokens
    /// (nothing is sent if one fails); dispatch one request for a
    /// single pairwise stage, one batch otherwise; ledger every join the
    /// server executed; return the first failed stage's error in series
    /// order, or else assemble every plan.
    fn run(&mut self, lowerings: &[Arc<Lowering>]) -> Result<Vec<ResultSet>, DbError> {
        if lowerings.is_empty() {
            return Ok(Vec::new());
        }
        // One record per dispatch: for `execute` this is exactly the
        // per-query end-to-end latency (tokens → backend → assembly →
        // decrypt); a batched series records its whole round trip once.
        let _span = eqjoin_obs::span!("session_query");
        let mut requests = Vec::new();
        let mut cache_hits = Vec::new();
        for lowering in lowerings {
            for (stage, request) in lowering.plan.stages.iter().zip(&lowering.stages) {
                let (tokens, cache_hit) = self.tokens_for(&request.key, &stage.query)?;
                cache_hits.push(cache_hit);
                requests.push(Request::ExecuteJoin {
                    tokens,
                    projection: request.projection.clone(),
                });
            }
        }

        let total_stages = requests.len();
        let sent_before = self.backend.transport_stats().bytes_sent;
        let responses = match <[_; 1]>::try_from(requests) {
            Ok([request]) => vec![self.dispatch(request)],
            Err(requests) => match self.dispatch(Request::Batch(requests)) {
                Response::Batch(responses) if responses.len() == total_stages => responses,
                Response::Batch(responses) => {
                    return Err(DbError::Protocol(format!(
                        "batch arity mismatch: {total_stages} requests, {} responses",
                        responses.len()
                    )))
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
                    return Err(e);
                }
                _ => {
                    return Err(DbError::Protocol(
                        "backend answered Batch with the wrong response kind".into(),
                    ))
                }
            },
        };

        // The server observed *every* join it executed, so record them
        // all before any error or decrypt failure can cut the
        // processing short.
        let dispatched = self.backend.transport_stats().bytes_sent > sent_before;
        let stages = lowerings.iter().flat_map(|lowering| &lowering.plan.stages);
        let mut executed = Vec::with_capacity(total_stages);
        let mut first_error = None;
        for (response, stage) in responses.into_iter().zip(stages) {
            let outcome = match response {
                Response::JoinExecuted {
                    result,
                    observation,
                } => {
                    self.stats.decrypt_cache_hits += result.stats.decrypt_cache_hits;
                    let tables = [stage.query.left_table.as_str(), &stage.query.right_table];
                    match self.record_observation(&observation, tables) {
                        Ok((series_index, added)) => Ok(Executed {
                            result,
                            observation,
                            series_index,
                            added,
                        }),
                        Err(e) => {
                            // The server ran this join, but what it
                            // observed cannot be ledgered.
                            self.stats.queries_unaccounted += 1;
                            Err(e)
                        }
                    }
                }
                Response::Error(e) => {
                    // Per-element transport errors reach here when the
                    // connection died mid-exchange or a response
                    // outgrew the frame cap after the joins ran.
                    if matches!(e, DbError::Transport(_)) && dispatched {
                        self.stats.queries_unaccounted += 1;
                    }
                    Err(e)
                }
                _ => Err(DbError::Protocol(
                    "backend answered ExecuteJoin with the wrong response kind".into(),
                )),
            };
            match outcome {
                Ok(stage) => executed.push(stage),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }

        let mut executed = executed.into_iter();
        let mut cache_hits = cache_hits.into_iter();
        lowerings
            .iter()
            .map(|lowering| {
                let n = lowering.stages.len();
                let stages = executed.by_ref().take(n).collect();
                let cache_hits = cache_hits.by_ref().take(n).collect();
                self.assemble_result_set(lowering, stages, cache_hits)
            })
            .collect()
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

/// One stage's classes in slot space: `attached` holds the attached
/// position's slots class by class, each class's ascending, and
/// `of_anchor[s]` is the range of `attached` that shares a class with
/// slot `s` of position `anchor` (empty when no class names that row).
struct StageSlots {
    anchor: usize,
    of_anchor: Vec<Range<usize>>,
    attached: Vec<usize>,
}

impl StageSlots {
    /// Map `classes` onto the slots of the anchor position's matched
    /// rows (`anchor_rows`) and the stage's attached matched rows
    /// (`attached_rows`), both ascending and, per [`matched_rows`],
    /// each named by at most one class. An anchor row the earlier
    /// stages did not match has no slot, and no tuple to extend.
    fn new(
        classes: &[Vec<(u8, usize)>],
        anchor: usize,
        anchor_rows: &[usize],
        attached_rows: &[usize],
    ) -> Self {
        let mut of_anchor = vec![0..0; anchor_rows.len()];
        let mut attached = Vec::with_capacity(attached_rows.len());
        let slot = |rows: &[usize], row| rows.binary_search(&row).ok();
        for class in classes {
            let start = attached.len();
            attached.extend(
                class
                    .iter()
                    .filter(|m| m.0 == 1)
                    .filter_map(|m| slot(attached_rows, m.1)),
            );
            if attached.len() == start {
                continue;
            }
            attached[start..].sort_unstable();
            for member in class.iter().filter(|m| m.0 == 0) {
                if let Some(s) = slot(anchor_rows, member.1) {
                    of_anchor[s] = start..attached.len();
                }
            }
        }
        StageSlots {
            anchor,
            of_anchor,
            attached,
        }
    }
}

/// One table position of a plan being assembled: the rows it can take,
/// the rows its introducing stage shipped for them (one per matched
/// row, same order, or none when the plan projects none of its
/// columns) and each row's projected values once decoded.
struct PositionRows<'a> {
    table: &'a str,
    /// Ascending, distinct.
    matched: Vec<usize>,
    shipped: &'a [ShippedRow],
    columns: &'a PositionColumns,
    decoded: Vec<Option<Vec<Value>>>,
}

impl PositionRows<'_> {
    /// Open the projected columns of matched row `slot`.
    fn decode<E: Engine>(
        &self,
        client: &mut DbClient<E>,
        slot: usize,
    ) -> Result<Vec<Value>, DbError> {
        client.note_skipped_column_decrypts(self.columns.skipped);
        if self.columns.columns.is_empty() {
            return Ok(Vec::new());
        }
        let (row, blobs) = self.shipped.get(slot).ok_or(DbError::PayloadCorrupted)?;
        self.columns
            .columns
            .iter()
            .enumerate()
            .map(|(k, &column)| {
                let blob = blobs.get(k).ok_or(DbError::PayloadCorrupted)?;
                client.open_value(self.table, *row, column, blob)
            })
            .collect()
    }
}

/// Check one side of a stage's answer against its matched rows
/// (`matched`, ascending and distinct): a side that asked for payload
/// columns (`ships`) ships each matched row exactly once and no other
/// row; a side that asked for none ships nothing.
fn check_shipped(rows: &[ShippedRow], matched: &[usize], ships: bool) -> Result<(), DbError> {
    let refuse = |why: String| Err(DbError::Protocol(why));
    if !ships && !rows.is_empty() {
        return refuse("rows shipped for a side that asked for no payload columns".into());
    }
    // The server ships ascending, so an honest answer is this one walk.
    if !ships || rows.iter().map(|r| r.0).eq(matched.iter().copied()) {
        return Ok(());
    }
    let mut shipped = BTreeSet::new();
    for &(row, _) in rows {
        if !shipped.insert(row) {
            return refuse(format!("row {row} shipped twice"));
        }
        if matched.binary_search(&row).is_err() {
            return refuse(format!("row {row} shipped but in no matched pair"));
        }
    }
    match matched.iter().find(|row| !shipped.contains(row)) {
        Some(row) => refuse(format!("matched row {row} was not shipped")),
        None => Ok(()),
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
        // Both stages are ledgered individually.
        let report = s.leakage_report();
        assert_eq!(report.queries, 2);
        assert!(report.within_bound);
        assert_eq!(s.stats().queries_executed, 2);
        // One round trip for the whole chain.
        assert_eq!(s.transport_stats().round_trips, 4, "3 uploads + 1 chain");
    }

    #[test]
    fn a_star_extends_its_anchor_and_an_empty_middle_stage_empties_the_chain() {
        let mut s = session3();
        // Stage 2 anchored at L, not R: L row 1 (k=2) matches S row 2
        // but no R row, so no tuple extends to it.
        let star = QueryPlan::scan("L")
            .join_on("L", "k", "R", "k")
            .join_on("L", "k", "S", "k");
        let result = s.execute(star).unwrap();
        assert_eq!(
            result.tuples,
            vec![vec![0, 0, 0], vec![0, 0, 1], vec![2, 0, 0], vec![2, 0, 1]]
        );
        // R⋈S matches nothing once S keeps only its k=2 row, while L⋈R
        // still matches two pairs: the chain has no tuple, and both
        // stages are ledgered.
        let dead = chain().filter("S", "tag", vec!["c".into()]);
        let result = s.execute(dead).unwrap();
        assert_eq!(result.stage_stats[0].matched_pairs, 2);
        assert_eq!(result.stage_stats[1].matched_pairs, 0);
        assert!(result.tuples.is_empty());
        assert!(result.rows.is_empty());
        assert_eq!(s.leakage_report().queries, 4);
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
        assert_eq!(r1.tuples, r2.tuples);
        assert_eq!(r1.tuples, r3.tuples);
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
        assert_eq!(r_cold.tuples, r_warm.tuples);
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
                    for (_, payloads) in &mut result.left_rows {
                        if let Some(b) = payloads.first_mut().and_then(|p| p.first_mut()) {
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
        // With fresh tokens (token cache off) the repeat recomputes all.
        let mut off =
            Session::<MockEngine>::local(SessionConfig::new(1, 3).seed(99).token_cache(false));
        let (left, right) = tables();
        off.create_table(&left, cfg("L")).unwrap();
        off.create_table(&right, cfg("R")).unwrap();
        let q2 = off.prepare(JoinQuery::on("L", "k", "R", "k")).unwrap();
        let off_results = off
            .execute_all(&[QueryInput::from(&q2), QueryInput::from(&q2)])
            .unwrap();
        assert_eq!(off.stats().decrypt_cache_hits, 0);
        // Cached or decrypted afresh: identical rows, pairs and leakage.
        for (a, b) in results.iter().zip(&off_results) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.tuples, b.tuples);
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
            assert_eq!(got.tuples, want.tuples);
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
        // The session is not poisoned: the same series succeeds once
        // the fault clears (the flaky backend only rejects join #1).
        let ok = s
            .execute_all(&inputs)
            .expect("series succeeds after the fault clears");
        assert_eq!(ok.len(), 3);
        assert_eq!(s.leakage_report().queries, 5);
    }

    #[test]
    fn a_series_that_cannot_draw_its_tokens_sends_nothing() {
        // All three plans lower; the third cannot draw its tokens (four
        // distinct IN values at t = 3). The first two must not reach the
        // server either, so nothing is observed and nothing ledgered.
        let mut s = session();
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
                vec!["a".into(), "b".into(), "c".into(), "d".into()],
            )),
        ];
        let before = s.transport_stats();
        assert!(matches!(
            s.execute_all(&inputs),
            Err(DbError::InClauseTooLarge { got: 4, max: 3 })
        ));
        assert_eq!(s.transport_stats(), before, "nothing was sent");
        assert_eq!(s.leakage_report().queries, 0, "nothing was ledgered");
        assert_eq!(s.stats().queries_unaccounted, 0);
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
