//! The client↔server message protocol behind [`Session`], and the
//! [`ServerApi`] transport abstraction any backend implements.
//!
//! [`Session`]: crate::session::Session
//!
//! The session never touches a [`DbServer`](crate::server::DbServer)
//! directly; it speaks a small request/response protocol:
//!
//! ```text
//!   Session ── Request::InsertTable ──────▶ ServerApi
//!   Session ── Request::Batch[Execute…] ──▶ ServerApi
//!   Session ◀─ Response::Batch[Join…] ──── ServerApi
//! ```
//!
//! [`ServerApi`] is a real transport trait: `handle` takes `&self` and
//! implementations synchronize internally, so one backend instance can
//! serve many sessions and server worker threads concurrently. A
//! whole query series travels as one [`Request::Batch`] — over TCP
//! ([`RemoteBackend`](crate::backend::RemoteBackend)) that is a single
//! round trip for the entire series.
//!
//! Backends living in [`crate::backend`]:
//!
//! * [`LocalBackend`](crate::backend::LocalBackend) — in-process, a
//!   [`DbServer`](crate::server::DbServer) behind an `RwLock`.
//! * [`RemoteBackend`](crate::backend::RemoteBackend) — the same
//!   messages ([`Request::to_bytes`] / [`Response::from_bytes`] define
//!   the wire format) length-framed over a TCP socket to an `eqjoind`
//!   server.
//!
//! The wire codec is deliberately dependency-free: length-prefixed
//! fields, group elements via the engine's canonical (validated)
//! encodings.
//!
//! # Batch semantics
//!
//! `handle(Request::Batch(v))` answers with `Response::Batch(w)` where
//! `w.len() == v.len()` and `w[i]` answers `v[i]`; element failures
//! surface as `Response::Error` *inside* the batch, never as a
//! top-level error. Batches do not nest: a `Request::Batch` inside a
//! batch is rejected by the codec and answered with a protocol error by
//! every backend.

use crate::backend::TransportStats;
use crate::encrypted::{EncryptedRow, EncryptedTable, QueryTokens, SideTokens};
use crate::error::DbError;
use crate::join::JoinAlgorithm;
use crate::server::{
    EncryptedJoinResult, JoinObservation, JoinOptions, MatchedPair, PayloadProjection, ServerStats,
};
use eqjoin_core::{SjRowCiphertext, SjTableSide, SjToken};
use eqjoin_pairing::Engine;
use std::time::Duration;

/// A client→server message.
#[derive(Clone)]
pub enum Request<E: Engine> {
    /// Liveness / version probe.
    Ping,
    /// Upload one encrypted table.
    InsertTable(EncryptedTable<E>),
    /// Execute a join query for the given token bundle.
    ExecuteJoin {
        /// The two-sided token bundle.
        tokens: QueryTokens<E>,
        /// Execution options.
        options: JoinOptions,
        /// Which sealed payload columns each side should ship back
        /// (projection pushdown; the default asks for everything).
        projection: PayloadProjection,
    },
    /// Append encrypted rows to an existing table **without** resetting
    /// its stored state: untouched rows keep their decrypt-cache
    /// entries and prepared pairing state, so a warm series stays warm
    /// across the update. `start_row` is the client-assigned id of the
    /// first new row (ids bind the sealed payloads, so the client — who
    /// encrypted them — dictates the numbering).
    InsertRows {
        /// Target table (must exist).
        table: String,
        /// Row id of `rows[0]`; `rows[i]` gets `start_row + i`.
        start_row: u64,
        /// The new encrypted rows.
        rows: Vec<EncryptedRow<E>>,
    },
    /// Delete rows by id. Like [`Request::InsertRows`], only the
    /// touched rows' cached state is invalidated.
    DeleteRows {
        /// Target table (must exist).
        table: String,
        /// Row ids to delete (each must exist).
        rows: Vec<u64>,
    },
    /// One chunk of a COPY-style streaming bulk load. Unlike
    /// [`Request::InsertRows`] the chunk is self-describing: it carries
    /// the table's join-key and payload-column metadata, so the first
    /// chunk *creates* the table and every later chunk appends after
    /// validating that its metadata matches the stored table. A loader
    /// can therefore stream a table it has never announced, chunk by
    /// chunk, pipelined inside a [`Request::Batch`], and a replayed
    /// chunk is rejected by its `start_row` collision instead of
    /// double-applying.
    CopyRows {
        /// Target table (created on first chunk).
        table: String,
        /// Join column the rows were encrypted under.
        join_column: String,
        /// Sealed payload columns, in row order.
        filter_columns: Vec<String>,
        /// Row id of `rows[0]`; `rows[i]` gets `start_row + i`.
        start_row: u64,
        /// The encrypted rows of this chunk.
        rows: Vec<EncryptedRow<E>>,
    },
    /// A pipelined series of requests, answered by one
    /// [`Response::Batch`] of the same arity. Must not nest, and must
    /// not contain [`Request::WithTenant`] or [`Request::Drain`] — a
    /// tenant envelope wraps the whole batch, not its elements.
    Batch(Vec<Request<E>>),
    /// A tenant envelope: execute `inner` against the named tenant's
    /// isolated namespace (its own store, snapshot directory and
    /// server-side stats). `inner` may be a [`Request::Batch`] (a whole
    /// series for one tenant in one round trip) but not another
    /// envelope or a drain. Backends without tenant support answer with
    /// a protocol error rather than silently collapsing namespaces.
    WithTenant {
        /// The tenant name (`[A-Za-z0-9_-]{1,64}` — it becomes a
        /// snapshot subdirectory, so the codec rejects anything that
        /// could traverse paths).
        tenant: String,
        /// The wrapped request.
        inner: Box<Request<E>>,
    },
    /// Ask the server to drain: flush durable state and — on servers
    /// with a connection layer that supports it — stop accepting new
    /// connections, finish in-flight work, then exit. In-process
    /// backends flush and answer [`Response::Pong`].
    Drain,
    /// Ask the server for its observability snapshot: cumulative
    /// transport counters plus a full Prometheus-text metrics
    /// exposition ([`Response::Stats`]). Read-only, so unlike
    /// [`Request::Drain`] it may ride inside a batch or a tenant
    /// envelope (a tenant envelope scopes the transport counters to
    /// that tenant's namespace).
    Stats,
}

impl<E: Engine> Request<E> {
    /// Number of leaf requests this message carries (batch contents
    /// counted individually, tenant envelopes transparently).
    pub fn request_count(&self) -> u64 {
        match self {
            Request::Batch(reqs) => reqs.len() as u64,
            Request::WithTenant { inner, .. } => inner.request_count(),
            _ => 1,
        }
    }

    /// The tenant a [`Request::WithTenant`] envelope names, if any.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::WithTenant { tenant, .. } => Some(tenant),
            _ => None,
        }
    }
}

/// Is `name` a well-formed tenant name? Tenant names become snapshot
/// subdirectories, so only `[A-Za-z0-9_-]`, nonempty, at most 64 bytes
/// — no separators, no dots, no traversal.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// What a cheap peek at a request frame's envelope found — see
/// [`peek_envelope`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestEnvelope {
    /// The frame is a [`Request::Drain`].
    Drain,
    /// The frame is a [`Request::WithTenant`] naming this tenant.
    Tenant(String),
    /// Any other (or malformed) frame — tenantless.
    Plain,
}

/// Engine-independent peek at a request frame's envelope: the tag byte
/// and, for a tenant envelope, the name — WITHOUT decoding the body
/// (which validates group elements, the expensive part). Connection
/// layers use this for admission control and drain detection before
/// handing the frame to a worker; a malformed frame peeks as
/// [`RequestEnvelope::Plain`] and fails properly in the full decode.
pub fn peek_envelope(payload: &[u8]) -> RequestEnvelope {
    match payload.first() {
        Some(7) => RequestEnvelope::Drain,
        Some(6) => {
            // Tag, then the codec's string encoding: u64 LE length +
            // UTF-8 bytes.
            let Some(len_bytes) = payload.get(1..9).and_then(|s| <[u8; 8]>::try_from(s).ok())
            else {
                return RequestEnvelope::Plain;
            };
            let len = u64::from_le_bytes(len_bytes);
            if len > 64 {
                // Longer than any valid tenant name: don't even slice.
                return RequestEnvelope::Plain;
            }
            match payload.get(9..9 + len as usize) {
                Some(name_bytes) => match std::str::from_utf8(name_bytes) {
                    Ok(name) if valid_tenant_name(name) => RequestEnvelope::Tenant(name.to_owned()),
                    _ => RequestEnvelope::Plain,
                },
                None => RequestEnvelope::Plain,
            }
        }
        _ => RequestEnvelope::Plain,
    }
}

/// What a server reports for [`Request::Stats`]: the programmatic
/// counter snapshot plus the same Prometheus-text exposition the
/// `--metrics-addr` listener serves, so a client can introspect a live
/// server over the ordinary wire without a second endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Cumulative transport counters, scoped to the answering backend
    /// (the whole server, or one tenant under a tenant envelope).
    pub transport: TransportStats,
    /// Prometheus text exposition of the server process's registry.
    pub exposition: String,
}

/// A server→client message.
///
/// No variant carries engine-typed data (matched pairs are returned as
/// sealed payload bytes), so the response side of the protocol is not
/// generic over the engine.
#[derive(Clone, Debug)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Table stored.
    TableInserted {
        /// Table name as stored.
        table: String,
        /// Number of encrypted rows stored.
        rows: usize,
    },
    /// Join executed: the encrypted result and the equality pattern the
    /// server (unavoidably) observed while matching.
    JoinExecuted {
        /// Matched pairs + execution statistics.
        result: EncryptedJoinResult,
        /// The server's leakage observation for this query.
        observation: JoinObservation,
    },
    /// Rows appended ([`Request::InsertRows`]).
    RowsInserted {
        /// Table name.
        table: String,
        /// Number of rows appended.
        rows: usize,
    },
    /// Rows deleted ([`Request::DeleteRows`]).
    RowsDeleted {
        /// Table name.
        table: String,
        /// Number of rows deleted.
        rows: usize,
    },
    /// One bulk-load chunk applied ([`Request::CopyRows`]).
    CopyRows {
        /// Table name.
        table: String,
        /// Rows appended by this chunk.
        rows: usize,
        /// Total rows the table holds after the chunk (lets a streaming
        /// loader confirm progress without a separate stats probe).
        total_rows: u64,
    },
    /// The request failed.
    Error(DbError),
    /// Answer to [`Request::Batch`], element `i` answering request `i`.
    Batch(Vec<Response>),
    /// Answer to [`Request::Stats`].
    Stats(ServerMetrics),
}

/// A join-database backend: anything that can answer the protocol.
///
/// This is a *transport* trait: `handle` takes `&self` and
/// implementations synchronize internally (`RwLock` around storage,
/// `Mutex` around a socket, …), so a single backend instance can be
/// shared behind an `Arc` across the server's worker threads. The
/// message-enum shape (rather than one trait method per operation) is
/// what lets a remote backend or a tenant router forward requests
/// byte-for-byte.
pub trait ServerApi<E: Engine>: Send + Sync {
    /// Handle one request (which may be a [`Request::Batch`]).
    /// Implementations must map internal failures to
    /// [`Response::Error`] rather than panicking, and must answer a
    /// batch with a same-arity [`Response::Batch`].
    fn handle(&self, request: Request<E>) -> Response;

    /// Cumulative transport-level counters for this backend. In-process
    /// backends report zero bytes; networked backends report real frame
    /// sizes. The default is all-zero for backends that do not count.
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/// Byte-writer half of the wire codec (shared with the snapshot codec
/// in [`crate::store`]).
pub(crate) struct Writer {
    pub(crate) out: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(tag: u8) -> Self {
        Writer { out: vec![tag] }
    }

    /// An empty writer with no message tag (snapshot bodies).
    pub(crate) fn raw() -> Self {
        Writer { out: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.out.extend_from_slice(b);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Byte-reader half of the wire codec (shared with the snapshot codec
/// in [`crate::store`]).
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err<T>(what: &str) -> Result<T, DbError> {
        Err(DbError::Protocol(format!("truncated or invalid {what}")))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DbError> {
        let v = self.buf.get(self.pos).copied();
        self.pos += 1;
        v.map_or_else(|| Self::err("u8"), Ok)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DbError> {
        let end = self.pos + 8;
        let slice = self.buf.get(self.pos..end);
        self.pos = end;
        match slice.and_then(|s| <[u8; 8]>::try_from(s).ok()) {
            Some(a) => Ok(u64::from_le_bytes(a)),
            None => Self::err("u64"),
        }
    }

    pub(crate) fn len(&mut self, what: &str) -> Result<usize, DbError> {
        let n = self.u64()? as usize;
        // A length can never exceed the bytes remaining; reject early so
        // corrupt lengths cannot trigger huge allocations.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(DbError::Protocol(format!("implausible length for {what}")));
        }
        Ok(n)
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DbError> {
        let n = self.len("byte string")?;
        let end = self.pos + n;
        let slice = self.buf.get(self.pos..end);
        self.pos = end;
        slice.map_or_else(|| Self::err("byte string"), Ok)
    }

    pub(crate) fn str(&mut self) -> Result<String, DbError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| DbError::Protocol("non-UTF-8 string".into()))
    }

    pub(crate) fn finish(self) -> Result<(), DbError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DbError::Protocol("trailing bytes after message".into()))
        }
    }
}

fn put_g1<E: Engine>(w: &mut Writer, p: &E::G1) {
    w.bytes(&E::g1_bytes(p));
}

fn get_g1<E: Engine>(r: &mut Reader<'_>) -> Result<E::G1, DbError> {
    E::g1_from_bytes(r.bytes()?)
        .ok_or_else(|| DbError::Protocol("invalid G1 element (curve/subgroup check)".into()))
}

fn put_g2<E: Engine>(w: &mut Writer, p: &E::G2) {
    w.bytes(&E::g2_bytes(p));
}

fn get_g2<E: Engine>(r: &mut Reader<'_>) -> Result<E::G2, DbError> {
    E::g2_from_bytes(r.bytes()?)
        .ok_or_else(|| DbError::Protocol("invalid G2 element (curve/subgroup check)".into()))
}

fn put_side_tokens<E: Engine>(w: &mut Writer, side: &SideTokens<E>) {
    w.str(&side.table);
    w.u8(match side.token.side() {
        SjTableSide::A => 0,
        SjTableSide::B => 1,
    });
    w.u64(side.token.elements().len() as u64);
    for e in side.token.elements() {
        put_g1::<E>(w, e);
    }
    w.u64(side.prefilter.len() as u64);
    for (col, tags) in &side.prefilter {
        w.u64(*col as u64);
        w.u64(tags.len() as u64);
        for tag in tags {
            w.out.extend_from_slice(tag);
        }
    }
}

fn get_side_tokens<E: Engine>(r: &mut Reader<'_>) -> Result<SideTokens<E>, DbError> {
    let table = r.str()?;
    let side = match r.u8()? {
        0 => SjTableSide::A,
        1 => SjTableSide::B,
        other => return Err(DbError::Protocol(format!("unknown table side {other}"))),
    };
    let n = r.len("token elements")?;
    let elements = (0..n).map(|_| get_g1::<E>(r)).collect::<Result<_, _>>()?;
    let n_filters = r.len("prefilter sets")?;
    let mut prefilter = Vec::with_capacity(n_filters);
    for _ in 0..n_filters {
        let col = r.u64()? as usize;
        let n_tags = r.len("prefilter tags")?;
        let mut tags = Vec::with_capacity(n_tags);
        for _ in 0..n_tags {
            let mut tag = [0u8; 16];
            let end = r.pos + 16;
            let slice = r
                .buf
                .get(r.pos..end)
                .ok_or_else(|| DbError::Protocol("truncated tag".into()))?;
            tag.copy_from_slice(slice);
            r.pos = end;
            tags.push(tag);
        }
        prefilter.push((col, tags));
    }
    Ok(SideTokens {
        table,
        token: SjToken::from_elements(side, elements),
        prefilter,
    })
}

fn put_query_tokens<E: Engine>(w: &mut Writer, tokens: &QueryTokens<E>) {
    w.u64(tokens.query_id);
    put_side_tokens(w, &tokens.left);
    put_side_tokens(w, &tokens.right);
}

fn get_query_tokens<E: Engine>(r: &mut Reader<'_>) -> Result<QueryTokens<E>, DbError> {
    Ok(QueryTokens {
        query_id: r.u64()?,
        left: get_side_tokens(r)?,
        right: get_side_tokens(r)?,
    })
}

fn put_options(w: &mut Writer, options: &JoinOptions) {
    w.u8(match options.algorithm {
        JoinAlgorithm::Hash => 0,
        JoinAlgorithm::NestedLoop => 1,
    });
    w.u8(options.use_prefilter as u8);
    w.u64(options.threads as u64);
    w.u8(options.decrypt_cache as u8);
    w.u64(options.decrypt_cache_cap as u64);
}

fn get_options(r: &mut Reader<'_>) -> Result<JoinOptions, DbError> {
    let algorithm = match r.u8()? {
        0 => JoinAlgorithm::Hash,
        1 => JoinAlgorithm::NestedLoop,
        other => return Err(DbError::Protocol(format!("unknown join algorithm {other}"))),
    };
    let use_prefilter = r.u8()? != 0;
    let threads = r.u64()? as usize;
    let decrypt_cache = r.u8()? != 0;
    let decrypt_cache_cap = r.u64()? as usize;
    Ok(JoinOptions {
        algorithm,
        use_prefilter,
        threads,
        decrypt_cache,
        decrypt_cache_cap,
    })
}

fn put_column_list(w: &mut Writer, cols: &Option<Vec<usize>>) {
    match cols {
        None => w.u8(0),
        Some(cols) => {
            w.u8(1);
            w.u64(cols.len() as u64);
            for &c in cols {
                w.u64(c as u64);
            }
        }
    }
}

fn get_column_list(r: &mut Reader<'_>) -> Result<Option<Vec<usize>>, DbError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = r.len("projection columns")?;
            (0..n)
                .map(|_| Ok(r.u64()? as usize))
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
        }
        other => Err(DbError::Protocol(format!("bad projection marker {other}"))),
    }
}

fn put_projection(w: &mut Writer, projection: &PayloadProjection) {
    put_column_list(w, &projection.left);
    put_column_list(w, &projection.right);
}

fn get_projection(r: &mut Reader<'_>) -> Result<PayloadProjection, DbError> {
    Ok(PayloadProjection {
        left: get_column_list(r)?,
        right: get_column_list(r)?,
    })
}

fn put_payloads(w: &mut Writer, payloads: &[Vec<u8>]) {
    w.u64(payloads.len() as u64);
    for p in payloads {
        w.bytes(p);
    }
}

fn get_payloads(r: &mut Reader<'_>) -> Result<Vec<Vec<u8>>, DbError> {
    let n = r.len("column payloads")?;
    (0..n).map(|_| Ok(r.bytes()?.to_vec())).collect()
}

pub(crate) fn put_row<E: Engine>(w: &mut Writer, row: &EncryptedRow<E>) {
    w.u64(row.cipher.elements().len() as u64);
    for e in row.cipher.elements() {
        put_g2::<E>(w, e);
    }
    put_payloads(w, &row.payloads);
    match &row.tags {
        None => w.u8(0),
        Some(tags) => {
            w.u8(1);
            w.u64(tags.len() as u64);
            for tag in tags {
                w.out.extend_from_slice(tag);
            }
        }
    }
}

pub(crate) fn get_row<E: Engine>(r: &mut Reader<'_>) -> Result<EncryptedRow<E>, DbError> {
    let n_elems = r.len("ciphertext elements")?;
    let elements = (0..n_elems)
        .map(|_| get_g2::<E>(r))
        .collect::<Result<_, _>>()?;
    let payloads = get_payloads(r)?;
    let tags = match r.u8()? {
        0 => None,
        1 => {
            let n_tags = r.len("row tags")?;
            let mut tags = Vec::with_capacity(n_tags);
            for _ in 0..n_tags {
                let end = r.pos + 16;
                let slice = r
                    .buf
                    .get(r.pos..end)
                    .ok_or_else(|| DbError::Protocol("truncated tag".into()))?;
                let mut tag = [0u8; 16];
                tag.copy_from_slice(slice);
                r.pos = end;
                tags.push(tag);
            }
            Some(tags)
        }
        other => return Err(DbError::Protocol(format!("bad tags marker {other}"))),
    };
    Ok(EncryptedRow {
        cipher: SjRowCiphertext::from_elements(elements),
        payloads,
        tags,
    })
}

fn put_table<E: Engine>(w: &mut Writer, table: &EncryptedTable<E>) {
    w.str(&table.name);
    w.str(&table.join_column);
    w.u64(table.filter_columns.len() as u64);
    for c in &table.filter_columns {
        w.str(c);
    }
    w.u64(table.rows.len() as u64);
    for row in &table.rows {
        put_row(w, row);
    }
}

fn get_table<E: Engine>(r: &mut Reader<'_>) -> Result<EncryptedTable<E>, DbError> {
    let name = r.str()?;
    let join_column = r.str()?;
    let n_cols = r.len("filter columns")?;
    let filter_columns = (0..n_cols).map(|_| r.str()).collect::<Result<_, _>>()?;
    let n_rows = r.len("rows")?;
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        rows.push(get_row(r)?);
    }
    Ok(EncryptedTable {
        name,
        join_column,
        filter_columns,
        rows,
    })
}

fn put_error(w: &mut Writer, e: &DbError) {
    // Compact structured encoding so a remote backend's errors survive
    // the wire without collapsing into strings.
    match e {
        DbError::UnknownTable(t) => {
            w.u8(0);
            w.str(t);
        }
        DbError::UnknownColumn { table, column } => {
            w.u8(1);
            w.str(table);
            w.str(column);
        }
        DbError::JoinColumnMismatch {
            table,
            requested,
            encrypted,
        } => {
            w.u8(2);
            w.str(table);
            w.str(requested);
            w.str(encrypted);
        }
        DbError::NotAFilterColumn { table, column } => {
            w.u8(3);
            w.str(table);
            w.str(column);
        }
        DbError::InClauseTooLarge { got, max } => {
            w.u8(4);
            w.u64(*got as u64);
            w.u64(*max as u64);
        }
        DbError::EmptyInClause => w.u8(5),
        DbError::PayloadCorrupted => w.u8(6),
        DbError::TooManyFilterColumns { table, got, max } => {
            w.u8(7);
            w.str(table);
            w.u64(*got as u64);
            w.u64(*max as u64);
        }
        DbError::Protocol(msg) => {
            w.u8(8);
            w.str(msg);
        }
        DbError::Sql(msg) => {
            w.u8(9);
            w.str(msg);
        }
        DbError::NoSqlPlanner => w.u8(10),
        DbError::Transport(msg) => {
            w.u8(11);
            w.str(msg);
        }
        DbError::FilterTableNotInQuery { table, column } => {
            w.u8(12);
            w.str(table);
            w.str(column);
        }
        DbError::DuplicateProjectionColumn { table, column } => {
            w.u8(13);
            w.str(table);
            w.str(column);
        }
        DbError::InvalidPlan(msg) => {
            w.u8(14);
            w.str(msg);
        }
        DbError::UnknownRow { table, row } => {
            w.u8(15);
            w.str(table);
            w.u64(*row);
        }
        DbError::Snapshot(msg) => {
            w.u8(16);
            w.str(msg);
        }
        DbError::Overloaded {
            tenant,
            in_flight,
            cap,
        } => {
            w.u8(17);
            match tenant {
                None => w.u8(0),
                Some(t) => {
                    w.u8(1);
                    w.str(t);
                }
            }
            w.u64(*in_flight as u64);
            w.u64(*cap as u64);
        }
        DbError::Timeout(msg) => {
            w.u8(18);
            w.str(msg);
        }
        DbError::DimensionMismatch {
            what,
            expected,
            got,
        } => {
            w.u8(19);
            w.str(what);
            w.u64(*expected as u64);
            w.u64(*got as u64);
        }
    }
}

fn get_error(r: &mut Reader<'_>) -> Result<DbError, DbError> {
    Ok(match r.u8()? {
        0 => DbError::UnknownTable(r.str()?),
        1 => DbError::UnknownColumn {
            table: r.str()?,
            column: r.str()?,
        },
        2 => DbError::JoinColumnMismatch {
            table: r.str()?,
            requested: r.str()?,
            encrypted: r.str()?,
        },
        3 => DbError::NotAFilterColumn {
            table: r.str()?,
            column: r.str()?,
        },
        4 => DbError::InClauseTooLarge {
            got: r.u64()? as usize,
            max: r.u64()? as usize,
        },
        5 => DbError::EmptyInClause,
        6 => DbError::PayloadCorrupted,
        7 => DbError::TooManyFilterColumns {
            table: r.str()?,
            got: r.u64()? as usize,
            max: r.u64()? as usize,
        },
        8 => DbError::Protocol(r.str()?),
        9 => DbError::Sql(r.str()?),
        10 => DbError::NoSqlPlanner,
        11 => DbError::Transport(r.str()?),
        12 => DbError::FilterTableNotInQuery {
            table: r.str()?,
            column: r.str()?,
        },
        13 => DbError::DuplicateProjectionColumn {
            table: r.str()?,
            column: r.str()?,
        },
        14 => DbError::InvalidPlan(r.str()?),
        15 => DbError::UnknownRow {
            table: r.str()?,
            row: r.u64()?,
        },
        16 => DbError::Snapshot(r.str()?),
        17 => DbError::Overloaded {
            tenant: match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                other => {
                    return Err(DbError::Protocol(format!("bad tenant marker {other}")));
                }
            },
            in_flight: r.u64()? as usize,
            cap: r.u64()? as usize,
        },
        18 => DbError::Timeout(r.str()?),
        19 => DbError::DimensionMismatch {
            what: r.str()?,
            expected: r.u64()? as usize,
            got: r.u64()? as usize,
        },
        other => return Err(DbError::Protocol(format!("unknown error tag {other}"))),
    })
}

impl<E: Engine> Request<E> {
    /// Serialize for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Request::Ping => Writer::new(0).out,
            Request::InsertTable(table) => {
                let mut w = Writer::new(1);
                put_table(&mut w, table);
                w.out
            }
            Request::ExecuteJoin {
                tokens,
                options,
                projection,
            } => {
                let mut w = Writer::new(2);
                put_query_tokens(&mut w, tokens);
                put_options(&mut w, options);
                put_projection(&mut w, projection);
                w.out
            }
            Request::Batch(requests) => {
                let mut w = Writer::new(3);
                w.u64(requests.len() as u64);
                for request in requests {
                    debug_assert!(
                        !matches!(request, Request::Batch(_)),
                        "batches must not nest"
                    );
                    w.bytes(&request.to_bytes());
                }
                w.out
            }
            Request::InsertRows {
                table,
                start_row,
                rows,
            } => {
                let mut w = Writer::new(4);
                w.str(table);
                w.u64(*start_row);
                w.u64(rows.len() as u64);
                for row in rows {
                    put_row(&mut w, row);
                }
                w.out
            }
            Request::DeleteRows { table, rows } => {
                let mut w = Writer::new(5);
                w.str(table);
                w.u64(rows.len() as u64);
                for row in rows {
                    w.u64(*row);
                }
                w.out
            }
            Request::WithTenant { tenant, inner } => {
                debug_assert!(
                    !matches!(**inner, Request::WithTenant { .. } | Request::Drain),
                    "tenant envelopes must not nest or wrap a drain"
                );
                let mut w = Writer::new(6);
                w.str(tenant);
                w.bytes(&inner.to_bytes());
                w.out
            }
            Request::Drain => Writer::new(7).out,
            Request::Stats => Writer::new(8).out,
            Request::CopyRows {
                table,
                join_column,
                filter_columns,
                start_row,
                rows,
            } => {
                let mut w = Writer::new(9);
                w.str(table);
                w.str(join_column);
                w.u64(filter_columns.len() as u64);
                for c in filter_columns {
                    w.str(c);
                }
                w.u64(*start_row);
                w.u64(rows.len() as u64);
                for row in rows {
                    put_row(&mut w, row);
                }
                w.out
            }
        }
    }

    /// Parse a wire message (rejects trailing bytes, invalid group
    /// elements, and nested batches).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DbError> {
        let mut r = Reader::new(bytes);
        let req = match r.u8()? {
            0 => Request::Ping,
            1 => Request::InsertTable(get_table(&mut r)?),
            2 => Request::ExecuteJoin {
                tokens: get_query_tokens(&mut r)?,
                options: get_options(&mut r)?,
                projection: get_projection(&mut r)?,
            },
            3 => {
                let n = r.len("batch requests")?;
                let mut requests = Vec::with_capacity(n);
                for _ in 0..n {
                    let sub = Request::from_bytes(r.bytes()?)?;
                    match sub {
                        Request::Batch(_) => {
                            return Err(DbError::Protocol("nested request batch".into()))
                        }
                        Request::WithTenant { .. } => {
                            return Err(DbError::Protocol(
                                "tenant envelope inside a batch (wrap the whole batch instead)"
                                    .into(),
                            ))
                        }
                        Request::Drain => {
                            return Err(DbError::Protocol("drain inside a batch".into()))
                        }
                        _ => {}
                    }
                    requests.push(sub);
                }
                Request::Batch(requests)
            }
            4 => {
                let table = r.str()?;
                let start_row = r.u64()?;
                let n_rows = r.len("inserted rows")?;
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    rows.push(get_row(&mut r)?);
                }
                Request::InsertRows {
                    table,
                    start_row,
                    rows,
                }
            }
            5 => {
                let table = r.str()?;
                let n_rows = r.len("deleted row ids")?;
                let rows = (0..n_rows).map(|_| r.u64()).collect::<Result<_, _>>()?;
                Request::DeleteRows { table, rows }
            }
            6 => {
                let tenant = r.str()?;
                if !valid_tenant_name(&tenant) {
                    return Err(DbError::Protocol(format!(
                        "invalid tenant name {tenant:?} (want [A-Za-z0-9_-]{{1,64}})"
                    )));
                }
                let inner = Request::from_bytes(r.bytes()?)?;
                if matches!(inner, Request::WithTenant { .. } | Request::Drain) {
                    return Err(DbError::Protocol(
                        "tenant envelope wrapping another envelope or a drain".into(),
                    ));
                }
                Request::WithTenant {
                    tenant,
                    inner: Box::new(inner),
                }
            }
            7 => Request::Drain,
            8 => Request::Stats,
            9 => {
                let table = r.str()?;
                let join_column = r.str()?;
                let n_cols = r.len("copy filter columns")?;
                let filter_columns = (0..n_cols).map(|_| r.str()).collect::<Result<_, _>>()?;
                let start_row = r.u64()?;
                let n_rows = r.len("copied rows")?;
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    rows.push(get_row(&mut r)?);
                }
                Request::CopyRows {
                    table,
                    join_column,
                    filter_columns,
                    start_row,
                    rows,
                }
            }
            other => return Err(DbError::Protocol(format!("unknown request tag {other}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Response::Pong => Writer::new(0).out,
            Response::TableInserted { table, rows } => {
                let mut w = Writer::new(1);
                w.str(table);
                w.u64(*rows as u64);
                w.out
            }
            Response::JoinExecuted {
                result,
                observation,
            } => {
                let mut w = Writer::new(2);
                w.u64(result.pairs.len() as u64);
                for p in &result.pairs {
                    w.u64(p.left_row as u64);
                    w.u64(p.right_row as u64);
                    put_payloads(&mut w, &p.left_payloads);
                    put_payloads(&mut w, &p.right_payloads);
                }
                let s = &result.stats;
                w.u64(s.rows_decrypted as u64);
                w.u64(s.rows_prefiltered_out as u64);
                w.u64(s.comparisons);
                w.u64(s.matched_pairs as u64);
                w.u64(s.decrypt_time.as_nanos() as u64);
                w.u64(s.match_time.as_nanos() as u64);
                w.u64(s.decrypt_cache_hits);
                w.u64(observation.query_id);
                w.u64(observation.equality_classes.len() as u64);
                for class in &observation.equality_classes {
                    w.u64(class.len() as u64);
                    for (table, row) in class {
                        w.str(table);
                        w.u64(*row as u64);
                    }
                }
                w.out
            }
            Response::Error(e) => {
                let mut w = Writer::new(3);
                put_error(&mut w, e);
                w.out
            }
            Response::Batch(responses) => {
                let mut w = Writer::new(4);
                w.u64(responses.len() as u64);
                for response in responses {
                    debug_assert!(
                        !matches!(response, Response::Batch(_)),
                        "batches must not nest"
                    );
                    w.bytes(&response.to_bytes());
                }
                w.out
            }
            Response::RowsInserted { table, rows } => {
                let mut w = Writer::new(5);
                w.str(table);
                w.u64(*rows as u64);
                w.out
            }
            Response::RowsDeleted { table, rows } => {
                let mut w = Writer::new(6);
                w.str(table);
                w.u64(*rows as u64);
                w.out
            }
            Response::CopyRows {
                table,
                rows,
                total_rows,
            } => {
                let mut w = Writer::new(8);
                w.str(table);
                w.u64(*rows as u64);
                w.u64(*total_rows);
                w.out
            }
            Response::Stats(metrics) => {
                let mut w = Writer::new(7);
                let t = &metrics.transport;
                w.u64(t.round_trips);
                w.u64(t.requests);
                w.u64(t.batches);
                w.u64(t.bytes_sent);
                w.u64(t.bytes_received);
                w.u64(t.reconnects);
                w.u64(t.retries);
                w.u64(t.gave_up);
                w.str(&metrics.exposition);
                w.out
            }
        }
    }

    /// Parse a wire message (rejects trailing bytes and nested batches).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DbError> {
        let mut r = Reader::new(bytes);
        let resp = match r.u8()? {
            0 => Response::Pong,
            1 => Response::TableInserted {
                table: r.str()?,
                rows: r.u64()? as usize,
            },
            2 => {
                let n_pairs = r.len("matched pairs")?;
                let mut pairs = Vec::with_capacity(n_pairs);
                for _ in 0..n_pairs {
                    pairs.push(MatchedPair {
                        left_row: r.u64()? as usize,
                        right_row: r.u64()? as usize,
                        left_payloads: get_payloads(&mut r)?,
                        right_payloads: get_payloads(&mut r)?,
                    });
                }
                let stats = ServerStats {
                    rows_decrypted: r.u64()? as usize,
                    rows_prefiltered_out: r.u64()? as usize,
                    comparisons: r.u64()?,
                    matched_pairs: r.u64()? as usize,
                    decrypt_time: Duration::from_nanos(r.u64()?),
                    match_time: Duration::from_nanos(r.u64()?),
                    decrypt_cache_hits: r.u64()?,
                };
                let query_id = r.u64()?;
                let n_classes = r.len("equality classes")?;
                let mut equality_classes = Vec::with_capacity(n_classes);
                for _ in 0..n_classes {
                    let n_members = r.len("class members")?;
                    let mut class = Vec::with_capacity(n_members);
                    for _ in 0..n_members {
                        let table = r.str()?;
                        class.push((table, r.u64()? as usize));
                    }
                    equality_classes.push(class);
                }
                Response::JoinExecuted {
                    result: EncryptedJoinResult { pairs, stats },
                    observation: JoinObservation {
                        query_id,
                        equality_classes,
                    },
                }
            }
            3 => Response::Error(get_error(&mut r)?),
            4 => {
                let n = r.len("batch responses")?;
                let mut responses = Vec::with_capacity(n);
                for _ in 0..n {
                    let sub = Response::from_bytes(r.bytes()?)?;
                    if matches!(sub, Response::Batch(_)) {
                        return Err(DbError::Protocol("nested response batch".into()));
                    }
                    responses.push(sub);
                }
                Response::Batch(responses)
            }
            5 => Response::RowsInserted {
                table: r.str()?,
                rows: r.u64()? as usize,
            },
            6 => Response::RowsDeleted {
                table: r.str()?,
                rows: r.u64()? as usize,
            },
            7 => Response::Stats(ServerMetrics {
                transport: TransportStats {
                    round_trips: r.u64()?,
                    requests: r.u64()?,
                    batches: r.u64()?,
                    bytes_sent: r.u64()?,
                    bytes_received: r.u64()?,
                    reconnects: r.u64()?,
                    retries: r.u64()?,
                    gave_up: r.u64()?,
                },
                exposition: r.str()?,
            }),
            8 => Response::CopyRows {
                table: r.str()?,
                rows: r.u64()? as usize,
                total_rows: r.u64()?,
            },
            other => return Err(DbError::Protocol(format!("unknown response tag {other}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalBackend;
    use crate::client::DbClient;
    use crate::data::{Schema, Table, Value};
    use crate::query::JoinQuery;
    use crate::TableConfig;
    use eqjoin_pairing::MockEngine;

    fn sample() -> (DbClient<MockEngine>, EncryptedTable<MockEngine>, JoinQuery) {
        let mut client = DbClient::<MockEngine>::new(1, 2, 11);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        t.push_row(vec![Value::Int(1), "x".into()]);
        t.push_row(vec![Value::Int(2), "y".into()]);
        let enc = client
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["a".into()],
                },
            )
            .unwrap();
        let q = JoinQuery::on("T", "k", "T", "k").filter("T", "a", vec!["x".into()]);
        (client, enc, q)
    }

    #[test]
    fn local_backend_round_trip() {
        let (mut client, enc, q) = sample();
        let backend = LocalBackend::<MockEngine>::new();
        assert!(matches!(backend.handle(Request::Ping), Response::Pong));
        match backend.handle(Request::InsertTable(enc)) {
            Response::TableInserted { table, rows } => {
                assert_eq!(table, "T");
                assert_eq!(rows, 2);
            }
            _ => panic!("expected TableInserted"),
        }
        let tokens = client.query_tokens(&q).unwrap();
        match backend.handle(Request::ExecuteJoin {
            tokens,
            options: JoinOptions::default(),
            projection: Default::default(),
        }) {
            Response::JoinExecuted { result, .. } => assert_eq!(result.pairs.len(), 1),
            _ => panic!("expected JoinExecuted"),
        }
    }

    #[test]
    fn backend_errors_are_responses_not_panics() {
        let (mut client, _enc, q) = sample();
        let backend = LocalBackend::<MockEngine>::new();
        let tokens = client.query_tokens(&q).unwrap();
        match backend.handle(Request::ExecuteJoin {
            tokens,
            options: JoinOptions::default(),
            projection: Default::default(),
        }) {
            Response::Error(DbError::UnknownTable(t)) => assert_eq!(t, "T"),
            _ => panic!("expected UnknownTable error response"),
        }
    }

    #[test]
    fn batched_series_matches_one_at_a_time() {
        let (mut client, enc, q) = sample();
        let tokens_a = client.query_tokens(&q).unwrap();
        let tokens_b = client.query_tokens(&q).unwrap();

        let sequential = LocalBackend::<MockEngine>::new();
        sequential.handle(Request::InsertTable(enc.clone()));
        let seq_pairs =
            |tokens: QueryTokens<MockEngine>| match sequential.handle(Request::ExecuteJoin {
                tokens,
                options: JoinOptions::default(),
                projection: Default::default(),
            }) {
                Response::JoinExecuted { result, .. } => result
                    .pairs
                    .iter()
                    .map(|p| (p.left_row, p.right_row))
                    .collect::<Vec<_>>(),
                _ => panic!("expected JoinExecuted"),
            };
        let expected = (seq_pairs(tokens_a.clone()), seq_pairs(tokens_b.clone()));

        let batched = LocalBackend::<MockEngine>::new();
        let response = batched.handle(Request::Batch(vec![
            Request::Ping,
            Request::InsertTable(enc),
            Request::ExecuteJoin {
                tokens: tokens_a,
                options: JoinOptions::default(),
                projection: Default::default(),
            },
            Request::ExecuteJoin {
                tokens: tokens_b,
                options: JoinOptions::default(),
                projection: Default::default(),
            },
        ]));
        let Response::Batch(responses) = response else {
            panic!("batch must be answered by a batch");
        };
        assert_eq!(responses.len(), 4);
        assert!(matches!(responses[0], Response::Pong));
        assert!(matches!(responses[1], Response::TableInserted { .. }));
        let got: Vec<Vec<(usize, usize)>> = responses[2..]
            .iter()
            .map(|r| match r {
                Response::JoinExecuted { result, .. } => result
                    .pairs
                    .iter()
                    .map(|p| (p.left_row, p.right_row))
                    .collect(),
                _ => panic!("expected JoinExecuted"),
            })
            .collect();
        assert_eq!((got[0].clone(), got[1].clone()), expected);
    }

    #[test]
    fn batch_wire_round_trip_and_nesting_rejected() {
        let (mut client, enc, q) = sample();
        let tokens = client.query_tokens(&q).unwrap();
        let batch = Request::Batch(vec![
            Request::Ping,
            Request::InsertTable(enc),
            Request::ExecuteJoin {
                tokens,
                options: JoinOptions::default(),
                projection: Default::default(),
            },
        ]);
        let bytes = batch.to_bytes();
        let back = Request::<MockEngine>::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "byte-identical round trip");

        let resp = Response::Batch(vec![
            Response::Pong,
            Response::Error(DbError::EmptyInClause),
            Response::TableInserted {
                table: "T".into(),
                rows: 2,
            },
        ]);
        let resp_bytes = resp.to_bytes();
        let resp_back = Response::from_bytes(&resp_bytes).unwrap();
        assert_eq!(resp_back.to_bytes(), resp_bytes);

        // Hand-craft a nested batch (tag 3 wrapping a batch message):
        // the codec must reject it rather than recurse.
        let mut w = Writer::new(3);
        w.u64(1);
        w.bytes(&Request::<MockEngine>::Batch(vec![Request::Ping]).to_bytes());
        assert!(matches!(
            Request::<MockEngine>::from_bytes(&w.out),
            Err(DbError::Protocol(_))
        ));
        let mut w = Writer::new(4);
        w.u64(1);
        w.bytes(&Response::Batch(vec![Response::Pong]).to_bytes());
        assert!(matches!(
            Response::from_bytes(&w.out),
            Err(DbError::Protocol(_))
        ));
    }

    #[test]
    fn request_wire_round_trip_preserves_execution() {
        let (mut client, enc, q) = sample();
        let tokens = client.query_tokens(&q).unwrap();

        // Serialize both requests, parse them back, execute, and compare
        // with the direct execution path.
        let insert = Request::InsertTable(enc);
        let exec = Request::ExecuteJoin {
            tokens,
            options: JoinOptions {
                algorithm: JoinAlgorithm::NestedLoop,
                use_prefilter: false,
                threads: 3,
                decrypt_cache: true,
                decrypt_cache_cap: 16,
            },
            projection: Default::default(),
        };
        let insert2 = Request::<MockEngine>::from_bytes(&insert.to_bytes()).unwrap();
        let exec2 = Request::<MockEngine>::from_bytes(&exec.to_bytes()).unwrap();
        match (&exec, &exec2) {
            (Request::ExecuteJoin { options: a, .. }, Request::ExecuteJoin { options: b, .. }) => {
                assert_eq!(a.algorithm, b.algorithm);
                assert_eq!(a.use_prefilter, b.use_prefilter);
                assert_eq!(a.threads, b.threads);
            }
            _ => panic!("round trip changed the message kind"),
        }

        let direct = LocalBackend::<MockEngine>::new();
        let wired = LocalBackend::<MockEngine>::new();
        match (direct.handle(insert), wired.handle(insert2)) {
            (
                Response::TableInserted { table: a, rows: ra },
                Response::TableInserted { table: b, rows: rb },
            ) => {
                assert_eq!(a, b);
                assert_eq!(ra, rb);
            }
            _ => panic!("insert failed"),
        }
        let (r1, r2) = (direct.handle(exec), wired.handle(exec2));
        match (r1, r2) {
            (
                Response::JoinExecuted { result: a, .. },
                Response::JoinExecuted { result: b, .. },
            ) => {
                let key = |r: &EncryptedJoinResult| -> Vec<(usize, usize)> {
                    r.pairs.iter().map(|p| (p.left_row, p.right_row)).collect()
                };
                assert_eq!(key(&a), key(&b));
            }
            _ => panic!("join failed"),
        }
    }

    #[test]
    fn corrupt_messages_rejected() {
        assert!(Request::<MockEngine>::from_bytes(&[]).is_err());
        assert!(Request::<MockEngine>::from_bytes(&[9]).is_err());
        let mut ping = Request::<MockEngine>::Ping.to_bytes();
        ping.push(0); // trailing byte
        assert!(Request::<MockEngine>::from_bytes(&ping).is_err());
        // A length field pointing past the end of the buffer must error,
        // not allocate.
        let bad = [1u8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(
            Request::<MockEngine>::from_bytes(&bad),
            Err(DbError::Protocol(_))
        ));
    }

    #[test]
    fn update_and_envelope_requests_round_trip() {
        let del = Request::<MockEngine>::DeleteRows {
            table: "orders".into(),
            rows: vec![1, 5, 9],
        };
        match Request::<MockEngine>::from_bytes(&del.to_bytes()).unwrap() {
            Request::DeleteRows { table, rows } => {
                assert_eq!(table, "orders");
                assert_eq!(rows, vec![1, 5, 9]);
            }
            _ => panic!("round trip changed the message kind"),
        }

        let wrapped = Request::<MockEngine>::WithTenant {
            tenant: "acme".into(),
            inner: Box::new(Request::Ping),
        };
        match Request::<MockEngine>::from_bytes(&wrapped.to_bytes()).unwrap() {
            Request::WithTenant { tenant, inner } => {
                assert_eq!(tenant, "acme");
                assert!(matches!(*inner, Request::Ping));
            }
            _ => panic!("round trip changed the message kind"),
        }

        let drain = Request::<MockEngine>::Drain;
        assert!(matches!(
            Request::<MockEngine>::from_bytes(&drain.to_bytes()).unwrap(),
            Request::Drain
        ));
    }

    #[test]
    fn error_responses_round_trip_structurally() {
        let errors = vec![
            DbError::UnknownTable("X".into()),
            DbError::UnknownColumn {
                table: "T".into(),
                column: "c".into(),
            },
            DbError::JoinColumnMismatch {
                table: "T".into(),
                requested: "a".into(),
                encrypted: "b".into(),
            },
            DbError::NotAFilterColumn {
                table: "T".into(),
                column: "c".into(),
            },
            DbError::InClauseTooLarge { got: 9, max: 3 },
            DbError::EmptyInClause,
            DbError::PayloadCorrupted,
            DbError::TooManyFilterColumns {
                table: "T".into(),
                got: 4,
                max: 2,
            },
            DbError::Protocol("p".into()),
            DbError::Sql("s".into()),
            DbError::NoSqlPlanner,
            DbError::Transport("connection reset".into()),
            DbError::Snapshot("checksum mismatch".into()),
            DbError::FilterTableNotInQuery {
                table: "T".into(),
                column: "c".into(),
            },
            DbError::DuplicateProjectionColumn {
                table: "T".into(),
                column: "c".into(),
            },
            DbError::InvalidPlan("projection below join".into()),
            DbError::Overloaded {
                tenant: Some("acme".into()),
                in_flight: 8,
                cap: 8,
            },
            DbError::Overloaded {
                tenant: None,
                in_flight: 64,
                cap: 64,
            },
            DbError::Timeout("read deadline of 250ms elapsed".into()),
            DbError::DimensionMismatch {
                what: "row attributes".into(),
                expected: 2,
                got: 5,
            },
        ];
        for e in errors {
            let resp = Response::Error(e.clone());
            match Response::from_bytes(&resp.to_bytes()).unwrap() {
                Response::Error(back) => assert_eq!(back, e),
                _ => panic!("changed kind"),
            }
        }
    }
}
