//! The client↔server message protocol behind [`Session`], and the
//! [`ServerApi`] transport abstraction any backend implements.
//!
//! [`Session`]: crate::session::Session
//!
//! The session never touches a [`DbServer`] directly; it speaks a
//! small request/response protocol:
//!
//! ```text
//!   Session ── Request::InsertTable ──────▶ ServerApi
//!   Session ── Request::Batch[Execute…] ──▶ ServerApi
//!   Session ◀─ Response::Batch[Join…] ──── ServerApi
//!
//!   Request::ExecuteJoin
//!   ├─ tokens       left, right: (table, token, pre-filter tags)
//!   └─ projection   payload columns each side ships back
//!
//!   Response::JoinExecuted
//!   ├─ result       left rows  [(row id, payloads)]  each matched row once
//!   │               right rows [(row id, payloads)]  (none if not asked for)
//!   │               stats
//!   └─ observation  equality classes [[(side, row id)]]
//!                   → pairs(): left × right members of each class
//! ```
//!
//! A join request says what to join and nothing about how: the thread
//! count, the decrypt cache and the pre-filter are the serving
//! backend's configuration
//! ([`JoinOptions::default`](crate::server::JoinOptions) under it).
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
//!   [`DbServer`] behind an `RwLock`.
//! * [`RemoteBackend`](crate::backend::RemoteBackend) — the same
//!   messages ([`Request::to_bytes`] / [`Response::from_bytes`] define
//!   the wire format) length-framed over a TCP socket to an `eqjoind`
//!   server.
//!
//! # Wire format — one definition
//!
//! The codec is dependency-free and every layout is written exactly
//! once, in the second half of this file:
//!
//! * the crate-private `Wire` trait is implemented once per primitive
//!   (`u64`/`usize` as little-endian `u64`, `bool` as a byte, `String`
//!   and byte strings as length + bytes, `[u8; N]` raw, `Vec<T>` as
//!   count + items, `Option<T>` as marker + item, `Duration` as nanos,
//!   an equality-class member as its side byte + row id, `G2` elements
//!   as byte strings and a token's `G1` elements as a count + the
//!   elements back to back at the engine's fixed width, all holding the
//!   engine's canonical encodings — validated as set out under "Where
//!   group elements are validated");
//! * each struct that travels is one `wire_struct!` field list;
//! * [`Request`], [`Response`] and [`DbError`] are one `wire_enum!`
//!   table each — `tag => Variant { fields }` — from which the encoder,
//!   the decoder, the constants in [`request_tag`] / [`response_tag`] /
//!   [`error_tag`] and their `WIRE_TAGS` listings are generated.
//!
//! Encode and decode therefore agree by construction, and the
//! compiler's exhaustiveness check is the "every variant has a tag"
//! rule. What construction cannot give is stability over time: the
//! journal stores `Request::to_bytes()` records that outlive the
//! binary, so a tag is never renumbered or reused, and
//! `tests/fixtures/wire_golden.hex` pins the bytes of one sample per
//! variant so that any change to them is a reviewed diff. A message
//! nested in another (a batch element, an envelope's `inner`) travels
//! behind a `u64` length prefix; the nesting rules the layout cannot
//! express are one explicit validation step after decode.
//!
//! # Where group elements are validated
//!
//! Every group element is checked — on the curve, in the order-`r`
//! subgroup — before a pairing takes it; *where* depends on the group:
//!
//! * **`G2` ciphertext elements: the curve at decode, the subgroup at
//!   their first preparation — whichever door they came by.** An
//!   upload frame, a journal record and a snapshot body are read by
//!   one rule: `E::g2_from_bytes_on_curve` refuses non-canonical and
//!   off-curve bytes with the message. The walk that prepares an
//!   element for its first pairing is the subgroup test
//!   (`E::g2_prepare_batch_checked`, see the `pairing` module docs),
//!   and [`TableStore::prepared_rows`](crate::store::TableStore) — the
//!   only road from a stored ciphertext to a pairing — turns a refusal
//!   into a typed error before any Miller loop runs. An upload
//!   carrying an on-curve point outside the subgroup is therefore
//!   acked, and the first join that selects its row is refused. That
//!   is sound: the server holds no key a small-subgroup point could
//!   probe, no pairing ever takes a non-member, and only the tenant
//!   that owns a table can poison one of its rows. Ingest, replay and
//!   load thus spend their time on the rows queries select, not on
//!   all of them.
//! * **`G1` token elements: at the store, on first sighting.** A join
//!   side's token is a [`WireToken`]: the codec copies its bytes, and
//!   [`EncryptedStore::decrypt_side`](crate::store::EncryptedStore::decrypt_side)
//!   turns them into the `SjToken` a pairing accepts through the one
//!   fallible [`WireToken::checked`] (`E::g1_from_bytes`; for `Bls12`
//!   a compressed 48-byte element, so one `Fp` square root and the
//!   subgroup check each, timed as `eqjoin_store_token_check_seconds`)
//!   — unless its decrypt cache holds an entry for exactly this side's
//!   fingerprint and every candidate row hits. That skip is sound
//!   because (1) an entry is written only by a pass that had a miss and
//!   therefore checked these same bytes first, or was read back from a
//!   snapshot such a pass wrote, under its SHA-256; (2) the fingerprint is a
//!   SHA-256 over every token byte as received, so "this entry" means
//!   "these bytes"; (3) with no miss no pairing runs and the token is
//!   never used. Any miss, a side the cache does not hold (even one
//!   that selects no rows) and every direct call with `decrypt_cache:
//!   false` are checked. In the series setting this protocol exists
//!   for, the repeat of a query therefore decodes nothing.
//!
//! [`Request::from_bytes`] is the one request decoder — the reactor,
//! journal replay and every tool call it. It checks `G2` elements
//! against the curve and copies `G1` token sides; `checked()` is the
//! only way from a [`WireToken`] to the `SjToken` a pairing accepts, so
//! a bad token fails its own join (inside a batch: its own slot), not
//! the frame.
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
use crate::encrypted::{EncryptedRow, EncryptedTable, QueryTokens, SideTokens, WireToken};
use crate::error::DbError;
use crate::server::{
    DbServer, EncryptedJoinResult, JoinObservation, PayloadProjection, ServerStats,
};
use eqjoin_core::{SjRowCiphertext, SjTableSide};
use eqjoin_pairing::Engine;
use std::sync::Arc;
use std::time::Duration;

/// A client→server message.
#[derive(Clone)]
pub enum Request<E: Engine> {
    /// Liveness / version probe.
    Ping,
    /// Upload one encrypted table.
    InsertTable(EncryptedTable<E>),
    /// Execute a join query for the given token bundle, under the
    /// serving backend's own configuration.
    ExecuteJoin {
        /// The two-sided token bundle, shared with the session's token
        /// cache (the wire carries the bundle itself).
        tokens: Arc<QueryTokens<E>>,
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
    /// Ask the server for its Prometheus-text metrics exposition
    /// ([`Response::Stats`]). Read-only, so unlike [`Request::Drain`]
    /// it may ride inside a batch or a tenant envelope.
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

    /// Does this message change the store? The four store mutations do
    /// — the only requests a journal holds and [`Request::apply`]
    /// applies — and so does a batch or envelope carrying one. A
    /// mutation's outcome is unknown after a lost response, so it is
    /// never re-sent.
    pub(crate) fn is_mutation(&self) -> bool {
        match self {
            Request::InsertTable(_)
            | Request::InsertRows { .. }
            | Request::DeleteRows { .. }
            | Request::CopyRows { .. } => true,
            Request::Batch(requests) => requests.iter().any(Self::is_mutation),
            Request::WithTenant { inner, .. } => inner.is_mutation(),
            _ => false,
        }
    }

    /// Apply a store mutation to `server` and answer it: one code path
    /// for a mutation served live and for its journal record replayed
    /// at startup. Any other request is refused with a protocol error.
    pub(crate) fn apply(self, server: &mut DbServer<E>) -> Response {
        let applied = match self {
            Request::InsertTable(table) => {
                let (name, rows) = (table.name.clone(), table.len());
                server
                    .insert_table(table)
                    .map(|()| Response::TableInserted { table: name, rows })
            }
            Request::InsertRows {
                table,
                start_row,
                rows,
            } => server
                .insert_rows(&table, start_row, rows)
                .map(|rows| Response::RowsInserted { table, rows }),
            Request::DeleteRows { table, rows } => server
                .delete_rows(&table, &rows)
                .map(|rows| Response::RowsDeleted { table, rows }),
            Request::CopyRows {
                table,
                join_column,
                filter_columns,
                start_row,
                rows,
            } => server
                .copy_rows(&table, &join_column, &filter_columns, start_row, rows)
                .map(|(rows, total_rows)| Response::CopyRows {
                    table,
                    rows,
                    total_rows,
                }),
            _ => Err(DbError::Protocol("not a store mutation".into())),
        };
        applied.unwrap_or_else(Response::Error)
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
    let mut r = Reader::new(payload);
    match r.u8() {
        Ok(request_tag::Drain) => RequestEnvelope::Drain,
        // Borrows the name out of the frame; a length past the end of
        // the frame fails in `bytes` before anything is sliced.
        Ok(request_tag::WithTenant) => match r.bytes().map(std::str::from_utf8) {
            Ok(Ok(name)) if valid_tenant_name(name) => RequestEnvelope::Tenant(name.to_owned()),
            _ => RequestEnvelope::Plain,
        },
        _ => RequestEnvelope::Plain,
    }
}

/// A server→client message.
///
/// No variant carries engine-typed data (matched rows are returned as
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
    /// server (unavoidably) observed while matching — which is also
    /// what says which rows matched ([`JoinObservation::pairs`]).
    JoinExecuted {
        /// Each side's matched rows, once each, + execution statistics.
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
    /// Answer to [`Request::Stats`]: the Prometheus text exposition of
    /// the server process's registry, the same text the
    /// `--metrics-addr` listener serves, so a client can introspect a
    /// live server over the ordinary wire without a second endpoint.
    Stats(String),
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
// Wire format: primitives
// ---------------------------------------------------------------------

/// A value with exactly one wire layout. `put` and `get` are written
/// (or generated from one field list) together, so encode and decode
/// cannot disagree about a layout; everything composite is built from
/// the impls below by [`wire_struct!`] and [`wire_enum!`].
pub(crate) trait Wire: Sized {
    /// Messages nest behind a `u64` length prefix (a batch element, a
    /// tenant envelope's `inner`); every other value is written inline.
    /// [`Writer::put`] / [`Reader::get`] apply the prefix, so `put` and
    /// `get` themselves always see the bare value.
    const FRAMED: bool = false;

    /// Append this value's bytes.
    fn put(&self, w: &mut Writer);

    /// Read one value back.
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError>;
}

/// Byte-writer half of the wire codec (shared with the snapshot codec
/// in [`crate::store`]).
#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) out: Vec<u8>,
}

impl Writer {
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

    /// A count, then each item.
    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u64(items.len() as u64);
        for x in items {
            item(self, x);
        }
    }

    /// Write `v` as a field of an enclosing value.
    pub(crate) fn put<T: Wire>(&mut self, v: &T) {
        if !T::FRAMED {
            return v.put(self);
        }
        // Length prefix first, patched once the body's size is known.
        let at = self.out.len();
        self.u64(0);
        v.put(self);
        let len = (self.out.len() - at - 8) as u64;
        if let Some(prefix) = self.out.get_mut(at..at + 8) {
            prefix.copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// How deep messages may nest: a tenant envelope around a batch around
/// leaf requests. The reader refuses deeper frames before recursing, so
/// a hostile frame of nested batches cannot run the stack out.
const MAX_NESTING: u8 = 2;

/// Byte-reader half of the wire codec (shared with the snapshot codec
/// in [`crate::store`]). Wire frames, journal records and snapshot
/// bodies are all read by the same rules.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
    depth: u8,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader {
            rest: buf,
            depth: 0,
        }
    }

    /// The next `N` bytes, as an array.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], DbError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or_else(|| {
            DbError::Protocol(format!("truncated message (wanted {N} more bytes)"))
        })?;
        self.rest = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DbError> {
        self.array().map(|[b]| b)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DbError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A length or count. It can never exceed the bytes remaining;
    /// reject early so corrupt lengths cannot trigger huge allocations.
    pub(crate) fn len(&mut self, what: &str) -> Result<usize, DbError> {
        usize::try_from(self.u64()?)
            .ok()
            .filter(|&n| n <= self.rest.len())
            .ok_or_else(|| DbError::Protocol(format!("implausible length for {what}")))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DbError> {
        let (head, rest) = usize::try_from(self.u64()?)
            .ok()
            .and_then(|n| self.rest.split_at_checked(n))
            .ok_or_else(|| DbError::Protocol("implausible length for byte string".into()))?;
        self.rest = rest;
        Ok(head)
    }

    pub(crate) fn str(&mut self) -> Result<String, DbError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| DbError::Protocol("non-UTF-8 string".into()))
    }

    /// A count, then that many `width`-byte items back to back: the run
    /// of them, borrowed. `count × width` is multiplied checked and must
    /// fit in the bytes still unread, so a count that lies is refused
    /// before anything is allocated.
    fn fixed_width(&mut self, width: usize, what: &str) -> Result<&'a [u8], DbError> {
        let (run, rest) = usize::try_from(self.u64()?)
            .ok()
            .and_then(|count| count.checked_mul(width))
            .and_then(|len| self.rest.split_at_checked(len))
            .ok_or_else(|| DbError::Protocol(format!("implausible count of {what}")))?;
        self.rest = rest;
        Ok(run)
    }

    /// A count, then that many items. This is the one place a decoded
    /// count sizes an allocation, and it reserves no more memory than
    /// the bytes still unread: `len` only bounds the *count* by those
    /// bytes, and an `EncryptedRow` is 72 bytes in memory, a `Request`
    /// a few hundred, so reserving `count` elements up front would let
    /// a 1 MiB frame of lies reserve hundreds of MiB before its first
    /// item fails to parse. Honest sequences whose items are smaller on
    /// the wire than in memory grow the usual way.
    fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, DbError>,
    ) -> Result<Vec<T>, DbError> {
        let n = self.len("sequence")?;
        let affordable = self.rest.len() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(n.min(affordable));
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Read a `T` written by [`Writer::put`].
    pub(crate) fn get<T: Wire>(&mut self) -> Result<T, DbError> {
        if !T::FRAMED {
            return T::get(self);
        }
        if self.depth == MAX_NESTING {
            return Err(DbError::Protocol("messages nested too deep".into()));
        }
        let mut body = Reader {
            rest: self.bytes()?,
            depth: self.depth + 1,
        };
        let v = T::get(&mut body)?;
        body.finish()?;
        Ok(v)
    }

    /// Everything not yet read.
    pub(crate) fn into_rest(self) -> &'a [u8] {
        self.rest
    }

    pub(crate) fn finish(self) -> Result<(), DbError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DbError::Protocol("trailing bytes after message".into()))
        }
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.u64()
    }
}

/// As a little-endian `u64`, whatever the platform's pointer width.
impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        Ok(r.u64()? as usize)
    }
}

/// One byte; any nonzero byte reads as `true`.
impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        Ok(r.u8()? != 0)
    }
}

/// Whole nanoseconds as a `u64`.
impl Wire for Duration {
    fn put(&self, w: &mut Writer) {
        w.u64(self.as_nanos() as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.u64().map(Duration::from_nanos)
    }
}

/// Length, then UTF-8 bytes.
impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.str()
    }
}

/// A byte string: length, then the bytes as one slice copy. (`u8`
/// itself is not [`Wire`], so this does not overlap `Vec<T>`.)
impl Wire for Vec<u8> {
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.bytes().map(<[u8]>::to_vec)
    }
}

/// Raw bytes, no length (prefilter tags).
impl<const N: usize> Wire for [u8; N] {
    fn put(&self, w: &mut Writer) {
        w.out.extend_from_slice(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.array()
    }
}

/// Count, then the items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.seq(self, Writer::put);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.seq(Reader::get)
    }
}

/// Marker byte `0`, or `1` and the item.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.put(v);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        match r.u8()? {
            0 => Ok(None),
            1 => r.get().map(Some),
            other => Err(DbError::Protocol(format!("bad option marker {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        w.put(&self.0);
        w.put(&self.1);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        Ok((r.get()?, r.get()?))
    }
}

/// An equality-class member: its side byte (`0` left, `1` right), then
/// its row id. Any other side byte is refused here, and again by the
/// session, which also reads answers that never crossed a wire.
impl Wire for (u8, usize) {
    fn put(&self, w: &mut Writer) {
        w.u8(self.0);
        w.put(&self.1);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        match r.u8()? {
            side @ (0 | 1) => Ok((side, r.get()?)),
            other => Err(DbError::Protocol(format!(
                "equality class member on side {other} (a join has sides 0 and 1)"
            ))),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        w.put(&**self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.get().map(Box::new)
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, w: &mut Writer) {
        w.put(&**self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        r.get().map(Arc::new)
    }
}

/// The side, the element count, then the `G1` elements back to back,
/// each [`Engine::G1_BYTES`] wide (the width is the engine's, so no
/// length goes in front of each) and holding the engine's canonical
/// encoding — copied as one run, not decoded: the curve and subgroup
/// check is [`WireToken::checked`], run by the store on first sighting.
impl<E: Engine> Wire for WireToken<E> {
    fn put(&self, w: &mut Writer) {
        w.put(&self.side());
        w.u64(self.len() as u64);
        w.out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        let side = r.get()?;
        let run = r.fixed_width(E::G1_BYTES, "G1 elements")?;
        Ok(WireToken::from_run(side, run.into()))
    }
}

/// The `G2` elements, each as a byte string holding the engine's
/// canonical encoding: encoding and curve equation checked on read;
/// the subgroup check is the preparation walk's, before the element's
/// first pairing (see "Where group elements are validated").
impl<E: Engine> Wire for SjRowCiphertext<E> {
    fn put(&self, w: &mut Writer) {
        w.seq(self.elements(), |w, e| w.bytes(&E::g2_bytes(e)));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
        let elements = r.seq(|r| {
            E::g2_from_bytes_on_curve(r.bytes()?)
                .ok_or_else(|| DbError::Protocol("invalid G2 element (curve check)".into()))
        })?;
        Ok(SjRowCiphertext::from_elements(elements))
    }
}

// ---------------------------------------------------------------------
// Wire format: the structs that travel
// ---------------------------------------------------------------------

/// A struct's layout: its fields, in the order listed, nothing between.
macro_rules! wire_struct {
    ($ty:ident $(<$g:ident>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$g: Engine>)? Wire for $ty $(<$g>)? {
            fn put(&self, w: &mut Writer) {
                $( w.put(&self.$field); )+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
                Ok($ty { $( $field: r.get()? ),+ })
            }
        }
    };
}

wire_struct!(SideTokens<E> { table, token, prefilter });
wire_struct!(QueryTokens<E> { left, right });
wire_struct!(PayloadProjection { left, right });
wire_struct!(EncryptedRow<E> { cipher, payloads, tags });
wire_struct!(EncryptedTable<E> { name, join_column, filter_columns, rows });
wire_struct!(ServerStats {
    rows_decrypted,
    rows_prefiltered_out,
    comparisons,
    matched_pairs,
    decrypt_time,
    match_time,
    decrypt_cache_hits,
});
wire_struct!(EncryptedJoinResult {
    left_rows,
    right_rows,
    stats
});
wire_struct!(JoinObservation { equality_classes });

// ---------------------------------------------------------------------
// Wire format: the tag tables
// ---------------------------------------------------------------------

/// A tagged union's layout: one tag byte, then the variant's fields in
/// the order listed. Each `tag => Variant` line is the only place that
/// tag is written; the encoder, the decoder, the `pub const` per variant
/// and the `WIRE_TAGS` listing in the named module all come from it.
/// The encoder is an exhaustive `match`, so a variant missing from the
/// table does not compile. Tags are never renumbered or reused: the
/// journal on disk holds these bytes (`tests/fixtures/wire_golden.hex`
/// pins them).
macro_rules! wire_enum {
    (
        $(#[$doc:meta])*
        $vis:vis mod $tags:ident: $what:literal, framed: $framed:literal, for $ty:ident $(<$g:ident>)?;
        $( $tag:literal => $variant:ident $( ( $($tf:ident),+ ) )? $( { $($sf:ident),+ } )? ),+ $(,)?
    ) => {
        $(#[$doc])*
        #[allow(non_upper_case_globals, dead_code)]
        $vis mod $tags {
            $( pub const $variant: u8 = $tag; )+
            /// Every variant and its tag, in table order.
            pub const WIRE_TAGS: &[(&str, u8)] = &[ $( (stringify!($variant), $tag) ),+ ];
        }

        impl $(<$g: Engine>)? Wire for $ty $(<$g>)? {
            const FRAMED: bool = $framed;

            fn put(&self, w: &mut Writer) {
                match self {
                    $( Self::$variant $( ( $($tf),+ ) )? $( { $($sf),+ } )? => {
                        w.u8($tag);
                        $( $( w.put($tf); )+ )?
                        $( $( w.put($sf); )+ )?
                    } )+
                }
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, DbError> {
                Ok(match r.u8()? {
                    $( $tag => Self::$variant
                        $( ( $( { let $tf = r.get()?; $tf } ),+ ) )?
                        $( { $( $sf: r.get()? ),+ } )?, )+
                    other => {
                        return Err(DbError::Protocol(format!(
                            concat!("unknown ", $what, " tag {}"),
                            other
                        )))
                    }
                })
            }
        }
    };
}

wire_enum! {
    /// Wire tags of [`Request`].
    pub mod request_tag: "request", framed: true, for Request<E>;
    0 => Ping,
    1 => InsertTable(table),
    2 => ExecuteJoin { tokens, projection },
    3 => Batch(requests),
    4 => InsertRows { table, start_row, rows },
    5 => DeleteRows { table, rows },
    6 => WithTenant { tenant, inner },
    7 => Drain,
    8 => Stats,
    9 => CopyRows { table, join_column, filter_columns, start_row, rows },
}

wire_enum! {
    /// Wire tags of [`Response`].
    pub mod response_tag: "response", framed: true, for Response;
    0 => Pong,
    1 => TableInserted { table, rows },
    2 => JoinExecuted { result, observation },
    3 => Error(error),
    4 => Batch(responses),
    5 => RowsInserted { table, rows },
    6 => RowsDeleted { table, rows },
    7 => Stats(exposition),
    8 => CopyRows { table, rows, total_rows },
}

wire_enum! {
    /// Wire tags of [`DbError`] — a compact structured encoding, so a
    /// remote backend's errors survive the wire without collapsing into
    /// strings.
    pub mod error_tag: "error", framed: false, for DbError;
    0 => UnknownTable(table),
    1 => UnknownColumn { table, column },
    2 => JoinColumnMismatch { table, requested, encrypted },
    3 => NotAFilterColumn { table, column },
    4 => InClauseTooLarge { got, max },
    5 => EmptyInClause,
    6 => PayloadCorrupted,
    7 => TooManyFilterColumns { table, got, max },
    8 => Protocol(message),
    9 => Sql(message),
    10 => NoSqlPlanner,
    11 => Transport(message),
    12 => FilterTableNotInQuery { table, column },
    13 => DuplicateProjectionColumn { table, column },
    14 => InvalidPlan(message),
    15 => UnknownRow { table, row },
    16 => Snapshot(message),
    17 => Overloaded { tenant, in_flight, cap },
    18 => Timeout(message),
    19 => DimensionMismatch { what, expected, got },
}

wire_enum! {
    mod side_tag: "table side", framed: false, for SjTableSide;
    0 => A,
    1 => B,
}

// ---------------------------------------------------------------------
// Wire format: whole messages
// ---------------------------------------------------------------------

fn encode<T: Wire>(message: &T) -> Vec<u8> {
    let mut w = Writer::default();
    message.put(&mut w);
    w.out
}

fn decode<T: Wire>(mut r: Reader<'_>) -> Result<T, DbError> {
    let message = T::get(&mut r)?;
    r.finish()?;
    Ok(message)
}

impl<E: Engine> Request<E> {
    /// Serialize for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self)
    }

    /// Parse a wire message; rejects trailing bytes, invalid `G2`
    /// elements and broken nesting rules. `G2` ciphertext elements are
    /// curve-checked while decoding and subgroup-checked by the store's
    /// preparation walk before their first pairing. `G1` token sides
    /// stay as received: the [`EncryptedStore`](crate::store::EncryptedStore)
    /// checks a side's token before its first pairing, and skips the
    /// check only for bytes its decrypt cache already answers in full
    /// (see the [module docs](self#where-group-elements-are-validated)).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DbError> {
        let request: Self = decode(Reader::new(bytes))?;
        request.validate()?;
        Ok(request)
    }

    /// The rules the layout alone does not express: a batch holds no
    /// batch, envelope or drain; an envelope names a well-formed tenant
    /// and wraps no envelope or drain.
    fn validate(&self) -> Result<(), DbError> {
        let reject = |why: &str| Err(DbError::Protocol(why.into()));
        match self {
            Request::Batch(requests) => requests.iter().try_for_each(|r| match r {
                Request::Batch(_) => reject("nested request batch"),
                Request::WithTenant { .. } => {
                    reject("tenant envelope inside a batch (wrap the whole batch instead)")
                }
                Request::Drain => reject("drain inside a batch"),
                _ => Ok(()),
            }),
            Request::WithTenant { tenant, .. } if !valid_tenant_name(tenant) => {
                Err(DbError::Protocol(format!(
                    "invalid tenant name {tenant:?} (want [A-Za-z0-9_-]{{1,64}})"
                )))
            }
            Request::WithTenant { inner, .. } => match **inner {
                Request::WithTenant { .. } | Request::Drain => {
                    reject("tenant envelope wrapping another envelope or a drain")
                }
                _ => inner.validate(),
            },
            _ => Ok(()),
        }
    }
}

impl Response {
    /// Serialize for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self)
    }

    /// Parse a wire message (rejects trailing bytes and nested batches).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DbError> {
        let response: Self = decode(Reader::new(bytes))?;
        if let Response::Batch(responses) = &response {
            if responses.iter().any(|r| matches!(r, Response::Batch(_))) {
                return Err(DbError::Protocol("nested response batch".into()));
            }
        }
        Ok(response)
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
            tokens: tokens.into(),
            projection: Default::default(),
        }) {
            Response::JoinExecuted { observation, .. } => assert_eq!(observation.pairs().len(), 1),
            _ => panic!("expected JoinExecuted"),
        }
    }

    #[test]
    fn backend_errors_are_responses_not_panics() {
        let (mut client, _enc, q) = sample();
        let backend = LocalBackend::<MockEngine>::new();
        let tokens = client.query_tokens(&q).unwrap();
        match backend.handle(Request::ExecuteJoin {
            tokens: tokens.into(),
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
                tokens: tokens.into(),
                projection: Default::default(),
            }) {
                Response::JoinExecuted { observation, .. } => observation.pairs(),
                _ => panic!("expected JoinExecuted"),
            };
        let expected = (seq_pairs(tokens_a.clone()), seq_pairs(tokens_b.clone()));

        let batched = LocalBackend::<MockEngine>::new();
        let response = batched.handle(Request::Batch(vec![
            Request::Ping,
            Request::InsertTable(enc),
            Request::ExecuteJoin {
                tokens: tokens_a.into(),
                projection: Default::default(),
            },
            Request::ExecuteJoin {
                tokens: tokens_b.into(),
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
                Response::JoinExecuted { observation, .. } => observation.pairs(),
                _ => panic!("expected JoinExecuted"),
            })
            .collect();
        assert_eq!((got[0].clone(), got[1].clone()), expected);
    }
}
