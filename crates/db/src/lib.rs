//! The encrypted DBMS engine the paper evaluates, organized around a
//! [`Session`] for *series* of select-project-join queries — the
//! object the paper's leakage result (Corollary 5.2.2) is actually
//! about.
//!
//! ```text
//!                 Session<E>  (trusted side)
//!   ┌────────────────────────────────────────────────┐
//!   │ QueryPlan (built, or eqjoin_sql::plan)         │
//!   │   ─ lower(catalog), memoized ▶ stages          │
//!   │                              │                 │
//!   │ DbClient (keys) ◀── token cache (per stage)    │
//!   │    │ encrypt_table  │ query_tokens on miss     │
//!   │    ▼                ▼                          │
//!   │ LeakageLedger   Request::Batch of pairwise     │
//!   │ (per stage)       ExecuteJoins: tokens and a   │
//!   │    ▲              projection only              │
//!   │    │ classes    classes → slot maps, per stage │
//!   │ walk + per-column decrypt ◀────────┐           │
//!   └───────────────────────┬────────────┼───────────┘
//!                           │  ServerApi (protocol)
//!                           ▼
//!              LocalBackend / remote backend
//!   ┌────────────────────────────────────────────────┐
//!   │ DbServer: SJ.Dec per row on its own threads,   │
//!   │           decrypt cache and pre-filter         │
//!   │           SJ.Match via hash join on D bytes    │
//!   │           → JoinObservation: equality classes  │
//!   │             of (side, row) — the pairs too     │
//!   │           → EncryptedJoinResult: each matched  │
//!   │             row once per side, projected       │
//!   └────────────────────────────────────────────────┘
//! ```
//!
//! Most callers only need the plan and session layers:
//!
//! * [`plan`] — the [`QueryPlan`] IR: logical
//!   `Scan → Filter → Join → Project` trees, validated against the
//!   session [`Catalog`] and lowered to pairwise join stages (multi-way
//!   chains execute as pipelined pairwise joins; projections select
//!   which sealed columns ship and decrypt).
//! * [`session`] — [`Session`], [`SessionConfig`], [`ResultSet`], the
//!   per-stage token cache (keyed by the stage and its tables'
//!   registered layouts) and the embedded
//!   [`LeakageLedger`](eqjoin_leakage::LeakageLedger) (one entry per
//!   executed stage; see the session docs for why a chain adds nothing
//!   beyond the closure bound). A plan's lowering is memoized, with
//!   each stage's token-cache key, until a table's registration
//!   changes; nothing prepared outlives a registration.
//! * [`protocol`] — the [`ServerApi`] transport trait and the
//!   [`Request`]/[`Response`] message enums (including batched series
//!   and payload projections) with their wire codec.
//! * [`backend`] — the transports: in-process [`LocalBackend`],
//!   networked [`RemoteBackend`] (the client half of the `eqjoind`
//!   server, whose connection layer is the `eqjoind-net` crate), and
//!   [`TransportStats`], the client-side and in-process count of round
//!   trips and bytes (a server's scrape counts its own wire traffic in
//!   the `eqjoin_frame*` series). Backends only ever see pairwise
//!   `ExecuteJoin`s — plans reach them as ordinary batches.
//!
//! The documented low-level layer underneath (useful for experiments
//! that need to drive each protocol step by hand):
//!
//! * [`data`] — the plaintext relational model (`Value`, `Row`, `Table`).
//! * [`query`] — two-table equi-join queries with `IN`-clause filters
//!   (the pairwise special case; [`QueryPlan::pairwise`] embeds one).
//! * [`client`] — key management, per-column table encryption, token
//!   generation, payload opening ([`DbClient::open_value`], the one
//!   way a sealed column becomes a `Value`; [`DbClient`], configured via
//!   [`ClientConfig`]; [`ClientStats`] counts the column decrypts a
//!   projection performs and skips, and the opened values a repeat
//!   reuses).
//! * [`store`] — the storage core ([`EncryptedStore`]):
//!   column-oriented, row-versioned tables, **prepared pairing
//!   state** filled per row on first use, a row-granular decrypt cache
//!   that evicts the side with the fewest `uses × rows` (use counts
//!   halved every `10 × cap` lookups), incremental
//!   `InsertRows`/`DeleteRows`, and checksummed snapshot persistence
//!   (warm restarts).
//! * [`server`] — the query executor over the store: per-row `SJ.Dec`
//!   (parallel, optionally pre-filtered by the §4.3 tags), the `O(n)`
//!   hash join, and payload projection ([`PayloadProjection`]). A join's
//!   answer says each fact once: the matched pairs are
//!   [`JoinObservation::pairs`], derived from the equality classes the
//!   server reports anyway, and each matched row's payloads ship once.
//! * [`join`] — the matching algorithms on decrypted `D` values (the
//!   hash join the server runs, and the `O(n²)` nested loop kept as the
//!   comparison arm and a test oracle). A chain's tuples are assembled
//!   by the session, in one walk over its stages' classes.

#![forbid(unsafe_code)]

pub mod backend;
pub mod client;
pub mod data;
pub mod encrypted;
pub mod error;
pub mod join;
pub mod plan;
pub mod protocol;
pub mod query;
pub mod server;
pub mod session;
pub mod store;

pub use backend::{LocalBackend, RemoteBackend, RemoteConfig, RetryPolicy, TransportStats};
pub use client::{ClientConfig, ClientStats, DbClient, TableConfig};
pub use data::{Row, Schema, Table, Value};
pub use encrypted::{EncryptedRow, EncryptedTable, QueryTokens, SideTokens, WireToken};
pub use error::DbError;
pub use plan::{ColumnId, LoweredPlan, OutputColumn, PlanNode, QueryPlan, Stage};
pub use protocol::{
    peek_envelope, valid_tenant_name, Request, RequestEnvelope, Response, ServerApi,
};
pub use query::{InFilter, JoinQuery};
pub use server::{
    DbServer, EncryptedJoinResult, JoinObservation, JoinOptions, PayloadProjection, ServerStats,
    ShippedRow,
};
pub use session::{
    Catalog, LeakageReport, ResultSet, Session, SessionConfig, SessionStats,
    DEFAULT_COPY_CHUNK_ROWS,
};
pub use store::{EncryptedStore, TableStore, DEFAULT_DECRYPT_CACHE_CAP};
