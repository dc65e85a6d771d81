//! Error type for the encrypted database engine.

use std::fmt;

/// Errors surfaced by the client/server engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Referenced table was never registered/encrypted.
    UnknownTable(String),
    /// Referenced column does not exist in the table's schema.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// The query joins on a column other than the one fixed at
    /// encryption time.
    JoinColumnMismatch {
        /// Table name.
        table: String,
        /// The column the query asked for.
        requested: String,
        /// The join column baked into the ciphertexts.
        encrypted: String,
    },
    /// A filter references a column that was not registered as a filter
    /// attribute (only filter columns carry encrypted power ladders).
    NotAFilterColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// An `IN` clause exceeds the degree bound `t` fixed at setup.
    InClauseTooLarge {
        /// Values supplied.
        got: usize,
        /// Maximum supported (`t`).
        max: usize,
    },
    /// An `IN` clause with no values selects nothing.
    EmptyInClause,
    /// An incremental update referenced a row id the table does not
    /// hold (`DELETE` of an unknown/already-deleted row, or an `INSERT`
    /// whose ids collide with stored rows).
    UnknownRow {
        /// Table name.
        table: String,
        /// The offending row id.
        row: u64,
    },
    /// A store snapshot could not be written, or an on-disk snapshot
    /// was rejected at load time (I/O failure, bad magic, unsupported
    /// format version, engine mismatch, truncation, or checksum
    /// mismatch). Loading never panics on corrupt input — it returns
    /// this. Also what a join is answered with when it selects a row
    /// whose stored ciphertext holds an on-curve element outside the
    /// order-`r` subgroup, however the row arrived — uploaded over the
    /// wire, replayed from the journal or loaded from a snapshot: such
    /// an element passes decode (only its curve equation is checked
    /// there) and is refused by the row's preparation, before any
    /// pairing; the message names table and row id.
    Snapshot(String),
    /// A filter names a table that is not part of the query. (Without
    /// this check a typo'd table name would silently leave that side of
    /// the join unfiltered.)
    FilterTableNotInQuery {
        /// The table the filter names.
        table: String,
        /// The filter column.
        column: String,
    },
    /// The projection lists the same output column twice.
    DuplicateProjectionColumn {
        /// Table of the duplicated column.
        table: String,
        /// The duplicated column.
        column: String,
    },
    /// A [`QueryPlan`](crate::plan::QueryPlan) is structurally invalid
    /// (e.g. a join edge references a table that is not yet part of the
    /// plan, or a projection sits below a join).
    InvalidPlan(String),
    /// Payload authentication failed during result decryption.
    PayloadCorrupted,
    /// A table declares more filter columns than the `m` fixed at setup.
    TooManyFilterColumns {
        /// Table name.
        table: String,
        /// Filter columns the table config declared.
        got: usize,
        /// Maximum supported (`m`).
        max: usize,
    },
    /// The server refused to admit the request because a load-shedding
    /// cap was reached — either the global job queue is full or the
    /// named tenant already has its maximum number of decrypt jobs in
    /// flight. The request was **not** executed; retrying after
    /// in-flight work drains is safe. Admission control rejects new
    /// work instead of queueing unboundedly, so in-flight responses
    /// are never dropped under overload.
    Overloaded {
        /// The tenant whose in-flight cap was hit, or `None` when the
        /// global queue-depth cap tripped.
        tenant: Option<String>,
        /// Jobs in flight (admitted and not yet completed) when the
        /// request was rejected.
        in_flight: usize,
        /// The configured cap that was reached.
        cap: usize,
    },
    /// A protocol message could not be decoded, or a backend answered a
    /// request with a response of the wrong kind.
    Protocol(String),
    /// The transport to a remote backend failed — connecting, framing,
    /// sending or receiving. Distinguished from every other variant,
    /// which the *server* reported after receiving the request intact.
    Transport(String),
    /// A deadline elapsed before the operation completed: a stream
    /// read/write timed out
    /// ([`RemoteConfig::io_timeout`](crate::backend::RemoteConfig::io_timeout)
    /// or a server idle
    /// timeout), or a retry budget was exhausted retrying timeouts.
    /// Unlike [`DbError::Transport`], the peer may still be working on
    /// the request — whether a retry is safe depends on idempotency.
    Timeout(String),
    /// SQL text could not be parsed or resolved against the session
    /// catalog.
    Sql(String),
    /// No longer produced: a session runs plans, and SQL reaches it
    /// through the `eqjoin-sql` front-end. Kept so that wire error tag
    /// 10 keeps its meaning.
    NoSqlPlanner,
    /// A vector handed to an FHIPE/Secure Join algorithm had the wrong
    /// length for the master key (converted from
    /// [`eqjoin_core::DimensionMismatch`] — the scheme layer rejects
    /// typed instead of asserting, so no panic is reachable from a
    /// request path).
    DimensionMismatch {
        /// Which input was malformed (e.g. `"row attributes"`).
        what: String,
        /// The dimension fixed at setup.
        expected: usize,
        /// The dimension actually supplied.
        got: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            DbError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            DbError::JoinColumnMismatch {
                table,
                requested,
                encrypted,
            } => write!(
                f,
                "table {table} is encrypted for joins on {encrypted:?}, not {requested:?}"
            ),
            DbError::NotAFilterColumn { table, column } => write!(
                f,
                "column {table}.{column} was not registered as a filter attribute"
            ),
            DbError::InClauseTooLarge { got, max } => {
                write!(
                    f,
                    "IN clause has {got} values, the scheme supports at most {max}"
                )
            }
            DbError::EmptyInClause => write!(f, "IN clause must contain at least one value"),
            DbError::UnknownRow { table, row } => {
                write!(f, "table {table} holds no row with id {row}")
            }
            DbError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            DbError::FilterTableNotInQuery { table, column } => write!(
                f,
                "filter on {table}.{column} names a table that is not part of the query"
            ),
            DbError::DuplicateProjectionColumn { table, column } => {
                write!(f, "column {table}.{column} appears twice in the projection")
            }
            DbError::InvalidPlan(msg) => write!(f, "invalid query plan: {msg}"),
            DbError::PayloadCorrupted => write!(f, "row payload failed authentication"),
            DbError::TooManyFilterColumns { table, got, max } => write!(
                f,
                "table {table} declares {got} filter columns, the join context supports m = {max}"
            ),
            DbError::Overloaded {
                tenant,
                in_flight,
                cap,
            } => match tenant {
                Some(t) => write!(
                    f,
                    "tenant {t:?} is overloaded: {in_flight} decrypt jobs in flight (cap {cap})"
                ),
                None => write!(
                    f,
                    "server is overloaded: {in_flight} jobs queued (queue depth cap {cap})"
                ),
            },
            DbError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            DbError::Transport(msg) => write!(f, "transport error: {msg}"),
            DbError::Timeout(msg) => write!(f, "deadline exceeded: {msg}"),
            DbError::Sql(msg) => write!(f, "SQL error: {msg}"),
            DbError::NoSqlPlanner => write!(f, "session has no SQL planner installed"),
            DbError::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what} has dimension {got}, the master key expects {expected}"
            ),
        }
    }
}

impl From<eqjoin_core::DimensionMismatch> for DbError {
    fn from(e: eqjoin_core::DimensionMismatch) -> Self {
        DbError::DimensionMismatch {
            what: e.what.to_string(),
            expected: e.expected,
            got: e.got,
        }
    }
}

impl std::error::Error for DbError {}
