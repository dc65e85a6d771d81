//! The semi-honest server: executes join queries with `SJ.Dec` +
//! `SJ.Match` over an [`EncryptedStore`] and reports the equality
//! pattern it (unavoidably) observes — the instrumentation the leakage
//! experiments consume.
//!
//! Storage, first-use pairing preparation, the row-granular decrypt
//! cache and snapshot persistence all live in [`crate::store`]; this
//! module is the query executor on top: thread resolution, the match
//! phase (always the hash join on `D` bytes), payload projection and
//! leakage observation. A request says what to join; how is the
//! server's configuration (match algorithm, decrypt-cache capacity,
//! thread count). [`JoinOptions`] only varies a direct call.
//!
//! # The series-aware decrypt cache
//!
//! `SJ.Dec` is one pairing per row — by far the server's hottest path.
//! In the paper's *series* setting the same prepared query recurs
//! (dashboards, retried reports), and the session's token cache then
//! hands the server a **byte-identical** token bundle. Since
//! `D_r = e(Tk, C_r)` is a pure function of the token and the stored
//! ciphertext, the store memoizes the per-row decrypt output keyed by
//! `(token fingerprint, row id, row version)`: a repeat skips the
//! pairing phase entirely (visible as [`ServerStats::decrypt_cache_hits`]
//! and a zero pairing-counter delta), and an incremental
//! [`DbServer::insert_rows`] re-decrypts only the new rows. The cache
//! is capped by server configuration alone
//! ([`DbServer::set_decrypt_cache_cap`] / `eqjoind --decrypt-cache-cap`)
//! and evicts the side cheapest to lose: fewest `uses × rows`, use
//! counts halved every `10 × cap` lookups, ties to the least recently
//! used. It caches only values the server would recompute from what it
//! already stores — it observes nothing new, so the leakage accounting
//! is unchanged.

use crate::encrypted::{EncryptedTable, QueryTokens};
use crate::error::DbError;
use crate::join::{class_pair_count, class_pairs, hash_join};
use crate::store::{EncryptedStore, TableStore};
use eqjoin_pairing::Engine;
use std::time::{Duration, Instant};

/// How one direct call of [`DbServer::execute_join`] runs. No wire
/// request carries these: every backend serves a join with the default.
/// Tests and the benchmark's layer probe, which hold a [`DbServer`],
/// vary them for a cache-off timing of fresh `SJ.Dec`, a capped thread
/// count or an unfiltered reference.
#[derive(Clone, Copy, Debug)]
pub struct JoinOptions {
    /// Honor pre-filter tags if the ciphertexts carry them (on by
    /// default). A side served without them is a different decrypt-cache
    /// entry from the same side served with them.
    pub use_prefilter: bool,
    /// Worker threads for the decryption phase. `0` (the default) means
    /// the server's configured count ([`DbServer::set_default_threads`],
    /// else one per available core); that is also the most a call is
    /// given, whatever it asks for.
    pub threads: usize,
    /// Serve repeated byte-identical tokens from the server's decrypt
    /// cache (on by default; see the module docs).
    pub decrypt_cache: bool,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            use_prefilter: true,
            threads: 0,
            decrypt_cache: true,
        }
    }
}

/// Counters and timings from one join execution.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Rows considered on each side after pre-filtering.
    pub rows_decrypted: usize,
    /// Rows skipped by the pre-filter.
    pub rows_prefiltered_out: usize,
    /// Equality comparisons / bucket probes in the match phase.
    pub comparisons: u64,
    /// Matched row pairs.
    pub matched_pairs: usize,
    /// Wall time of the `SJ.Dec` phase.
    pub decrypt_time: Duration,
    /// Wall time of the `SJ.Match` phase.
    pub match_time: Duration,
    /// Rows whose `SJ.Dec` output was served from the server's decrypt
    /// cache (each hit skips one pairing). On a full repeat of a
    /// cached query this equals `rows_decrypted`; after an incremental
    /// insert it covers exactly the untouched rows.
    pub decrypt_cache_hits: u64,
}

impl ServerStats {
    /// Accumulate another execution's counters into this one (counts
    /// add, durations add) — the single place that knows every field,
    /// so per-plan and per-stage aggregations cannot silently drop a
    /// counter added later.
    pub fn merge(&mut self, other: &ServerStats) {
        self.rows_decrypted += other.rows_decrypted;
        self.rows_prefiltered_out += other.rows_prefiltered_out;
        self.comparisons += other.comparisons;
        self.matched_pairs += other.matched_pairs;
        self.decrypt_time += other.decrypt_time;
        self.match_time += other.match_time;
        self.decrypt_cache_hits += other.decrypt_cache_hits;
    }
}

/// Which sealed payload columns each side of a join should ship back —
/// the server half of projection pushdown. `None` means every column
/// (`SELECT *`); an explicit list means exactly those schema indices,
/// in the given order (an empty list ships no payloads at all, which a
/// chain uses for tables whose payloads another stage already
/// provides). The projection only selects among *stored blobs*; it
/// never changes which rows are decrypted, matched or observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PayloadProjection {
    /// Wanted payload columns of the left table.
    pub left: Option<Vec<usize>>,
    /// Wanted payload columns of the right table.
    pub right: Option<Vec<usize>>,
}

/// One matched row as the server ships it: its row id and the sealed
/// payload columns the request asked for, in the requested order.
pub type ShippedRow = (usize, Vec<Vec<u8>>);

/// The server's answer to a join query: each side's matched rows, once
/// each, with their sealed payloads. Which row matched which is not
/// repeated here: it is [`JoinObservation::pairs`], the cross product
/// inside the equality classes the server reports anyway, so the
/// answer a client decrypts and the leakage it records cannot disagree.
///
/// Row ids are the **stable row ids** assigned at encryption time
/// (they survive deletions of other rows — the sealed payloads' AEAD
/// associated data binds them).
#[derive(Clone, Debug)]
pub struct EncryptedJoinResult {
    /// The left table's matched rows by ascending row id, each with the
    /// sealed payload columns the request's [`PayloadProjection`] asked
    /// for, in the requested order. Empty when that projection is empty
    /// (`Some(vec![])`, as a chain stage asks for its anchor).
    pub left_rows: Vec<ShippedRow>,
    /// The right table's matched rows, likewise.
    pub right_rows: Vec<ShippedRow>,
    /// Execution statistics.
    pub stats: ServerStats,
}

/// What the adversary controlling the server learns from one query: the
/// equality classes among decrypted rows. A member is `(side, row id)`,
/// side `0` the left table and `1` the right, as the match phase
/// produces them ([`MatchOutcome`](crate::join::MatchOutcome)); whoever
/// dispatched the join knows which table each side names.
#[derive(Clone, Debug)]
pub struct JoinObservation {
    /// Observed equality classes (≥ 2 members) as `(side, row id)`, in
    /// the match phase's order: by first member, members in input order
    /// (left rows ascending, then right rows ascending).
    pub equality_classes: Vec<Vec<(u8, usize)>>,
}

impl JoinObservation {
    /// The matched `(left row, right row)` pairs, sorted: in each class,
    /// every side-0 member with every side-1 member ([`class_pairs`]).
    /// Two rows match exactly when they decrypt to one `D`, that is when
    /// they share a class.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        class_pairs(&self.equality_classes)
    }
}

/// Each side's matched rows, ascending: the members of every class that
/// has both a left and a right member — the rows
/// [`JoinObservation::pairs`] names, and the rows the server ships. A
/// hash join puts each row in one bucket, so classes that name a
/// matched row twice (in one class or in two) are a
/// [`DbError::Protocol`].
pub(crate) fn matched_rows(
    classes: &[Vec<(u8, usize)>],
) -> Result<(Vec<usize>, Vec<usize>), DbError> {
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for class in classes {
        if class.iter().any(|m| m.0 == 0) && class.iter().any(|m| m.0 == 1) {
            for &(side, row) in class {
                if side == 0 {
                    left.push(row);
                } else {
                    right.push(row);
                }
            }
        }
    }
    for (side, rows) in [(0, &mut left), (1, &mut right)] {
        rows.sort_unstable();
        let twice = rows.windows(2).find_map(|pair| match pair {
            [a, b] if a == b => Some(*a),
            _ => None,
        });
        if let Some(row) = twice {
            return Err(DbError::Protocol(format!(
                "side {side} row {row} is named twice in the stage's equality classes"
            )));
        }
    }
    Ok((left, right))
}

/// Does a side whose request asks for `wanted` payload columns ship its
/// matched rows? Every side does but one that asks for no columns.
pub(crate) fn ships_rows(wanted: Option<&[usize]>) -> bool {
    !wanted.is_some_and(<[usize]>::is_empty)
}

/// `rows` of `table` with the payload columns `wanted` names, one
/// lookup per row; nothing when `wanted` is empty.
fn ship_rows<E: Engine>(
    table: &TableStore<E>,
    name: &str,
    rows: Vec<usize>,
    wanted: Option<&[usize]>,
) -> Result<Vec<ShippedRow>, DbError> {
    if !ships_rows(wanted) {
        return Ok(Vec::new());
    }
    rows.into_iter()
        .map(|row| {
            let pos =
                table
                    .ids()
                    .binary_search(&(row as u64))
                    .map_err(|_| DbError::UnknownRow {
                        table: name.to_owned(),
                        row: row as u64,
                    })?;
            Ok((row, table.payloads_of(pos, wanted)?))
        })
        .collect()
}

/// The semi-honest DBMS server: an [`EncryptedStore`] plus the query
/// executor.
pub struct DbServer<E: Engine> {
    store: EncryptedStore<E>,
    /// The most decrypt workers a request gets: the configured default,
    /// else the cores available when it was set (asking the OS reads
    /// cgroup files, too slow to repeat on every join).
    max_threads: usize,
}

impl<E: Engine> Default for DbServer<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Engine> DbServer<E> {
    /// Empty server.
    pub fn new() -> Self {
        Self::with_store(EncryptedStore::new())
    }

    /// Server over an existing store (e.g. one loaded from a snapshot).
    pub fn with_store(store: EncryptedStore<E>) -> Self {
        DbServer {
            store,
            max_threads: available_cores(),
        }
    }

    /// The underlying store (tests and persistent backends inspect it).
    pub fn store(&self) -> &EncryptedStore<E> {
        &self.store
    }

    /// Upload an encrypted table. Re-uploading under an existing name
    /// replaces the table, re-versions every row and thereby
    /// invalidates its decrypt-cache entries.
    pub fn insert_table(&mut self, table: EncryptedTable<E>) -> Result<(), DbError> {
        self.store.insert_table(table)
    }

    /// Append encrypted rows to a stored table. Untouched rows keep
    /// their versions — their decrypt-cache entries and prepared state
    /// stay warm; of the new rows, those the next query selects are
    /// prepared and decrypted then.
    pub fn insert_rows(
        &mut self,
        table: &str,
        start_row: u64,
        rows: Vec<crate::encrypted::EncryptedRow<E>>,
    ) -> Result<usize, DbError> {
        self.store.insert_rows(table, start_row, rows)
    }

    /// Delete stored rows by id (row-granular cache invalidation; see
    /// [`EncryptedStore::delete_rows`]).
    pub fn delete_rows(&mut self, table: &str, rows: &[u64]) -> Result<usize, DbError> {
        self.store.delete_rows(table, rows)
    }

    /// Apply one COPY-style bulk-load chunk (create-or-append; see
    /// [`EncryptedStore::copy_rows`]).
    pub fn copy_rows(
        &mut self,
        table: &str,
        join_column: &str,
        filter_columns: &[String],
        start_row: u64,
        rows: Vec<crate::encrypted::EncryptedRow<E>>,
    ) -> Result<(usize, u64), DbError> {
        self.store
            .copy_rows(table, join_column, filter_columns, start_row, rows)
    }

    /// Fix the decrypt worker count every wire join runs with (and the
    /// most a direct call gets). `None` or `Some(0)` (the default) is
    /// the machine's available parallelism, read here and when the
    /// server is built — not on every join.
    pub fn set_default_threads(&mut self, threads: Option<usize>) {
        self.max_threads = threads.filter(|&t| t > 0).unwrap_or_else(available_cores);
    }

    /// Set the decrypt-cache capacity in entries (query sides) — the
    /// one cap every request is served under (`eqjoind
    /// --decrypt-cache-cap`).
    pub fn set_decrypt_cache_cap(&mut self, cap: usize) {
        self.store.set_decrypt_cache_cap(cap);
    }

    /// Resolve a direct call's thread count. The server's ceiling is
    /// its configured default, else the available cores; a call may ask
    /// for fewer (`0` = the ceiling), never more — the decrypt phase
    /// spawns one OS thread per chunk.
    fn resolve_threads(&self, requested: usize) -> usize {
        match requested {
            0 => self.max_threads,
            n => n.min(self.max_threads),
        }
    }

    /// Execute a join query with full payloads — shorthand for
    /// [`DbServer::execute_join_projected`] with no projection.
    pub fn execute_join(
        &self,
        tokens: &QueryTokens<E>,
        opts: &JoinOptions,
    ) -> Result<(EncryptedJoinResult, JoinObservation), DbError> {
        self.execute_join_projected(tokens, opts, &PayloadProjection::default())
    }

    /// Execute a join query: per-row `SJ.Dec` on both sides
    /// (optionally pre-filtered, parallel, served from the decrypt cache
    /// where warm), then `SJ.Match` via the hash join on `D` bytes.
    /// Returns the encrypted result — each matched row once per side,
    /// carrying only the payload columns `projection` asks for — and the
    /// leakage observation, whose classes determine the pairs.
    pub fn execute_join_projected(
        &self,
        tokens: &QueryTokens<E>,
        opts: &JoinOptions,
        projection: &PayloadProjection,
    ) -> Result<(EncryptedJoinResult, JoinObservation), DbError> {
        let _span = eqjoin_obs::span!(
            "join",
            "left" => tokens.left.table,
            "right" => tokens.right.table,
        );
        let left_table = self
            .store
            .table(&tokens.left.table)
            .ok_or_else(|| DbError::UnknownTable(tokens.left.table.clone()))?;
        let right_table = self
            .store
            .table(&tokens.right.table)
            .ok_or_else(|| DbError::UnknownTable(tokens.right.table.clone()))?;

        let mut stats = ServerStats::default();
        let threads = self.resolve_threads(opts.threads);

        let t0 = Instant::now();
        let left_d = self
            .store
            .decrypt_side(&tokens.left, opts, threads, &mut stats)?;
        let right_d = self
            .store
            .decrypt_side(&tokens.right, opts, threads, &mut stats)?;
        stats.decrypt_time = t0.elapsed();

        let t1 = Instant::now();
        let outcome = hash_join(&left_d, &right_d);
        stats.match_time = t1.elapsed();
        stats.comparisons = outcome.comparisons;
        stats.matched_pairs = class_pair_count(&outcome.equality_classes);

        let (left, right) = matched_rows(&outcome.equality_classes)?;
        let left_rows = ship_rows(
            left_table,
            &tokens.left.table,
            left,
            projection.left.as_deref(),
        )?;
        let right_rows = ship_rows(
            right_table,
            &tokens.right.table,
            right,
            projection.right.as_deref(),
        )?;
        let observation = JoinObservation {
            equality_classes: outcome.equality_classes,
        };

        // The leakage account, live: each executed join is one more
        // ledger entry server-side, and the equality classes the match
        // revealed are the pattern the paper's bound is about — export
        // both so cumulative disclosure is scrapeable next to latency.
        eqjoin_obs::counter!("eqjoin_leakage_queries_total").inc();
        eqjoin_obs::counter!("eqjoin_leakage_equality_classes_total")
            .add(observation.equality_classes.len() as u64);
        eqjoin_obs::counter!("eqjoin_join_matched_pairs_total").add(stats.matched_pairs as u64);
        eqjoin_obs::counter!("eqjoin_join_comparisons_total").add(stats.comparisons);
        eqjoin_obs::counter!("eqjoin_join_rows_decrypted_total").add(stats.rows_decrypted as u64);
        eqjoin_obs::counter!("eqjoin_join_rows_prefiltered_out_total")
            .add(stats.rows_prefiltered_out as u64);

        Ok((
            EncryptedJoinResult {
                left_rows,
                right_rows,
                stats,
            },
            observation,
        ))
    }
}

/// The machine's available parallelism (1 if the OS will not say).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DbClient, TableConfig};
    use crate::data::{Schema, Table, Value};
    use crate::query::JoinQuery;
    use eqjoin_pairing::MockEngine;

    fn setup() -> (DbClient<MockEngine>, DbServer<MockEngine>, JoinQuery) {
        let mut client = DbClient::<MockEngine>::new(2, 2, 99);
        let mut server = DbServer::new();

        let mut left = Table::new(Schema::new("L", &["key", "color", "size"]));
        left.push_row(vec![Value::Int(1), "red".into(), "s".into()]);
        left.push_row(vec![Value::Int(2), "blue".into(), "m".into()]);
        left.push_row(vec![Value::Int(3), "red".into(), "l".into()]);

        let mut right = Table::new(Schema::new("R", &["key", "shape", "weight"]));
        right.push_row(vec![Value::Int(1), "disc".into(), "w1".into()]);
        right.push_row(vec![Value::Int(1), "cube".into(), "w2".into()]);
        right.push_row(vec![Value::Int(4), "cone".into(), "w3".into()]);

        let cfg = |cols: [&str; 2]| TableConfig {
            join_column: "key".into(),
            filter_columns: cols.iter().map(|c| (*c).to_string()).collect(),
        };
        let enc_l = client.encrypt_table(&left, cfg(["color", "size"])).unwrap();
        let enc_r = client
            .encrypt_table(&right, cfg(["shape", "weight"]))
            .unwrap();
        server.insert_table(enc_l).unwrap();
        server.insert_table(enc_r).unwrap();

        let query = JoinQuery::on("L", "key", "R", "key");
        (client, server, query)
    }

    /// A join's whole answer, comparable across executions: its pairs
    /// and the rows each side shipped.
    fn key(answer: &(EncryptedJoinResult, JoinObservation)) -> impl PartialEq + std::fmt::Debug {
        let (result, obs) = answer;
        (
            obs.pairs(),
            result.left_rows.clone(),
            result.right_rows.clone(),
        )
    }

    #[test]
    fn unfiltered_join_finds_key_matches() {
        let (mut client, server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let (result, obs) = server
            .execute_join(&tokens, &JoinOptions::default())
            .unwrap();
        // key 1 in L matches rows 0 and 1 in R; each ships once.
        assert_eq!(obs.pairs(), vec![(0, 0), (0, 1)]);
        let ids = |rows: &[ShippedRow]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(ids(&result.left_rows), vec![0]);
        assert_eq!(ids(&result.right_rows), vec![0, 1]);
        assert_eq!(result.stats.matched_pairs, 2);
        assert_eq!(result.stats.rows_decrypted, 6);
        assert_eq!(obs.equality_classes.len(), 1);
        assert_eq!(obs.equality_classes[0].len(), 3);
    }

    #[test]
    fn filtered_join_restricts_matches() {
        let (mut client, server, _) = setup();
        let query = JoinQuery::on("L", "key", "R", "key")
            .filter("L", "color", vec!["red".into()])
            .filter("R", "shape", vec!["cube".into()]);
        let tokens = client.query_tokens(&query).unwrap();
        let (_, obs) = server
            .execute_join(&tokens, &JoinOptions::default())
            .unwrap();
        // Only L row 0 (key 1, red) × R row 1 (key 1, cube).
        assert_eq!(obs.pairs(), vec![(0, 1)]);
    }

    #[test]
    fn client_decrypts_results() {
        let (mut client, server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let (result, obs) = server
            .execute_join(&tokens, &JoinOptions::default())
            .unwrap();
        // Each matched pair's shipped payloads open to rows that share
        // the join value θ = 1.
        let mut open = |table: &str, rows: &[ShippedRow], row: usize| -> Vec<Value> {
            let (_, payloads) = rows.iter().find(|r| r.0 == row).expect("shipped");
            payloads
                .iter()
                .enumerate()
                .map(|(column, blob)| client.open_value(table, row, column, blob).unwrap())
                .collect()
        };
        let pairs = obs.pairs();
        assert_eq!(pairs.len(), 2);
        for (l, r) in pairs {
            let left = open("L", &result.left_rows, l);
            let right = open("R", &result.right_rows, r);
            assert_eq!(left[0], Value::Int(1));
            assert_eq!(right[0], Value::Int(1));
        }
    }

    #[test]
    fn a_request_gets_no_more_threads_than_the_server_allows() {
        let mut server = DbServer::<MockEngine>::new();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(server.resolve_threads(0), cores);
        assert_eq!(server.resolve_threads(1), 1);
        assert_eq!(server.resolve_threads(usize::MAX), cores);
        server.set_default_threads(Some(3));
        assert_eq!(server.resolve_threads(0), 3);
        assert_eq!(server.resolve_threads(2), 2);
        assert_eq!(server.resolve_threads(usize::MAX), 3);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (mut client, server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let seq = server
            .execute_join(
                &tokens,
                &JoinOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let par = server
            .execute_join(
                &tokens,
                &JoinOptions {
                    threads: 4,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(key(&seq), key(&par));
    }

    #[test]
    fn prefilter_reduces_decryptions() {
        use crate::client::ClientConfig;
        // The pre-filter is the client's choice, made at encryption: a
        // table encrypted without tags is a full scan, whatever the query.
        let run = |prefilter: bool| {
            let mut client = DbClient::<MockEngine>::with_config(
                ClientConfig::new(1, 2).seed(5).prefilter(prefilter),
            );
            let mut server = DbServer::new();
            let mut t = Table::new(Schema::new("T", &["k", "attr"]));
            for i in 0..10 {
                let attr = if i < 2 { "hit" } else { "miss" };
                t.push_row(vec![Value::Int(i), attr.into()]);
            }
            let enc = client
                .encrypt_table(
                    &t,
                    TableConfig {
                        join_column: "k".into(),
                        filter_columns: vec!["attr".into()],
                    },
                )
                .unwrap();
            server.insert_table(enc).unwrap();
            let query = JoinQuery::on("T", "k", "T", "k").filter("T", "attr", vec!["hit".into()]);
            let tokens = client.query_tokens(&query).unwrap();
            server
                .execute_join(&tokens, &JoinOptions::default())
                .unwrap()
        };
        let filtered = run(true);
        // Self-join: the filter applies to both sides, 2 rows each.
        assert_eq!(filtered.0.stats.rows_decrypted, 4);
        assert_eq!(filtered.0.stats.rows_prefiltered_out, 16);
        // Without tags everything is decrypted.
        let unfiltered = run(false);
        assert_eq!(unfiltered.0.stats.rows_decrypted, 20);
        assert_eq!(unfiltered.0.stats.rows_prefiltered_out, 0);
        // Same matches either way.
        assert_eq!(key(&filtered), key(&unfiltered));
    }

    #[test]
    fn decrypt_cache_serves_full_repeats() {
        let (mut client, server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let opts = JoinOptions::default();
        let first = server.execute_join(&tokens, &opts).unwrap();
        assert_eq!(first.0.stats.decrypt_cache_hits, 0, "cold cache");
        // Byte-identical tokens: the repeat must skip every SJ.Dec.
        let second = server.execute_join(&tokens, &opts).unwrap();
        assert_eq!(
            second.0.stats.decrypt_cache_hits as usize, second.0.stats.rows_decrypted,
            "100% of rows served from the cache"
        );
        assert_eq!(second.0.stats.rows_decrypted, first.0.stats.rows_decrypted);
        assert_eq!(
            second.0.stats.rows_prefiltered_out,
            first.0.stats.rows_prefiltered_out
        );
        assert_eq!(key(&first), key(&second));
        assert_eq!(first.1.equality_classes, second.1.equality_classes);
        // Fresh tokens for the same query (new k) must miss.
        let fresh = client.query_tokens(&query).unwrap();
        let (third, _) = server.execute_join(&fresh, &opts).unwrap();
        assert_eq!(third.stats.decrypt_cache_hits, 0);
    }

    #[test]
    fn decrypt_cache_disabled_never_hits() {
        let (mut client, server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let opts = JoinOptions {
            decrypt_cache: false,
            ..Default::default()
        };
        let a = server.execute_join(&tokens, &opts).unwrap();
        let b = server.execute_join(&tokens, &opts).unwrap();
        assert_eq!(a.0.stats.decrypt_cache_hits, 0);
        assert_eq!(b.0.stats.decrypt_cache_hits, 0);
        // And a cache-off run after a cache-on warmup returns the same
        // bytes.
        let warm = server
            .execute_join(&tokens, &JoinOptions::default())
            .unwrap();
        assert_eq!(key(&a), key(&warm));
    }

    #[test]
    fn table_update_invalidates_decrypt_cache() {
        let (mut client, mut server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let opts = JoinOptions::default();
        server.execute_join(&tokens, &opts).unwrap();
        let (hit, _) = server.execute_join(&tokens, &opts).unwrap();
        assert!(hit.stats.decrypt_cache_hits > 0, "warm before the update");

        // Re-upload L (same rows re-encrypted): its rows are
        // re-versioned, so its cached match keys die while R's survive
        // — the next run decrypts L fresh but still serves R warm.
        let mut left = Table::new(Schema::new("L", &["key", "color", "size"]));
        left.push_row(vec![Value::Int(1), "red".into(), "s".into()]);
        left.push_row(vec![Value::Int(2), "blue".into(), "m".into()]);
        left.push_row(vec![Value::Int(3), "red".into(), "l".into()]);
        let cfg = TableConfig {
            join_column: "key".into(),
            filter_columns: vec!["color".into(), "size".into()],
        };
        let reencrypted = client.encrypt_table(&left, cfg).unwrap();
        server.insert_table(reencrypted).unwrap();

        let (after, _) = server.execute_join(&tokens, &opts).unwrap();
        let r_rows = 3;
        assert_eq!(
            after.stats.decrypt_cache_hits, r_rows,
            "only R's side may hit after L was replaced"
        );
    }

    #[test]
    fn insert_rows_keeps_untouched_rows_warm() {
        let (mut client, mut server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let opts = JoinOptions::default();
        server.execute_join(&tokens, &opts).unwrap();

        // Append one row to L: ids/versions of the stored rows are
        // untouched, so the repeat re-decrypts exactly the new row.
        let (start, rows) = client
            .encrypt_rows("L", &[vec![Value::Int(1), "green".into(), "xl".into()]])
            .unwrap();
        assert_eq!(start, 3, "ids continue after the encrypted table");
        assert_eq!(server.insert_rows("L", start, rows).unwrap(), 1);

        let (after, after_obs) = server.execute_join(&tokens, &opts).unwrap();
        assert_eq!(after.stats.rows_decrypted, 7);
        assert_eq!(
            after.stats.decrypt_cache_hits, 6,
            "all six pre-existing rows stay warm; only the insert is fresh"
        );
        // The new row (key 1, id 3) joins R rows 0 and 1 under the old
        // token.
        assert_eq!(after_obs.pairs(), vec![(0, 0), (0, 1), (3, 0), (3, 1)]);
    }

    #[test]
    fn delete_rows_is_row_granular() {
        let (mut client, mut server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let opts = JoinOptions::default();
        server.execute_join(&tokens, &opts).unwrap();

        // Delete L row 0 (the only L row matching R): the repeat stays
        // fully warm for every surviving row and loses the pair.
        assert_eq!(server.delete_rows("L", &[0]).unwrap(), 1);
        let (after, after_obs) = server.execute_join(&tokens, &opts).unwrap();
        assert_eq!(after.stats.rows_decrypted, 5);
        assert_eq!(
            after.stats.decrypt_cache_hits, 5,
            "no surviving row may be re-decrypted"
        );
        assert!(after_obs.pairs().is_empty());
        assert!(after.left_rows.is_empty() && after.right_rows.is_empty());

        // Deleting an unknown id is a clean error.
        assert_eq!(
            server.delete_rows("L", &[0]).unwrap_err(),
            DbError::UnknownRow {
                table: "L".into(),
                row: 0
            }
        );
        // Inserting over a live id is rejected too.
        let (_, rows) = client
            .encrypt_rows("L", &[vec![Value::Int(9), "red".into(), "s".into()]])
            .unwrap();
        assert!(matches!(
            server.insert_rows("L", 1, rows),
            Err(DbError::UnknownRow { .. })
        ));
    }

    #[test]
    fn hot_entries_survive_a_cold_flood() {
        let (mut client, mut server, query) = setup();
        server.set_decrypt_cache_cap(4);
        let opts = JoinOptions::default();
        let hot = client.query_tokens(&query).unwrap();
        server.execute_join(&hot, &opts).unwrap();

        // Flood with fresh-token queries (each inserts 2 cold entries),
        // touching the hot entry between every wave. FIFO would evict
        // the oldest — i.e. the hot pair; LRU must keep it.
        for _ in 0..6 {
            let cold = client.query_tokens(&query).unwrap();
            let (res, _) = server.execute_join(&cold, &opts).unwrap();
            assert_eq!(res.stats.decrypt_cache_hits, 0);
            let (warm, _) = server.execute_join(&hot, &opts).unwrap();
            assert_eq!(
                warm.stats.decrypt_cache_hits as usize, warm.stats.rows_decrypted,
                "the hot entry must survive every cold wave"
            );
            assert!(server.store().decrypt_cache_len() <= 4);
        }
    }

    #[test]
    fn unknown_table_errors() {
        let (mut client, _server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let empty = DbServer::<MockEngine>::new();
        assert!(matches!(
            empty.execute_join(&tokens, &JoinOptions::default()),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn snapshot_round_trip_preserves_results_and_cache() {
        let (mut client, server, query) = setup();
        let tokens = client.query_tokens(&query).unwrap();
        let opts = JoinOptions::default();
        let first = server.execute_join(&tokens, &opts).unwrap();

        // "Restart": serialize, drop, reload — the repeat must be a
        // full cache hit on the reloaded server.
        let bytes = server.store().snapshot_bytes();
        drop(server);
        let reloaded = DbServer::with_store(EncryptedStore::from_snapshot_bytes(&bytes).unwrap());
        let again = reloaded.execute_join(&tokens, &opts).unwrap();
        assert_eq!(
            again.0.stats.decrypt_cache_hits as usize, again.0.stats.rows_decrypted,
            "a restored snapshot must serve the repeat entirely from cache"
        );
        assert_eq!(key(&first), key(&again));
    }
}
