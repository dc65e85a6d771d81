//! The in-process backend: a [`DbServer`] behind the protocol, with
//! interior synchronization so one instance can serve many sessions
//! and server worker threads concurrently — optionally **persistent**:
//! give it a snapshot path and every state change (table uploads,
//! incremental row updates, fresh decrypt-cache entries) is flushed to
//! disk, so a restarted server resumes the series warm.

use super::transport::TransportCounters;
use crate::error::DbError;
use crate::protocol::{Request, Response, ServerApi};
use crate::server::DbServer;
use eqjoin_pairing::Engine;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use super::TransportStats;

/// Append-only journal of mutation intents sitting next to the
/// snapshot (`store.snap` → `store.journal`): every mutation request is
/// appended (length-prefixed, checksummed, fsynced) *before* it is
/// applied in memory, and the journal is truncated once a snapshot
/// flush has made its effects durable. A `kill -9` between those two
/// points leaves the intent on disk; startup replays complete entries
/// idempotently (an entry already covered by the snapshot replays as a
/// no-op), so the restarted store is consistent with everything that
/// was ever acknowledged — and a torn final entry (the crash happened
/// mid-append, so its request was never acknowledged) is discarded
/// cleanly.
struct Journal {
    path: PathBuf,
    /// Serializes appends: concurrent writers each want their
    /// length-prefix + payload + fsync to hit the file contiguously.
    /// The flag it guards: every record in the file was replayed at
    /// startup as applied or already covered, and none was appended
    /// since — so a snapshot of the store as it stands covers the file.
    replayed: Mutex<bool>,
}

impl Journal {
    fn new(snapshot_path: &std::path::Path) -> Self {
        Journal {
            path: snapshot_path.with_extension("journal"),
            replayed: Mutex::new(false),
        }
    }

    /// Current journal size in bytes (0 if it does not exist). Drives
    /// the compaction-threshold decision: below the threshold the
    /// journal *is* the durable delta and the snapshot rewrite is
    /// deferred.
    fn size(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Append one intent record: `len ‖ fnv1a(bytes) ‖ bytes`, fsynced
    /// before returning so an acknowledged mutation's intent survives
    /// any crash after this call.
    fn append(&self, bytes: &[u8]) -> Result<(), DbError> {
        // Byte counts ride the ns-bucketed histogram: the exponential
        // buckets work for any magnitude, and the scrape labels the
        // unit in the metric name.
        eqjoin_obs::histogram!("eqjoin_store_journal_append_bytes").record_ns(bytes.len() as u64);
        let mut replayed = self.replayed.lock().unwrap_or_else(|e| e.into_inner());
        *replayed = false;
        let mut record = Vec::with_capacity(bytes.len() + 8);
        record.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a(bytes).to_le_bytes());
        record.extend_from_slice(bytes);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| DbError::Snapshot(format!("open journal {}: {e}", self.path.display())))?;
        file.write_all(&record).map_err(|e| {
            DbError::Snapshot(format!("append journal {}: {e}", self.path.display()))
        })?;
        file.sync_all()
            .map_err(|e| DbError::Snapshot(format!("fsync journal {}: {e}", self.path.display())))
    }

    /// All complete, checksum-valid entries, in append order. Stops at
    /// the first torn or corrupt record: everything after it was
    /// written later and never acknowledged.
    fn entries(&self) -> Vec<Vec<u8>> {
        let Ok(bytes) = std::fs::read(&self.path) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut at = 0usize;
        loop {
            let header = bytes
                .get(at..at + 4)
                .and_then(|s| <[u8; 4]>::try_from(s).ok());
            let Some(len_bytes) = header else { break };
            let len = u32::from_le_bytes(len_bytes) as usize;
            let sum = bytes
                .get(at + 4..at + 8)
                .and_then(|s| <[u8; 4]>::try_from(s).ok())
                .map(u32::from_le_bytes);
            let body = at
                .checked_add(8)
                .and_then(|start| start.checked_add(len).map(|end| (start, end)))
                .and_then(|(start, end)| bytes.get(start..end));
            match (sum, body) {
                (Some(sum), Some(body)) if fnv1a(body) == sum => {
                    out.push(body.to_vec());
                    at += 8 + len;
                }
                _ => break,
            }
        }
        if at < bytes.len() {
            journal_entries("torn_tail").inc();
            eqjoin_obs::info!("journal_torn_tail", "path" => self.path.display(), "at" => at);
        }
        out
    }

    /// Drop the journal after its entries are covered by a durable
    /// snapshot. Best-effort: a leftover journal only costs an
    /// idempotent (no-op) replay on the next start.
    fn truncate(&self) {
        let _guard = self.replayed.lock().unwrap_or_else(|e| e.into_inner());
        self.remove_file();
    }

    /// Caller holds the append lock.
    fn remove_file(&self) {
        if self.path.exists() {
            let _ = std::fs::remove_file(&self.path);
        }
    }

    /// [`Journal::truncate`] for a store with nothing to flush: only a
    /// file whose every record replayed as applied or covered is dead
    /// weight. One holding a skipped record, or an intent appended
    /// since (possibly not applied yet), stays.
    fn truncate_if_replayed(&self) {
        let replayed = self.replayed.lock().unwrap_or_else(|e| e.into_inner());
        if *replayed {
            self.remove_file();
        }
    }
}

/// `eqjoin_store_journal_entries_total{outcome}`: what startup made of
/// each journal record (`applied`, `covered`, `skipped`) and of a file's
/// incomplete last record (`torn_tail`).
fn journal_entries(outcome: &str) -> std::sync::Arc<eqjoin_obs::Counter> {
    eqjoin_obs::counter!("eqjoin_store_journal_entries_total", "outcome" => outcome)
}

/// FNV-1a, the checksum guarding journal records against torn writes
/// (corruption detection, not authentication — the snapshot itself
/// carries the SHA-256).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The in-process [`ServerApi`] implementation.
///
/// Table storage sits behind an `RwLock`: uploads take the write lock,
/// joins share the read lock, so concurrent queries — many sessions
/// over one `Arc<LocalBackend>`, or the `eqjoind` connection threads —
/// execute in parallel.
#[derive(Default)]
pub struct LocalBackend<E: Engine> {
    server: RwLock<DbServer<E>>,
    counters: TransportCounters,
    /// Snapshot path; when set, the store is flushed after any request
    /// that dirtied it.
    persist: Option<PathBuf>,
    /// Mutation-intent journal (persistent backends only): written
    /// before a mutation applies, truncated after a snapshot flush.
    journal: Option<Journal>,
    /// O(delta) persistence: while the journal is smaller than this many
    /// bytes, dirtying requests leave the snapshot alone (the fsynced
    /// journal already makes the mutations durable) and only the
    /// threshold crossing pays a full snapshot rewrite + journal
    /// truncation ("compaction"). `0` (the default) keeps the legacy
    /// flush-every-mutation behavior. Forced flushes (drain, shutdown)
    /// always compact, so a graceful restart starts journal-free and
    /// warm.
    compaction_threshold: u64,
}

impl<E: Engine> LocalBackend<E> {
    /// Empty backend.
    pub fn new() -> Self {
        LocalBackend {
            server: RwLock::new(DbServer::new()),
            counters: TransportCounters::default(),
            persist: None,
            journal: None,
            compaction_threshold: 0,
        }
    }

    /// Empty backend with both server defaults configured: decrypt
    /// workers and decrypt-cache capacity (`eqjoind --threads
    /// --decrypt-cache-cap`). `threads` is what auto thread requests
    /// (`JoinOptions::threads == 0`) resolve to, and caps explicit ones,
    /// instead of the machine's available parallelism.
    pub fn with_config(threads: Option<usize>, cache_cap: Option<usize>) -> Self {
        let mut server = DbServer::new();
        server.set_default_threads(threads);
        if let Some(cap) = cache_cap {
            server.set_decrypt_cache_cap(cap);
        }
        LocalBackend {
            server: RwLock::new(server),
            counters: TransportCounters::default(),
            persist: None,
            journal: None,
            compaction_threshold: 0,
        }
    }

    /// Persistent backend (`eqjoind --data-dir`): loads the snapshot at
    /// `path` if one exists (rejecting corrupt/mismatched snapshots
    /// with a clean error) and re-saves the store whenever tables,
    /// rows or the decrypt cache change. `threads` and `cache_cap`
    /// configure the restored server like the plain constructors do.
    /// `compaction_threshold` (bytes of journal) arms O(delta)
    /// persistence; `0` flushes a full snapshot after every mutation.
    pub fn with_persistence(
        path: impl Into<PathBuf>,
        threads: Option<usize>,
        cache_cap: Option<usize>,
        compaction_threshold: u64,
    ) -> Result<Self, DbError> {
        let path = path.into();
        // A crash between serialization and rename leaves `path.tmp`
        // behind; sweep it even when no snapshot exists yet (load()
        // sweeps on its own path, but only when it runs).
        crate::store::sweep_stale_tmp(&path);
        let mut server = if path.exists() {
            DbServer::load(&path)?
        } else {
            DbServer::new()
        };
        server.set_default_threads(threads);
        if let Some(cap) = cache_cap {
            server.set_decrypt_cache_cap(cap);
        }
        let journal = Journal::new(&path);
        let replayed = Self::replay_journal(&mut server, &journal);
        let backend = LocalBackend {
            server: RwLock::new(server),
            counters: TransportCounters::default(),
            persist: Some(path),
            journal: Some(journal),
            compaction_threshold,
        };
        if replayed {
            // Fold the replayed intents into a fresh durable snapshot
            // right away (compacting regardless of threshold), so the
            // journal can be dropped and a second crash does not depend
            // on replaying twice. If the snapshot covered them all
            // there is nothing to write, and the journal just goes.
            backend.persist(true)?;
        }
        Ok(backend)
    }

    /// Replay journaled mutation intents into a freshly-loaded server.
    /// Idempotent by construction: an intent the snapshot already
    /// covers fails with [`DbError::UnknownRow`] (row ids collide on
    /// insert, are gone on delete) or re-applies an identical
    /// `InsertTable` — both leave the store exactly where the snapshot
    /// put it. A record is decoded like a frame off the wire and applied
    /// by [`Request::apply`], the code that served it. Returns whether
    /// the journal held any entry (and should be folded into a snapshot,
    /// or dropped if the snapshot covers it).
    fn replay_journal(server: &mut DbServer<E>, journal: &Journal) -> bool {
        let _span = eqjoin_obs::span!("store_journal_replay");
        // Took effect / already covered by the snapshot / left in the
        // file (undecodable, or refused with anything but `UnknownRow`).
        let (mut applied, mut covered, mut skipped) = (0u64, 0u64, 0u64);
        for bytes in journal.entries() {
            match Request::<E>::from_bytes(&bytes).map(|request| request.apply(server)) {
                // Already covered by the snapshot (the crash hit after
                // the flush but before the journal truncate).
                Ok(Response::Error(DbError::UnknownRow { .. })) => covered += 1,
                // Checksum-valid but undecodable (a format drift, not a
                // torn write) or refused by the store: the intent was
                // acknowledged at most as far as the snapshot covers it.
                Ok(Response::Error(e)) | Err(e) => {
                    skipped += 1;
                    eqjoin_obs::info!("journal_entry_skipped", "error" => e);
                }
                Ok(_) => applied += 1,
            }
        }
        journal_entries("applied").add(applied);
        journal_entries("covered").add(covered);
        journal_entries("skipped").add(skipped);
        *journal.replayed.lock().unwrap_or_else(|e| e.into_inner()) = skipped == 0;
        applied + covered + skipped > 0
    }

    /// Read access to the underlying server (tests and experiments peek
    /// at stored ciphertexts). Holds the storage read lock for the
    /// guard's lifetime.
    pub fn server(&self) -> RwLockReadGuard<'_, DbServer<E>> {
        self.server.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Flush the store to the snapshot path if it changed since the
    /// last flush. A failed write re-arms the dirty flag so the next
    /// request retries instead of silently dropping state.
    fn persist_if_dirty(&self) -> Result<(), DbError> {
        self.persist(false)
    }

    /// The persistence decision after a dirtying request.
    ///
    /// With a nonzero [`compaction threshold`](Self::with_persistence),
    /// a sub-threshold journal means the mutation is *already* durable
    /// (append-before-apply, fsynced), so the full snapshot rewrite is
    /// deferred — persisted bytes stay O(delta), not O(store). Crossing
    /// the threshold compacts: one snapshot rewrite covers every
    /// journaled intent and the journal is truncated. `force` (drain,
    /// replay fold-in) always compacts.
    fn persist(&self, force: bool) -> Result<(), DbError> {
        let Some(path) = &self.persist else {
            return Ok(());
        };
        let server = self.server.read().unwrap_or_else(|e| e.into_inner());
        if !force && self.compaction_threshold > 0 {
            let journal_bytes = self.journal.as_ref().map_or(0, Journal::size);
            if journal_bytes < self.compaction_threshold {
                if server.store().is_dirty() {
                    eqjoin_obs::counter!("eqjoin_store_snapshot_deferred_total").inc();
                }
                return Ok(());
            }
        }
        if !server.store().take_dirty() {
            // Nothing to write. A journal the snapshot on disk already
            // covers (the crash hit between flush and truncate) must
            // still go, or every start decodes it again.
            if let (true, Some(journal)) = (force, &self.journal) {
                journal.truncate_if_replayed();
            }
            return Ok(());
        }
        let compaction_timer = eqjoin_obs::span!("store_compaction");
        let flushed = match eqjoin_failpoint::failpoint!("local::flush") {
            None => server.save(path),
            Some(eqjoin_failpoint::Action::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                server.save(path)
            }
            Some(eqjoin_failpoint::Action::Abort) => std::process::abort(),
            Some(_) => Err(DbError::Snapshot(
                "failpoint local::flush: injected error".into(),
            )),
        };
        drop(compaction_timer);
        match flushed {
            Ok(()) => {
                eqjoin_obs::counter!("eqjoin_store_snapshot_flushes_total").inc();
                eqjoin_obs::info!("snapshot_flush", "path" => path.display());
                // A crash in this window (snapshot durable, journal not
                // yet truncated) replays the journal over the *newer*
                // snapshot — idempotent by construction, exercised by
                // the chaos suite.
                match eqjoin_failpoint::failpoint!("store::journal::compact") {
                    None => {}
                    Some(eqjoin_failpoint::Action::Delay(ms)) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    Some(eqjoin_failpoint::Action::Abort) => std::process::abort(),
                    Some(_) => {
                        // Injected truncation failure: state is durable
                        // (snapshot + stale journal replays as a no-op),
                        // so surface the fault without re-arming dirty.
                        return Err(DbError::Snapshot(
                            "failpoint store::journal::compact: injected error".into(),
                        ));
                    }
                }
                // The snapshot now covers every applied intent: the
                // journal is dead weight (and must not replay over a
                // *newer* snapshot than the one it was written against).
                if let Some(journal) = &self.journal {
                    journal.truncate();
                }
                Ok(())
            }
            Err(e) => {
                server.store().mark_dirty_again();
                eprintln!("eqjoin: snapshot flush failed: {e}");
                Err(e)
            }
        }
    }

    /// Force a compacting flush if the store is dirty, and drop a
    /// journal the snapshot already covers (the drain path — after it,
    /// the snapshot alone carries the whole store and a restart is warm
    /// with zero replay).
    pub fn flush(&self) -> Result<(), DbError> {
        self.persist(true)
    }

    /// Journal a mutation's intent before applying it. A failed append
    /// fails the mutation up front — acknowledging a mutation whose
    /// intent is not durable would break the crash-replay guarantee.
    fn journal_intent(&self, mutation: &Request<E>) -> Result<(), DbError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        journal.append(&mutation.to_bytes())?;
        match eqjoin_failpoint::failpoint!("local::journal::after_append") {
            None => Ok(()),
            Some(eqjoin_failpoint::Action::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            Some(eqjoin_failpoint::Action::Abort) => std::process::abort(),
            Some(_) => Err(DbError::Snapshot(
                "failpoint local::journal::after_append: injected error".into(),
            )),
        }
    }

    fn handle_one(&self, request: Request<E>) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::ExecuteJoin {
                tokens,
                options,
                projection,
            } => {
                let server = self.server.read().unwrap_or_else(|e| e.into_inner());
                match server.execute_join_projected(&tokens, &options, &projection) {
                    Ok((result, observation)) => Response::JoinExecuted {
                        result,
                        observation,
                    },
                    Err(e) => Response::Error(e),
                }
            }
            // A drain reaching the backend directly: force a compacting
            // flush — under O(delta) persistence the journal may hold
            // deferred deltas, and the drain contract is "snapshot
            // alone carries the store". (The connection layers own the
            // stop-accepting/finish-in-flight part.)
            Request::Drain => match self.persist(true) {
                Ok(()) => Response::Pong,
                Err(e) => Response::Error(e),
            },
            // Observability snapshot: this backend's own counters (the
            // snapshot includes the Stats request itself — `handle`
            // counts before dispatching) plus the process exposition.
            Request::Stats => Response::Stats(crate::protocol::ServerMetrics {
                transport: self.counters.snapshot(),
                exposition: eqjoin_obs::exposition(),
            }),
            // This backend has exactly one namespace. Serving a tenant
            // envelope here would silently merge tenants' stores, so
            // refuse loudly — multi-tenant serving goes through the
            // tenant registry in `eqjoind-net`.
            Request::WithTenant { .. } => Response::Error(DbError::Protocol(
                "backend has no tenant support (route through a tenant registry)".into(),
            )),
            Request::Batch(_) => Response::Error(DbError::Protocol("nested request batch".into())),
            // What is left are the store mutations: journaled, then
            // applied by the code journal replay runs.
            mutation => match self.journal_intent(&mutation) {
                Ok(()) => {
                    mutation.apply(&mut self.server.write().unwrap_or_else(|e| e.into_inner()))
                }
                Err(e) => Response::Error(e),
            },
        }
    }
}

impl<E: Engine> ServerApi<E> for LocalBackend<E> {
    fn handle(&self, request: Request<E>) -> Response {
        self.counters.record_request(&request);
        // A flush failure after a mutation must not be swallowed — the
        // client would believe an update survived a restart that would
        // in fact lose it. A drain counts too: its whole point is "flush
        // now", so a drain whose flush failed must not be acknowledged.
        let mutation =
            self.persist.is_some() && (request.is_mutation() || matches!(request, Request::Drain));
        let response = match request {
            Request::Batch(requests) => Response::Batch(
                requests
                    .into_iter()
                    .map(|request| self.handle_one(request))
                    .collect(),
            ),
            single => self.handle_one(single),
        };
        match self.persist_if_dirty() {
            Ok(()) => response,
            // A mutation whose snapshot flush failed must not be acked:
            // the in-memory state applied, but the durability the
            // client asked for (--data-dir) did not. Queries keep their
            // results — only cache warmth was at stake, and the dirty
            // flag stays armed for the next attempt.
            Err(e) if mutation => Response::Error(e),
            Err(_) => response,
        }
    }

    fn transport_stats(&self) -> TransportStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DbClient, TableConfig};
    use crate::data::{Schema, Table, Value};
    use crate::encrypted::EncryptedRow;
    use crate::query::JoinQuery;
    use crate::server::JoinOptions;
    use eqjoin_pairing::MockEngine;
    use std::sync::Arc;

    #[test]
    fn one_backend_serves_concurrent_queries() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 7);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        for i in 0..12 {
            t.push_row(vec![Value::Int(i % 4), "x".into()]);
        }
        let enc = client
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["a".into()],
                },
            )
            .unwrap();
        let backend = Arc::new(LocalBackend::<MockEngine>::new());
        backend.handle(Request::InsertTable(enc));
        let tokens = client
            .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
            .unwrap();

        let mut all_pairs = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let backend = Arc::clone(&backend);
                    let tokens = tokens.clone();
                    scope.spawn(move || {
                        match backend.handle(Request::ExecuteJoin {
                            tokens,
                            options: JoinOptions::default(),
                            projection: Default::default(),
                        }) {
                            Response::JoinExecuted { result, .. } => result
                                .pairs
                                .iter()
                                .map(|p| (p.left_row, p.right_row))
                                .collect::<Vec<_>>(),
                            _ => panic!("join failed"),
                        }
                    })
                })
                .collect();
            for h in handles {
                all_pairs.push(h.join().unwrap());
            }
        });
        assert!(all_pairs.windows(2).all(|w| w[0] == w[1]));
        let stats = backend.transport_stats();
        assert_eq!(stats.round_trips, 5, "1 insert + 4 joins");
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.bytes_sent, 0, "in-process: no wire");
    }

    #[test]
    fn failed_snapshot_flush_fails_mutations_but_not_queries() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 9);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        t.push_row(vec![Value::Int(1), "x".into()]);
        let enc = client
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["a".into()],
                },
            )
            .unwrap();
        let tokens = client
            .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
            .unwrap();

        // Snapshot path that is an existing non-empty *directory*: the
        // journal (store.journal) and the staging file (store.tmp)
        // write fine, but the final rename over the directory fails —
        // so every flush fails while intents still journal. A mutation
        // must come back as a Snapshot error (the ack would promise
        // durability --data-dir cannot deliver) …
        let dir = std::env::temp_dir().join(format!("eqjoin-noflush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");
        let backend = LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 0).unwrap();
        // Occupy the snapshot path with a non-empty directory *after*
        // construction: the rename at the end of every save now fails.
        std::fs::create_dir_all(&snap).unwrap();
        std::fs::write(snap.join("occupied"), b"x").unwrap();
        assert!(matches!(
            backend.handle(Request::InsertTable(enc)),
            Response::Error(DbError::Snapshot(_))
        ));
        // …while a query keeps its result: only cache warmth was at
        // stake (the table itself applied in memory above).
        assert!(matches!(
            backend.handle(Request::ExecuteJoin {
                tokens,
                options: JoinOptions::default(),
                projection: Default::default(),
            }),
            Response::JoinExecuted { .. }
        ));
    }

    #[test]
    fn journaled_intents_replay_after_a_crash() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 11);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        for i in 0..6 {
            t.push_row(vec![Value::Int(i % 2), "x".into()]);
        }
        let enc = client
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["a".into()],
                },
            )
            .unwrap();
        let tokens = client
            .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
            .unwrap();

        let dir = std::env::temp_dir().join(format!("eqjoin-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");

        // Simulate a server killed between journaling an InsertTable
        // intent and flushing the snapshot: the journal holds the
        // intent (plus a torn half-record from the moment of death),
        // and no snapshot exists.
        {
            let journal = Journal::new(&snap);
            journal
                .append(&Request::<MockEngine>::InsertTable(enc).to_bytes())
                .unwrap();
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&journal.path)
                .unwrap();
            f.write_all(&[42, 0, 0, 0, 7, 7]).unwrap(); // torn tail
        }

        // Restart: the intent replays, the torn tail is discarded, and
        // the replayed state is folded into a fresh snapshot with the
        // journal truncated.
        let backend = LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 0).unwrap();
        assert!(snap.exists(), "replayed state must be snapshotted");
        assert!(
            !snap.with_extension("journal").exists(),
            "journal must be truncated once the snapshot covers it"
        );
        match backend.handle(Request::ExecuteJoin {
            tokens,
            options: JoinOptions::default(),
            projection: Default::default(),
        }) {
            Response::JoinExecuted { result, .. } => {
                assert!(!result.pairs.is_empty(), "replayed table must join")
            }
            other => panic!("join over replayed table failed: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_threshold_defers_snapshots_until_crossed() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 13);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        for i in 0..4 {
            t.push_row(vec![Value::Int(i % 2), "x".into()]);
        }
        let enc = client
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["a".into()],
                },
            )
            .unwrap();
        let tokens = client
            .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
            .unwrap();

        let dir = std::env::temp_dir().join(format!("eqjoin-odelta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");
        let journal = snap.with_extension("journal");

        // Generous threshold: every mutation below stays sub-threshold,
        // so the fsynced journal is the only durable artifact.
        let backend =
            LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 20).unwrap();
        assert!(matches!(
            backend.handle(Request::InsertTable(enc)),
            Response::TableInserted { .. }
        ));
        assert!(
            journal.exists() && !snap.exists(),
            "sub-threshold mutation must defer the snapshot; the journal is the durable delta"
        );
        let mut last = std::fs::metadata(&journal).unwrap().len();
        for _ in 0..3 {
            let (start_row, rows) = client
                .encrypt_rows("T", &[vec![Value::Int(1), "y".into()]])
                .unwrap();
            assert!(matches!(
                backend.handle(Request::InsertRows {
                    table: "T".into(),
                    start_row,
                    rows,
                }),
                Response::RowsInserted { .. }
            ));
            let size = std::fs::metadata(&journal).unwrap().len();
            assert!(size > last, "each deferred mutation appends O(delta) bytes");
            last = size;
            assert!(!snap.exists(), "snapshot rewrite must stay deferred");
        }

        // A forced flush (the drain path) always compacts: one snapshot
        // rewrite covers every journaled intent, journal truncated.
        backend.flush().unwrap();
        assert!(snap.exists(), "forced flush must compact to a snapshot");
        assert!(!journal.exists(), "compaction must truncate the journal");

        // Post-compaction mutations defer again, leaving the snapshot
        // bytes untouched.
        let snap_bytes = std::fs::read(&snap).unwrap();
        let (start_row, rows) = client
            .encrypt_rows("T", &[vec![Value::Int(0), "z".into()]])
            .unwrap();
        assert!(matches!(
            backend.handle(Request::InsertRows {
                table: "T".into(),
                start_row,
                rows,
            }),
            Response::RowsInserted { .. }
        ));
        assert!(journal.exists(), "new delta journals again");
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            snap_bytes,
            "deferred persistence must not rewrite the snapshot"
        );
        drop(backend);

        // Restart with a pending journal: replay folds the deltas into
        // a fresh snapshot (compacting regardless of threshold) and the
        // full row set joins.
        let reopened =
            LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 20).unwrap();
        assert!(
            !journal.exists(),
            "replay fold-in must compact the journal away"
        );
        match reopened.handle(Request::ExecuteJoin {
            tokens,
            options: JoinOptions::default(),
            projection: Default::default(),
        }) {
            Response::JoinExecuted { result, .. } => {
                // 4 seed rows (2 per key) + 3 × Int(1) + 1 × Int(0):
                // key 0 has 3 rows, key 1 has 5 → 9 + 25 self-join pairs.
                assert_eq!(result.pairs.len(), 34, "replayed deltas must all join");
            }
            other => panic!("join over replayed store failed: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_the_snapshot_already_covers_is_dropped_at_open() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 19);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        for i in 0..4 {
            t.push_row(vec![Value::Int(i % 2), "x".into()]);
        }
        let enc = client
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["a".into()],
                },
            )
            .unwrap();

        let dir = std::env::temp_dir().join(format!("eqjoin-covered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");
        let journal = snap.with_extension("journal");
        let open = || LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 20);

        let backend = open().unwrap();
        backend.handle(Request::InsertTable(enc));
        backend.flush().unwrap();
        // Three deferred deltas: the journal is their only durable copy.
        let (start_row, rows) = client
            .encrypt_rows("T", &[vec![Value::Int(1), "y".into()]])
            .unwrap();
        for request in [
            Request::CopyRows {
                table: "T".into(),
                join_column: "k".into(),
                filter_columns: vec!["a".into()],
                start_row,
                rows: rows.clone(),
            },
            Request::InsertRows {
                table: "T".into(),
                start_row: start_row + 1,
                rows,
            },
            Request::DeleteRows {
                table: "T".into(),
                rows: vec![0],
            },
        ] {
            let response = backend.handle(request);
            assert!(!matches!(response, Response::Error(_)), "{response:?}");
        }
        let pending = std::fs::read(&journal).unwrap();
        // The crash window: the snapshot that covers the deltas is
        // durable, the journal has not been truncated yet.
        backend.flush().unwrap();
        drop(backend);
        assert!(!journal.exists());
        std::fs::write(&journal, &pending).unwrap();
        let covering = std::fs::read(&snap).unwrap();

        let entries = |outcome| {
            eqjoin_obs::registry().counter_value(
                "eqjoin_store_journal_entries_total",
                Some(("outcome", outcome)),
            )
        };
        let covered = entries("covered");
        let reopened = open().unwrap();
        assert!(
            !journal.exists(),
            "every entry replayed as covered: the journal must not be decoded again next start"
        );
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            covering,
            "nothing to rewrite"
        );
        assert_eq!(reopened.server().store().table("T").unwrap().len(), 5);
        // (Other tests of this binary replay journals concurrently.)
        assert!(entries("covered") - covered >= 3);
        drop(reopened);

        // A journal with an entry replay could not apply is kept.
        let mut client2 = DbClient::<MockEngine>::new(1, 2, 23);
        let other = client2
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "a".into(),
                    filter_columns: vec!["k".into()],
                },
            )
            .unwrap();
        Journal::new(&snap)
            .append(
                &Request::<MockEngine>::CopyRows {
                    table: "T".into(),
                    join_column: "a".into(),
                    filter_columns: vec!["k".into()],
                    start_row: 9,
                    rows: other.rows,
                }
                .to_bytes(),
            )
            .unwrap();
        let reopened = open().unwrap();
        reopened.flush().unwrap();
        assert!(journal.exists(), "a skipped entry stays on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replayed_store_equals_the_served_store() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 29);
        let config = |join: &str, filter: &str| TableConfig {
            join_column: join.into(),
            filter_columns: vec![filter.into()],
        };
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        let mut u = Table::new(Schema::new("U", &["k", "b"]));
        for i in 0..4 {
            t.push_row(vec![Value::Int(i % 2), "x".into()]);
            u.push_row(vec![Value::Int(i), "y".into()]);
        }
        let t = client.encrypt_table(&t, config("k", "a")).unwrap();
        let u = client.encrypt_table(&u, config("k", "b")).unwrap();
        let (start_row, rows) = client
            .encrypt_rows("T", &[vec![Value::Int(1), "z".into()]])
            .unwrap();
        let copy = |join_column: &str, start_row: u64, rows: &[EncryptedRow<MockEngine>]| {
            Request::CopyRows {
                table: "U".into(),
                join_column: join_column.into(),
                filter_columns: vec!["b".into()],
                start_row,
                rows: rows.to_vec(),
            }
        };
        let series = || {
            vec![
                Request::InsertTable(t.clone()),
                copy("k", 0, &u.rows[..2]),
                copy("k", 2, &u.rows[2..]),
                Request::InsertRows {
                    table: "T".into(),
                    start_row,
                    rows: rows.clone(),
                },
                Request::DeleteRows {
                    table: "T".into(),
                    rows: vec![0],
                },
                // Refused by the store: an unknown table, and a chunk
                // naming the wrong join column.
                Request::InsertRows {
                    table: "nope".into(),
                    start_row,
                    rows: rows.clone(),
                },
                copy("b", 4, &u.rows[..1]),
            ]
        };

        let dir = std::env::temp_dir().join(format!("eqjoin-replay-eq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");
        let open = || LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 30);
        let (persistent, served) = (open().unwrap(), LocalBackend::<MockEngine>::new());
        for request in series() {
            let (a, b) = (persistent.handle(request.clone()), served.handle(request));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // Dropped without a flush: the journal is the only durable copy.
        drop(persistent);
        assert!(!snap.exists());

        let entries = |outcome| {
            eqjoin_obs::registry().counter_value(
                "eqjoin_store_journal_entries_total",
                Some(("outcome", outcome)),
            )
        };
        let (applied, skipped) = (entries("applied"), entries("skipped"));
        let replayed = open().unwrap();
        assert!(
            replayed.server().store().snapshot_bytes() == served.server().store().snapshot_bytes(),
            "the replayed store differs from the served one"
        );
        // (Other tests of this binary replay journals concurrently.)
        assert!(entries("applied") - applied >= 5);
        assert!(entries("skipped") - skipped >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_crossing_threshold_triggers_compaction() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 17);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        t.push_row(vec![Value::Int(1), "x".into()]);
        let enc = client
            .encrypt_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["a".into()],
                },
            )
            .unwrap();

        let dir = std::env::temp_dir().join(format!("eqjoin-cross-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");
        let journal = snap.with_extension("journal");

        // Small threshold: the InsertTable intent alone crosses it, so
        // the very first persistence decision compacts.
        let backend = LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 32).unwrap();
        assert!(matches!(
            backend.handle(Request::InsertTable(enc)),
            Response::TableInserted { .. }
        ));
        assert!(
            snap.exists() && !journal.exists(),
            "a journal at/past the threshold must compact on the spot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transport_counters_see_batches() {
        let backend = LocalBackend::<MockEngine>::new();
        backend.handle(Request::Ping);
        backend.handle(Request::Batch(vec![
            Request::Ping,
            Request::Ping,
            Request::Ping,
        ]));
        let stats = backend.transport_stats();
        assert_eq!(stats.round_trips, 2);
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn nested_batch_is_a_per_element_error() {
        let backend = LocalBackend::<MockEngine>::new();
        let response = backend.handle(Request::Batch(vec![
            Request::Ping,
            Request::Batch(vec![Request::Ping]),
        ]));
        let Response::Batch(responses) = response else {
            panic!("expected a batch response");
        };
        assert!(matches!(responses[0], Response::Pong));
        assert!(matches!(
            responses[1],
            Response::Error(DbError::Protocol(_))
        ));
    }
}
