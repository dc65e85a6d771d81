//! The in-process backend: a [`DbServer`] behind the protocol, with
//! interior synchronization so one instance can serve many sessions
//! and server worker threads concurrently — optionally **persistent**:
//! give it a snapshot path and every state change (table uploads,
//! incremental row updates, fresh decrypt-cache entries) is made
//! durable, so a restarted server resumes the series warm.
//!
//! # One lock order
//!
//! A persistent backend keeps a snapshot and a journal of mutation
//! intents beside it. When bytes reach either file is decided in one
//! place, under one lock order: the store's `RwLock` first, then the
//! mutex of the private `Disk`. Two guarantees follow.
//!
//! - **Journal order is apply order.** A mutation appends its intent
//!   (fsync included) and applies it in one hold of the write lock, so
//!   no flush can run between a record and the store change it
//!   describes, and two mutations apply in the order they were
//!   journaled. Readers of the backend wait out that fsync.
//! - **One snapshot write at a time.** Every persistence decision — the
//!   one after each request, [`LocalBackend::flush`] / `Drain`, and the
//!   fold-in of a replayed journal at open — holds the read lock and
//!   then the `Disk` mutex. Two saves never overlap, and a journal
//!   truncation only drops records the snapshot just written covers.

use super::transport::TransportCounters;
use crate::error::DbError;
use crate::protocol::{Request, Response, ServerApi};
use crate::server::{DbServer, JoinOptions};
use crate::store::{store_failpoint, store_failpoint_action, EncryptedStore};
use eqjoin_pairing::Engine;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use super::TransportStats;

/// What a persistent backend keeps on disk: the snapshot (`store.snap`)
/// and, beside it, an append-only journal of mutation intents
/// (`store.journal`). Every mutation is appended (length-prefixed,
/// checksummed, fsynced) before it applies in memory, and the journal
/// is truncated once a snapshot flush has made its effects durable. A
/// `kill -9` between those two points leaves the intent on disk; open
/// replays complete records idempotently (a record the snapshot already
/// covers replays as a no-op), so the restarted store is consistent
/// with everything that was ever acknowledged — and a torn final record
/// (the crash happened mid-append, so its request was never
/// acknowledged) is discarded cleanly.
struct Disk {
    snapshot: PathBuf,
    journal: PathBuf,
    /// Length of the journal file: the records appended since the last
    /// truncation (or found at open).
    journal_bytes: u64,
    /// Every record in the journal replayed at open as applied or
    /// already covered, and none was appended since — so a snapshot of
    /// the store as it stands covers the file.
    covered: bool,
    /// O(delta) persistence: while the journal is shorter than this
    /// many bytes, a dirtying request leaves the snapshot alone (the
    /// fsynced journal already makes its mutation durable) and only the
    /// threshold crossing pays a full snapshot rewrite + journal
    /// truncation ("compaction"). `0` rewrites the snapshot after every
    /// dirtying request. Forced flushes (drain, shutdown) always
    /// compact, so a graceful restart starts journal-free and warm.
    threshold: u64,
}

impl Disk {
    fn new(snapshot: PathBuf, threshold: u64) -> Self {
        Disk {
            journal: snapshot.with_extension("journal"),
            snapshot,
            journal_bytes: 0,
            covered: false,
            threshold,
        }
    }

    /// Append one intent record: `len ‖ fnv1a(bytes) ‖ bytes`, fsynced
    /// before returning so an acknowledged mutation's intent survives
    /// any crash after this call. A failed write or fsync cuts the file
    /// back to the records before it: the mutation is refused, so its
    /// record — torn or whole — must neither replay nor strand the
    /// intents appended after it behind unreadable bytes.
    fn append(&mut self, bytes: &[u8]) -> Result<(), DbError> {
        // Byte counts ride the ns-bucketed histogram: the exponential
        // buckets work for any magnitude, and the scrape labels the
        // unit in the metric name.
        eqjoin_obs::histogram!("eqjoin_store_journal_append_bytes").record_ns(bytes.len() as u64);
        self.covered = false;
        let mut record = Vec::with_capacity(bytes.len() + 8);
        record.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a(bytes).to_le_bytes());
        record.extend_from_slice(bytes);
        let path = &self.journal;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| DbError::Snapshot(format!("open journal {}: {e}", path.display())))?;
        let fp = "local::journal::append";
        let written = match eqjoin_failpoint::failpoint!(fp) {
            // A torn append: the head of the record reaches the file,
            // then the write fails.
            Some(eqjoin_failpoint::Action::PartialWrite(n)) => file
                .write_all(record.get(..n).unwrap_or(&record))
                .and(Err(std::io::Error::other(format!(
                    "failpoint {fp}: torn after {n} of {} bytes",
                    record.len()
                )))),
            action => {
                store_failpoint_action(fp, action)?;
                file.write_all(&record).and_then(|()| file.sync_all())
            }
        };
        if let Err(e) = written {
            let mut msg = format!("append journal {}: {e}", path.display());
            if let Err(e) = file.set_len(self.journal_bytes) {
                msg += &format!(
                    "; cutting it back to {} bytes failed: {e}",
                    self.journal_bytes
                );
            }
            return Err(DbError::Snapshot(msg));
        }
        self.journal_bytes += record.len() as u64;
        Ok(())
    }

    /// All complete, checksum-valid records, in append order (the open
    /// path). Parsing stops at the first torn or corrupt record: it and
    /// everything after it were written later and never acknowledged.
    /// The file is cut back to the records before it, so an intent
    /// appended from now on is not stranded behind unreadable bytes.
    /// Only a missing journal reads as empty: one that exists but cannot
    /// be read may hold acknowledged mutations, so the open fails.
    fn read(&mut self) -> Result<Vec<Vec<u8>>, DbError> {
        let bytes = match std::fs::read(&self.journal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                let path = self.journal.display();
                return Err(DbError::Snapshot(format!("read journal {path}: {e}")));
            }
            read => read.unwrap_or_default(),
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
        self.journal_bytes = at as u64;
        if at < bytes.len() {
            journal_entries("torn_tail").inc();
            let path = self.journal.display();
            eqjoin_obs::info!("journal_torn_tail", "path" => path, "at" => at);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&self.journal)
                .and_then(|file| file.set_len(self.journal_bytes))
                .map_err(|e| DbError::Snapshot(format!("cut torn journal {path}: {e}")))?;
        }
        Ok(out)
    }

    /// Drop the journal after its records are covered by a durable
    /// snapshot. Best-effort: a leftover journal only costs an
    /// idempotent (no-op) replay on the next start.
    fn truncate(&mut self) {
        match std::fs::remove_file(&self.journal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {}
            _ => self.journal_bytes = 0,
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
/// Table storage sits behind an `RwLock`: mutations take the write lock,
/// joins share the read lock, so concurrent queries — many sessions
/// over one `Arc<LocalBackend>`, or the `eqjoind` connection threads —
/// execute in parallel. A persistent backend decides its disk writes
/// under the same lock: a mutation journals and applies in one hold of
/// the write lock, and every snapshot write holds the read lock and
/// then a disk mutex, so saves never overlap.
#[derive(Default)]
pub struct LocalBackend<E: Engine> {
    server: RwLock<DbServer<E>>,
    counters: TransportCounters,
    /// Snapshot + journal (persistent backends only). Locked after
    /// `server`, never before.
    disk: Option<Mutex<Disk>>,
}

impl<E: Engine> LocalBackend<E> {
    /// Empty backend.
    pub fn new() -> Self {
        Self::with_config(None, None)
    }

    /// Empty backend with both server settings configured: decrypt
    /// workers and decrypt-cache capacity (`eqjoind --threads
    /// --decrypt-cache-cap`). Every join this backend serves runs on
    /// `threads` workers (`None` or `Some(0)`: one per available core)
    /// — a request names no thread count.
    pub fn with_config(threads: Option<usize>, cache_cap: Option<usize>) -> Self {
        let mut server = DbServer::new();
        server.set_default_threads(threads);
        if let Some(cap) = cache_cap {
            server.set_decrypt_cache_cap(cap);
        }
        LocalBackend {
            server: RwLock::new(server),
            counters: TransportCounters::default(),
            disk: None,
        }
    }

    /// Persistent backend (`eqjoind --data-dir`): loads the snapshot at
    /// `path` if one exists (rejecting corrupt/mismatched snapshots
    /// with a clean error), replays the journal beside it, and keeps
    /// both durable whenever tables, rows or the decrypt cache change.
    /// `threads` and `cache_cap` configure the restored server like the
    /// plain constructors do. `compaction_threshold` (bytes of journal)
    /// arms O(delta) persistence: below it a mutation is durable by its
    /// journal record alone; `0` rewrites the snapshot after every
    /// dirtying request.
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
            DbServer::with_store(EncryptedStore::load(&path)?)
        } else {
            DbServer::new()
        };
        server.set_default_threads(threads);
        if let Some(cap) = cache_cap {
            server.set_decrypt_cache_cap(cap);
        }
        let mut disk = Disk::new(path, compaction_threshold);
        let replayed = Self::replay_journal(&mut server, &mut disk)?;
        let backend = LocalBackend {
            server: RwLock::new(server),
            counters: TransportCounters::default(),
            disk: Some(Mutex::new(disk)),
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
    /// the journal held any record (and should be folded into a
    /// snapshot, or dropped if the snapshot covers it).
    fn replay_journal(server: &mut DbServer<E>, disk: &mut Disk) -> Result<bool, DbError> {
        let _span = eqjoin_obs::span!("store_journal_replay");
        // Took effect / already covered by the snapshot / left in the
        // file (undecodable, or refused with anything but `UnknownRow`).
        let (mut applied, mut covered, mut skipped) = (0u64, 0u64, 0u64);
        for bytes in disk.read()? {
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
        disk.covered = skipped == 0;
        Ok(applied + covered + skipped > 0)
    }

    /// Read access to the underlying server (tests and experiments peek
    /// at stored ciphertexts). Holds the storage read lock for the
    /// guard's lifetime.
    pub fn server(&self) -> RwLockReadGuard<'_, DbServer<E>> {
        self.server.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The persistence decision, taken under the read lock and the
    /// `Disk` mutex.
    ///
    /// A journal shorter than the [compaction
    /// threshold](Self::with_persistence) means every applied mutation
    /// is *already* durable (journaled and fsynced in the hold that
    /// applied it), so the full snapshot rewrite is deferred — persisted
    /// bytes stay O(delta), not O(store). Reaching the threshold
    /// compacts: one snapshot rewrite covers every journaled intent and
    /// the journal is truncated. `force` (drain, replay fold-in) always
    /// compacts. A failed write re-arms the dirty flag so the next
    /// request retries instead of silently dropping state.
    fn persist(&self, force: bool) -> Result<(), DbError> {
        let Some(disk) = &self.disk else {
            return Ok(());
        };
        let server = self.server.read().unwrap_or_else(|e| e.into_inner());
        let mut disk = disk.lock().unwrap_or_else(|e| e.into_inner());
        if !force && disk.journal_bytes < disk.threshold {
            if server.store().is_dirty() {
                eqjoin_obs::counter!("eqjoin_store_snapshot_deferred_total").inc();
            }
            return Ok(());
        }
        if !server.store().take_dirty() {
            // Nothing to write. A journal the snapshot on disk already
            // covers (the crash hit between flush and truncate) must
            // still go, or every start decodes it again.
            if force && disk.covered {
                disk.truncate();
            }
            return Ok(());
        }
        let compaction_timer = eqjoin_obs::span!("store_compaction");
        let flushed =
            store_failpoint("local::flush").and_then(|()| server.store().save(&disk.snapshot));
        drop(compaction_timer);
        if let Err(e) = flushed {
            server.store().mark_dirty();
            eqjoin_obs::counter!("eqjoin_store_snapshot_flush_failures_total").inc();
            eprintln!("eqjoin: snapshot flush failed: {e}");
            return Err(e);
        }
        eqjoin_obs::counter!("eqjoin_store_snapshot_flushes_total").inc();
        eqjoin_obs::info!("snapshot_flush", "path" => disk.snapshot.display());
        // A crash here (snapshot durable, journal not yet truncated)
        // replays the journal over the *newer* snapshot — idempotent by
        // construction, exercised by the chaos suite. An injected
        // failure leaves the same durable state, so it surfaces without
        // re-arming dirty.
        store_failpoint("store::journal::compact")?;
        // The snapshot now covers every applied intent: the journal is
        // dead weight (and must not replay over a *newer* snapshot than
        // the one it was written against).
        disk.truncate();
        Ok(())
    }

    /// Force a compacting flush if the store is dirty, and drop a
    /// journal the snapshot already covers (the drain path — after it,
    /// the snapshot alone carries the whole store and a restart is warm
    /// with zero replay).
    pub fn flush(&self) -> Result<(), DbError> {
        self.persist(true)
    }

    /// Journal a mutation's intent and apply it, in one hold of the
    /// write lock, by the code journal replay runs. A failed append
    /// fails the mutation up front — acknowledging a mutation whose
    /// intent is not durable would break the crash-replay guarantee.
    fn mutate(&self, mutation: Request<E>) -> Response {
        let mut server = self.server.write().unwrap_or_else(|e| e.into_inner());
        if let Some(disk) = &self.disk {
            let journaled = (disk.lock().unwrap_or_else(|e| e.into_inner()))
                .append(&mutation.to_bytes())
                .and_then(|()| store_failpoint("local::journal::after_append"));
            if let Err(e) = journaled {
                return Response::Error(e);
            }
        }
        mutation.apply(&mut server)
    }

    fn handle_one(&self, request: Request<E>) -> Response {
        match request {
            Request::Ping => Response::Pong,
            // A request says what to join; how is this server's choice.
            Request::ExecuteJoin { tokens, projection } => {
                let server = self.server.read().unwrap_or_else(|e| e.into_inner());
                match server.execute_join_projected(&tokens, &JoinOptions::default(), &projection) {
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
            // The process exposition; this backend's own counters stay
            // in-process (`transport_stats`).
            Request::Stats => Response::Stats(eqjoin_obs::exposition()),
            // This backend has exactly one namespace. Serving a tenant
            // envelope here would silently merge tenants' stores, so
            // refuse loudly — multi-tenant serving goes through the
            // tenant registry in `eqjoind-net`.
            Request::WithTenant { .. } => Response::Error(DbError::Protocol(
                "backend has no tenant support (route through a tenant registry)".into(),
            )),
            Request::Batch(_) => Response::Error(DbError::Protocol("nested request batch".into())),
            // What is left are the store mutations.
            mutation => self.mutate(mutation),
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
            self.disk.is_some() && (request.is_mutation() || matches!(request, Request::Drain));
        let response = match request {
            Request::Batch(requests) => Response::Batch(
                requests
                    .into_iter()
                    .map(|request| self.handle_one(request))
                    .collect(),
            ),
            single => self.handle_one(single),
        };
        match self.persist(false) {
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
                            tokens: tokens.into(),
                            projection: Default::default(),
                        }) {
                            Response::JoinExecuted { observation, .. } => observation.pairs(),
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
        let failures = || {
            eqjoin_obs::registry().counter_value("eqjoin_store_snapshot_flush_failures_total", None)
        };
        let failed = failures();
        assert!(matches!(
            backend.handle(Request::InsertTable(enc)),
            Response::Error(DbError::Snapshot(_))
        ));
        assert!(failures() > failed, "a failed flush must be counted");
        // …while a query keeps its result: only cache warmth was at
        // stake (the table itself applied in memory above).
        assert!(matches!(
            backend.handle(Request::ExecuteJoin {
                tokens: tokens.into(),
                projection: Default::default(),
            }),
            Response::JoinExecuted { .. }
        ));
    }

    #[test]
    fn a_reopen_under_a_lower_cache_cap_keeps_no_more_entries() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 13);
        let mut t = Table::new(Schema::new("T", &["k", "a"]));
        for i in 0..4 {
            t.push_row(vec![Value::Int(i % 2), "x".into()]);
        }
        let config = TableConfig {
            join_column: "k".into(),
            filter_columns: vec!["a".into()],
        };
        let enc = client.encrypt_table(&t, config).unwrap();

        let dir = std::env::temp_dir().join(format!("eqjoin-lowercap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");
        {
            // Two joins, each with two fresh sides, saved under the
            // default cap.
            let backend =
                LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 0).unwrap();
            assert!(matches!(
                backend.handle(Request::InsertTable(enc)),
                Response::TableInserted { .. }
            ));
            for _ in 0..2 {
                let tokens = client
                    .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
                    .unwrap();
                assert!(matches!(
                    backend.handle(Request::ExecuteJoin {
                        tokens: tokens.into(),
                        projection: Default::default(),
                    }),
                    Response::JoinExecuted { .. }
                ));
            }
            backend.flush().unwrap();
        }
        let saved = EncryptedStore::<MockEngine>::load(&snap).unwrap();
        assert_eq!(saved.decrypt_cache_len(), 4);

        let backend =
            LocalBackend::<MockEngine>::with_persistence(&snap, None, Some(1), 0).unwrap();
        assert_eq!(backend.server().store().decrypt_cache_len(), 1);
        backend.flush().unwrap();
        let rewritten = EncryptedStore::<MockEngine>::load(&snap).unwrap();
        assert_eq!(rewritten.decrypt_cache_len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
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
            let mut disk = Disk::new(snap.clone(), 0);
            disk.append(&Request::<MockEngine>::InsertTable(enc).to_bytes())
                .unwrap();
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&disk.journal)
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
            tokens: tokens.into(),
            projection: Default::default(),
        }) {
            Response::JoinExecuted { observation, .. } => {
                assert!(!observation.pairs().is_empty(), "replayed table must join")
            }
            other => panic!("join over replayed table failed: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_does_not_strand_later_intents() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 43);
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

        let dir = std::env::temp_dir().join(format!("eqjoin-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("store.snap");
        let open = || LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 20);

        // A crash mid-append left nothing but a torn record.
        std::fs::write(snap.with_extension("journal"), [42, 0, 0, 0, 7, 7]).unwrap();
        let backend = open().unwrap();
        assert!(matches!(
            backend.handle(Request::InsertTable(enc)),
            Response::TableInserted { .. }
        ));
        // Crash again: the journal is the only durable copy of T, and
        // its record must not sit behind the torn bytes.
        drop(backend);
        assert!(
            open().unwrap().server().store().table("T").is_some(),
            "an acknowledged intent appended after a torn tail was lost"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_journal_fails_the_open() {
        let dir = std::env::temp_dir().join(format!("eqjoin-unreadable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = dir.join("store.snap");
        let journal = snap.with_extension("journal");
        // Unreadable (a directory), so it may hold acknowledged intents.
        std::fs::create_dir_all(&journal).unwrap();
        match LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 20) {
            Err(DbError::Snapshot(msg)) => assert!(msg.contains(&journal.display().to_string())),
            Err(e) => panic!("expected a journal error, got {e}"),
            Ok(_) => panic!("an unreadable journal opened as an empty one"),
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
            tokens: tokens.into(),
            projection: Default::default(),
        }) {
            Response::JoinExecuted { observation, .. } => {
                // 4 seed rows (2 per key) + 3 × Int(1) + 1 × Int(0):
                // key 0 has 3 rows, key 1 has 5 → 9 + 25 self-join pairs.
                assert_eq!(
                    observation.pairs().len(),
                    34,
                    "replayed deltas must all join"
                );
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
        Disk::new(snap.clone(), 0)
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
