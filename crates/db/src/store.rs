//! [`EncryptedStore`] — the server's storage core: column-oriented,
//! row-versioned encrypted tables, a fill-on-first-use cache of
//! **prepared pairing state**, a row-granular LRU decrypt cache, and a
//! checksummed snapshot format that lets a restarted server resume a
//! query series *warm*.
//!
//! # Why a store, not a `HashMap`
//!
//! The paper's subject is a **series** of queries against tables
//! encrypted once. Three kinds of state are worth keeping between
//! queries — the last two, with [`EncryptedStore::save`] /
//! [`EncryptedStore::load`], also between server processes:
//!
//! 1. **Prepared pairing state.** A ciphertext element's precomputed
//!    Miller-loop line coefficients ([`Engine::G2Prepared`]) let every
//!    `SJ.Dec` skip the per-step slope inversions. Preparation happens
//!    once per row, **on the first `SJ.Dec` that selects it** — never
//!    at ingest, journal replay or snapshot load — so a row no query
//!    selects costs no CPU, no memory (≈ 144 KB at m = 2, t = 3) and
//!    no snapshot bytes, the first query over untouched rows pays for
//!    them in one batch, and total pairing work is never higher than
//!    preparing at insert. In memory only; dropped with its row.
//!    Preparation is also where a row's elements have their subgroup
//!    membership established (the preparation walk is the subgroup
//!    test; see `TableStore::prepared_rows`): every row — uploaded,
//!    replayed from the journal or loaded from a snapshot — is decoded
//!    with the curve check only, so neither ingest nor a reopen pays
//!    ≈ 1 ms per row for rows no query will pair.
//! 2. **The decrypt cache**, memoizing `SJ.Dec` output per
//!    `(token fingerprint, row)`. Entries are keyed down to the *row
//!    version*, so incremental updates invalidate exactly the touched
//!    rows: after `InsertRows` a repeated query re-decrypts only the
//!    new rows, after `DeleteRows` nothing at all, and untouched
//!    tables stay fully warm. Eviction is true LRU with a configurable
//!    cap.
//! 3. **The tables themselves**, stored column-oriented: per-row
//!    ciphertexts next to per-*column* sealed payload and pre-filter
//!    tag vectors, so the pre-filter scans only the constrained
//!    columns and a payload projection ships straight from the
//!    selected column vectors.
//!
//! Which rows hold prepared state is a function of which rows the
//! server ran `SJ.Dec` on, which it sees anyway; a first touch being
//! slower shows a network observer no more than the decrypt cache's
//! hit/miss gap does. Nothing computed on first use is stored or sent.
//!
//! # Rows, ids and versions
//!
//! Rows are identified by a **stable id** assigned by the client at
//! encryption time (the AEAD associated data of the sealed payloads
//! binds it, so the server cannot renumber). Every inserted row also
//! gets a store-wide monotonically increasing **version**; replacing a
//! table re-versions every row. A cache entry remembers `(id, version)`
//! per memoized row and a lookup accepts only exact matches — this is
//! the entire invalidation story, no epochs or purge walks required.
//!
//! # Snapshot format
//!
//! `save` writes `magic ‖ format version ‖ engine name ‖ body length ‖
//! SHA-256(body) ‖ body`, everything inside length-prefixed. `load`
//! rejects wrong magic, unsupported versions, engine mismatches,
//! truncation, any body corruption (checksum) and any ciphertext
//! element that is non-canonical or off the curve with a clean
//! [`DbError::Snapshot`] — never a panic. (An on-curve element outside
//! the subgroup — an upload or a rewrite under a re-stamped checksum
//! can produce one — loads, and is refused by the first query that
//! selects its row.) A snapshot persists what cannot be recomputed
//! faster than it is read back — ciphertexts, row versions, payloads,
//! tags, memoized `SJ.Dec` outputs — so its bytes are a function of
//! logical state alone, whichever rows are prepared. It leaks nothing
//! beyond the ciphertexts themselves.
//!
//! **Format 2** (written) holds no prepared state. **Format 1** also
//! carried every row's coefficients (≈ 50× the ciphertexts); it is
//! still read, the coefficients skipped undecoded, and the next save
//! writes format 2 — an older build's data directory upgrades in place.

use crate::encrypted::{EncryptedRow, EncryptedTable, SideTokens};
use crate::error::DbError;
use crate::protocol::{Reader, Writer};
use crate::server::{JoinOptions, ServerStats};
use eqjoin_core::{SecureJoin, SjPreparedCiphertext, SjRowCiphertext, SjTableSide};
use eqjoin_pairing::Engine;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default decrypt-cache capacity (entries = query sides), used when
/// neither the store nor the request configures one.
pub const DEFAULT_DECRYPT_CACHE_CAP: usize = 64;

/// Snapshot magic bytes.
const SNAPSHOT_MAGIC: &[u8; 8] = b"EQJSNAP\x01";
/// Snapshot format version this build writes.
const SNAPSHOT_VERSION: u32 = 2;
/// Format 1 also carried every row's coefficients: read (skipped), never written.
const SNAPSHOT_VERSION_WITH_PREPARED: u32 = 1;

/// One row's prepared pairing state: empty until the first `SJ.Dec`
/// that selects the row fills it, dropped with the row. The gauge
/// `eqjoin_store_prepared_rows` counts filled cells: up on fill, down here.
struct PreparedCell<E: Engine>(OnceLock<SjPreparedCiphertext<E>>);

impl<E: Engine> Drop for PreparedCell<E> {
    fn drop(&mut self) {
        if self.0.get().is_some() {
            eqjoin_obs::gauge!("eqjoin_store_prepared_rows").dec();
        }
    }
}

/// One stored table, column-oriented.
pub struct TableStore<E: Engine> {
    name: String,
    join_column: String,
    filter_columns: Vec<String>,
    /// Stable client-assigned row ids, ascending.
    ids: Vec<u64>,
    /// Store-wide row versions (the decrypt cache's invalidation
    /// handle), parallel to `ids`.
    versions: Vec<u64>,
    /// Per-row `SJ.Enc` ciphertexts.
    ciphers: Vec<SjRowCiphertext<E>>,
    /// Per-row prepared pairing state (same order), filled on first use.
    prepared: Vec<PreparedCell<E>>,
    /// Sealed payloads, **column-major**: `payload_columns[c][r]`.
    payload_columns: Vec<Vec<Vec<u8>>>,
    /// Pre-filter tags, column-major per *filter* column (present iff
    /// the client enabled the pre-filter for this table).
    tag_columns: Option<Vec<Vec<[u8; 16]>>>,
}

impl<E: Engine> TableStore<E> {
    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The join column fixed at encryption time.
    pub fn join_column(&self) -> &str {
        &self.join_column
    }

    /// Filter columns in encryption order.
    pub fn filter_columns(&self) -> &[String] {
        &self.filter_columns
    }

    /// Number of sealed payload columns.
    pub fn payload_column_count(&self) -> usize {
        self.payload_columns.len()
    }

    /// Stable row ids, ascending.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Position of a row id (ids are kept sorted).
    fn position_of(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Storage positions surviving the pre-filter — a column-oriented
    /// scan: only the constrained tag columns are touched.
    fn candidate_positions(
        &self,
        prefilter: &[(usize, Vec<[u8; 16]>)],
        use_prefilter: bool,
    ) -> Vec<usize> {
        let tag_columns = match (&self.tag_columns, use_prefilter, prefilter.is_empty()) {
            (Some(cols), true, false) => cols,
            _ => return (0..self.len()).collect(),
        };
        let mut alive = vec![true; self.len()];
        for (col, allowed) in prefilter {
            // A constraint on a column this table carries no tags for
            // cannot pre-filter; it stays a full scan (the cryptographic
            // filter still applies during SJ.Dec).
            if let Some(tags) = tag_columns.get(*col) {
                for (keep, tag) in alive.iter_mut().zip(tags) {
                    if *keep && !allowed.contains(tag) {
                        *keep = false;
                    }
                }
            }
        }
        alive
            .iter()
            .enumerate()
            .filter(|(_, keep)| **keep)
            .map(|(i, _)| i)
            .collect()
    }

    /// The requested payload columns of one row (`None` = all), read
    /// straight out of the column vectors.
    pub fn payloads_of(
        &self,
        pos: usize,
        wanted: Option<&[usize]>,
    ) -> Result<Vec<Vec<u8>>, DbError> {
        let row_at = |col: &Vec<Vec<u8>>| {
            col.get(pos).cloned().ok_or_else(|| {
                DbError::Protocol(format!(
                    "row position {pos} out of range ({} rows stored)",
                    col.len()
                ))
            })
        };
        match wanted {
            None => self.payload_columns.iter().map(row_at).collect(),
            Some(indices) => indices
                .iter()
                .map(|&c| {
                    let col = self.payload_columns.get(c).ok_or_else(|| {
                        DbError::Protocol(format!(
                            "payload projection index {c} out of range ({} columns stored)",
                            self.payload_columns.len()
                        ))
                    })?;
                    row_at(col)
                })
                .collect(),
        }
    }

    /// Append rows (arity-checked against the stored layout).
    fn push_rows(
        &mut self,
        start_row: u64,
        rows: Vec<EncryptedRow<E>>,
        versions: impl Iterator<Item = u64>,
    ) -> Result<usize, DbError> {
        if rows.is_empty() {
            return Ok(0);
        }
        if let Some(&last) = self.ids.last() {
            if start_row <= last {
                return Err(DbError::UnknownRow {
                    table: self.name.clone(),
                    row: start_row,
                });
            }
        }
        if self.ciphers.is_empty() {
            // An empty table has no layout yet; adopt the first row's
            // (`rows` is non-empty — checked at entry).
            if let Some(first) = rows.first() {
                self.payload_columns = vec![Vec::new(); first.payloads.len()];
                self.tag_columns = first.tags.as_ref().map(|t| vec![Vec::new(); t.len()]);
            }
        }
        let n_cols = self.payload_columns.len();
        let n_elems = self.ciphers.first().map(|c| c.elements().len());
        let n_tag_cols = self.tag_columns.as_ref().map(Vec::len);
        for row in &rows {
            if row.payloads.len() != n_cols {
                return Err(DbError::Protocol(format!(
                    "inserted row has {} payload columns, table {} stores {}",
                    row.payloads.len(),
                    self.name,
                    n_cols
                )));
            }
            if let Some(n) = n_elems {
                if row.cipher.elements().len() != n {
                    return Err(DbError::Protocol(format!(
                        "inserted row has {} ciphertext elements, table {} stores {}",
                        row.cipher.elements().len(),
                        self.name,
                        n
                    )));
                }
            }
            if row.tags.as_ref().map(Vec::len) != n_tag_cols {
                return Err(DbError::Protocol(format!(
                    "inserted row's pre-filter tags do not match table {}'s layout",
                    self.name
                )));
            }
        }

        let inserted = rows.len();
        for (i, (row, version)) in rows.into_iter().zip(versions).enumerate() {
            self.ids.push(start_row + i as u64);
            self.versions.push(version);
            self.prepared.push(PreparedCell(OnceLock::new()));
            self.ciphers.push(row.cipher);
            for (col, payload) in self.payload_columns.iter_mut().zip(row.payloads) {
                col.push(payload);
            }
            if let (Some(cols), Some(tags)) = (&mut self.tag_columns, row.tags) {
                for (col, tag) in cols.iter_mut().zip(tags) {
                    col.push(tag);
                }
            }
        }
        Ok(inserted)
    }

    /// Remove rows by id; every id must exist.
    fn remove_rows(&mut self, ids: &[u64]) -> Result<usize, DbError> {
        let mut positions = Vec::with_capacity(ids.len());
        for &id in ids {
            positions.push(self.position_of(id).ok_or_else(|| DbError::UnknownRow {
                table: self.name.clone(),
                row: id,
            })?);
        }
        positions.sort_unstable();
        positions.dedup();
        let mut keep = vec![true; self.len()];
        for &pos in &positions {
            // audit-allow(panic-freedom): position_of() only returns positions < self.len(), which sized `keep`
            keep[pos] = false;
        }
        retain_by_mask(&mut self.ids, &keep);
        retain_by_mask(&mut self.versions, &keep);
        retain_by_mask(&mut self.ciphers, &keep);
        retain_by_mask(&mut self.prepared, &keep);
        for col in &mut self.payload_columns {
            retain_by_mask(col, &keep);
        }
        if let Some(cols) = &mut self.tag_columns {
            for col in cols {
                retain_by_mask(col, &keep);
            }
        }
        Ok(positions.len())
    }

    /// The prepared rows at `positions`, first preparing those no query
    /// selected before in **one** batch call (slope inversions shared
    /// across all their elements). Runs under the read lock queries
    /// hold: first touches may race, and the loser's `set` is dropped —
    /// preparation is a pure function of the ciphertext, so both agree.
    ///
    /// This is the only reader of `ciphers` that leads to a pairing, and
    /// it is where a stored element's subgroup membership is
    /// established: every row — uploaded, replayed or loaded — was
    /// decoded with the curve check only, and the walk that prepares an
    /// element decides the rest (`Engine::g2_prepare_batch_checked`). A
    /// row holding a refused element fails the call with a typed error
    /// naming it, **before any Miller loop of this call runs**; its cell
    /// stays empty, so a retry walks it again and refuses again, and
    /// its neighbours in the batch keep the state the walk gave them.
    fn prepared_rows(&self, positions: &[usize]) -> Result<Vec<&SjPreparedCiphertext<E>>, DbError> {
        let cold: Vec<(usize, &SjRowCiphertext<E>, &PreparedCell<E>)> = positions
            .iter()
            .filter_map(|&pos| Some((pos, self.ciphers.get(pos)?, self.prepared.get(pos)?)))
            .filter(|(_, _, cell)| cell.0.get().is_none())
            .collect();
        if !cold.is_empty() {
            let _span =
                eqjoin_obs::span!("store_prepare", "table" => self.name, "rows" => cold.len());
            let elements: Vec<E::G2> = cold
                .iter()
                .flat_map(|(_, cipher, _)| cipher.elements().iter().cloned())
                .collect();
            eqjoin_obs::counter!("eqjoin_store_prepared_pairings_total").add(elements.len() as u64);
            let mut prepared = E::g2_prepare_batch_checked(&elements).into_iter();
            let mut refused = None;
            for (pos, cipher, cell) in cold {
                let n = cipher.elements().len();
                match prepared.by_ref().take(n).collect::<Option<Vec<_>>>() {
                    Some(row) => {
                        if cell.0.set(SjPreparedCiphertext::from_elements(row)).is_ok() {
                            eqjoin_obs::gauge!("eqjoin_store_prepared_rows").inc();
                        }
                    }
                    None => {
                        eqjoin_obs::counter!("eqjoin_store_stored_elements_refused_total").inc();
                        refused.get_or_insert(pos);
                    }
                }
            }
            if let Some(pos) = refused {
                return Err(DbError::Snapshot(format!(
                    "table {} row {}: a stored ciphertext element is outside the order-r \
                     subgroup (refused by its preparation, before any pairing)",
                    self.name,
                    self.ids.get(pos).copied().unwrap_or_default(),
                )));
            }
        }
        // A position past the table (no caller passes one) yields a
        // short vector, which the merge site's arity check reports.
        Ok(positions
            .iter()
            .filter_map(|&pos| self.prepared.get(pos)?.0.get())
            .collect())
    }
}

/// `vec.retain` driven by a precomputed per-position mask.
fn retain_by_mask<T>(vec: &mut Vec<T>, keep: &[bool]) {
    let mut pos = 0;
    vec.retain(|_| {
        // audit-allow(panic-freedom): every caller passes a mask of exactly vec.len() entries
        let k = keep[pos];
        pos += 1;
        k
    });
}

/// One memoized `SJ.Dec` side: per-row match keys, each valid for the
/// exact row version it was computed against.
struct CacheEntry {
    table: String,
    /// `row id → (row version, match key)`.
    rows: HashMap<u64, (u64, Vec<u8>)>,
    /// LRU recency stamp.
    last_used: u64,
}

/// True-LRU memo of decrypt sides keyed by token fingerprint.
#[derive(Default)]
struct DecryptCache {
    entries: HashMap<[u8; 32], CacheEntry>,
    tick: u64,
}

impl DecryptCache {
    fn touch(&mut self, key: &[u8; 32]) -> Option<&mut CacheEntry> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(entry)
    }

    fn insert(&mut self, key: [u8; 32], entry: CacheEntry, cap: usize) {
        self.entries.insert(key, entry);
        while self.entries.len() > cap.max(1) {
            // True LRU: evict the least recently used entry.
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break; // unreachable: the loop guard keeps the map non-empty
            };
            self.entries.remove(&oldest);
            eqjoin_obs::counter!("eqjoin_store_decrypt_cache_evictions_total").inc();
        }
    }

    fn purge_table(&mut self, table: &str) {
        self.entries.retain(|_, e| e.table != table);
    }
}

/// The server's storage core. See the [module docs](self).
pub struct EncryptedStore<E: Engine> {
    tables: HashMap<String, TableStore<E>>,
    cache: Mutex<DecryptCache>,
    cache_cap: usize,
    next_version: u64,
    /// Set on any state change worth persisting (mutations *and* fresh
    /// cache entries); [`EncryptedStore::take_dirty`] claims it.
    dirty: AtomicBool,
}

impl<E: Engine> Default for EncryptedStore<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Engine> EncryptedStore<E> {
    /// Empty store with the default decrypt-cache cap.
    pub fn new() -> Self {
        EncryptedStore {
            tables: HashMap::new(),
            cache: Mutex::new(DecryptCache::default()),
            cache_cap: DEFAULT_DECRYPT_CACHE_CAP,
            next_version: 0,
            dirty: AtomicBool::new(false),
        }
    }

    /// Set the decrypt-cache capacity (`eqjoind --decrypt-cache-cap`):
    /// what a request that pins none gets, and the most one that pins
    /// a cap gets. Clamped to at least 1.
    pub fn set_decrypt_cache_cap(&mut self, cap: usize) {
        self.cache_cap = cap.max(1);
    }

    /// The configured default decrypt-cache capacity.
    pub fn decrypt_cache_cap(&self) -> usize {
        self.cache_cap
    }

    /// Number of live decrypt-cache entries.
    pub fn decrypt_cache_len(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Stored table names (unordered).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Access one stored table.
    pub fn table(&self, name: &str) -> Option<&TableStore<E>> {
        self.tables.get(name)
    }

    fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Claim the dirty flag (used by persistent backends to decide when
    /// to rewrite the snapshot).
    pub fn take_dirty(&self) -> bool {
        self.dirty.swap(false, Ordering::Relaxed)
    }

    /// Peek at the dirty flag without claiming it — O(delta) backends
    /// that defer a snapshot rewrite must leave it armed for the
    /// eventual compaction.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Re-arm the dirty flag — a persistent backend failed to flush and
    /// wants the next request to retry.
    pub fn mark_dirty_again(&self) {
        self.mark_dirty();
    }

    fn next_versions(&mut self, n: usize) -> std::ops::Range<u64> {
        let start = self.next_version;
        self.next_version += n as u64;
        start..self.next_version
    }

    /// Store a whole encrypted table (replacing any table of the same
    /// name). Every row is re-versioned, so stale cache entries die by
    /// version mismatch; the old table's entries are also dropped
    /// eagerly to free memory. Rows get ids `0..n`. Ragged tables
    /// (rows disagreeing on column arity) are rejected.
    pub fn insert_table(&mut self, table: EncryptedTable<E>) -> Result<(), DbError> {
        let n_rows = table.rows.len();
        let n_cols = table.rows.first().map_or(0, |r| r.payloads.len());
        let tagged = table.rows.first().is_some_and(|r| r.tags.is_some());
        let n_tag_cols = if tagged {
            table.filter_columns.len()
        } else {
            0
        };
        for row in &table.rows {
            let row_tags = row.tags.as_ref().map_or(0, Vec::len);
            if row.payloads.len() != n_cols
                || row.tags.is_some() != tagged
                || row_tags != if tagged { n_tag_cols } else { 0 }
            {
                return Err(DbError::Protocol(format!(
                    "ragged table {:?}: rows disagree on column layout",
                    table.name
                )));
            }
        }

        let mut store = TableStore {
            name: table.name.clone(),
            join_column: table.join_column,
            filter_columns: table.filter_columns,
            ids: Vec::with_capacity(n_rows),
            versions: Vec::with_capacity(n_rows),
            ciphers: Vec::with_capacity(n_rows),
            prepared: Vec::with_capacity(n_rows),
            payload_columns: vec![Vec::with_capacity(n_rows); n_cols],
            tag_columns: tagged.then(|| vec![Vec::with_capacity(n_rows); n_tag_cols]),
        };
        let versions = self.next_versions(n_rows);
        store.push_rows(0, table.rows, versions)?;
        eqjoin_obs::counter!("eqjoin_rows_ingested_total").add(n_rows as u64);
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .purge_table(&store.name);
        self.tables.insert(store.name.clone(), store);
        self.mark_dirty();
        Ok(())
    }

    /// Append encrypted rows to an existing table. Stored rows keep
    /// their versions — and therefore their decrypt-cache entries and
    /// prepared state.
    pub fn insert_rows(
        &mut self,
        table: &str,
        start_row: u64,
        rows: Vec<EncryptedRow<E>>,
    ) -> Result<usize, DbError> {
        let versions = self.next_versions(rows.len());
        let stored = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?;
        let inserted = stored.push_rows(start_row, rows, versions)?;
        eqjoin_obs::counter!("eqjoin_rows_ingested_total").add(inserted as u64);
        self.mark_dirty();
        Ok(inserted)
    }

    /// Apply one COPY-style bulk-load chunk
    /// ([`Request::CopyRows`](crate::Request::CopyRows)).
    ///
    /// The chunk is self-describing: on first contact it *creates* the
    /// table with the chunk's metadata (a zero-row chunk is a pure
    /// "create table" declaration); afterwards it appends, but only if
    /// the chunk's join column and filter columns match what the table
    /// was created with — a loader pointed at the wrong table fails
    /// loudly instead of splicing rows encrypted under a different key
    /// column. A replayed chunk collides on `start_row` and is rejected
    /// by `TableStore::push_rows`, which is what makes journal replay
    /// of a bulk load idempotent. Returns `(rows appended, total rows
    /// now stored)`.
    pub fn copy_rows(
        &mut self,
        table: &str,
        join_column: &str,
        filter_columns: &[String],
        start_row: u64,
        rows: Vec<EncryptedRow<E>>,
    ) -> Result<(usize, u64), DbError> {
        let versions = self.next_versions(rows.len());
        match self.tables.get_mut(table) {
            Some(stored) => {
                if stored.join_column != join_column {
                    return Err(DbError::JoinColumnMismatch {
                        table: table.to_owned(),
                        requested: join_column.to_owned(),
                        encrypted: stored.join_column.clone(),
                    });
                }
                if stored.filter_columns != filter_columns {
                    return Err(DbError::Protocol(format!(
                        "COPY chunk for table {table:?} names filter columns {:?}, \
                         stored table has {:?}",
                        filter_columns, stored.filter_columns
                    )));
                }
                let inserted = stored.push_rows(start_row, rows, versions)?;
                let total = stored.len() as u64;
                eqjoin_obs::counter!("eqjoin_rows_ingested_total").add(inserted as u64);
                self.mark_dirty();
                Ok((inserted, total))
            }
            None => {
                // First chunk: build the table off to the side and only
                // publish it if the rows go in cleanly, so a malformed
                // first chunk leaves no half-created table behind.
                let mut store = TableStore {
                    name: table.to_owned(),
                    join_column: join_column.to_owned(),
                    filter_columns: filter_columns.to_vec(),
                    ids: Vec::new(),
                    versions: Vec::new(),
                    ciphers: Vec::new(),
                    prepared: Vec::new(),
                    payload_columns: Vec::new(),
                    tag_columns: None,
                };
                let inserted = store.push_rows(start_row, rows, versions)?;
                let total = store.len() as u64;
                self.tables.insert(store.name.clone(), store);
                eqjoin_obs::counter!("eqjoin_rows_ingested_total").add(inserted as u64);
                self.mark_dirty();
                Ok((inserted, total))
            }
        }
    }

    /// Delete rows by id. Cache entries for other rows stay valid (a
    /// lookup simply no longer proposes the deleted ids); the dropped
    /// match keys are pruned from the entries to free memory.
    pub fn delete_rows(&mut self, table: &str, ids: &[u64]) -> Result<usize, DbError> {
        let stored = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?;
        let deleted = stored.remove_rows(ids)?;
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        for entry in cache.entries.values_mut() {
            if entry.table == table {
                for id in ids {
                    entry.rows.remove(id);
                }
            }
        }
        drop(cache);
        self.mark_dirty();
        Ok(deleted)
    }

    /// Decrypt one side of a join: `(row id, match key)` for every
    /// candidate row surviving the pre-filter. Rows whose exact version
    /// was already decrypted under this token are served from the
    /// cache; the rest run `SJ.Dec` on prepared ciphertexts (prepared here
    /// on first touch), in parallel chunks, final exponentiation batched.
    ///
    /// The token arrives as received and is validated here
    /// ([`WireToken::checked`](crate::encrypted::WireToken::checked),
    /// curve + subgroup, before the first pairing) **unless the cache
    /// holds an entry for exactly this fingerprint and every candidate
    /// row hits**. That skip is sound: an entry is only ever written
    /// by a pass that had a miss, hence checked these same bytes (or
    /// was read back from a snapshot such a pass wrote, under its
    /// SHA-256); the fingerprint covers every token byte; and with no
    /// miss the token is never used. A miss, a side the cache does not
    /// hold (even one selecting zero rows) and every `decrypt_cache:
    /// false` request are checked.
    pub fn decrypt_side(
        &self,
        side: &SideTokens<E>,
        opts: &JoinOptions,
        threads: usize,
        stats: &mut ServerStats,
    ) -> Result<Vec<(usize, Vec<u8>)>, DbError> {
        let _span = eqjoin_obs::span!("store_sj_dec", "table" => side.table);
        let table = self
            .tables
            .get(&side.table)
            .ok_or_else(|| DbError::UnknownTable(side.table.clone()))?;
        // A token of another arity than the stored rows (every row has
        // the first one's, `push_rows` sees to that) is a well-formed
        // message from a client keyed at other dimensions. The engine
        // asserts equal lengths, so it has to be turned away here.
        if let Some(stored) = table.ciphers.first().map(|c| c.elements().len()) {
            let got = side.token.len();
            if got != stored {
                return Err(DbError::DimensionMismatch {
                    what: format!("join token for table {}", side.table),
                    expected: stored,
                    got,
                });
            }
        }
        let candidates = table.candidate_positions(&side.prefilter, opts.use_prefilter);
        stats.rows_prefiltered_out += table.len() - candidates.len();
        stats.rows_decrypted += candidates.len();

        let key = opts
            .decrypt_cache
            .then(|| side_fingerprint::<E>(side, opts.use_prefilter));

        // Phase 1 — serve what the cache already knows (exact row
        // version match), collect the misses.
        let mut out: Vec<(usize, Option<Vec<u8>>)> = Vec::with_capacity(candidates.len());
        let mut misses: Vec<usize> = Vec::new();
        let mut vouched = false;
        if let Some(key) = &key {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let entry = cache.touch(key).filter(|e| e.table == side.table);
            vouched = entry.is_some();
            for &pos in &candidates {
                // audit-allow(panic-freedom): `pos` comes from candidate_positions(), bounded by table.len() which sizes `ids`
                let id = table.ids[pos];
                // audit-allow(panic-freedom): same bound as `id` above; `versions` is parallel to `ids`
                let version = table.versions[pos];
                match entry
                    .as_ref()
                    .and_then(|e| e.rows.get(&id))
                    .filter(|(v, _)| *v == version)
                {
                    Some((_, match_key)) => {
                        stats.decrypt_cache_hits += 1;
                        out.push((id as usize, Some(match_key.clone())));
                    }
                    None => {
                        misses.push(pos);
                        out.push((id as usize, None));
                    }
                }
            }
        } else {
            misses.extend(&candidates);
            out.extend(
                candidates
                    .iter()
                    // audit-allow(panic-freedom): candidate positions are bounded by table.len() which sizes `ids`
                    .map(|&pos| (table.ids[pos] as usize, None)),
            );
        }

        // Validate once: these bytes are vouched for by the entry a
        // checked pass over them left behind, and only as long as they
        // are not needed — no miss, no pairing, no token.
        let token = if vouched && misses.is_empty() {
            None
        } else {
            eqjoin_obs::counter!("eqjoin_store_token_elements_checked_total")
                .add(side.token.len() as u64);
            Some(side.token.checked()?)
        };

        eqjoin_obs::counter!("eqjoin_store_decrypt_cache_hits_total")
            .add((candidates.len() - misses.len()) as u64);
        eqjoin_obs::counter!("eqjoin_store_decrypt_cache_misses_total").add(misses.len() as u64);

        // Phase 2 — decrypt the misses, preparing rows on first touch.
        let fresh = match &token {
            Some(token) => decrypt_positions(table, token, &misses, threads)?,
            None => Vec::new(),
        };

        // Phase 3 — merge and refresh the cache entry with the side's
        // current candidate set.
        let mut fresh_iter = fresh.into_iter();
        for slot in &mut out {
            if slot.1.is_none() {
                let Some(fresh_key) = fresh_iter.next() else {
                    return Err(DbError::Protocol(
                        "decrypt pass returned fewer keys than cache misses".into(),
                    ));
                };
                slot.1 = Some(fresh_key);
            }
        }
        let out: Vec<(usize, Vec<u8>)> = out
            .into_iter()
            .map(|(id, key)| {
                key.map(|k| (id, k)).ok_or_else(|| {
                    DbError::Protocol("decrypt slot left unfilled after merge".into())
                })
            })
            .collect::<Result<_, _>>()?;

        // A fully-warm side changes nothing: the entry already holds
        // every (id, version, key) this pass produced, and `touch`
        // refreshed its LRU stamp. Rebuilding it — and above all
        // marking the store dirty — would make every warm repeat of a
        // persistent server rewrite the whole snapshot to disk, the
        // exact steady state the cache exists to make cheap. Only a
        // pass with fresh decrypts updates the entry and the flag.
        if let (Some(key), false) = (key, misses.is_empty()) {
            let rows: HashMap<u64, (u64, Vec<u8>)> = candidates
                .iter()
                .zip(&out)
                .map(|(&pos, (_, match_key))| {
                    // audit-allow(panic-freedom): candidate positions are bounded by table.len()
                    (table.ids[pos], (table.versions[pos], match_key.clone()))
                })
                .collect();
            // A request may lower the store's cap, never lift it: the
            // cap is a wire field, and the cache lives in memory and in
            // every snapshot.
            let cap = match opts.decrypt_cache_cap {
                0 => self.cache_cap,
                pinned => pinned.min(self.cache_cap),
            };
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.tick += 1;
            let entry = CacheEntry {
                table: side.table.clone(),
                rows,
                last_used: cache.tick,
            };
            cache.insert(key, entry, cap);
            drop(cache);
            self.mark_dirty();
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Snapshot persistence
    // -----------------------------------------------------------------

    /// Serialize the store's logical state — tables and the decrypt
    /// cache, never prepared pairing state — into the snapshot format.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut body = Writer::default();
        body.u64(self.next_version);
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        body.u64(names.len() as u64);
        for name in names {
            // audit-allow(panic-freedom): `names` are this map's own keys
            let t = &self.tables[name];
            body.str(&t.name);
            body.str(&t.join_column);
            body.put(&t.filter_columns);
            body.u64(t.len() as u64);
            for &id in &t.ids {
                body.u64(id);
            }
            for &version in &t.versions {
                body.u64(version);
            }
            for cipher in &t.ciphers {
                body.put(cipher);
            }
            body.u64(t.payload_columns.len() as u64);
            for col in &t.payload_columns {
                for blob in col {
                    body.bytes(blob);
                }
            }
            match &t.tag_columns {
                None => body.u8(0),
                Some(cols) => {
                    body.u8(1);
                    body.u64(cols.len() as u64);
                    for col in cols {
                        for tag in col {
                            body.out.extend_from_slice(tag);
                        }
                    }
                }
            }
        }

        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        body.u64(cache.tick);
        let mut keys: Vec<&[u8; 32]> = cache.entries.keys().collect();
        keys.sort();
        body.u64(keys.len() as u64);
        for key in keys {
            // audit-allow(panic-freedom): `keys` are this map's own keys
            let entry = &cache.entries[key];
            body.out.extend_from_slice(key);
            body.str(&entry.table);
            body.u64(entry.last_used);
            let mut ids: Vec<&u64> = entry.rows.keys().collect();
            ids.sort();
            body.u64(ids.len() as u64);
            for id in ids {
                // audit-allow(panic-freedom): `ids` are this map's own keys
                let (version, match_key) = &entry.rows[id];
                body.u64(*id);
                body.u64(*version);
                body.bytes(match_key);
            }
        }
        drop(cache);
        let body = body.out;

        let mut out = Writer::default();
        out.out.extend_from_slice(SNAPSHOT_MAGIC);
        out.out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.str(E::NAME);
        out.u64(body.len() as u64);
        out.out.extend_from_slice(&eqjoin_crypto::sha256(&body));
        out.out.extend_from_slice(&body);
        out.out
    }

    /// Parse [`EncryptedStore::snapshot_bytes`] output. Every rejection
    /// is a clean [`DbError::Snapshot`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, DbError> {
        let snap = |msg: &str| DbError::Snapshot(msg.to_owned());
        let mut r = Reader::new(bytes);
        let magic: [u8; 8] = r.array().map_err(|_| snap("truncated header"))?;
        if &magic != SNAPSHOT_MAGIC {
            return Err(snap("bad magic (not an eqjoin store snapshot)"));
        }
        let version = u32::from_le_bytes(r.array().map_err(|_| snap("truncated header"))?);
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_WITH_PREPARED {
            return Err(DbError::Snapshot(format!(
                "unsupported snapshot format version {version} (this build reads \
                 {SNAPSHOT_VERSION_WITH_PREPARED} and {SNAPSHOT_VERSION})"
            )));
        }
        let engine = r.str().map_err(|_| snap("truncated engine name"))?;
        if engine != E::NAME {
            return Err(DbError::Snapshot(format!(
                "snapshot was written by engine {engine:?}, this server runs {:?}",
                E::NAME
            )));
        }
        let body_len = r.u64().map_err(|_| snap("truncated body length"))? as usize;
        let checksum: [u8; 32] = r.array().map_err(|_| snap("truncated checksum"))?;
        let body = r.into_rest();
        if body.len() != body_len {
            return Err(snap("body length mismatch (truncated or padded snapshot)"));
        }
        if eqjoin_crypto::sha256(body) != checksum {
            return Err(snap("checksum mismatch (corrupt snapshot)"));
        }

        Self::parse_body(body, version)
            .map_err(|e| DbError::Snapshot(format!("malformed snapshot body: {e}")))
    }

    /// Decode a snapshot body whose SHA-256 the caller has just
    /// verified. Ciphertext elements are read by the wire's rule:
    /// off-curve or non-canonical bytes are refused here, and an
    /// element's subgroup check is [`TableStore::prepared_rows`]'s,
    /// before its first pairing.
    fn parse_body(body: &[u8], version: u32) -> Result<Self, DbError> {
        let mut reader = Reader::new(body);
        let r = &mut reader;
        let next_version = r.u64()?;
        let n_tables = r.len("tables")?;
        let mut tables = HashMap::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = r.str()?;
            let join_column = r.str()?;
            let filter_columns = r.get()?;
            let n_rows = r.len("rows")?;
            let ids: Vec<u64> = (0..n_rows).map(|_| r.u64()).collect::<Result<_, _>>()?;
            // audit-allow(panic-freedom): windows(2) yields exactly-2-element slices
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(DbError::Protocol("row ids not strictly ascending".into()));
            }
            let versions: Vec<u64> = (0..n_rows).map(|_| r.u64()).collect::<Result<_, _>>()?;
            let ciphers: Vec<SjRowCiphertext<E>> =
                (0..n_rows).map(|_| r.get()).collect::<Result<_, _>>()?;
            if version == SNAPSHOT_VERSION_WITH_PREPARED {
                // Format 1 kept every row's coefficients here: step over
                // the blobs undecoded (recomputing is cheaper than parsing).
                for _ in 0..n_rows {
                    for _ in 0..r.len("prepared elements")? {
                        r.bytes()?;
                    }
                }
            }
            let prepared = (0..n_rows).map(|_| PreparedCell(OnceLock::new())).collect();
            let n_cols = r.len("payload columns")?;
            let mut payload_columns = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let col = (0..n_rows)
                    .map(|_| Ok(r.bytes()?.to_vec()))
                    .collect::<Result<_, DbError>>()?;
                payload_columns.push(col);
            }
            let tag_columns = match r.u8()? {
                0 => None,
                1 => {
                    let n_tag_cols = r.len("tag columns")?;
                    let mut cols = Vec::with_capacity(n_tag_cols);
                    for _ in 0..n_tag_cols {
                        let col = (0..n_rows)
                            .map(|_| r.array::<16>())
                            .collect::<Result<_, _>>()?;
                        cols.push(col);
                    }
                    Some(cols)
                }
                other => return Err(DbError::Protocol(format!("bad tags marker {other}"))),
            };
            tables.insert(
                name.clone(),
                TableStore {
                    name,
                    join_column,
                    filter_columns,
                    ids,
                    versions,
                    ciphers,
                    prepared,
                    payload_columns,
                    tag_columns,
                },
            );
        }

        let mut cache = DecryptCache {
            entries: HashMap::new(),
            tick: r.u64()?,
        };
        let n_entries = r.len("cache entries")?;
        for _ in 0..n_entries {
            let key: [u8; 32] = r.array()?;
            let table = r.str()?;
            let last_used = r.u64()?;
            let n_rows = r.len("cache rows")?;
            let mut rows = HashMap::with_capacity(n_rows);
            for _ in 0..n_rows {
                let id = r.u64()?;
                let version = r.u64()?;
                rows.insert(id, (version, r.bytes()?.to_vec()));
            }
            cache.entries.insert(
                key,
                CacheEntry {
                    table,
                    rows,
                    last_used,
                },
            );
        }

        reader.finish()?;
        Ok(EncryptedStore {
            tables,
            cache: Mutex::new(cache),
            cache_cap: DEFAULT_DECRYPT_CACHE_CAP,
            next_version,
            dirty: AtomicBool::new(false),
        })
    }

    /// Write the snapshot atomically **and durably**: serialize to
    /// `path.tmp`, `sync_all` it, rename over `path`, then fsync the
    /// parent directory so the rename itself survives a power cut (on
    /// some filesystems a rename without a directory fsync can be lost,
    /// resurrecting the old snapshot — or on a fresh save, no snapshot
    /// at all).
    pub fn save(&self, path: &Path) -> Result<(), DbError> {
        let _span = eqjoin_obs::span!("store_snapshot_save");
        let bytes = self.snapshot_bytes();
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| DbError::Snapshot(format!("create {}: {e}", tmp.display())))?;
        std::io::Write::write_all(&mut file, &bytes)
            .map_err(|e| DbError::Snapshot(format!("write {}: {e}", tmp.display())))?;
        file.sync_all()
            .map_err(|e| DbError::Snapshot(format!("fsync {}: {e}", tmp.display())))?;
        store_failpoint("store::save::after_tmp_write")?;
        std::fs::rename(&tmp, path)
            .map_err(|e| DbError::Snapshot(format!("rename to {}: {e}", path.display())))?;
        store_failpoint("store::save::after_rename")?;
        sync_parent_dir(path)
    }

    /// Load a snapshot written by [`EncryptedStore::save`], sweeping
    /// any stale `path.tmp` a crash mid-save left behind (it is at best
    /// a complete copy of what `path` already holds, at worst a torn
    /// write — never the only copy of anything).
    pub fn load(path: &Path) -> Result<Self, DbError> {
        let _span = eqjoin_obs::span!("store_snapshot_load");
        sweep_stale_tmp(path);
        store_failpoint("store::load")?;
        let bytes = std::fs::read(path)
            .map_err(|e| DbError::Snapshot(format!("read {}: {e}", path.display())))?;
        Self::from_snapshot_bytes(&bytes)
    }
}

/// Remove a stale `path.tmp` left by a crash between serialization and
/// rename. Best-effort: a failure to remove only resurfaces on the
/// next save.
pub(crate) fn sweep_stale_tmp(path: &Path) {
    let tmp = path.with_extension("tmp");
    if tmp.exists() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Fsync the directory containing `path`, making a just-completed
/// rename durable. A missing parent (relative path with no directory
/// component) falls back to `.`.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), DbError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = std::fs::File::open(parent)
        .map_err(|e| DbError::Snapshot(format!("open dir {}: {e}", parent.display())))?;
    dir.sync_all()
        .map_err(|e| DbError::Snapshot(format!("fsync dir {}: {e}", parent.display())))
}

/// Evaluate a failpoint planted at one exact position in the save/load
/// protocol: `delay` stalls there, `abort` kills the process in its
/// tracks — a crash at exactly this point — and any failure action
/// (`return-error`, or the I/O-only `partial-write`/`drop-conn`)
/// surfaces as a typed [`DbError::Snapshot`].
fn store_failpoint(name: &str) -> Result<(), DbError> {
    match eqjoin_failpoint::failpoint!(name) {
        None => Ok(()),
        Some(eqjoin_failpoint::Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(eqjoin_failpoint::Action::Abort) => std::process::abort(),
        Some(_) => Err(DbError::Snapshot(format!(
            "failpoint {name}: injected error"
        ))),
    }
}

/// Decrypt the given storage positions — chunked across scoped threads,
/// each chunk preparing its cold rows in one batch and sharing one batched
/// final exponentiation via [`SecureJoin::decrypt_prepared_many`]. A
/// chunk whose preparation refuses a stored element fails the pass.
fn decrypt_positions<E: Engine>(
    table: &TableStore<E>,
    token: &eqjoin_core::SjToken<E>,
    positions: &[usize],
    threads: usize,
) -> Result<Vec<Vec<u8>>, DbError> {
    let decrypt_chunk = |chunk: &[usize]| -> Result<Vec<Vec<u8>>, DbError> {
        let rows = table.prepared_rows(chunk)?;
        Ok(SecureJoin::<E>::decrypt_prepared_many(token, &rows)
            .iter()
            .map(SecureJoin::<E>::match_key)
            .collect())
    };
    if threads <= 1 || positions.len() < 2 {
        return decrypt_chunk(positions);
    }
    let chunk_size = positions.len().div_ceil(threads);
    let mut results: Vec<Result<Vec<Vec<u8>>, DbError>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = positions
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || decrypt_chunk(chunk)))
            .collect();
        for h in handles {
            // A panicked worker contributes no keys; the arity check at
            // the merge site surfaces that as a typed protocol error.
            results.push(h.join().unwrap_or_else(|_| Ok(Vec::new())));
        }
    });
    let chunks: Vec<Vec<Vec<u8>>> = results.into_iter().collect::<Result<_, _>>()?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Collision-resistant fingerprint of one side's decrypt inputs: the
/// token elements as received, the target table, the pre-filter
/// constraint sets and whether the pre-filter applies. Byte-identical
/// fingerprints decrypt to byte-identical outputs, which is what makes
/// the memoization sound — and, the engines' decoding being canonical
/// (one encoding per element), hashing the received bytes gives the
/// digest that hashing the decoded elements' encodings gave.
pub(crate) fn side_fingerprint<E: Engine>(side: &SideTokens<E>, use_prefilter: bool) -> [u8; 32] {
    let mut h = eqjoin_crypto::Sha256::new();
    h.update(b"eqjoin-decrypt-cache-v1\0");
    h.update(&(side.table.len() as u64).to_le_bytes());
    h.update(side.table.as_bytes());
    h.update(&[
        use_prefilter as u8,
        matches!(side.token.side(), SjTableSide::A) as u8,
    ]);
    h.update(&(side.token.len() as u64).to_le_bytes());
    for bytes in side.token.elements() {
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    }
    h.update(&(side.prefilter.len() as u64).to_le_bytes());
    for (col, allowed) in &side.prefilter {
        h.update(&(*col as u64).to_le_bytes());
        h.update(&(allowed.len() as u64).to_le_bytes());
        for tag in allowed {
            h.update(tag);
        }
    }
    h.finalize()
}
