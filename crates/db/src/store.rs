//! [`EncryptedStore`] — the server's storage core: column-oriented,
//! row-versioned encrypted tables, a fill-on-first-use cache of
//! **prepared pairing state**, a row-granular decrypt cache that evicts
//! what is cheapest to recompute, and a checksummed snapshot format
//! that lets a restarted server resume a query series *warm*.
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
//!    tables stay fully warm. The cache holds a configurable number of
//!    entries; on overflow it evicts the side that is cheapest to lose,
//!    the smallest `uses × rows` (lookups that found it, halved every
//!    `10 × cap` lookups, times the `SJ.Dec` a repeat would redo), ties
//!    to the least recently used. An entry's key, the *fingerprint*, is
//!    the SHA-256 of the side's preimage (token bytes as received,
//!    table, pre-filter); the cache also remembers each preimage it
//!    has hashed and holds an entry for, so a repeated side finds its
//!    fingerprint by exact byte equality and a warm repeat runs no
//!    SHA-256. That lookup hashes a fixed window, the preimage's length
//!    and last 32 bytes, and compares whole preimages (see
//!    `PreimageWindow`). The memo is bounded by the cap (one preimage
//!    per entry, ≈ 0.7 KB at m = 2, t = 3), pruned with the entries and
//!    never persisted. An entry keeps its rows as one run of `(row id,
//!    row version, match key)` sorted by id, the order a table yields
//!    its candidates in, so a side's lookup walks the two runs side by
//!    side, with no per-row map probe or allocation. Once a pass finds
//!    that run to be exactly the side's candidates, it stamps the entry
//!    with the table's *generation* (an in-memory number every change
//!    to the table's rows draws anew); while the stamp holds, a repeat
//!    is served the run without scanning the table at all, so a fully
//!    warm side costs its matched-candidate count, not its table's
//!    size.
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
//! Rows enter a table through `TableStore::push_rows` only, whichever
//! request carries them (`InsertTable`, `InsertRows`, `CopyRows`). It
//! checks the whole batch against the table's layout — ids past the
//! last stored one and inside `u64`, one payload per column, one
//! ciphertext element count, and one pre-filter tag per filter column
//! (or none at all); an empty table takes its layout from the first
//! row — and only then draws versions, so a refused mutation leaves the
//! store, its version counter included, exactly as it was.
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
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default decrypt-cache capacity (entries = query sides), used until
/// the server configures its own (`eqjoind --decrypt-cache-cap`).
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

/// One stored table, column-oriented: vectors parallel by storage
/// position, grown only by `push_rows`.
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
    /// This row set's stamp, drawn anew ([`next_generation`]) whenever
    /// rows enter or leave. In memory only.
    generation: u64,
}

/// Table generations: each row set a table holds in this process gets
/// a number no other gets, from 1 (0 stamps no decrypt-cache entry).
static GENERATIONS: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed)
}

impl<E: Engine> TableStore<E> {
    /// An empty table; its first rows fix the rest of the layout.
    fn new(name: String, join_column: String, filter_columns: Vec<String>) -> Self {
        TableStore {
            name,
            join_column,
            filter_columns,
            ids: Vec::new(),
            versions: Vec::new(),
            ciphers: Vec::new(),
            prepared: Vec::new(),
            payload_columns: Vec::new(),
            tag_columns: None,
            generation: next_generation(),
        }
    }

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

    /// Stable row ids, ascending.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Position of a row id (ids are kept sorted).
    fn position_of(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// `(storage position, row id, row version)` of every row surviving
    /// the pre-filter — a column-oriented scan: only the constrained
    /// tag columns are touched.
    fn candidates(
        &self,
        prefilter: &[(usize, Vec<[u8; 16]>)],
        use_prefilter: bool,
    ) -> Vec<(usize, u64, u64)> {
        let rows = self
            .ids
            .iter()
            .zip(&self.versions)
            .enumerate()
            .map(|(pos, (&id, &version))| (pos, id, version));
        let tag_columns = match (&self.tag_columns, use_prefilter, prefilter.is_empty()) {
            (Some(cols), true, false) => cols,
            _ => return rows.collect(),
        };
        // A constraint on a column this table carries no tags for cannot
        // pre-filter; it stays a full scan (the cryptographic filter
        // still applies during SJ.Dec).
        let allowed_at = |pos: usize| {
            prefilter.iter().all(|(col, allowed)| {
                tag_columns
                    .get(*col)
                    .and_then(|tags| tags.get(pos))
                    .is_none_or(|tag| allowed.contains(tag))
            })
        };
        let mut out = Vec::with_capacity(self.len());
        out.extend(rows.filter(|&(pos, _, _)| allowed_at(pos)));
        out
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

    /// The one way rows enter a table (see the module docs): `rows`
    /// get ids from `start_row` on and, once the whole batch fits the
    /// layout, versions from `next_version`.
    fn push_rows(
        &mut self,
        start_row: u64,
        rows: Vec<EncryptedRow<E>>,
        next_version: &mut u64,
    ) -> Result<usize, DbError> {
        let Some(first) = rows.first() else {
            return Ok(0);
        };
        if self.ids.last().is_some_and(|&last| start_row <= last) {
            return Err(DbError::UnknownRow {
                table: self.name.clone(),
                row: start_row,
            });
        }
        if start_row.checked_add(rows.len() as u64).is_none() {
            return Err(DbError::Protocol(format!(
                "{} rows from id {start_row} overflow the row id space",
                rows.len()
            )));
        }
        // An empty table has no layout yet: it takes the first row's,
        // once the whole batch agrees with it.
        let empty = self.ciphers.is_empty();
        let (n_cols, n_tag_cols) = if empty {
            let n_tags = first.tags.as_ref().map(|_| self.filter_columns.len());
            (first.payloads.len(), n_tags)
        } else {
            (
                self.payload_columns.len(),
                self.tag_columns.as_ref().map(Vec::len),
            )
        };
        let n_elems = self
            .ciphers
            .first()
            .unwrap_or(&first.cipher)
            .elements()
            .len();
        for row in &rows {
            if row.payloads.len() != n_cols {
                return Err(DbError::Protocol(format!(
                    "inserted row has {} payload columns, table {} stores {}",
                    row.payloads.len(),
                    self.name,
                    n_cols
                )));
            }
            if row.cipher.elements().len() != n_elems {
                return Err(DbError::Protocol(format!(
                    "inserted row has {} ciphertext elements, table {} stores {}",
                    row.cipher.elements().len(),
                    self.name,
                    n_elems
                )));
            }
            if row.tags.as_ref().map(Vec::len) != n_tag_cols {
                return Err(DbError::Protocol(format!(
                    "inserted row's pre-filter tags do not match table {}'s layout \
                     (one tag per filter column, {} filter columns)",
                    self.name,
                    self.filter_columns.len()
                )));
            }
        }

        if empty {
            self.payload_columns = vec![Vec::new(); n_cols];
            self.tag_columns = n_tag_cols.map(|n| vec![Vec::new(); n]);
        }
        let inserted = rows.len();
        for (id, row) in (start_row..).zip(rows) {
            self.ids.push(id);
            self.versions.push(*next_version);
            *next_version += 1;
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
        self.generation = next_generation();
        eqjoin_obs::counter!("eqjoin_rows_ingested_total").add(inserted as u64);
        Ok(inserted)
    }

    /// Remove rows by id; every id must exist. Returns the distinct ids
    /// that went, ascending.
    fn remove_rows(&mut self, ids: &[u64]) -> Result<Vec<u64>, DbError> {
        if let Some(&id) = ids.iter().find(|&&id| self.position_of(id).is_none()) {
            return Err(DbError::UnknownRow {
                table: self.name.clone(),
                row: id,
            });
        }
        let mut doomed = ids.to_vec();
        doomed.sort_unstable();
        doomed.dedup();
        let keep: Vec<bool> = self
            .ids
            .iter()
            .map(|id| doomed.binary_search(id).is_err())
            .collect();
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
        self.generation = next_generation();
        Ok(doomed)
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

/// `vec.retain` driven by a precomputed per-position mask (an element
/// past the mask's end is kept; every caller passes one per element).
fn retain_by_mask<T>(vec: &mut Vec<T>, keep: &[bool]) {
    let mut keep = keep.iter();
    vec.retain(|_| keep.next().copied().unwrap_or(true));
}

/// Lookups per cached entry between two halvings of every entry's
/// use count: TinyLFU's reset period (Einziger et al., *TinyLFU*,
/// 2017), so popularity that stops is forgotten.
const AGING_LOOKUPS_PER_ENTRY: u64 = 10;

/// One row's `SJ.Dec` output as the match phase compares it. The
/// decrypt cache and every pass it serves share one copy of the bytes.
pub type MatchKey = Arc<[u8]>;

/// One memoized `SJ.Dec` side: per-row match keys, each valid for the
/// exact row version it was computed against.
struct CacheEntry {
    table: String,
    /// `(row id, row version, match key)`, strictly ascending by id — the
    /// order a table's candidates come in, so a lookup walks the two
    /// runs side by side. A key is shared: a hit hands out the entry's
    /// own bytes, never a copy of them.
    rows: Vec<(u64, u64, MatchKey)>,
    /// The table generation at which `rows` were exactly the side's
    /// candidates, every one current; 0 when not known (an entry read
    /// from a snapshot). While the table keeps that generation, a
    /// lookup serves `rows` without scanning the table.
    generation: u64,
    /// Recency stamp: of two entries that cost the same to lose, the
    /// one used less recently goes.
    last_used: u64,
    /// Lookups that found this entry, plus one for its insertion;
    /// halved every aging window. In memory only: a loaded entry
    /// starts at 1, and the snapshot never carries it.
    uses: u64,
}

impl CacheEntry {
    /// Eviction order, smallest first: the `SJ.Dec` a repeat would redo
    /// (one per row) times how often the side came back, then recency.
    fn keep_priority(&self) -> (u64, u64) {
        let rows = self.rows.len().max(1) as u64;
        (self.uses.saturating_mul(rows), self.last_used)
    }
}

/// How many trailing bytes of a side preimage `DecryptCache::known`
/// hashes (after the preimage's length).
const PREIMAGE_WINDOW: usize = 32;

/// `DecryptCache::known`'s hasher: std's keyed SipHash over a side
/// preimage's length and its last [`PREIMAGE_WINDOW`] bytes, where the
/// whole ≈ 0.7 KB preimage would cost a warm side more than the rest
/// of its lookup. A preimage without a pre-filter ends in token bytes,
/// which the engines' canonical encodings spread uniformly; sides whose
/// preimages end in the same pre-filter tags share a bucket. Either
/// way the map compares whole preimages, so a shared window costs a
/// compare, never a wrong fingerprint, and since `known` holds one
/// preimage per cached side, a crafted pile-up in one bucket costs at
/// most the cache cap's number of whole compares.
///
/// `[u8]`'s `Hash` writes its length and then the whole slice in one
/// `write` call, so the window is cut in `write`; a `Box<[u8]>` key and
/// the `&[u8]` a lookup borrows hash alike.
#[derive(Default)]
struct PreimageWindow(RandomState);

impl BuildHasher for PreimageWindow {
    type Hasher = WindowHasher;

    fn build_hasher(&self) -> WindowHasher {
        WindowHasher(self.0.build_hasher())
    }
}

/// The [`PreimageWindow`] hasher: passes on each written byte string's
/// last [`PREIMAGE_WINDOW`] bytes (all of a length prefix).
struct WindowHasher(DefaultHasher);

impl Hasher for WindowHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0
            .write(bytes.rchunks(PREIMAGE_WINDOW).next().unwrap_or_default());
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Memo of decrypt sides keyed by token fingerprint, and a memo of the
/// fingerprints themselves. On overflow it evicts the entry that is
/// cheapest to lose: the smallest `uses × rows`, ties to the least
/// recently used.
#[derive(Default)]
struct DecryptCache {
    entries: HashMap<[u8; 32], CacheEntry>,
    /// `side_preimage → fingerprint` for the sides this process has
    /// seen: a repeat finds its fingerprint by exact byte equality and
    /// runs no SHA-256 (hashed on a window, see [`PreimageWindow`]).
    /// Every value is a key of `entries` (eviction and purges prune the
    /// rest), so it holds at most one preimage per entry. In memory
    /// only: query tokens never reach disk.
    known: HashMap<Box<[u8]>, [u8; 32], PreimageWindow>,
    /// SHA-256 runs over side preimages — what `known` saves.
    digests: u64,
    tick: u64,
    /// Lookups since this process opened the cache (the aging clock).
    lookups: u64,
}

impl DecryptCache {
    /// The fingerprint of a side preimage: remembered if these exact
    /// bytes were hashed before, else their SHA-256 — remembered at once
    /// when it names an entry (one read back from a snapshot), and by
    /// `insert` when a pass adds one.
    fn fingerprint(&mut self, preimage: &[u8]) -> [u8; 32] {
        if let Some(key) = self.known.get(preimage) {
            return *key;
        }
        self.digests += 1;
        let key = eqjoin_crypto::sha256(preimage);
        if self.entries.contains_key(&key) {
            self.known.insert(preimage.into(), key);
        }
        key
    }

    /// One lookup: advance the clocks (halving every entry's use count
    /// once per `AGING_LOOKUPS_PER_ENTRY × cap` lookups), then count a
    /// use of the entry if there is one.
    fn touch(&mut self, key: &[u8; 32], cap: usize) -> Option<&mut CacheEntry> {
        self.tick += 1;
        self.lookups += 1;
        let window = AGING_LOOKUPS_PER_ENTRY.saturating_mul(cap.max(1) as u64);
        if self.lookups.is_multiple_of(window) {
            for entry in self.entries.values_mut() {
                entry.uses /= 2;
            }
        }
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        entry.uses += 1;
        Some(entry)
    }

    /// A lookup of a side whose entry is stamped with its table's
    /// current `generation`: the entry's rows, all hits, counted as one
    /// use — or `None`, counting nothing, for the caller's full lookup.
    fn unchanged(
        &mut self,
        key: &[u8; 32],
        table: &str,
        generation: u64,
        cap: usize,
    ) -> Option<Vec<(usize, MatchKey)>> {
        self.entries
            .get(key)
            .filter(|e| e.table == table && e.generation == generation)?;
        let entry = self.touch(key, cap)?;
        Some(
            entry
                .rows
                .iter()
                .map(|(id, _, match_key)| (*id as usize, Arc::clone(match_key)))
                .collect(),
        )
    }

    /// Store `entry` under `key`, then evict down to `cap`. A refresh
    /// of an existing key is the same side, so it keeps its use count.
    fn insert(&mut self, preimage: Box<[u8]>, key: [u8; 32], mut entry: CacheEntry, cap: usize) {
        if let Some(old) = self.entries.get(&key) {
            entry.uses = old.uses;
        }
        self.entries.insert(key, entry);
        self.known.insert(preimage, key);
        self.evict_to(cap, Some(key));
    }

    /// Evict the entries cheapest to lose until at most `cap` remain,
    /// never `keep`. Returns whether anything went.
    fn evict_to(&mut self, cap: usize, keep: Option<[u8; 32]>) -> bool {
        let before = self.entries.len();
        while self.entries.len() > cap.max(1) {
            let Some(victim) = self
                .entries
                .iter()
                .filter(|(key, _)| Some(**key) != keep)
                .min_by_key(|(_, e)| e.keep_priority())
                .map(|(key, _)| *key)
            else {
                break; // unreachable: cap ≥ 1 leaves an entry besides `keep`
            };
            if let Some(gone) = self.entries.remove(&victim) {
                eqjoin_obs::counter!("eqjoin_store_decrypt_cache_evictions_total").inc();
                eqjoin_obs::counter!("eqjoin_store_decrypt_cache_rows_evicted_total")
                    .add(gone.rows.len() as u64);
            }
        }
        self.forget_dropped();
        self.entries.len() < before
    }

    fn purge_table(&mut self, table: &str) {
        self.entries.retain(|_, e| e.table != table);
        self.forget_dropped();
    }

    /// Drop the memoized fingerprints whose entry is gone.
    fn forget_dropped(&mut self) {
        self.known.retain(|_, key| self.entries.contains_key(key));
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

    /// Set the decrypt-cache capacity (`eqjoind --decrypt-cache-cap`),
    /// the one cap every request is served under, clamped to at least
    /// one entry. Takes effect at once: a cache holding more entries (a
    /// snapshot saved under a larger cap) is evicted down to it, and the
    /// store is marked dirty so the next snapshot holds no more either.
    pub fn set_decrypt_cache_cap(&mut self, cap: usize) {
        self.cache_cap = cap.max(1);
        let cache = self.cache.get_mut().unwrap_or_else(|e| e.into_inner());
        if cache.evict_to(self.cache_cap, None) {
            self.mark_dirty();
        }
    }

    /// The configured decrypt-cache capacity.
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

    /// Arm the dirty flag: the next persistence decision rewrites the
    /// snapshot (a persistent backend whose flush failed re-arms it).
    pub fn mark_dirty(&self) {
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

    /// Store a whole encrypted table (replacing any table of the same
    /// name). Every row is re-versioned, so stale cache entries die by
    /// version mismatch; the old table's entries are also dropped
    /// eagerly to free memory. Rows get ids `0..n`. A table whose rows
    /// disagree with the first one's layout — payload columns,
    /// ciphertext elements, or tags other than one per filter column —
    /// is refused, and the stored one stays.
    pub fn insert_table(&mut self, table: EncryptedTable<E>) -> Result<(), DbError> {
        let mut store = TableStore::new(table.name, table.join_column, table.filter_columns);
        store.push_rows(0, table.rows, &mut self.next_version)?;
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
        self.grow(table, None, start_row, rows)
            .map(|(inserted, _)| inserted)
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
    /// column. Rows are checked as every upload's are (one tag per
    /// filter column included). A replayed chunk collides on
    /// `start_row` and is refused, which is what makes journal replay
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
        self.grow(table, Some((join_column, filter_columns)), start_row, rows)
    }

    /// Append `rows` to `table`. With a `layout` (a COPY chunk) a
    /// missing table is created with it — and published only once its
    /// rows are in, so a refused first chunk leaves no half-created
    /// table behind — and an existing one must match it. Returns
    /// `(rows appended, total rows now stored)`.
    fn grow(
        &mut self,
        table: &str,
        layout: Option<(&str, &[String])>,
        start_row: u64,
        rows: Vec<EncryptedRow<E>>,
    ) -> Result<(usize, u64), DbError> {
        let mut created = None;
        let stored = match (self.tables.get_mut(table), layout) {
            (Some(stored), Some((join_column, filter_columns))) => {
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
                stored
            }
            (Some(stored), None) => stored,
            (None, Some((join_column, filter_columns))) => created.insert(TableStore::new(
                table.to_owned(),
                join_column.to_owned(),
                filter_columns.to_vec(),
            )),
            (None, None) => return Err(DbError::UnknownTable(table.to_owned())),
        };
        let inserted = stored.push_rows(start_row, rows, &mut self.next_version)?;
        let total = stored.len() as u64;
        if let Some(store) = created {
            self.tables.insert(store.name.clone(), store);
        }
        self.mark_dirty();
        Ok((inserted, total))
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
                entry
                    .rows
                    .retain(|(id, _, _)| deleted.binary_search(id).is_err());
            }
        }
        drop(cache);
        self.mark_dirty();
        Ok(deleted.len())
    }

    /// Decrypt one side of a join: `(row id, match key)` for every
    /// candidate row surviving the pre-filter. Rows whose exact version
    /// was already decrypted under this token are served from the
    /// cache; the rest run `SJ.Dec` on prepared ciphertexts (prepared here
    /// on first touch), in parallel chunks, final exponentiation batched.
    /// A side whose entry is stamped with the table's current generation
    /// is served from the entry without scanning the table: a pass
    /// stamps the entry it writes, or one whose rows every candidate
    /// hit and which holds no other row, and every change to the
    /// table's rows draws a new generation.
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
    /// false` request are checked. A fingerprint found in the memo
    /// instead of recomputed vouches just as much: the memo maps
    /// exactly these bytes to the SHA-256 an earlier pass computed over
    /// them, and holds only fingerprints the cache has an entry for.
    pub fn decrypt_side(
        &self,
        side: &SideTokens<E>,
        opts: &JoinOptions,
        threads: usize,
        stats: &mut ServerStats,
    ) -> Result<Vec<(usize, MatchKey)>, DbError> {
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
        let preimage = opts
            .decrypt_cache
            .then(|| side_preimage::<E>(side, opts.use_prefilter));
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let key = preimage.as_deref().map(|p| cache.fingerprint(p));

        // Phase 0 — a side whose entry is stamped with the table's
        // current generation is fully warm: serve the entry's rows
        // without scanning the table.
        let unchanged = key
            .as_ref()
            .and_then(|key| cache.unchanged(key, &side.table, table.generation, self.cache_cap));
        if let Some(out) = unchanged {
            drop(cache);
            stats.rows_prefiltered_out += table.len().saturating_sub(out.len());
            stats.rows_decrypted += out.len();
            stats.decrypt_cache_hits += out.len() as u64;
            eqjoin_obs::counter!("eqjoin_store_decrypt_cache_hits_total").add(out.len() as u64);
            return Ok(out);
        }
        drop(cache);

        let candidates = table.candidates(&side.prefilter, opts.use_prefilter);
        stats.rows_prefiltered_out += table.len() - candidates.len();
        stats.rows_decrypted += candidates.len();

        // Phase 1 — serve what the cache already knows (exact row
        // version match), collect the misses.
        let mut out: Vec<(usize, Option<MatchKey>)> = Vec::with_capacity(candidates.len());
        let mut misses: Vec<usize> = Vec::new();
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let entry = key
            .as_ref()
            .and_then(|key| cache.touch(key, self.cache_cap))
            .filter(|e| e.table == side.table);
        let vouched = entry.is_some();
        let entry_rows = entry.as_ref().map_or(0, |e| e.rows.len());
        let mut cached = entry
            .map_or(&[] as &[_], |e| e.rows.as_slice())
            .iter()
            .peekable();
        for &(pos, id, version) in &candidates {
            // Both runs ascend by id: step the entry's up to this row.
            while cached.next_if(|row| row.0 < id).is_some() {}
            match cached
                .next_if(|row| row.0 == id)
                .filter(|row| row.1 == version)
            {
                Some((_, _, match_key)) => {
                    stats.decrypt_cache_hits += 1;
                    out.push((id as usize, Some(Arc::clone(match_key))));
                }
                None => {
                    misses.push(pos);
                    out.push((id as usize, None));
                }
            }
        }
        // Every candidate hit, and the entry holds no other row: its
        // rows are exactly this side's candidates at this generation.
        if vouched && misses.is_empty() && entry_rows == candidates.len() {
            if let Some(entry) = key.as_ref().and_then(|key| cache.entries.get_mut(key)) {
                entry.generation = table.generation;
            }
        }
        drop(cache);

        // Validate once: these bytes are vouched for by the entry a
        // checked pass over them left behind, and only as long as they
        // are not needed — no miss, no pairing, no token.
        let token = if vouched && misses.is_empty() {
            None
        } else {
            eqjoin_obs::counter!("eqjoin_store_token_elements_checked_total")
                .add(side.token.len() as u64);
            let _span = eqjoin_obs::span!("store_token_check", "table" => side.table);
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
                slot.1 = Some(fresh_key.into());
            }
        }
        let out: Vec<(usize, MatchKey)> = out
            .into_iter()
            .map(|(id, key)| {
                key.map(|k| (id, k)).ok_or_else(|| {
                    DbError::Protocol("decrypt slot left unfilled after merge".into())
                })
            })
            .collect::<Result<_, _>>()?;

        // A fully-warm side changes nothing: the entry already holds
        // every (id, version, key) this pass produced, and `touch`
        // counted the use and refreshed its recency stamp. Rebuilding
        // it — and above all marking the store dirty — would make every
        // warm repeat of a persistent server rewrite the whole snapshot
        // to disk, the exact steady state the cache exists to make
        // cheap. Only a pass with fresh decrypts updates the entry and
        // the flag.
        if let (Some(key), Some(preimage), false) = (key, preimage, misses.is_empty()) {
            let rows: Vec<(u64, u64, MatchKey)> = candidates
                .iter()
                .zip(&out)
                .map(|(&(_, id, version), (_, match_key))| (id, version, Arc::clone(match_key)))
                .collect();
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.tick += 1;
            let entry = CacheEntry {
                table: side.table.clone(),
                rows,
                generation: table.generation,
                last_used: cache.tick,
                uses: 1,
            };
            cache.insert(preimage.into_boxed_slice(), key, entry, self.cache_cap);
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
        let mut tables: Vec<(&String, &TableStore<E>)> = self.tables.iter().collect();
        tables.sort_unstable_by_key(|&(name, _)| name);
        body.u64(tables.len() as u64);
        for (_, t) in tables {
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
        let mut entries: Vec<(&[u8; 32], &CacheEntry)> = cache.entries.iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        body.u64(entries.len() as u64);
        for (key, entry) in entries {
            body.out.extend_from_slice(key);
            body.str(&entry.table);
            body.u64(entry.last_used);
            body.u64(entry.rows.len() as u64);
            for (id, version, match_key) in &entry.rows {
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
            if !ids.is_sorted_by(|a, b| a < b) {
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
                    generation: next_generation(),
                },
            );
        }

        let mut cache = DecryptCache {
            tick: r.u64()?,
            ..DecryptCache::default()
        };
        let n_entries = r.len("cache entries")?;
        for _ in 0..n_entries {
            let key: [u8; 32] = r.array()?;
            let table = r.str()?;
            let last_used = r.u64()?;
            let n_rows = r.len("cache rows")?;
            let rows: Vec<(u64, u64, MatchKey)> = (0..n_rows)
                .map(|_| Ok((r.u64()?, r.u64()?, r.bytes()?.into())))
                .collect::<Result<_, DbError>>()?;
            if !rows.is_sorted_by(|a, b| a.0 < b.0) {
                return Err(DbError::Protocol(
                    "cache row ids not strictly ascending".into(),
                ));
            }
            cache.entries.insert(
                key,
                CacheEntry {
                    table,
                    rows,
                    generation: 0,
                    last_used,
                    uses: 1,
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

/// Evaluate a failpoint planted at one exact position in the
/// persistence protocol (save and load here, flush and journal in
/// `backend::local`): `delay` stalls there, `abort` kills the process in its
/// tracks — a crash at exactly this point — and any failure action
/// (`return-error`, or the I/O-only `partial-write`/`drop-conn`)
/// surfaces as a typed [`DbError::Snapshot`].
pub(crate) fn store_failpoint(name: &str) -> Result<(), DbError> {
    store_failpoint_action(name, eqjoin_failpoint::failpoint!(name))
}

/// [`store_failpoint`] for an action the site has already drawn (a
/// write site takes `partial-write` for itself first).
pub(crate) fn store_failpoint_action(
    name: &str,
    action: Option<eqjoin_failpoint::Action>,
) -> Result<(), DbError> {
    match action {
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

/// The bytes a side's decrypt-cache fingerprint is the SHA-256 of: the
/// token elements as received, the target table, the pre-filter
/// constraint sets and whether the pre-filter applies (`1` for every
/// wire join; only a direct call can clear it, and the byte stays so
/// that no stored fingerprint moves). Byte-identical
/// preimages decrypt to byte-identical outputs, which is what makes
/// the memoization sound — and, the engines' decoding being canonical
/// (one encoding per element: a string decodes only if it re-encodes to
/// itself), hashing the received bytes gives the digest that hashing the
/// decoded elements' encodings gives.
///
/// A repeat finds its entry through these bytes (`DecryptCache::known`),
/// but entries stay keyed by their digest: keying them by the bytes
/// would write query tokens to disk, need a snapshot format 3, and drop
/// every cached side when a format-2 data directory upgrades.
fn side_preimage<E: Engine>(side: &SideTokens<E>, use_prefilter: bool) -> Vec<u8> {
    const DOMAIN: &[u8] = b"eqjoin-decrypt-cache-v1\0";
    let elements = 8 * side.token.len() + side.token.as_bytes().len();
    let prefilter: usize = side
        .prefilter
        .iter()
        .map(|(_, allowed)| 16 + 16 * allowed.len())
        .sum();
    let mut p =
        Vec::with_capacity(DOMAIN.len() + 8 + side.table.len() + 2 + 8 + elements + 8 + prefilter);
    p.extend_from_slice(DOMAIN);
    p.extend_from_slice(&(side.table.len() as u64).to_le_bytes());
    p.extend_from_slice(side.table.as_bytes());
    p.extend_from_slice(&[
        use_prefilter as u8,
        matches!(side.token.side(), SjTableSide::A) as u8,
    ]);
    p.extend_from_slice(&(side.token.len() as u64).to_le_bytes());
    for bytes in side.token.elements() {
        p.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        p.extend_from_slice(bytes);
    }
    p.extend_from_slice(&(side.prefilter.len() as u64).to_le_bytes());
    for (col, allowed) in &side.prefilter {
        p.extend_from_slice(&(*col as u64).to_le_bytes());
        p.extend_from_slice(&(allowed.len() as u64).to_le_bytes());
        for tag in allowed {
            p.extend_from_slice(tag);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, DbClient, TableConfig};
    use crate::data::{Schema, Table, Value};
    use crate::encrypted::QueryTokens;
    use crate::query::JoinQuery;
    use eqjoin_pairing::MockEngine;

    type Store = EncryptedStore<MockEngine>;

    fn table(name: &str, keys: &[i64]) -> Table {
        let mut t = Table::new(Schema::new(name, &["key", "tag"]));
        for (i, &k) in keys.iter().enumerate() {
            t.push_row(vec![Value::Int(k), Value::Str(format!("t{i}"))]);
        }
        t
    }

    fn encrypted(client: &mut DbClient<MockEngine>, t: &Table) -> EncryptedTable<MockEngine> {
        let config = TableConfig {
            join_column: "key".into(),
            filter_columns: vec!["tag".into()],
        };
        client.encrypt_table(t, config).unwrap()
    }

    fn setup() -> (DbClient<MockEngine>, Store) {
        let mut client = DbClient::<MockEngine>::new(2, 2, 7);
        let mut store = Store::new();
        store
            .insert_table(encrypted(&mut client, &table("L", &[1, 2, 3, 1])))
            .unwrap();
        store
            .insert_table(encrypted(&mut client, &table("R", &[1, 4, 3])))
            .unwrap();
        (client, store)
    }

    /// Fresh tokens: every call draws new randomness, so a new side.
    fn tokens(client: &mut DbClient<MockEngine>) -> QueryTokens<MockEngine> {
        tokens_against(client, "R")
    }

    /// Fresh tokens for `L ⋈ right`.
    fn tokens_against(client: &mut DbClient<MockEngine>, right: &str) -> QueryTokens<MockEngine> {
        client
            .query_tokens(&JoinQuery::on("L", "key", right, "key"))
            .unwrap()
    }

    /// One side's answer and how many of its rows the cache served.
    fn decrypt(store: &Store, side: &SideTokens<MockEngine>) -> (Vec<(usize, MatchKey)>, usize) {
        let mut stats = ServerStats::default();
        let out = store
            .decrypt_side(side, &JoinOptions::default(), 1, &mut stats)
            .unwrap();
        (out, stats.decrypt_cache_hits as usize)
    }

    fn digests(store: &Store) -> u64 {
        store.cache.lock().unwrap().digests
    }

    /// The memo's invariant: every remembered fingerprint has an entry.
    fn assert_memo_bounded(store: &Store) {
        let cache = store.cache.lock().unwrap();
        assert!(cache.known.len() <= cache.entries.len());
        assert!(cache.known.values().all(|k| cache.entries.contains_key(k)));
    }

    #[test]
    fn a_warm_repeat_runs_no_sha256() {
        let (mut client, store) = setup();
        let q = tokens(&mut client);
        let (cold, hits) = decrypt(&store, &q.left);
        assert_eq!((hits, digests(&store)), (0, 1));
        for _ in 0..3 {
            let (warm, hits) = decrypt(&store, &q.left);
            assert_eq!(warm, cold);
            assert_eq!(hits, cold.len());
        }
        assert_eq!(
            digests(&store),
            1,
            "a repeat found its fingerprint by its bytes"
        );
        assert_eq!(store.cache.lock().unwrap().known.len(), 1);
    }

    #[test]
    fn preimages_that_share_the_window_keep_their_own_fingerprints() {
        // Equal length and last 32 bytes, different elsewhere: one
        // bucket, told apart by the whole compare.
        let preimage = |head: u8| {
            let mut p = vec![head; 700];
            p[668..].fill(9);
            p
        };
        let mut cache = DecryptCache::default();
        for head in 0..4 {
            let p = preimage(head);
            let key = eqjoin_crypto::sha256(&p);
            let entry = CacheEntry {
                table: "T".into(),
                rows: Vec::new(),
                generation: 0,
                last_used: 0,
                uses: 1,
            };
            cache.insert(p.into(), key, entry, 8);
        }
        for head in 0..4 {
            let p = preimage(head);
            assert_eq!(cache.fingerprint(&p), eqjoin_crypto::sha256(&p));
        }
        assert_eq!(cache.digests, 0, "each found by its bytes");
        // The same window at another length is another preimage.
        let mut longer = preimage(0);
        longer.insert(0, 0);
        assert_eq!(cache.fingerprint(&longer), eqjoin_crypto::sha256(&longer));
        assert_eq!(cache.digests, 1);
    }

    #[test]
    fn a_stamped_side_serves_what_a_scan_serves() {
        let mut config = ClientConfig::new(2, 3);
        config.seed = 9;
        config.prefilter = true;
        let mut client = DbClient::<MockEngine>::with_config(config);
        let mut store = Store::new();
        for t in [table("L", &[1, 2, 3, 1, 5]), table("R", &[1, 4, 3])] {
            store.insert_table(encrypted(&mut client, &t)).unwrap();
        }
        let tags = ["t0", "t3", "t5"].map(Value::from).to_vec();
        let query = JoinQuery::on("L", "key", "R", "key").filter("L", "tag", tags);
        let q = client.query_tokens(&query).unwrap();
        let stamped = |store: &Store| {
            let generation = store.table("L").unwrap().generation;
            let cache = store.cache.lock().unwrap();
            cache.entries.values().any(|e| e.generation == generation)
        };
        // Each repeat against an uncached pass: the same keys, rows and
        // pre-filter count; the first repeat after a change scans and
        // stamps the entry, the next ones are served from the stamp.
        let check = |store: &Store| {
            let run = |decrypt_cache| {
                let opts = JoinOptions {
                    decrypt_cache,
                    ..JoinOptions::default()
                };
                let mut stats = ServerStats::default();
                let out = store.decrypt_side(&q.left, &opts, 1, &mut stats).unwrap();
                (out, stats.rows_decrypted, stats.rows_prefiltered_out)
            };
            let want = run(false);
            for _ in 0..3 {
                assert_eq!(run(true), want);
            }
            assert!(stamped(store));
            want.1
        };
        assert_eq!(check(&store), 2, "rows 0 and 3 pass the pre-filter");
        let new_row = [vec![Value::Int(7), Value::Str("t5".into())]];
        let (start, rows) = client.encrypt_rows("L", &new_row).unwrap();
        store.insert_rows("L", start, rows).unwrap();
        assert!(!stamped(&store), "new rows draw a new generation");
        assert_eq!(check(&store), 3);
        store.delete_rows("L", &[0]).unwrap();
        assert!(!stamped(&store), "so do deleted ones");
        assert_eq!(check(&store), 2);
        let loaded = Store::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
        assert!(!stamped(&loaded), "a loaded entry is not stamped");
        assert_eq!(check(&loaded), 2);
    }

    #[test]
    fn a_loaded_store_hashes_each_side_once() {
        let (mut client, store) = setup();
        let q = tokens(&mut client);
        let left = decrypt(&store, &q.left).0;
        let right = decrypt(&store, &q.right).0;
        let loaded = Store::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
        assert!(
            loaded.cache.lock().unwrap().known.is_empty(),
            "never persisted"
        );
        for _ in 0..3 {
            assert_eq!(decrypt(&loaded, &q.left), (left.clone(), left.len()));
            assert_eq!(decrypt(&loaded, &q.right), (right.clone(), right.len()));
        }
        assert_eq!(digests(&loaded), 2);
        assert_memo_bounded(&loaded);
    }

    /// Whether the cache holds an entry for `side`, asked without a
    /// lookup (no use counted, no SHA-256 counted).
    fn holds(store: &Store, side: &SideTokens<MockEngine>) -> bool {
        let preimage = side_preimage::<MockEngine>(side, JoinOptions::default().use_prefilter);
        let key = eqjoin_crypto::sha256(&preimage);
        store.cache.lock().unwrap().entries.contains_key(&key)
    }

    /// The use count of the one cached side on `table`.
    fn uses(store: &Store, table: &str) -> Option<u64> {
        let cache = store.cache.lock().unwrap();
        let mut on_table = cache.entries.values().filter(|e| e.table == table);
        let uses = on_table.next().map(|e| e.uses);
        assert!(on_table.next().is_none(), "one side on {table}");
        uses
    }

    #[test]
    fn the_memo_shrinks_with_evictions_and_replaced_tables() {
        let (mut client, mut store) = setup();
        store.set_decrypt_cache_cap(2);
        let (a, b, c) = (
            tokens(&mut client),
            tokens(&mut client),
            tokens(&mut client),
        );
        let sides = [&a.left, &a.right, &b.left, &b.right, &c.left];
        for side in sides {
            decrypt(&store, side);
            assert_memo_bounded(&store);
        }
        assert_eq!(store.decrypt_cache_len(), 2);
        // The survivors still hit through the memo; an evicted side is
        // a miss that hashes again.
        let (held, evicted): (Vec<_>, Vec<_>) = sides.iter().partition(|s| holds(&store, s));
        assert_eq!(held.len(), 2);
        let hashed = digests(&store);
        for side in held {
            let (out, hits) = decrypt(&store, side);
            assert_eq!(hits, out.len());
        }
        assert_eq!(digests(&store), hashed);
        let evicted = evicted.first().expect("three sides were evicted");
        assert_eq!(decrypt(&store, evicted).1, 0);
        assert_eq!(digests(&store), hashed + 1);
        assert_memo_bounded(&store);

        // Replacing L purges its sides and their preimages; the R side
        // cached last stays.
        decrypt(&store, &a.right);
        store
            .insert_table(encrypted(&mut client, &table("L", &[5, 6])))
            .unwrap();
        assert_memo_bounded(&store);
        assert_eq!(store.cache.lock().unwrap().known.len(), 1);
    }

    #[test]
    fn a_reused_wide_side_outlives_one_off_narrow_ones() {
        let (mut client, mut store) = setup();
        store
            .insert_table(encrypted(&mut client, &table("S", &[1])))
            .unwrap();
        store.set_decrypt_cache_cap(2);
        // Four rows of L, looked up twice: losing it costs 8 `SJ.Dec`.
        let hot = tokens_against(&mut client, "S").left;
        decrypt(&store, &hot);
        decrypt(&store, &hot);
        for _ in 0..8 {
            let one_off = tokens_against(&mut client, "S").right;
            assert_eq!(decrypt(&store, &one_off).1, 0);
        }
        assert_eq!(decrypt(&store, &hot).1, 4, "the hot side was evicted");
    }

    #[test]
    fn popularity_that_stops_is_forgotten() {
        let (mut client, mut store) = setup();
        store
            .insert_table(encrypted(&mut client, &table("S", &[1])))
            .unwrap();
        store.set_decrypt_cache_cap(3);
        let window = (AGING_LOOKUPS_PER_ENTRY * 3) as usize;
        // A one-row side looked up 12 times in the first window, then
        // never again: worth 12 `SJ.Dec`, more than a 4-row one-off.
        let once_hot = tokens_against(&mut client, "S").right;
        for _ in 0..12 {
            decrypt(&store, &once_hot);
        }
        // Repeating traffic: one 4-row side, and a 4-row one-off after
        // each of its repeats — two lookups a round.
        let repeated = tokens(&mut client).left;
        for round in 0..window {
            decrypt(&store, &repeated);
            decrypt(&store, &tokens(&mut client).left);
            if round == 0 {
                assert!(holds(&store, &once_hot), "hot sides outlive one-offs");
            }
        }
        assert!(
            !holds(&store, &once_hot),
            "a side nobody asks for must age out within two windows"
        );
        assert!(holds(&store, &repeated));
    }

    #[test]
    fn a_refresh_after_new_rows_keeps_the_use_count() {
        let (mut client, mut store) = setup();
        let q = tokens(&mut client);
        for _ in 0..3 {
            decrypt(&store, &q.left);
        }
        assert_eq!(uses(&store, "L"), Some(3));
        let (start, rows) = client
            .encrypt_rows("L", &[vec![Value::Int(2), Value::Str("t4".into())]])
            .unwrap();
        store.insert_rows("L", start, rows).unwrap();
        // A partial miss: four rows served, the new one decrypted, and
        // the entry rebuilt under the same key.
        assert_eq!(decrypt(&store, &q.left).1, 4);
        assert_eq!(uses(&store, "L"), Some(4));
    }

    #[test]
    fn use_counts_never_reach_the_snapshot() {
        let (mut client, store) = setup();
        let q = tokens(&mut client);
        for _ in 0..3 {
            decrypt(&store, &q.left);
        }
        decrypt(&store, &q.right);
        // The same entries, stamps and clock, another use history.
        let other = Store::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
        for entry in other.cache.lock().unwrap().entries.values_mut() {
            entry.uses = 7;
        }
        assert_eq!(uses(&store, "L"), Some(3));
        assert!(store.snapshot_bytes() == other.snapshot_bytes());
    }

    #[test]
    fn lowering_the_cap_evicts_at_once() {
        let (mut client, mut store) = setup();
        let (a, b) = (tokens(&mut client), tokens(&mut client));
        for side in [&a.left, &a.right, &b.left] {
            decrypt(&store, side);
        }
        assert_eq!(store.decrypt_cache_len(), 3);
        store.take_dirty();
        store.set_decrypt_cache_cap(1);
        assert_eq!(store.decrypt_cache_len(), 1);
        assert_memo_bounded(&store);
        assert!(store.take_dirty(), "the next snapshot must shrink too");
    }

    #[test]
    fn snapshots_do_not_depend_on_the_memo() {
        let (mut client, warm) = setup();
        let q = tokens(&mut client);
        decrypt(&warm, &q.left);
        decrypt(&warm, &q.right);
        let bytes = warm.snapshot_bytes();
        let cold = Store::from_snapshot_bytes(&bytes).unwrap();
        assert!(cold.snapshot_bytes() == bytes);
        // The same repeats through a warm memo and through SHA-256.
        for store in [&warm, &cold] {
            decrypt(store, &q.right);
            decrypt(store, &q.left);
        }
        assert_eq!(digests(&warm), 2);
        assert_eq!(digests(&cold), 2);
        assert!(warm.snapshot_bytes() == cold.snapshot_bytes());
    }
}
