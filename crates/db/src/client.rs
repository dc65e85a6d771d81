//! The trusted client: key management, table encryption, token
//! generation and result decryption.
//!
//! # Opened payloads
//!
//! A series of queries gets the same sealed payloads back on every
//! repeat, so the client keeps, per `(table, row, column)` slot it has
//! opened, the sealed bytes and the [`Value`] they opened to.
//! [`DbClient::open_value`] hands the kept value back only when the
//! server's bytes for that slot equal the kept bytes; any other bytes
//! run the full AEAD open and replace the entry. That is sound because
//! an open is a function of the key, the associated data (which is the
//! slot) and the bytes: equal bytes in the same slot open to the same
//! value, and a forged or moved payload, being other bytes, is
//! authenticated exactly as before. [`ClientStats::column_decrypts`]
//! counts the opens that ran, [`ClientStats::column_opens_reused`] the
//! values handed back without one.
//!
//! The entries hold plaintext. A [`Session`](crate::session::Session)
//! drops a table's entries when the server accepts it as a new
//! registration and a row's entries when the server acknowledges its
//! deletion, so at most one entry per live row and projected column
//! remains.

use crate::data::{Table, Value};
use crate::encrypted::{EncryptedRow, EncryptedTable, QueryTokens, SideTokens};
use crate::error::DbError;
use crate::query::JoinQuery;
use eqjoin_core::{embed_attribute, RowEncoding, SecureJoin, SjMasterKey, SjParams, SjTableSide};
use eqjoin_crypto::{AeadKey, ChaChaRng, Prf, RandomSource};
use eqjoin_pairing::{Engine, Fr};
use std::collections::HashMap;

/// Per-table encryption configuration (fixed when the table is
/// encrypted).
#[derive(Clone, Debug)]
pub struct TableConfig {
    /// The join column (the paper's `A0`).
    pub join_column: String,
    /// The filter columns carrying encrypted power ladders
    /// (`A1 … A_m'`, `m' ≤ m`; the scheme pads to `m`).
    pub filter_columns: Vec<String>,
}

/// Value used to pad tables with fewer than `m` filter attributes; it is
/// never a legal filter target, so its polynomials stay identically zero.
const PAD_ATTRIBUTE: &[u8] = b"\xff\xfeeqjoin-pad";

/// Client configuration, fixed at construction.
///
/// ```
/// use eqjoin_db::ClientConfig;
/// let config = ClientConfig::new(2, 3).seed(42).prefilter(true);
/// assert_eq!(config.m, 2);
/// assert!(config.prefilter);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientConfig {
    /// Filter attributes per table (tables with fewer are padded).
    pub m: usize,
    /// Maximum `IN`-clause size (= selection-polynomial degree bound).
    pub t: usize,
    /// Deterministic RNG seed (experiments are reproducible).
    pub seed: u64,
    /// Enable the selectivity pre-filter (§4.3's orthogonal searchable
    /// encryption). Disabled by default: the deterministic per-column
    /// tags leak value-equality within a column to the server, which the
    /// core scheme itself does not — the paper's Figures 3/4 measure the
    /// pre-filtered configuration, so the benchmarks turn this on.
    pub prefilter: bool,
    /// Worker threads row encryption fans out across
    /// (`encrypt_table`/`encrypt_rows`); `0` means one per available
    /// core. Every row draws its randomness from a dedicated stream
    /// seeded before the fan-out, so ciphertexts are **byte-identical
    /// at any thread count** — this knob trades wall-clock for cores,
    /// never determinism.
    pub encrypt_threads: usize,
}

impl ClientConfig {
    /// Scheme dimensions `m` (filter attributes) and `t` (`IN` bound);
    /// seed 0, pre-filter off.
    pub fn new(m: usize, t: usize) -> Self {
        ClientConfig {
            m,
            t,
            seed: 0,
            prefilter: false,
            encrypt_threads: 1,
        }
    }

    /// Set the deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the row-encryption worker count (`0` = all available cores).
    pub fn encrypt_threads(mut self, threads: usize) -> Self {
        self.encrypt_threads = threads;
        self
    }

    /// Enable/disable the selectivity pre-filter.
    pub fn prefilter(mut self, enabled: bool) -> Self {
        self.prefilter = enabled;
        self
    }
}

/// Client-side operation counters (token-cache experiments read these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Number of `SJ.TkGen` invocations (one per query side) — the hot
    /// pairing-group path the session token cache avoids on repeats.
    pub tkgen_calls: u64,
    /// Number of rows encrypted via `SJ.Enc`.
    pub rows_encrypted: u64,
    /// Sealed column payloads opened (one AEAD open per decrypted
    /// column value).
    pub column_decrypts: u64,
    /// Column values handed back without an AEAD open: the server
    /// shipped the very bytes this client had already opened for that
    /// `(table, row, column)` slot.
    pub column_opens_reused: u64,
    /// Column decrypts a projection *avoided*: columns of matched rows
    /// the client never opened (and, with server-side payload
    /// projection, never even received).
    pub column_decrypts_skipped: u64,
}

/// Everything the client remembers about one encrypted table: the
/// encryption config, the plaintext schema (needed to encrypt later
/// `INSERT`s consistently) and the next row id — row ids are
/// client-assigned and bind the sealed payloads, so only the client
/// may mint them.
#[derive(Clone, Debug)]
pub(crate) struct TableState {
    config: TableConfig,
    schema: crate::data::Schema,
    join_idx: usize,
    next_row: u64,
}

/// The trusted client of the outsourced-database model (§2).
pub struct DbClient<E: Engine> {
    params: SjParams,
    msk: SjMasterKey<E>,
    aead: AeadKey,
    prefilter_root: Prf,
    prefilter_enabled: bool,
    encrypt_threads: usize,
    rng: ChaChaRng,
    tables: HashMap<String, TableState>,
    stats: ClientStats,
    /// Every payload slot opened so far, per table: `(row, column) →`
    /// the sealed bytes and their value (see the [module docs](self)).
    opened: HashMap<String, HashMap<(usize, usize), OpenedSlot>>,
}

/// One opened payload slot: the bytes the server shipped and the value
/// they authenticated and opened to.
struct OpenedSlot {
    sealed: Vec<u8>,
    value: Value,
}

impl<E: Engine> DbClient<E> {
    /// Create a client for one join context from a [`ClientConfig`].
    pub fn with_config(config: ClientConfig) -> Self {
        let mut rng = ChaChaRng::seed_from_u64(config.seed);
        let params = SjParams {
            m: config.m,
            t: config.t,
        };
        let msk = SecureJoin::<E>::setup(params, &mut rng);
        let aead = AeadKey::generate(&mut rng);
        let prefilter_root = Prf::generate(&mut rng);
        DbClient {
            params,
            msk,
            aead,
            prefilter_root,
            prefilter_enabled: config.prefilter,
            encrypt_threads: config.encrypt_threads,
            rng,
            tables: HashMap::new(),
            stats: ClientStats::default(),
            opened: HashMap::new(),
        }
    }

    /// Shorthand for [`DbClient::with_config`] with the pre-filter off:
    /// `m` filter attributes, `IN`-clause bound `t`, RNG seed `seed`.
    pub fn new(m: usize, t: usize, seed: u64) -> Self {
        Self::with_config(ClientConfig::new(m, t).seed(seed))
    }

    /// Scheme parameters.
    pub fn params(&self) -> SjParams {
        self.params
    }

    /// Operation counters since construction.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The encryption config a table was registered with (its join
    /// column and filter columns), if this client has encrypted it.
    /// Bulk loaders use this to build self-describing
    /// [`Request::CopyRows`](crate::protocol::Request::CopyRows) chunks.
    pub fn table_config(&self, table: &str) -> Option<&TableConfig> {
        self.tables.get(table).map(|state| &state.config)
    }

    /// Everything this client remembers about `table`, to hand back to
    /// [`DbClient::restore_registration`] if an upload re-registering
    /// it is refused.
    pub(crate) fn registration(&self, table: &str) -> Option<TableState> {
        self.tables.get(table).cloned()
    }

    /// Put back a registration taken by [`DbClient::registration`]
    /// (`None`: forget the table).
    pub(crate) fn restore_registration(&mut self, table: &str, previous: Option<TableState>) {
        match previous {
            Some(state) => self.tables.insert(table.to_owned(), state),
            None => self.tables.remove(table),
        };
    }

    /// Encrypt a table for joins on `config.join_column` with the given
    /// filter attributes. Consumes the plaintext table (the client keeps
    /// only configuration, not data).
    pub fn encrypt_table(
        &mut self,
        table: &Table,
        config: TableConfig,
    ) -> Result<EncryptedTable<E>, DbError> {
        let _span = eqjoin_obs::span!("client_encrypt", "table" => table.schema.name);
        let schema = &table.schema;
        let join_idx =
            schema
                .column_index(&config.join_column)
                .ok_or_else(|| DbError::UnknownColumn {
                    table: schema.name.clone(),
                    column: config.join_column.clone(),
                })?;
        if config.filter_columns.len() > self.params.m {
            return Err(DbError::TooManyFilterColumns {
                table: schema.name.clone(),
                got: config.filter_columns.len(),
                max: self.params.m,
            });
        }
        let filter_idx: Vec<usize> = config
            .filter_columns
            .iter()
            .map(|c| {
                schema
                    .column_index(c)
                    .ok_or_else(|| DbError::UnknownColumn {
                        table: schema.name.clone(),
                        column: c.clone(),
                    })
            })
            .collect::<Result<_, _>>()?;

        let rows =
            self.encrypt_row_batch(&schema.name, &config, join_idx, &filter_idx, 0, &table.rows)?;

        self.tables.insert(
            schema.name.clone(),
            TableState {
                config: config.clone(),
                schema: schema.clone(),
                join_idx,
                next_row: table.len() as u64,
            },
        );
        Ok(EncryptedTable {
            name: schema.name.clone(),
            join_column: config.join_column,
            filter_columns: config.filter_columns,
            rows,
        })
    }

    /// Encrypt new rows for an already-encrypted table (the client half
    /// of an incremental `INSERT`): the same config, keys and pre-filter
    /// PRFs as the original upload, with row ids continuing where the
    /// table left off. Returns `(start_row, rows)` ready for a
    /// [`Request::InsertRows`](crate::protocol::Request::InsertRows).
    pub fn encrypt_rows<R: AsRef<[Value]> + Sync>(
        &mut self,
        table: &str,
        rows: &[R],
    ) -> Result<(u64, Vec<EncryptedRow<E>>), DbError> {
        let _span = eqjoin_obs::span!("client_encrypt", "table" => table);
        let state = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?
            .clone();
        for row in rows {
            let row = row.as_ref();
            if row.len() != state.schema.columns.len() {
                return Err(DbError::Protocol(format!(
                    "inserted row has {} values, table {table} has {} columns",
                    row.len(),
                    state.schema.columns.len()
                )));
            }
        }
        let filter_idx: Vec<usize> = state
            .config
            .filter_columns
            .iter()
            .map(|c| {
                state
                    .schema
                    .column_index(c)
                    .expect("validated at encrypt_table time")
            })
            .collect();
        let start_row = state.next_row;
        let encrypted = self.encrypt_row_batch(
            table,
            &state.config,
            state.join_idx,
            &filter_idx,
            start_row,
            rows,
        )?;
        self.tables
            .get_mut(table)
            .expect("state looked up above")
            .next_row = start_row + rows.len() as u64;
        Ok((start_row, encrypted))
    }

    /// `SJ.Enc` + payload sealing for a slice of plaintext rows whose
    /// ids start at `start_row`.
    ///
    /// Each row draws its blinding scalars and AEAD nonces from a
    /// dedicated ChaCha stream whose 32-byte seed is taken from the
    /// client's master RNG *before* any encryption happens. A row's
    /// ciphertext therefore depends only on (master RNG state, row
    /// offset) — never on scheduling — so fanning the loop across
    /// [`ClientConfig::encrypt_threads`] scoped workers produces
    /// byte-identical output at any thread count.
    fn encrypt_row_batch<R: AsRef<[Value]> + Sync>(
        &mut self,
        table: &str,
        config: &TableConfig,
        join_idx: usize,
        filter_idx: &[usize],
        start_row: u64,
        rows: &[R],
    ) -> Result<Vec<EncryptedRow<E>>, DbError> {
        let table_prf = self.prefilter_root.derive(table.as_bytes());
        let column_prfs: Vec<Prf> = config
            .filter_columns
            .iter()
            .map(|c| table_prf.derive(c.as_bytes()))
            .collect();

        // Per-row RNG seeds, drawn sequentially so the master stream
        // advances identically regardless of worker count.
        let seeds: Vec<[u8; 32]> = rows
            .iter()
            .map(|_| {
                let mut s = [0u8; 32];
                self.rng.fill_bytes(&mut s);
                s
            })
            .collect();

        let m = self.params.m;
        let msk = &self.msk;
        let aead = &self.aead;
        let prefilter_enabled = self.prefilter_enabled;
        let encrypt_one = |offset: usize, row: &R| -> Result<EncryptedRow<E>, DbError> {
            let row = row.as_ref();
            let mut rng = ChaChaRng::from_seed(seeds[offset]);
            let ridx = start_row as usize + offset;
            let join_bytes = row[join_idx].canonical_bytes();
            // Filter attribute bytes, padded to m with the pad constant.
            let mut attr_bytes: Vec<Vec<u8>> = filter_idx
                .iter()
                .map(|&i| row[i].canonical_bytes())
                .collect();
            while attr_bytes.len() < m {
                attr_bytes.push(PAD_ATTRIBUTE.to_vec());
            }
            let encoding = RowEncoding::from_bytes(&join_bytes, &attr_bytes);
            let cipher = SecureJoin::<E>::encrypt_row(msk, &encoding, &mut rng)?;
            // One sealed blob per column: the associated data binds
            // table, row id and column index, so payloads can neither be
            // swapped between rows nor between columns — and the client
            // can open exactly the columns a projection selects.
            let payloads = row
                .iter()
                .enumerate()
                .map(|(cidx, value)| {
                    let ad = payload_ad(table, ridx, cidx);
                    aead.seal(&mut rng, ad.as_bytes(), &value.canonical_bytes())
                })
                .collect();
            let tags = prefilter_enabled.then(|| {
                filter_idx
                    .iter()
                    .zip(&column_prfs)
                    .map(|(&i, prf)| prf.tag16(&row[i].canonical_bytes()))
                    .collect()
            });
            Ok(EncryptedRow {
                cipher,
                payloads,
                tags,
            })
        };

        let threads = match self.encrypt_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
        .min(rows.len().max(1));
        let out = if threads <= 1 {
            rows.iter()
                .enumerate()
                .map(|(offset, row)| encrypt_one(offset, row))
                .collect::<Result<Vec<_>, DbError>>()?
        } else {
            let chunk = rows.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = rows
                    .chunks(chunk)
                    .enumerate()
                    .map(|(ci, slice)| {
                        let encrypt_one = &encrypt_one;
                        scope.spawn(move || {
                            slice
                                .iter()
                                .enumerate()
                                .map(|(j, row)| encrypt_one(ci * chunk + j, row))
                                .collect::<Result<Vec<_>, DbError>>()
                        })
                    })
                    .collect();
                let mut all = Vec::with_capacity(rows.len());
                for h in handles {
                    all.extend(h.join().expect("encrypt worker panicked")?);
                }
                Ok::<_, DbError>(all)
            })?
        };
        self.stats.rows_encrypted += rows.len() as u64;
        Ok(out)
    }

    /// Build the two tokens (sharing one fresh query key `k`) for a join
    /// query.
    pub fn query_tokens(&mut self, query: &JoinQuery) -> Result<QueryTokens<E>, DbError> {
        // Every filter must be bound to one of the two joined tables —
        // a typo'd table name used to be skipped silently, leaving that
        // side of the join unfiltered.
        for f in &query.filters {
            if f.table != query.left_table && f.table != query.right_table {
                return Err(DbError::FilterTableNotInQuery {
                    table: f.table.clone(),
                    column: f.column.clone(),
                });
            }
        }
        let key = SecureJoin::<E>::fresh_query_key(&mut self.rng);
        let left = self.side_tokens(query, true, &key)?;
        let right = self.side_tokens(query, false, &key)?;
        Ok(QueryTokens { left, right })
    }

    fn side_tokens(
        &mut self,
        query: &JoinQuery,
        left: bool,
        key: &eqjoin_core::SjQueryKey,
    ) -> Result<SideTokens<E>, DbError> {
        let (table, join_col, side) = if left {
            (&query.left_table, &query.left_join_column, SjTableSide::A)
        } else {
            (&query.right_table, &query.right_join_column, SjTableSide::B)
        };
        let config = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.clone()))?
            .config
            .clone();
        if *join_col != config.join_column {
            return Err(DbError::JoinColumnMismatch {
                table: table.clone(),
                requested: join_col.clone(),
                encrypted: config.join_column.clone(),
            });
        }

        // Collect per-filter-column IN values. Filters are
        // canonicalized first (values deduplicated, repeated filters on
        // one column intersected), so validation and token shape depend
        // only on the query's meaning — the same canonical form the
        // session token cache keys on.
        let mut per_column: Vec<Option<Vec<Fr>>> = vec![None; self.params.m];
        let mut prefilter = Vec::new();
        let table_prf = self.prefilter_root.derive(table.as_bytes());
        for ((filter_table, column), values) in query.canonical_filter_sets() {
            if filter_table != *table {
                continue;
            }
            let col_pos = config
                .filter_columns
                .iter()
                .position(|c| *c == column)
                .ok_or_else(|| DbError::NotAFilterColumn {
                    table: table.clone(),
                    column: column.clone(),
                })?;
            if values.is_empty() {
                return Err(DbError::EmptyInClause);
            }
            if values.len() > self.params.t {
                return Err(DbError::InClauseTooLarge {
                    got: values.len(),
                    max: self.params.t,
                });
            }
            let embedded: Vec<Fr> = values
                .iter()
                .map(|v| embed_attribute(&v.canonical_bytes()))
                .collect();
            per_column[col_pos] = Some(embedded);
            if self.prefilter_enabled {
                let col_prf = table_prf.derive(column.as_bytes());
                let tags = values
                    .iter()
                    .map(|v| col_prf.tag16(&v.canonical_bytes()))
                    .collect();
                prefilter.push((col_pos, tags));
            }
        }

        self.stats.tkgen_calls += 1;
        let _span = eqjoin_obs::span!("client_tkgen", "table" => table);
        let token = SecureJoin::<E>::token_gen(&self.msk, side, key, &per_column, &mut self.rng)?;
        Ok(SideTokens {
            table: table.clone(),
            token: token.into(),
            prefilter,
        })
    }

    /// Open one sealed column payload of `table`'s row `row_idx`. The
    /// associated data binds `(table, row, column)`, so a swapped or
    /// tampered blob fails authentication. Bytes equal to the ones this
    /// client last opened for the same slot return that open's value
    /// without running it again (see the [module docs](self)).
    pub fn open_value(
        &mut self,
        table: &str,
        row_idx: usize,
        column_idx: usize,
        payload: &[u8],
    ) -> Result<Value, DbError> {
        let slots = self.opened.get_mut(table);
        if let Some(slot) = slots
            .as_ref()
            .and_then(|slots| slots.get(&(row_idx, column_idx)))
            .filter(|slot| slot.sealed == payload)
        {
            self.stats.column_opens_reused += 1;
            return Ok(slot.value.clone());
        }
        let ad = payload_ad(table, row_idx, column_idx);
        let plain = self
            .aead
            .open(ad.as_bytes(), payload)
            .map_err(|_| DbError::PayloadCorrupted)?;
        self.stats.column_decrypts += 1;
        let value = Value::from_canonical_bytes(&plain).ok_or(DbError::PayloadCorrupted)?;
        let slot = OpenedSlot {
            sealed: payload.to_vec(),
            value: value.clone(),
        };
        match slots {
            Some(slots) => slots.insert((row_idx, column_idx), slot),
            None => self
                .opened
                .entry(table.to_owned())
                .or_default()
                .insert((row_idx, column_idx), slot),
        };
        Ok(value)
    }

    /// Drop every opened slot of `table` (the server holds a new
    /// registration under that name, whose row ids start again).
    pub(crate) fn forget_opened_table(&mut self, table: &str) {
        self.opened.remove(table);
    }

    /// Drop the opened slots of `table`'s rows `rows` (the server
    /// deleted them).
    pub(crate) fn forget_opened_rows(&mut self, table: &str, rows: &[u64]) {
        if let Some(slots) = self.opened.get_mut(table) {
            let mut gone = rows.to_vec();
            gone.sort_unstable();
            slots.retain(|&(row, _), _| gone.binary_search(&(row as u64)).is_err());
        }
    }

    /// Record `n` column decrypts a projection skipped (bookkeeping for
    /// [`ClientStats::column_decrypts_skipped`]).
    pub fn note_skipped_column_decrypts(&mut self, n: u64) {
        self.stats.column_decrypts_skipped += n;
    }
}

/// Associated-data string binding a sealed payload to its
/// `(table, row, column)` slot.
fn payload_ad(table: &str, row_idx: usize, column_idx: usize) -> String {
    format!("{table}#{row_idx}#{column_idx}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Schema;
    use eqjoin_pairing::MockEngine;

    fn sample_table() -> Table {
        let mut t = Table::new(Schema::new("People", &["id", "name", "role"]));
        t.push_row(vec![Value::Int(1), "ann".into(), "dev".into()]);
        t.push_row(vec![Value::Int(2), "bob".into(), "ops".into()]);
        t
    }

    fn config() -> TableConfig {
        TableConfig {
            join_column: "id".into(),
            filter_columns: vec!["name".into(), "role".into()],
        }
    }

    #[test]
    fn encrypt_table_shapes() {
        let mut client = DbClient::<MockEngine>::new(2, 2, 7);
        let enc = client.encrypt_table(&sample_table(), config()).unwrap();
        assert_eq!(enc.len(), 2);
        assert_eq!(enc.join_column, "id");
        // inner dim = m(t+1)+3 = 2*3+3 = 9 ciphertext elements per row.
        assert_eq!(enc.rows[0].cipher.elements().len(), 9);
        assert!(enc.rows[0].tags.is_none(), "prefilter off by default");
        assert!(enc.ciphertext_bytes() > 0);
    }

    #[test]
    fn prefilter_tags_emitted_when_enabled() {
        let mut client =
            DbClient::<MockEngine>::with_config(ClientConfig::new(2, 2).seed(7).prefilter(true));
        let enc = client.encrypt_table(&sample_table(), config()).unwrap();
        let tags = enc.rows[0].tags.as_ref().unwrap();
        assert_eq!(tags.len(), 2);
        // Equal values get equal tags; different rows differ.
        assert_ne!(enc.rows[0].tags, enc.rows[1].tags);
    }

    #[test]
    fn parallel_encrypt_is_byte_identical_to_sequential() {
        // Same seed, different worker counts (sequential, 3 workers,
        // all cores): every ciphertext element, sealed payload and
        // pre-filter tag must match exactly — per-row RNG streams make
        // the output independent of scheduling.
        let mut big = Table::new(Schema::new("People", &["id", "name", "role"]));
        for i in 0..23 {
            big.push_row(vec![
                Value::Int(i),
                format!("user-{i}").as_str().into(),
                if i % 2 == 0 {
                    "dev".into()
                } else {
                    "ops".into()
                },
            ]);
        }
        let extra: Vec<Vec<Value>> = (23..31)
            .map(|i| {
                vec![
                    Value::Int(i),
                    format!("late-{i}").as_str().into(),
                    "dev".into(),
                ]
            })
            .collect();
        let encrypt_all = |threads: usize| {
            let mut client = DbClient::<MockEngine>::with_config(
                ClientConfig::new(2, 2)
                    .seed(99)
                    .prefilter(true)
                    .encrypt_threads(threads),
            );
            let mut enc = client.encrypt_table(&big, config()).unwrap();
            let (start, more) = client.encrypt_rows("People", &extra).unwrap();
            assert_eq!(start, 23);
            enc.rows.extend(more);
            enc
        };
        let sequential = encrypt_all(1);
        for threads in [3, 0] {
            let parallel = encrypt_all(threads);
            assert_eq!(parallel.rows.len(), sequential.rows.len());
            for (a, b) in sequential.rows.iter().zip(&parallel.rows) {
                assert_eq!(a.cipher.elements(), b.cipher.elements());
                assert_eq!(a.payloads, b.payloads);
                assert_eq!(a.tags, b.tags);
            }
        }
    }

    #[test]
    fn too_many_filter_columns_is_an_error_not_a_panic() {
        let mut client = DbClient::<MockEngine>::new(1, 2, 7);
        let bad = TableConfig {
            join_column: "id".into(),
            filter_columns: vec!["name".into(), "role".into()],
        };
        assert_eq!(
            client.encrypt_table(&sample_table(), bad).unwrap_err(),
            DbError::TooManyFilterColumns {
                table: "People".into(),
                got: 2,
                max: 1,
            }
        );
    }

    #[test]
    fn tkgen_counter_counts_sides() {
        let mut client = DbClient::<MockEngine>::new(2, 2, 7);
        client.encrypt_table(&sample_table(), config()).unwrap();
        assert_eq!(client.stats().tkgen_calls, 0);
        assert_eq!(client.stats().rows_encrypted, 2);
        let q = JoinQuery::on("People", "id", "People", "id");
        client.query_tokens(&q).unwrap();
        assert_eq!(client.stats().tkgen_calls, 2, "one SJ.TkGen per side");
        client.query_tokens(&q).unwrap();
        assert_eq!(client.stats().tkgen_calls, 4);
    }

    #[test]
    fn unknown_columns_rejected() {
        let mut client = DbClient::<MockEngine>::new(2, 2, 7);
        let bad = TableConfig {
            join_column: "nope".into(),
            filter_columns: vec![],
        };
        assert!(matches!(
            client.encrypt_table(&sample_table(), bad),
            Err(DbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn query_validation_errors() {
        let mut client = DbClient::<MockEngine>::new(2, 2, 7);
        client.encrypt_table(&sample_table(), config()).unwrap();
        // Unknown table.
        let q = JoinQuery::on("Ghost", "id", "People", "id");
        assert!(matches!(
            client.query_tokens(&q),
            Err(DbError::UnknownTable(_))
        ));
        // Wrong join column.
        let q = JoinQuery::on("People", "name", "People", "id");
        assert!(matches!(
            client.query_tokens(&q),
            Err(DbError::JoinColumnMismatch { .. })
        ));
        // Filter on a non-filter column.
        let q = JoinQuery::on("People", "id", "People", "id").filter(
            "People",
            "id",
            vec![Value::Int(1)],
        );
        assert!(matches!(
            client.query_tokens(&q),
            Err(DbError::NotAFilterColumn { .. })
        ));
        // Oversized IN clause (t = 2).
        let q = JoinQuery::on("People", "id", "People", "id").filter(
            "People",
            "role",
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        assert!(matches!(
            client.query_tokens(&q),
            Err(DbError::InClauseTooLarge { got: 3, max: 2 })
        ));
        // Empty IN clause.
        let q = JoinQuery::on("People", "id", "People", "id").filter("People", "role", vec![]);
        assert!(matches!(
            client.query_tokens(&q),
            Err(DbError::EmptyInClause)
        ));
    }
}
