//! Server-side encrypted artifacts: tables, rows and query tokens.

use crate::error::DbError;
use eqjoin_core::{SjRowCiphertext, SjTableSide, SjToken};
use eqjoin_pairing::Engine;
use std::marker::PhantomData;

/// One encrypted row as stored by the server.
#[derive(Clone, Debug)]
pub struct EncryptedRow<E: Engine> {
    /// The Secure Join ciphertext vector `C_r = g2^{w_r·B*}`.
    pub cipher: SjRowCiphertext<E>,
    /// AEAD-sealed row payload, one blob **per column** (associated
    /// data binds table, row index and column index). Sealing columns
    /// individually is what makes projections real: the client opens
    /// only the selected columns and the server ships only those blobs.
    pub payloads: Vec<Vec<u8>>,
    /// Optional pre-filter tags, one per filter column
    /// (`PRF(k_col, value)`, 16 bytes). Present only if the client
    /// enabled the selectivity pre-filter for this table.
    pub tags: Option<Vec<[u8; 16]>>,
}

/// An encrypted table.
#[derive(Clone, Debug)]
pub struct EncryptedTable<E: Engine> {
    /// Table name.
    pub name: String,
    /// Join column fixed at encryption time (plaintext metadata).
    pub join_column: String,
    /// Filter columns in encryption order (plaintext metadata).
    pub filter_columns: Vec<String>,
    /// The encrypted rows.
    pub rows: Vec<EncryptedRow<E>>,
}

impl<E: Engine> EncryptedTable<E> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate ciphertext size in bytes (for storage-overhead
    /// reporting).
    pub fn ciphertext_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| {
                r.cipher
                    .elements()
                    .iter()
                    .map(|e| E::g2_bytes(e).len())
                    .sum::<usize>()
                    + r.payloads.iter().map(Vec::len).sum::<usize>()
                    + r.tags.as_ref().map_or(0, |t| t.len() * 16)
            })
            .sum()
    }
}

/// A Secure Join token `Tk = g1^{v·B}` as it travels: the table side
/// and each `G1` element's canonical encoding, byte for byte, every one
/// exactly [`Engine::G1_BYTES`] wide — for `Bls12` the 48-byte
/// compressed form (`x` and a flag for the root of `y`; see the
/// `eqjoin_pairing::g1` docs). The wire writes the elements back to
/// back after their count, so a `(m, t) = (2, 3)` token is
/// `1 + 8 + 11 × 48` = 537 bytes. A client encodes the token it
/// generated once ([`From<SjToken>`]); the codec copies the byte
/// strings without touching the curve; the store hashes them as
/// received. A pairing takes an [`SjToken`], and the only way there is
/// [`WireToken::checked`].
#[derive(Clone, Debug)]
pub struct WireToken<E: Engine> {
    side: SjTableSide,
    elements: Vec<Vec<u8>>,
    engine: PhantomData<E>,
}

impl<E: Engine> WireToken<E> {
    /// A token from element encodings nobody has vouched for (what the
    /// codec reads off a frame). An element of another width than
    /// [`Engine::G1_BYTES`] has no place on the wire and is refused
    /// here, before anything could encode it.
    pub fn from_encoded(side: SjTableSide, elements: Vec<Vec<u8>>) -> Result<Self, DbError> {
        if let Some(bad) = elements.iter().find(|e| e.len() != E::G1_BYTES) {
            return Err(DbError::Protocol(format!(
                "G1 element of {} bytes (this engine's are {})",
                bad.len(),
                E::G1_BYTES
            )));
        }
        Ok(WireToken {
            side,
            elements,
            engine: PhantomData,
        })
    }

    /// Which table side this token targets.
    pub fn side(&self) -> SjTableSide {
        self.side
    }

    /// The element encodings, as received.
    pub fn elements(&self) -> &[Vec<u8>] {
        &self.elements
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Decode every element with the engine's full check (for `Bls12`:
    /// the encoding, one square root for `y`, the subgroup); the first
    /// bad one refuses the token.
    pub fn checked(&self) -> Result<SjToken<E>, DbError> {
        let elements = self
            .elements
            .iter()
            .map(|bytes| {
                E::g1_from_bytes(bytes).ok_or_else(|| {
                    DbError::Protocol("invalid G1 element (curve/subgroup check)".into())
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(SjToken::from_elements(self.side, elements))
    }
}

impl<E: Engine> From<SjToken<E>> for WireToken<E> {
    fn from(token: SjToken<E>) -> Self {
        WireToken {
            side: token.side(),
            elements: token.elements().iter().map(E::g1_bytes).collect(),
            engine: PhantomData,
        }
    }
}

/// The token bundle for one side of a join query.
#[derive(Clone, Debug)]
pub struct SideTokens<E: Engine> {
    /// Target table name.
    pub table: String,
    /// The Secure Join token, as it travels.
    pub token: WireToken<E>,
    /// Pre-filter tag sets: `(filter column index, allowed tags)` for
    /// each constrained column. Empty when the pre-filter is unused.
    pub prefilter: Vec<(usize, Vec<[u8; 16]>)>,
}

/// Everything the server needs to execute one join query.
#[derive(Clone, Debug)]
pub struct QueryTokens<E: Engine> {
    /// Tokens for the left table.
    pub left: SideTokens<E>,
    /// Tokens for the right table.
    pub right: SideTokens<E>,
}
