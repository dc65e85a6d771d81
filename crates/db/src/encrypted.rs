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
}

/// A Secure Join token `Tk = g1^{v·B}` as it travels: the table side
/// and its `G1` elements' canonical encodings as **one contiguous run**,
/// byte for byte, every element exactly [`Engine::G1_BYTES`] wide —
/// for `Bls12` the 48-byte compressed form (`x` and a flag for the root
/// of `y`; see the `eqjoin_pairing::g1` docs). The wire writes the
/// element count and then this run, so a `(m, t) = (2, 3)` token is
/// `1 + 8 + 11 × 48` = 537 bytes, and the codec reads a side with one
/// copy of the run, whatever the token's arity. A client encodes the
/// token it generated once ([`From<SjToken>`]); the codec copies the
/// bytes without touching the curve; the store hashes them as received,
/// reading the run in place. A pairing takes an [`SjToken`], and the
/// only way there is [`WireToken::checked`].
#[derive(Clone, Debug)]
pub struct WireToken<E: Engine> {
    side: SjTableSide,
    /// The element encodings back to back; its length is a multiple of
    /// [`Engine::G1_BYTES`].
    run: Box<[u8]>,
    engine: PhantomData<E>,
}

impl<E: Engine> WireToken<E> {
    /// A token from element encodings nobody has vouched for. An
    /// element of another width than [`Engine::G1_BYTES`] has no place
    /// on the wire and is refused here, before anything could encode it.
    pub fn from_encoded<B: AsRef<[u8]>>(
        side: SjTableSide,
        elements: impl IntoIterator<Item = B>,
    ) -> Result<Self, DbError> {
        let mut run = Vec::new();
        for element in elements {
            let element = element.as_ref();
            if element.len() != E::G1_BYTES {
                return Err(DbError::Protocol(format!(
                    "G1 element of {} bytes (this engine's are {})",
                    element.len(),
                    E::G1_BYTES
                )));
            }
            run.extend_from_slice(element);
        }
        Ok(WireToken::from_run(side, run.into()))
    }

    /// A token from a run of encodings read off a frame, whose length
    /// the codec has checked to be `count × G1_BYTES`.
    pub(crate) fn from_run(side: SjTableSide, run: Box<[u8]>) -> Self {
        WireToken {
            side,
            run,
            engine: PhantomData,
        }
    }

    /// Which table side this token targets.
    pub fn side(&self) -> SjTableSide {
        self.side
    }

    /// The element encodings, as received, one slice each.
    pub fn elements(&self) -> std::slice::ChunksExact<'_, u8> {
        self.run.chunks_exact(E::G1_BYTES.max(1))
    }

    /// The element encodings back to back, as received.
    pub fn as_bytes(&self) -> &[u8] {
        &self.run
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.run.len() / E::G1_BYTES.max(1)
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Decode every element with the engine's full check (for `Bls12`:
    /// the encoding, one square root for `y`, the subgroup); the first
    /// bad one refuses the token.
    pub fn checked(&self) -> Result<SjToken<E>, DbError> {
        let elements = self
            .elements()
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
        let run: Vec<u8> = token.elements().iter().flat_map(E::g1_bytes).collect();
        WireToken::from_run(token.side(), run.into())
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
