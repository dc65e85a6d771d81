//! The five Secure Join algorithms of §4.3, generic over the bilinear
//! engine.
//!
//! | Paper        | Here                         | Party  | Phase  |
//! |--------------|------------------------------|--------|--------|
//! | `SJ.Setup`   | [`SecureJoin::setup`]        | client | upload |
//! | `SJ.Enc`     | [`SecureJoin::encrypt_row`]  | client | upload |
//! | `SJ.TokenGen`| [`SecureJoin::token_gen`]    | client | query  |
//! | `SJ.Dec`     | [`SecureJoin::decrypt`]      | server | query  |
//! | `SJ.Match`   | [`SecureJoin::matches`]      | server | result |
//!
//! One [`SjMasterKey`] covers a *join context*: the pair (or set) of
//! tables that may be joined with each other. Both tables are encrypted
//! under the same matrix `B` and a query issues two tokens sharing the
//! same fresh symmetric key `k` (one per table side).

use crate::encode::RowEncoding;
use crate::poly::SelectionPolynomial;
use eqjoin_crypto::RandomSource;
use eqjoin_fhipe::modified::{
    ModifiedIpe, ModifiedIpeCiphertext, ModifiedIpeMasterKey, ModifiedIpePreparedCiphertext,
    ModifiedIpeToken,
};
use eqjoin_fhipe::DimensionMismatch;
use eqjoin_pairing::{Engine, Fr};

/// Scheme dimensions: `m` filter attributes per table, `IN`-clause bound
/// `t` (the polynomial degree). The FHIPE payload dimension is
/// `m(t+1) + 1` and the full inner dimension `m(t+1) + 3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SjParams {
    /// Number of filter attributes per table.
    pub m: usize,
    /// Maximum `IN`-clause size (= selection-polynomial degree).
    pub t: usize,
}

impl SjParams {
    /// FHIPE payload dimension `m(t+1) + 1`.
    pub fn payload_dim(&self) -> usize {
        self.m * (self.t + 1) + 1
    }

    /// Full FHIPE inner dimension `m(t+1) + 3` (payload + the two
    /// randomness slots of the modified scheme).
    pub fn inner_dim(&self) -> usize {
        self.payload_dim() + 2
    }
}

/// Which side of the join a token targets. The scheme is symmetric in the
/// two sides (§4.3 footnote: "the order does not matter here"); the tag
/// exists for bookkeeping and wire formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SjTableSide {
    /// Table `T_A` of the paper.
    A,
    /// Table `T_B` of the paper.
    B,
}

/// The client's master key for one join context.
pub struct SjMasterKey<E: Engine> {
    params: SjParams,
    ipe: ModifiedIpeMasterKey<E>,
}

/// A per-query symmetric key `k ∈ Z_q \ {0}`, shared by the two tokens of
/// one join query. Fresh `k` per query is what prevents cross-query
/// linkage (Corollary 5.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SjQueryKey(pub(crate) Fr);

/// An encrypted row: `C_r = g2^{w_r·B*}`.
#[derive(Clone, Debug)]
pub struct SjRowCiphertext<E: Engine> {
    inner: ModifiedIpeCiphertext<E>,
}

/// An encrypted row with **prepared pairing state**: every `G2` element
/// carries its precomputed Miller-loop line coefficients
/// ([`Engine::G2Prepared`]), so each `SJ.Dec` against it skips the
/// per-step slope derivations. Servers keep the rows their queries
/// select in this form, in memory only — the preparation is paid once,
/// by the first query that selects the row, and amortized over the
/// rest of the series.
#[derive(Clone, Debug)]
pub struct SjPreparedCiphertext<E: Engine> {
    inner: ModifiedIpePreparedCiphertext<E>,
}

/// A join-query token for one table side: `Tk = g1^{v·B}`.
#[derive(Clone, Debug)]
pub struct SjToken<E: Engine> {
    inner: ModifiedIpeToken<E>,
    side: SjTableSide,
}

/// The Secure Join scheme.
pub struct SecureJoin<E: Engine>(std::marker::PhantomData<E>);

impl<E: Engine> SecureJoin<E> {
    /// `SJ.Setup(1^λ)` — sample the bilinear-group basis for this join
    /// context.
    pub fn setup(params: SjParams, rng: &mut dyn RandomSource) -> SjMasterKey<E> {
        assert!(params.m > 0, "need at least one filter attribute");
        assert!(params.t > 0, "IN-clause bound t must be positive");
        SjMasterKey {
            params,
            ipe: ModifiedIpe::<E>::setup(params.payload_dim(), rng),
        }
    }

    /// `SJ.Enc(msk, w_r)` — encrypt one row.
    ///
    /// `row` carries the hashed join value and the `m` embedded filter
    /// attributes; fresh `γ₁` (inside the FHIPE layer) and `γ₂` blind the
    /// ciphertext.
    pub fn encrypt_row(
        msk: &SjMasterKey<E>,
        row: &RowEncoding,
        rng: &mut dyn RandomSource,
    ) -> Result<SjRowCiphertext<E>, DimensionMismatch> {
        if row.m() != msk.params.m {
            return Err(DimensionMismatch {
                what: "row attributes",
                expected: msk.params.m,
                got: row.m(),
            });
        }
        let gamma2 = Fr::random_nonzero(rng);
        let omega = row.omega(msk.params.t, gamma2);
        Ok(SjRowCiphertext {
            inner: ModifiedIpe::<E>::encrypt(&msk.ipe, &omega, rng)?,
        })
    }

    /// Draw the fresh per-query key `k ∈ Z_q \ {0}`.
    pub fn fresh_query_key(rng: &mut dyn RandomSource) -> SjQueryKey {
        SjQueryKey(Fr::random_nonzero(rng))
    }

    /// `SJ.TokenGen(msk, Ξ_τ)` — build the token for one table side.
    ///
    /// `filters[i]` is `Some(values)` if attribute `i` is constrained by
    /// an `IN` clause (embedded values; at most `t` of them) and `None`
    /// otherwise. Both sides of one query must share the same
    /// [`SjQueryKey`].
    pub fn token_gen(
        msk: &SjMasterKey<E>,
        side: SjTableSide,
        key: &SjQueryKey,
        filters: &[Option<Vec<Fr>>],
        rng: &mut dyn RandomSource,
    ) -> Result<SjToken<E>, DimensionMismatch> {
        if filters.len() != msk.params.m {
            return Err(DimensionMismatch {
                what: "query filters",
                expected: msk.params.m,
                got: filters.len(),
            });
        }
        let t = msk.params.t;
        let mut nu = Vec::with_capacity(msk.params.payload_dim());
        nu.push(key.0);
        for filter in filters {
            let poly = match filter {
                Some(values) => SelectionPolynomial::from_roots(values, t, rng),
                None => SelectionPolynomial::zero(t),
            };
            nu.extend_from_slice(poly.coeffs());
        }
        Ok(SjToken {
            inner: ModifiedIpe::<E>::token(&msk.ipe, &nu, rng)?,
            side,
        })
    }

    /// `SJ.Dec(pp, Tk_τ, C_r)` — the server decrypts one row against a
    /// token:
    /// `D_r = e(Tk, C_r) = e(g1,g2)^{det(B)(k·H(a₀) + γ₂·Σᵢ Pᵢ(aᵢ))}`.
    pub fn decrypt(token: &SjToken<E>, ct: &SjRowCiphertext<E>) -> E::Gt {
        ModifiedIpe::<E>::decrypt(&token.inner, &ct.inner)
    }

    /// Precompute a row ciphertext's pairing state (once, ahead of its
    /// first `SJ.Dec`).
    pub fn prepare_row(ct: &SjRowCiphertext<E>) -> SjPreparedCiphertext<E> {
        SjPreparedCiphertext {
            inner: ModifiedIpe::<E>::prepare(&ct.inner),
        }
    }

    /// `SJ.Dec` against a prepared row — bit-identical output to
    /// [`SecureJoin::decrypt`] on the originating ciphertext.
    pub fn decrypt_prepared(token: &SjToken<E>, ct: &SjPreparedCiphertext<E>) -> E::Gt {
        ModifiedIpe::<E>::decrypt_prepared(&token.inner, &ct.inner)
    }

    /// `SJ.Dec` of one token against a whole phase of prepared rows,
    /// batching cross-row work (on BLS, the final exponentiation's
    /// easy-part inversions collapse into one via Montgomery's trick).
    /// Output order matches `rows`.
    pub fn decrypt_prepared_many(
        token: &SjToken<E>,
        rows: &[&SjPreparedCiphertext<E>],
    ) -> Vec<E::Gt> {
        let inner: Vec<&ModifiedIpePreparedCiphertext<E>> = rows.iter().map(|r| &r.inner).collect();
        ModifiedIpe::<E>::decrypt_prepared_batch(&token.inner, &inner)
    }

    /// `SJ.Match(D_A, D_B)` — rows join iff their decrypted values are
    /// equal.
    pub fn matches(da: &E::Gt, db: &E::Gt) -> bool {
        da == db
    }

    /// Canonical bytes of a decrypted value — the hash-join key used by
    /// the DB engine for `O(n)` expected-time matching.
    pub fn match_key(d: &E::Gt) -> Vec<u8> {
        E::gt_bytes(d)
    }
}

impl<E: Engine> SjMasterKey<E> {
    /// The scheme dimensions.
    pub fn params(&self) -> SjParams {
        self.params
    }
}

impl<E: Engine> SjToken<E> {
    /// Which table side this token targets.
    pub fn side(&self) -> SjTableSide {
        self.side
    }

    /// Raw token elements (wire format).
    pub fn elements(&self) -> &[E::G1] {
        &self.inner.elements
    }

    /// Rebuild from wire elements.
    pub fn from_elements(side: SjTableSide, elements: Vec<E::G1>) -> Self {
        SjToken {
            inner: ModifiedIpeToken { elements },
            side,
        }
    }
}

impl<E: Engine> SjRowCiphertext<E> {
    /// Raw ciphertext elements (wire format).
    pub fn elements(&self) -> &[E::G2] {
        &self.inner.elements
    }

    /// Rebuild from wire elements.
    pub fn from_elements(elements: Vec<E::G2>) -> Self {
        SjRowCiphertext {
            inner: ModifiedIpeCiphertext { elements },
        }
    }
}

impl<E: Engine> SjPreparedCiphertext<E> {
    /// Assemble a row from elements prepared elsewhere — a server
    /// prepares many rows in one cross-row batch and splits the result.
    pub fn from_elements(elements: Vec<E::G2Prepared>) -> Self {
        SjPreparedCiphertext {
            inner: ModifiedIpePreparedCiphertext { elements },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{embed_attribute, embed_join_value};
    use eqjoin_crypto::ChaChaRng;
    use eqjoin_pairing::{Bls12, MockEngine};

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(0x5c)
    }

    fn params() -> SjParams {
        SjParams { m: 2, t: 2 }
    }

    /// Encrypt a toy row: join value + two attributes, all as strings.
    fn enc_row<E: Engine>(
        msk: &SjMasterKey<E>,
        join: &str,
        a1: &str,
        a2: &str,
        rng: &mut ChaChaRng,
    ) -> SjRowCiphertext<E> {
        let row = RowEncoding::from_bytes(
            join.as_bytes(),
            &[a1.as_bytes().to_vec(), a2.as_bytes().to_vec()],
        );
        SecureJoin::<E>::encrypt_row(msk, &row, rng).unwrap()
    }

    fn filter_on(values: &[&str]) -> Option<Vec<Fr>> {
        Some(
            values
                .iter()
                .map(|v| embed_attribute(v.as_bytes()))
                .collect(),
        )
    }

    /// Run the full protocol for one query on both engines and return
    /// whether the two rows matched.
    fn run_match<E: Engine>(join_a: &str, join_b: &str, selected: bool, same_query: bool) -> bool {
        let mut r = rng();
        let msk = SecureJoin::<E>::setup(params(), &mut r);
        let ct_a = enc_row::<E>(&msk, join_a, "red", "x", &mut r);
        let ct_b = enc_row::<E>(&msk, join_b, "blue", "y", &mut r);
        let k1 = SecureJoin::<E>::fresh_query_key(&mut r);
        let k2 = if same_query {
            k1
        } else {
            SecureJoin::<E>::fresh_query_key(&mut r)
        };
        // Side A selects attribute 0 ∈ {red, green}; side B selects
        // attribute 1 ∈ {y, z}. If `selected` is false, side A's filter
        // misses the row's value.
        let filt_a = if selected {
            vec![filter_on(&["red", "green"]), None]
        } else {
            vec![filter_on(&["green", "white"]), None]
        };
        let filt_b = vec![None, filter_on(&["y", "z"])];
        let tk_a = SecureJoin::<E>::token_gen(&msk, SjTableSide::A, &k1, &filt_a, &mut r).unwrap();
        let tk_b = SecureJoin::<E>::token_gen(&msk, SjTableSide::B, &k2, &filt_b, &mut r).unwrap();
        let da = SecureJoin::<E>::decrypt(&tk_a, &ct_a);
        let db = SecureJoin::<E>::decrypt(&tk_b, &ct_b);
        SecureJoin::<E>::matches(&da, &db)
    }

    #[test]
    fn match_iff_equal_join_and_selection_and_same_query_mock() {
        // The paper's Theorem 5.2 case (1): all three conditions hold.
        assert!(run_match::<MockEngine>("k1", "k1", true, true));
        // Case (2): selection fails.
        assert!(!run_match::<MockEngine>("k1", "k1", false, true));
        // Case (3): join values differ.
        assert!(!run_match::<MockEngine>("k1", "k2", true, true));
        // Case (5): different queries, same join value.
        assert!(!run_match::<MockEngine>("k1", "k1", true, false));
        // Cases (4)/(6)/(8): combinations.
        assert!(!run_match::<MockEngine>("k1", "k2", false, true));
        assert!(!run_match::<MockEngine>("k1", "k1", false, false));
        assert!(!run_match::<MockEngine>("k1", "k2", false, false));
        // Case (7): different queries, different join values.
        assert!(!run_match::<MockEngine>("k1", "k2", true, false));
    }

    #[test]
    fn match_iff_equal_join_and_selection_and_same_query_bls() {
        assert!(run_match::<Bls12>("k1", "k1", true, true));
        assert!(!run_match::<Bls12>("k1", "k1", false, true));
        assert!(!run_match::<Bls12>("k1", "k2", true, true));
        assert!(!run_match::<Bls12>("k1", "k1", true, false));
    }

    #[test]
    fn within_table_equality_is_visible() {
        // Two rows of the *same* table with equal join values that both
        // match the selection produce equal D — this is the transitive
        // closure leakage the paper accepts (Example 2.1's (b₁,b₂) pair).
        let mut r = rng();
        let msk = SecureJoin::<MockEngine>::setup(params(), &mut r);
        let ct1 = enc_row(&msk, "j", "red", "x", &mut r);
        let ct2 = enc_row(&msk, "j", "red", "z", &mut r);
        let k = SecureJoin::<MockEngine>::fresh_query_key(&mut r);
        let tk = SecureJoin::<MockEngine>::token_gen(
            &msk,
            SjTableSide::A,
            &k,
            &[filter_on(&["red"]), None],
            &mut r,
        )
        .unwrap();
        let d1 = SecureJoin::<MockEngine>::decrypt(&tk, &ct1);
        let d2 = SecureJoin::<MockEngine>::decrypt(&tk, &ct2);
        assert!(SecureJoin::<MockEngine>::matches(&d1, &d2));
    }

    #[test]
    fn unconstrained_query_joins_on_key_only() {
        // All filters None: every row participates; equal join values
        // match.
        let mut r = rng();
        let msk = SecureJoin::<MockEngine>::setup(params(), &mut r);
        let ct1 = enc_row(&msk, "j", "a", "b", &mut r);
        let ct2 = enc_row(&msk, "j", "c", "d", &mut r);
        let k = SecureJoin::<MockEngine>::fresh_query_key(&mut r);
        let tk_a =
            SecureJoin::<MockEngine>::token_gen(&msk, SjTableSide::A, &k, &[None, None], &mut r)
                .unwrap();
        let tk_b =
            SecureJoin::<MockEngine>::token_gen(&msk, SjTableSide::B, &k, &[None, None], &mut r)
                .unwrap();
        let d1 = SecureJoin::<MockEngine>::decrypt(&tk_a, &ct1);
        let d2 = SecureJoin::<MockEngine>::decrypt(&tk_b, &ct2);
        assert!(SecureJoin::<MockEngine>::matches(&d1, &d2));
    }

    #[test]
    fn in_clause_any_of_matches() {
        // IN (v1, v2): rows with either value match rows selected on the
        // other side.
        let mut r = rng();
        let msk = SecureJoin::<MockEngine>::setup(SjParams { m: 1, t: 3 }, &mut r);
        let mk_row = |attr: &str, r: &mut ChaChaRng| {
            let row = RowEncoding::from_bytes(b"key", &[attr.as_bytes().to_vec()]);
            SecureJoin::<MockEngine>::encrypt_row(&msk, &row, r).unwrap()
        };
        let ct_v1 = mk_row("v1", &mut r);
        let ct_v2 = mk_row("v2", &mut r);
        let ct_v3 = mk_row("v3", &mut r);
        let k = SecureJoin::<MockEngine>::fresh_query_key(&mut r);
        let tk = SecureJoin::<MockEngine>::token_gen(
            &msk,
            SjTableSide::A,
            &k,
            &[filter_on(&["v1", "v2"])],
            &mut r,
        )
        .unwrap();
        let d1 = SecureJoin::<MockEngine>::decrypt(&tk, &ct_v1);
        let d2 = SecureJoin::<MockEngine>::decrypt(&tk, &ct_v2);
        let d3 = SecureJoin::<MockEngine>::decrypt(&tk, &ct_v3);
        assert_eq!(d1, d2, "both selected values unlock the join hash");
        assert_ne!(d1, d3, "unselected value stays blinded");
    }

    #[test]
    fn match_key_bytes_agree_with_equality() {
        let mut r = rng();
        let msk = SecureJoin::<Bls12>::setup(SjParams { m: 1, t: 1 }, &mut r);
        let row = RowEncoding::from_bytes(b"k", &[b"v".to_vec()]);
        let ct1 = SecureJoin::<Bls12>::encrypt_row(&msk, &row, &mut r).unwrap();
        let ct2 = SecureJoin::<Bls12>::encrypt_row(&msk, &row, &mut r).unwrap();
        let k = SecureJoin::<Bls12>::fresh_query_key(&mut r);
        let tk = SecureJoin::<Bls12>::token_gen(
            &msk,
            SjTableSide::A,
            &k,
            &[Some(vec![embed_attribute(b"v")])],
            &mut r,
        )
        .unwrap();
        let d1 = SecureJoin::<Bls12>::decrypt(&tk, &ct1);
        let d2 = SecureJoin::<Bls12>::decrypt(&tk, &ct2);
        assert!(SecureJoin::<Bls12>::matches(&d1, &d2));
        assert_eq!(
            SecureJoin::<Bls12>::match_key(&d1),
            SecureJoin::<Bls12>::match_key(&d2)
        );
    }

    #[test]
    fn ciphertexts_are_probabilistic() {
        let mut r = rng();
        let msk = SecureJoin::<MockEngine>::setup(params(), &mut r);
        let ct1 = enc_row(&msk, "j", "a", "b", &mut r);
        let ct2 = enc_row(&msk, "j", "a", "b", &mut r);
        assert_ne!(ct1.elements(), ct2.elements());
    }

    #[test]
    fn decrypted_value_binds_join_hash() {
        // White-box (mock engine): when the selection matches, the
        // decrypted exponent equals det(B)·k·H(a₀) exactly.
        let mut r = rng();
        let msk = SecureJoin::<MockEngine>::setup(SjParams { m: 1, t: 2 }, &mut r);
        let row = RowEncoding::from_bytes(b"jv", &[b"attr".to_vec()]);
        let ct = SecureJoin::<MockEngine>::encrypt_row(&msk, &row, &mut r).unwrap();
        let k = SecureJoin::<MockEngine>::fresh_query_key(&mut r);
        let tk = SecureJoin::<MockEngine>::token_gen(
            &msk,
            SjTableSide::A,
            &k,
            &[Some(vec![embed_attribute(b"attr")])],
            &mut r,
        )
        .unwrap();
        let d = SecureJoin::<MockEngine>::decrypt(&tk, &ct);
        // Access det(B) indirectly: re-derive expected value through a
        // second matching row and the definition.
        let expected_partial = k.0 * embed_join_value(b"jv");
        // d.0 = det(B) · expected_partial; verify proportionality by
        // constructing a second independent key.
        let k2 = SecureJoin::<MockEngine>::fresh_query_key(&mut r);
        let tk2 = SecureJoin::<MockEngine>::token_gen(
            &msk,
            SjTableSide::A,
            &k2,
            &[Some(vec![embed_attribute(b"attr")])],
            &mut r,
        )
        .unwrap();
        let d2 = SecureJoin::<MockEngine>::decrypt(&tk2, &ct);
        let ratio = d.0 * d2.0.invert().unwrap();
        let expected_ratio = expected_partial * (k2.0 * embed_join_value(b"jv")).invert().unwrap();
        assert_eq!(ratio, expected_ratio);
    }

    #[test]
    fn params_dimensions() {
        let p = SjParams { m: 8, t: 1 };
        assert_eq!(p.payload_dim(), 17);
        assert_eq!(p.inner_dim(), 19);
        let p = SjParams { m: 8, t: 10 };
        assert_eq!(p.inner_dim(), 91);
    }

    #[test]
    fn wrong_arity_is_a_typed_error() {
        let mut r = rng();
        let msk = SecureJoin::<MockEngine>::setup(params(), &mut r);
        let row = RowEncoding::from_bytes(b"k", &[b"only-one".to_vec()]);
        let err = SecureJoin::<MockEngine>::encrypt_row(&msk, &row, &mut r).unwrap_err();
        assert_eq!((err.what, err.expected, err.got), ("row attributes", 2, 1));
        let k = SecureJoin::<MockEngine>::fresh_query_key(&mut r);
        let err = SecureJoin::<MockEngine>::token_gen(&msk, SjTableSide::A, &k, &[None], &mut r)
            .unwrap_err();
        assert_eq!((err.what, err.expected, err.got), ("query filters", 2, 1));
    }
}
