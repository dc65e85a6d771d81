//! The [`Engine`] abstraction over a bilinear group, and its production
//! implementation [`Bls12`].
//!
//! The Secure Join scheme and the FHIPE layer are generic over this trait,
//! which lets the test suite and the large-scale shape experiments swap in
//! the transparent [`crate::MockEngine`] while the cryptographic
//! benchmarks use the real curve. All scheme code treats group elements
//! opaquely, and the trait carries only the group work the schemes run:
//! fixed-base generator exponentiations (`SJ.Enc`, `SJ.TkGen`),
//! prepared inner-product multi-pairings (`SJ.Dec`), single pairings
//! and `GT` arithmetic (the §6.5 baselines), and the element codecs.

use crate::fr::Fr;
use crate::g1::{self, G1Affine};
use crate::g2::{self, G2Affine};
use crate::pairing as pr;
use crate::scalar_mul::FixedBaseTable;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::OnceLock;

/// A bilinear group `(G1, G2, GT, q, e)` with the operations the schemes
/// run. Groups are written additively at this layer; the paper's
/// multiplicative `g^x` corresponds to `mul_gen(x)`. There is no
/// variable-base `G1`/`G2` multiplication and no source-group addition:
/// nothing in the schemes multiplies a point other than a generator.
pub trait Engine: 'static + Clone + Copy + Debug + Send + Sync {
    /// First source group.
    type G1: Clone + Copy + PartialEq + Debug + Send + Sync;
    /// Second source group.
    type G2: Clone + Copy + PartialEq + Debug + Send + Sync;
    /// Target group.
    type Gt: Clone + Copy + PartialEq + Eq + Hash + Debug + Send + Sync;

    /// Human-readable engine name (used in benchmark reports).
    const NAME: &'static str;
    /// Width of every [`Engine::g1_bytes`] encoding: the wire writes a
    /// token's `G1` elements back to back at this width, with no length
    /// in front of each.
    const G1_BYTES: usize;

    /// `g1^s` for the fixed generator (fixed-base optimized).
    fn g1_mul_gen(s: &Fr) -> Self::G1;
    /// `g2^s` for the fixed generator (fixed-base optimized).
    fn g2_mul_gen(s: &Fr) -> Self::G2;

    /// Batch form of [`Engine::g1_mul_gen`]: engines may share
    /// inversions across the whole slice (Montgomery's trick — the BLS
    /// engine sums each scalar's comb entries as an affine tree and
    /// pays five inversions per call, one per tree level, however many
    /// scalars it holds). Output order matches `scalars`. The
    /// default falls back to per-scalar calls but still counts the
    /// batch, so op-counter audits see the intended path either way.
    fn g1_mul_gen_batch(scalars: &[Fr]) -> Vec<Self::G1> {
        crate::ops::count_batched_fixed_base_muls(scalars.len() as u64);
        scalars.iter().map(Self::g1_mul_gen).collect()
    }
    /// Batch form of [`Engine::g2_mul_gen`]; see
    /// [`Engine::g1_mul_gen_batch`].
    fn g2_mul_gen_batch(scalars: &[Fr]) -> Vec<Self::G2> {
        crate::ops::count_batched_fixed_base_muls(scalars.len() as u64);
        scalars.iter().map(Self::g2_mul_gen).collect()
    }
    /// A `G2` element with its Miller-loop line state precomputed
    /// ([`crate::pairing::G2Prepared`] for the real curve) — pairings
    /// against it skip the per-step slope derivations entirely. A
    /// server keeps this form, in memory only, for the ciphertexts its
    /// queries select, so a *series* of queries pays the line
    /// computation once per ciphertext, not once per pairing.
    type G2Prepared: Clone + Debug + Send + Sync;

    /// The bilinear map `e(p, q)`.
    fn pair(p: &Self::G1, q: &Self::G2) -> Self::Gt;
    /// `∏ᵢ e(pᵢ, qᵢ)` (slices must have equal length).
    fn multi_pair(ps: &[Self::G1], qs: &[Self::G2]) -> Self::Gt;

    /// Precompute the Miller-loop line state of a batch of `G2`
    /// elements; engines may share the per-step slope inversions across
    /// the whole batch. Output order matches `qs`.
    fn g2_prepare_batch(qs: &[Self::G2]) -> Vec<Self::G2Prepared>;
    /// [`Engine::g2_prepare_batch`] for elements decoded by
    /// [`Engine::g2_from_bytes_on_curve`]: `None` for one outside the
    /// group, which therefore never reaches a pairing. The default
    /// serves engines whose every decoded element is a group element.
    fn g2_prepare_batch_checked(qs: &[Self::G2]) -> Vec<Option<Self::G2Prepared>> {
        Self::g2_prepare_batch(qs).into_iter().map(Some).collect()
    }
    /// `∏ᵢ e(pᵢ, qᵢ)` against prepared elements — must agree exactly
    /// with [`Engine::multi_pair`] on the originating points.
    fn multi_pair_prepared(ps: &[Self::G1], qs: &[Self::G2Prepared]) -> Self::Gt;
    /// One multi-pairing per row, sharing work *across* rows where the
    /// engine can (BLS batches the final exponentiation's easy-part
    /// inversions with Montgomery's trick). Output order matches
    /// `rows`. This is the shape of a decrypt phase: one token against
    /// many stored ciphertexts.
    fn multi_pair_prepared_batch(ps: &[Self::G1], rows: &[&[Self::G2Prepared]]) -> Vec<Self::Gt> {
        rows.iter()
            .map(|row| Self::multi_pair_prepared(ps, row))
            .collect()
    }

    /// Identity of `GT`.
    fn gt_one() -> Self::Gt;
    /// Group operation in `GT` (multiplicative notation in the paper).
    fn gt_mul(a: &Self::Gt, b: &Self::Gt) -> Self::Gt;
    /// Exponentiation in `GT`.
    fn gt_pow(a: &Self::Gt, s: &Fr) -> Self::Gt;
    /// Inverse in `GT`.
    fn gt_inv(a: &Self::Gt) -> Self::Gt;
    /// Canonical bytes of a `GT` element — the hash-join key.
    fn gt_bytes(a: &Self::Gt) -> Vec<u8>;

    /// Serialize a `G1` element in the engine's canonical encoding
    /// (`Bls12`: 48 compressed bytes, see [`crate::g1`]).
    fn g1_bytes(p: &Self::G1) -> Vec<u8>;
    /// Deserialize a `G1` element (validated: curve and subgroup).
    /// `Some` only for strings [`Engine::g1_bytes`] produces, so each
    /// element has one encoding.
    fn g1_from_bytes(bytes: &[u8]) -> Option<Self::G1>;
    /// Serialize a `G2` element.
    fn g2_bytes(p: &Self::G2) -> Vec<u8>;
    /// Deserialize a `G2` element (validated).
    fn g2_from_bytes(bytes: &[u8]) -> Option<Self::G2>;
    /// Deserialize a `G2` element whose group membership
    /// [`Engine::g2_prepare_batch_checked`] establishes before its first
    /// pairing: everything [`Engine::g2_from_bytes`] checks except
    /// that. The default serves engines with nothing to defer.
    fn g2_from_bytes_on_curve(bytes: &[u8]) -> Option<Self::G2> {
        Self::g2_from_bytes(bytes)
    }
}

fn g1_table() -> &'static FixedBaseTable<crate::g1::G1Params> {
    static TABLE: OnceLock<FixedBaseTable<crate::g1::G1Params>> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::build(g1::generator()))
}

fn g2_table() -> &'static FixedBaseTable<crate::g2::G2Params> {
    static TABLE: OnceLock<FixedBaseTable<crate::g2::G2Params>> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::build(g2::generator()))
}

/// The production BLS12-381 engine.
#[derive(Clone, Copy, Debug)]
pub struct Bls12;

impl Engine for Bls12 {
    type G1 = G1Affine;
    type G2 = G2Affine;
    type Gt = pr::Gt;
    type G2Prepared = pr::G2Prepared;

    const NAME: &'static str = "bls12-381";
    const G1_BYTES: usize = g1::G1_BYTES;

    fn g1_mul_gen(s: &Fr) -> G1Affine {
        g1_table().mul(s)
    }

    fn g2_mul_gen(s: &Fr) -> G2Affine {
        g2_table().mul(s)
    }

    fn g1_mul_gen_batch(scalars: &[Fr]) -> Vec<G1Affine> {
        g1_table().mul_batch(scalars)
    }

    fn g2_mul_gen_batch(scalars: &[Fr]) -> Vec<G2Affine> {
        g2_table().mul_batch(scalars)
    }

    fn pair(p: &G1Affine, q: &G2Affine) -> pr::Gt {
        pr::pairing(p, q)
    }

    fn multi_pair(ps: &[G1Affine], qs: &[G2Affine]) -> pr::Gt {
        assert_eq!(ps.len(), qs.len(), "multi_pair length mismatch");
        let pairs: Vec<(G1Affine, G2Affine)> = ps.iter().copied().zip(qs.iter().copied()).collect();
        pr::multi_pairing(&pairs)
    }

    fn g2_prepare_batch(qs: &[G2Affine]) -> Vec<pr::G2Prepared> {
        pr::G2Prepared::prepare_batch(qs)
    }

    fn g2_prepare_batch_checked(qs: &[G2Affine]) -> Vec<Option<pr::G2Prepared>> {
        pr::G2Prepared::prepare_batch_checked(qs)
    }

    fn multi_pair_prepared(ps: &[G1Affine], qs: &[pr::G2Prepared]) -> pr::Gt {
        assert_eq!(ps.len(), qs.len(), "multi_pair_prepared length mismatch");
        let pairs: Vec<(G1Affine, &pr::G2Prepared)> = ps.iter().copied().zip(qs.iter()).collect();
        pr::final_exponentiation(&pr::multi_miller_loop_prepared(&pairs))
    }

    fn multi_pair_prepared_batch(ps: &[G1Affine], rows: &[&[pr::G2Prepared]]) -> Vec<pr::Gt> {
        // A fully cached side decrypts no rows, and must not pay the
        // token's inversion for them.
        if rows.is_empty() {
            return Vec::new();
        }
        // The token is normalised once for the whole phase; then one
        // prepared Miller loop per row and a single batched final
        // exponentiation across all of them.
        let token = pr::G1Normalized::batch(ps);
        let millers: Vec<_> = rows
            .iter()
            .map(|qs| {
                assert_eq!(ps.len(), qs.len(), "multi_pair_prepared length mismatch");
                pr::miller_loop_normalized(token.iter().zip(qs.iter()))
            })
            .collect();
        pr::final_exponentiation_batch(&millers)
    }

    fn gt_one() -> pr::Gt {
        pr::Gt::one()
    }

    fn gt_mul(a: &pr::Gt, b: &pr::Gt) -> pr::Gt {
        a.mul(b)
    }

    fn gt_pow(a: &pr::Gt, s: &Fr) -> pr::Gt {
        a.pow(s)
    }

    fn gt_inv(a: &pr::Gt) -> pr::Gt {
        a.inverse()
    }

    fn gt_bytes(a: &pr::Gt) -> Vec<u8> {
        a.to_bytes()
    }

    fn g1_bytes(p: &G1Affine) -> Vec<u8> {
        g1::to_bytes(p).to_vec()
    }

    fn g1_from_bytes(bytes: &[u8]) -> Option<G1Affine> {
        let arr: &[u8; g1::G1_BYTES] = bytes.try_into().ok()?;
        g1::from_bytes(arr)
    }

    fn g2_bytes(p: &G2Affine) -> Vec<u8> {
        g2::to_bytes(p).to_vec()
    }

    fn g2_from_bytes(bytes: &[u8]) -> Option<G2Affine> {
        let arr: &[u8; g2::G2_BYTES] = bytes.try_into().ok()?;
        g2::from_bytes(arr)
    }

    fn g2_from_bytes_on_curve(bytes: &[u8]) -> Option<G2Affine> {
        let arr: &[u8; g2::G2_BYTES] = bytes.try_into().ok()?;
        g2::from_bytes_on_curve(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_crypto::ChaChaRng;

    #[test]
    fn fixed_base_matches_double_and_add() {
        let mut rng = ChaChaRng::seed_from_u64(61);
        for _ in 0..5 {
            let s = Fr::random(&mut rng);
            assert_eq!(
                Bls12::g1_mul_gen(&s),
                g1::mul_fr(g1::generator(), &s).to_affine()
            );
            assert_eq!(
                Bls12::g2_mul_gen(&s),
                g2::mul_fr(g2::generator(), &s).to_affine()
            );
        }
    }

    #[test]
    fn fixed_base_edge_scalars() {
        assert!(Bls12::g1_mul_gen(&Fr::zero()).infinity);
        assert_eq!(Bls12::g1_mul_gen(&Fr::one()), g1::generator().to_affine());
        assert_eq!(
            Bls12::g1_mul_gen(&Fr::from_u64(16)),
            g1::mul_fr(g1::generator(), &Fr::from_u64(16)).to_affine()
        );
        assert_eq!(
            Bls12::g1_mul_gen(&(-Fr::one())),
            g1::generator().neg().to_affine()
        );
    }

    #[test]
    fn batch_mul_gen_matches_per_scalar() {
        let mut rng = ChaChaRng::seed_from_u64(65);
        let mut scalars: Vec<Fr> = (0..7).map(|_| Fr::random(&mut rng)).collect();
        scalars.push(Fr::zero());
        scalars.push(Fr::one());
        scalars.push(-Fr::one());
        let g1s = Bls12::g1_mul_gen_batch(&scalars);
        let g2s = Bls12::g2_mul_gen_batch(&scalars);
        for (i, s) in scalars.iter().enumerate() {
            assert_eq!(g1s[i], Bls12::g1_mul_gen(s));
            assert_eq!(g2s[i], Bls12::g2_mul_gen(s));
        }
        assert!(Bls12::g1_mul_gen_batch(&[]).is_empty());
    }

    #[test]
    fn batch_counters_audit_the_batched_path() {
        let before = crate::ops::snapshot();
        let scalars = vec![Fr::from_u64(3); 4];
        let _ = Bls12::g1_mul_gen_batch(&scalars);
        let delta = crate::ops::snapshot().since(&before);
        assert!(delta.batched_fixed_base_muls >= 4);
    }

    #[test]
    fn engine_bilinearity() {
        let mut rng = ChaChaRng::seed_from_u64(62);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let lhs = Bls12::pair(&Bls12::g1_mul_gen(&a), &Bls12::g2_mul_gen(&b));
        let e_gen = Bls12::pair(
            &Bls12::g1_mul_gen(&Fr::one()),
            &Bls12::g2_mul_gen(&Fr::one()),
        );
        assert_eq!(lhs, Bls12::gt_pow(&e_gen, &(a * b)));
    }

    #[test]
    fn prepared_batch_matches_per_row_and_unprepared_with_identities() {
        // An identity in the token and one in a row: the token is
        // normalised once for all rows, and the finite points' shared
        // inversion must stay aligned with the points it skips.
        let mut rng = ChaChaRng::seed_from_u64(67);
        let mut token: Vec<G1Affine> = (0..4)
            .map(|_| Bls12::g1_mul_gen(&Fr::random(&mut rng)))
            .collect();
        token[1] = G1Affine::identity();
        let mut rows: Vec<Vec<G2Affine>> = (0..3)
            .map(|_| {
                (0..4)
                    .map(|_| Bls12::g2_mul_gen(&Fr::random(&mut rng)))
                    .collect()
            })
            .collect();
        rows[2][3] = G2Affine::identity();
        let prepared: Vec<Vec<pr::G2Prepared>> =
            rows.iter().map(|r| Bls12::g2_prepare_batch(r)).collect();
        let refs: Vec<&[pr::G2Prepared]> = prepared.iter().map(Vec::as_slice).collect();
        let batch = Bls12::multi_pair_prepared_batch(&token, &refs);
        assert_eq!(batch.len(), rows.len());
        for ((row, prep), gt) in rows.iter().zip(&prepared).zip(&batch) {
            assert_eq!(*gt, Bls12::multi_pair_prepared(&token, prep));
            assert_eq!(*gt, Bls12::multi_pair(&token, row));
        }
        assert!(Bls12::multi_pair_prepared_batch(&token, &[]).is_empty());
    }

    #[test]
    fn engine_serialization_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(63);
        let s = Fr::random(&mut rng);
        let p = Bls12::g1_mul_gen(&s);
        let q = Bls12::g2_mul_gen(&s);
        assert_eq!(Bls12::g1_from_bytes(&Bls12::g1_bytes(&p)).unwrap(), p);
        assert_eq!(Bls12::g2_from_bytes(&Bls12::g2_bytes(&q)).unwrap(), q);
        assert!(Bls12::g1_from_bytes(&[1, 2, 3]).is_none());
    }
}
