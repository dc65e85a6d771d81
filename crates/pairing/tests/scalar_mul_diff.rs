//! Differential tests for the fast scalar-multiplication paths: wNAF
//! and the fixed-base comb tables must agree **bit-for-bit** with the
//! textbook double-and-add oracle (`Projective::mul_limbs`) on random
//! and edge scalars, on both `G1` and `G2`. The batched generator
//! multiplications — the only ones product code runs — are checked
//! batch against oracle on the shapes the tree walk's pairing of
//! windows cares about: zero bytes at every window, a full top byte,
//! and zero low bytes.

use eqjoin_pairing::curve::Projective;
use eqjoin_pairing::scalar_mul::{mul_wnaf, FixedBaseTable};
use eqjoin_pairing::{g1, g2, params, Bls12, Engine, Fr};
use proptest::prelude::*;

/// The edge scalars of the acceptance checklist: 0, 1, 2 and r−1.
fn edge_scalars() -> Vec<Fr> {
    vec![Fr::zero(), Fr::one(), Fr::from_u64(2), -Fr::one()]
}

#[test]
fn edge_scalars_agree_with_oracle_on_g1_and_g2() {
    let g1_table = FixedBaseTable::build(g1::generator());
    let g2_table = FixedBaseTable::build(g2::generator());
    for s in edge_scalars() {
        let limbs = s.to_canonical_limbs();
        let oracle_g1 = g1::generator().mul_limbs(&limbs);
        let oracle_g2 = g2::generator().mul_limbs(&limbs);
        assert_eq!(mul_wnaf(g1::generator(), &limbs), oracle_g1, "{s:?}");
        assert_eq!(mul_wnaf(g2::generator(), &limbs), oracle_g2, "{s:?}");
        assert_eq!(g1_table.mul(&s), oracle_g1.to_affine(), "{s:?}");
        assert_eq!(g2_table.mul(&s), oracle_g2.to_affine(), "{s:?}");
        // The engine's fixed-base entry points route through the same
        // comb tables.
        assert_eq!(Bls12::g1_mul_gen(&s), oracle_g1.to_affine(), "{s:?}");
        assert_eq!(Bls12::g2_mul_gen(&s), oracle_g2.to_affine(), "{s:?}");
    }
}

#[test]
fn r_times_generator_is_identity_via_every_path() {
    // r ≡ 0, so every multiplication path must land on the identity,
    // and the endomorphism subgroup checks must say the same.
    let r = params::consts().r_limbs.clone();
    assert!(mul_wnaf(g1::generator(), &r).is_identity());
    assert!(mul_wnaf(g2::generator(), &r).is_identity());
    assert!(g1::in_subgroup(g1::generator()));
    assert!(g2::in_subgroup(g2::generator()));
}

/// Both engine batches against double-and-add, scalar by scalar.
fn assert_batches_match_oracle(scalars: &[Fr]) {
    let g1s = Bls12::g1_mul_gen_batch(scalars);
    let g2s = Bls12::g2_mul_gen_batch(scalars);
    assert_eq!((g1s.len(), g2s.len()), (scalars.len(), scalars.len()));
    for ((s, p), q) in scalars.iter().zip(&g1s).zip(&g2s) {
        let limbs = s.to_canonical_limbs();
        assert_eq!(*p, g1::generator().mul_limbs(&limbs).to_affine(), "{s:?}");
        assert_eq!(*q, g2::generator().mul_limbs(&limbs).to_affine(), "{s:?}");
    }
}

/// `b · 256^w mod r` (reduced only for `0xff · 256^31`, the one such
/// value at or above `r`).
fn byte_at(b: u8, w: usize) -> Fr {
    let mut limbs = [0u64; 8];
    limbs[w / 8] = u64::from(b) << (8 * (w % 8));
    Fr::from_wide_limbs(limbs)
}

#[test]
fn batches_of_every_size_agree_with_oracle() {
    assert!(Bls12::g1_mul_gen_batch(&[]).is_empty());
    assert!(Bls12::g2_mul_gen_batch(&[]).is_empty());
    let mut rng = eqjoin_crypto::ChaChaRng::seed_from_u64(44);
    for n in [1, 11, 64] {
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        assert_batches_match_oracle(&scalars);
    }
    // The edge scalars alone, then mixed into random ones.
    for s in edge_scalars() {
        assert_batches_match_oracle(&[s]);
    }
    let mut mixed = edge_scalars();
    mixed.extend((0..7).map(|_| Fr::random(&mut rng)));
    assert_batches_match_oracle(&mixed);
}

#[test]
fn one_byte_at_every_window_agrees_with_oracle() {
    // A single nonzero leaf: every level passes it through an identity.
    let scalars: Vec<Fr> = (0..32)
        .flat_map(|w| [byte_at(1, w), byte_at(0xff, w)])
        .collect();
    assert_batches_match_oracle(&scalars);
}

#[test]
fn full_bytes_and_zero_low_bytes_agree_with_oracle() {
    // The largest canonical top byte, every byte below it 0xff: no
    // leaf is the identity, and each pair's sum is as close to r as a
    // canonical scalar gets.
    let r_minus_1 = (-Fr::one()).to_canonical_limbs();
    let top = r_minus_1[3] >> 56;
    let full = Fr::from_canonical_limbs([u64::MAX, u64::MAX, u64::MAX, (top << 56) - 1])
        .expect("below r's top byte");
    assert_eq!(full.to_canonical_limbs()[3] >> 56, top - 1);
    let top_full = Fr::from_canonical_limbs([u64::MAX, u64::MAX, u64::MAX, top << 56 | 0xff_ffff])
        .expect("r's top byte with smaller bytes under it");
    let mut scalars = vec![full, top_full];
    // Scalars whose low k bytes are zero: the left half of the tree is
    // the identity up to the level that meets byte k.
    let mut rng = eqjoin_crypto::ChaChaRng::seed_from_u64(45);
    for k in 1..32 {
        let mut limbs = Fr::random(&mut rng).to_canonical_limbs();
        for w in 0..k {
            limbs[w / 8] &= !(0xffu64 << (8 * (w % 8)));
        }
        scalars.push(Fr::from_canonical_limbs(limbs).expect("clearing bytes keeps it below r"));
    }
    assert_batches_match_oracle(&scalars);
}

/// Build an `Fr` from four random limbs (wide-reduced, so the whole
/// scalar field is reachable).
fn fr_from(parts: (u64, u64, u64, u64)) -> Fr {
    Fr::from_wide_limbs([parts.0, parts.1, parts.2, parts.3, 0, 0, 0, 0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wnaf_matches_oracle_on_g1(parts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), small in any::<u64>()) {
        let s = fr_from(parts);
        let limbs = s.to_canonical_limbs();
        prop_assert_eq!(mul_wnaf(g1::generator(), &limbs), g1::generator().mul_limbs(&limbs));
        // Variable bases too, not just the generator.
        let base = mul_wnaf(g1::generator(), &[small | 1]);
        prop_assert_eq!(mul_wnaf(&base, &limbs), base.mul_limbs(&limbs));
    }

    #[test]
    fn wnaf_matches_oracle_on_g2(parts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let s = fr_from(parts);
        let limbs = s.to_canonical_limbs();
        prop_assert_eq!(mul_wnaf(g2::generator(), &limbs), g2::generator().mul_limbs(&limbs));
    }

    #[test]
    fn comb_tables_match_oracle(parts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let s = fr_from(parts);
        let limbs = s.to_canonical_limbs();
        prop_assert_eq!(Bls12::g1_mul_gen(&s), g1::generator().mul_limbs(&limbs).to_affine());
        prop_assert_eq!(Bls12::g2_mul_gen(&s), g2::generator().mul_limbs(&limbs).to_affine());
    }

    #[test]
    fn random_batches_match_oracle(parts in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..=40)) {
        let scalars: Vec<Fr> = parts.into_iter().map(fr_from).collect();
        assert_batches_match_oracle(&scalars);
    }

    #[test]
    fn wnaf_matches_oracle_on_raw_limb_slices(parts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        // Raw (unreduced) slices exercise recoding beyond the scalar
        // field — the cofactor-clearing shape.
        let limbs = [parts.0, parts.1, parts.2, parts.3];
        prop_assert_eq!(mul_wnaf(g1::generator(), &limbs), g1::generator().mul_limbs(&limbs));
    }
}

#[test]
fn identity_base_stays_identity() {
    let id = Projective::<g1::G1Params>::identity();
    assert!(mul_wnaf(&id, &[12345]).is_identity());
    let id2 = Projective::<g2::G2Params>::identity();
    assert!(mul_wnaf(&id2, &[12345]).is_identity());
}
