//! Differential tests for the fast scalar-multiplication paths: wNAF
//! and the fixed-base comb tables must agree **bit-for-bit** with the
//! textbook double-and-add oracle (`Projective::mul_limbs`) on random
//! and edge scalars, on both `G1` and `G2`.

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
        assert_eq!(g1_table.mul(&s), oracle_g1, "{s:?}");
        assert_eq!(g2_table.mul(&s), oracle_g2, "{s:?}");
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
        let base = g1::mul_fr(g1::generator(), &Fr::from_u64(small | 1));
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
