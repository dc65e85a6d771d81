//! The BLS12-381 base field `Fp` (381-bit prime, 6 limbs, Montgomery form).
//!
//! The modulus is written out so the Montgomery parameters can be
//! derived from it at compile time; [`params::consts`] refuses to hand
//! out anything unless it equals `p(z)`.

use crate::params;

crate::impl_montgomery_field!(
    /// An element of the BLS12-381 base field `Fp`.
    Fp,
    6,
    [
        0xb9fe_ffff_ffff_aaab,
        0x1eab_fffe_b153_ffff,
        0x6730_d2a0_f6b0_f624,
        0x6477_4b84_f385_12bf,
        0x4b1b_a7b6_434b_acd7,
        0x1a01_11ea_397f_e69a,
    ]
);

impl Fp {
    /// Legendre symbol: `true` iff the element is a nonzero square.
    pub fn is_square(&self) -> bool {
        if self.is_zero() {
            return true;
        }
        self.pow_limbs(&params::consts().p_minus_1_over_2) == Fp::one()
    }

    /// Square root for `p ≡ 3 mod 4`: `a^((p+1)/4)`; `None` if `a` is not
    /// a square. Decoding a compressed `G1` element pays one of these.
    pub fn sqrt(&self) -> Option<Fp> {
        if self.is_zero() {
            return Some(*self);
        }
        let cand = self.pow_limbs(&params::consts().p_plus_1_over_4);
        (cand.square() == *self).then_some(cand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_crypto::{ChaChaRng, RandomSource};
    use proptest::prelude::*;

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(0xf9)
    }

    #[test]
    fn identities() {
        let mut r = rng();
        let a = Fp::random(&mut r);
        assert_eq!(a + Fp::zero(), a);
        assert_eq!(a * Fp::one(), a);
        assert_eq!(a - a, Fp::zero());
        assert_eq!(a + (-a), Fp::zero());
        assert_eq!(a * Fp::zero(), Fp::zero());
        assert_eq!(a.double(), a + a);
        assert_eq!(a.square(), a * a);
    }

    #[test]
    fn inversion_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random_nonzero(&mut r);
            assert_eq!(a * a.invert().unwrap(), Fp::one());
        }
        assert!(Fp::zero().invert().is_none());
        assert_eq!(Fp::one().invert().unwrap(), Fp::one());
    }

    #[test]
    fn small_value_arithmetic() {
        assert_eq!(Fp::from_u64(3) + Fp::from_u64(4), Fp::from_u64(7));
        assert_eq!(Fp::from_u64(10) * Fp::from_u64(20), Fp::from_u64(200));
        assert_eq!(Fp::from_u64(5) - Fp::from_u64(8), Fp::from_i64(-3));
        assert_eq!(Fp::from_i64(-1) * Fp::from_i64(-1), Fp::one());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random(&mut r);
            assert_eq!(Fp::from_bytes(&a.to_bytes()).unwrap(), a);
        }
        // The modulus itself must be rejected.
        let p_limbs = Fp::PARAMS.modulus;
        assert!(Fp::from_canonical_limbs(p_limbs).is_none());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Fp::from_u64(7);
        assert_eq!(a.pow_limbs(&[5]), a * a * a * a * a);
        assert_eq!(a.pow_limbs(&[0]), Fp::one());
        assert_eq!(a.pow_limbs(&[1]), a);
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) = 1 — exercises the full-width exponentiation path and
        // implicitly validates the derived modulus.
        let c = params::consts();
        let p_minus_1: Vec<u64> = {
            let mut v = c.p_big.limbs().to_vec();
            v[0] -= 1; // p is odd
            v
        };
        let mut r = rng();
        let a = Fp::random_nonzero(&mut r);
        assert_eq!(a.pow_limbs(&p_minus_1), Fp::one());
    }

    #[test]
    fn sqrt_of_squares() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == -a);
            assert_eq!(root.square(), sq);
            assert!(sq.is_square());
        }
        assert_eq!(Fp::zero().sqrt(), Some(Fp::zero()));
    }

    #[test]
    fn non_squares_have_no_root() {
        // -1 is a non-square when p ≡ 3 mod 4; so is -a² for a ≠ 0.
        assert!((-Fp::one()).sqrt().is_none());
        assert!(!(-Fp::one()).is_square());
        let mut r = rng();
        for _ in 0..10 {
            let non_residue = -Fp::random_nonzero(&mut r).square();
            assert!(non_residue.sqrt().is_none());
            assert!(!non_residue.is_square());
        }
    }

    #[test]
    fn wide_reduction_is_consistent() {
        // from_wide_limbs([lo, 0]) must equal from_canonical reduction.
        let mut wide = [0u64; 12];
        wide[0] = 12345;
        assert_eq!(Fp::from_wide_limbs(wide), Fp::from_u64(12345));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_ring_axioms(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
            let mut r = ChaChaRng::seed_from_u64(sa);
            let a = Fp::random(&mut r);
            let mut r = ChaChaRng::seed_from_u64(sb);
            let b = Fp::random(&mut r);
            let mut r = ChaChaRng::seed_from_u64(sc);
            let c = Fp::random(&mut r);
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_neg(sa in any::<u64>(), sb in any::<u64>()) {
            let mut r = ChaChaRng::seed_from_u64(sa);
            let a = Fp::random(&mut r);
            let mut r = ChaChaRng::seed_from_u64(sb);
            let b = Fp::random(&mut r);
            prop_assert_eq!(a - b, a + (-b));
            prop_assert_eq!(-(-a), a);
        }
    }

    #[test]
    fn random_is_well_distributed_cheaply() {
        // Smoke test: low limb of canonical form should not repeat across
        // a few samples (collision probability ~ 2^-64).
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let v = Fp::random(&mut r).to_canonical_limbs()[0];
            assert!(seen.insert(v));
        }
        let _ = r.next_u64();
    }
}
