//! The BLS12-381 scalar field `Fr` — the paper's `Z_q` (255-bit prime,
//! 4 limbs, Montgomery form). All protocol plaintext values (hashed join
//! attributes, polynomial coefficients, blinding factors, query keys) live
//! here.
//!
//! The modulus is written out so the Montgomery parameters can be
//! derived from it at compile time; [`crate::params::consts`] refuses to
//! hand out anything unless it equals `r(z)`.

crate::impl_montgomery_field!(
    /// An element of the BLS12-381 scalar field `Fr` (the paper's `Z_q`).
    Fr,
    4,
    [
        0xffff_ffff_0000_0001,
        0x53bd_a402_fffe_5bfe,
        0x3339_d808_09a1_d805,
        0x73ed_a753_299d_7d48,
    ]
);

impl Fr {
    /// Hash arbitrary bytes into the field via SHA-256 with a domain tag,
    /// then wide reduction (bias `≈ 2^-257`, negligible).
    ///
    /// This is the paper's "efficient and injective embedding from the
    /// attribute values … to `Z_q` which generates elements … uniformly at
    /// random" (§4.1), instantiated with a cryptographic hash as the paper
    /// prescribes.
    pub fn hash_to_field(domain: &[u8], msg: &[u8]) -> Fr {
        let mut h0 = eqjoin_crypto::Sha256::new();
        h0.update(b"eqjoin-h2f-0\0");
        h0.update(&(domain.len() as u64).to_le_bytes());
        h0.update(domain);
        h0.update(msg);
        let d0 = h0.finalize();
        let mut h1 = eqjoin_crypto::Sha256::new();
        h1.update(b"eqjoin-h2f-1\0");
        h1.update(&d0);
        let d1 = h1.finalize();
        let mut wide = [0u64; 8];
        for i in 0..4 {
            wide[i] = u64::from_le_bytes(d0[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            wide[4 + i] = u64::from_le_bytes(d1[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        }
        Fr::from_wide_limbs(wide)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_crypto::ChaChaRng;

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(0x5ca1a8)
    }

    #[test]
    fn identities_and_inverse() {
        let mut r = rng();
        let a = Fr::random_nonzero(&mut r);
        assert_eq!(a * a.invert().unwrap(), Fr::one());
        assert_eq!(a + (-a), Fr::zero());
        assert_eq!(a.square(), a * a);
        assert!(Fr::zero().invert().is_none());
    }

    #[test]
    fn small_values() {
        assert_eq!(Fr::from_u64(6) * Fr::from_u64(7), Fr::from_u64(42));
        assert_eq!(Fr::from_i64(-5) + Fr::from_u64(5), Fr::zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        assert_eq!(Fr::from_bytes(&a.to_bytes()).unwrap(), a);
        assert_eq!(a.to_bytes().len(), 32);
    }

    #[test]
    fn fermat_little_theorem() {
        let c = crate::params::consts();
        let mut exp = c.r_big.limbs().to_vec();
        exp[0] -= 1;
        let mut r = rng();
        let a = Fr::random_nonzero(&mut r);
        assert_eq!(a.pow_limbs(&exp), Fr::one());
    }

    #[test]
    fn hash_to_field_properties() {
        let a = Fr::hash_to_field(b"join", b"value-1");
        let b = Fr::hash_to_field(b"join", b"value-1");
        let c = Fr::hash_to_field(b"join", b"value-2");
        let d = Fr::hash_to_field(b"attr", b"value-1");
        assert_eq!(a, b, "deterministic");
        assert_ne!(a, c, "message separated");
        assert_ne!(a, d, "domain separated");
        assert!(!a.is_zero());
    }

    #[test]
    fn hash_to_field_no_length_extension_confusion() {
        // ("ab", "c") and ("a", "bc") must hash differently.
        assert_ne!(
            Fr::hash_to_field(b"ab", b"c"),
            Fr::hash_to_field(b"a", b"bc")
        );
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)];
        assert_eq!(xs.iter().copied().sum::<Fr>(), Fr::from_u64(6));
        assert_eq!(xs.iter().copied().product::<Fr>(), Fr::from_u64(6));
    }
}
