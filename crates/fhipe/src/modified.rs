//! The paper's modified FHIPE (§4.2) — the cryptographic core of Secure
//! Join.
//!
//! Differences from Kim et al.'s original construction (SCN 2018, §3.3
//! of the paper), quoting §4.2:
//!
//! 1. `α = β = 1`; randomness moves into the vectors themselves, which
//!    become `v = (ν, 0, δ)` and `w = (ω, γ₁, 0)` for fresh `δ`, `γ₁`.
//!    The padded slots pair a random value against a structural zero, so
//!    `⟨v, w⟩ = ⟨ν, ω⟩` while keys and ciphertexts stay randomized.
//! 2. Only the second component of the key/ciphertext pairs is kept:
//!    `Tk = g1^{v·B}`, `C = g2^{w·B*}`.
//! 3. Decryption outputs the raw element
//!    `D = e(g1, g2)^{det(B)·⟨v,w⟩}` without discrete-log extraction;
//!    Secure Join only ever compares two such values for equality.

use crate::error::DimensionMismatch;
use crate::linalg::Matrix;
use eqjoin_crypto::RandomSource;
use eqjoin_pairing::{Engine, Fr};

/// Master secret key of the modified scheme.
pub struct ModifiedIpeMasterKey<E: Engine> {
    /// Dimension of the *payload* vectors `ν`/`ω` (the full inner
    /// dimension is `base_dim + 2`).
    base_dim: usize,
    b: Matrix,
    b_star: Matrix,
    det_b: Fr,
    _marker: std::marker::PhantomData<E>,
}

/// A query token `Tk = g1^{v·B}` with `v = (ν, 0, δ)`.
#[derive(Clone, Debug)]
pub struct ModifiedIpeToken<E: Engine> {
    /// Token components (one `G1` element per inner dimension).
    pub elements: Vec<E::G1>,
}

/// A ciphertext `C = g2^{w·B*}` with `w = (ω, γ₁, 0)`.
#[derive(Clone, Debug)]
pub struct ModifiedIpeCiphertext<E: Engine> {
    /// Ciphertext components (one `G2` element per inner dimension).
    pub elements: Vec<E::G2>,
}

/// A ciphertext with per-element **prepared pairing state**
/// ([`Engine::G2Prepared`]): the Miller-loop line coefficients are
/// precomputed once, so every later decryption against any token skips
/// the per-step slope derivations. This is what a server stores for a
/// *series* of queries.
#[derive(Clone, Debug)]
pub struct ModifiedIpePreparedCiphertext<E: Engine> {
    /// Prepared ciphertext components (same order as the raw elements).
    pub elements: Vec<E::G2Prepared>,
}

/// The modified scheme, generic over the bilinear engine.
pub struct ModifiedIpe<E: Engine>(std::marker::PhantomData<E>);

impl<E: Engine> ModifiedIpe<E> {
    /// Setup for payload dimension `base_dim` (inner dimension
    /// `base_dim + 2`).
    pub fn setup(base_dim: usize, rng: &mut dyn RandomSource) -> ModifiedIpeMasterKey<E> {
        assert!(base_dim > 0, "dimension must be positive");
        let dim = base_dim + 2;
        let (b, det_b, inv) = Matrix::random_invertible(dim, rng);
        let b_star = b.dual(det_b, &inv);
        ModifiedIpeMasterKey {
            base_dim,
            b,
            b_star,
            det_b,
            _marker: std::marker::PhantomData,
        }
    }

    /// Generate a token for payload vector `ν` with fresh `δ`.
    ///
    /// The `base_dim + 2` token exponentiations go through one
    /// [`Engine::g1_mul_gen_batch`] call so batching engines pay a
    /// single shared affine normalization.
    pub fn token(
        msk: &ModifiedIpeMasterKey<E>,
        nu: &[Fr],
        rng: &mut dyn RandomSource,
    ) -> Result<ModifiedIpeToken<E>, DimensionMismatch> {
        // audit-allow(ct-discipline): branches on the vector's public length, never its contents
        if nu.len() != msk.base_dim {
            return Err(DimensionMismatch {
                what: "token vector",
                expected: msk.base_dim,
                got: nu.len(),
            });
        }
        let delta = Fr::random(rng);
        let mut v = nu.to_vec();
        v.push(Fr::zero());
        v.push(delta);
        let vb = msk.b.row_vec_mul(&v);
        Ok(ModifiedIpeToken {
            elements: E::g1_mul_gen_batch(&vb),
        })
    }

    /// Encrypt payload vector `ω` with fresh `γ₁`.
    ///
    /// The `base_dim + 2` ciphertext exponentiations — the whole
    /// `SJ.Enc` cost of a row — ride one [`Engine::g2_mul_gen_batch`]
    /// call.
    pub fn encrypt(
        msk: &ModifiedIpeMasterKey<E>,
        omega: &[Fr],
        rng: &mut dyn RandomSource,
    ) -> Result<ModifiedIpeCiphertext<E>, DimensionMismatch> {
        // audit-allow(ct-discipline): branches on the vector's public length, never its contents
        if omega.len() != msk.base_dim {
            return Err(DimensionMismatch {
                what: "ciphertext vector",
                expected: msk.base_dim,
                got: omega.len(),
            });
        }
        let gamma1 = Fr::random(rng);
        let mut w = omega.to_vec();
        w.push(gamma1);
        w.push(Fr::zero());
        let wb = msk.b_star.row_vec_mul(&w);
        Ok(ModifiedIpeCiphertext {
            elements: E::g2_mul_gen_batch(&wb),
        })
    }

    /// Decrypt: `D = ∏ᵢ e(Tkᵢ, Cᵢ) = e(g1,g2)^{det(B)·⟨ν,ω⟩}`.
    pub fn decrypt(tk: &ModifiedIpeToken<E>, ct: &ModifiedIpeCiphertext<E>) -> E::Gt {
        E::multi_pair(&tk.elements, &ct.elements)
    }

    /// Precompute a ciphertext's pairing state (done once, at upload).
    pub fn prepare(ct: &ModifiedIpeCiphertext<E>) -> ModifiedIpePreparedCiphertext<E> {
        ModifiedIpePreparedCiphertext {
            elements: E::g2_prepare_batch(&ct.elements),
        }
    }

    /// Decrypt against a prepared ciphertext — identical output to
    /// [`ModifiedIpe::decrypt`] on the originating ciphertext.
    pub fn decrypt_prepared(
        tk: &ModifiedIpeToken<E>,
        ct: &ModifiedIpePreparedCiphertext<E>,
    ) -> E::Gt {
        E::multi_pair_prepared(&tk.elements, &ct.elements)
    }

    /// Decrypt one token against many prepared ciphertexts, letting the
    /// engine batch cross-row work (BLS batches the final
    /// exponentiation's easy-part inversions). Output order matches
    /// `cts`.
    pub fn decrypt_prepared_batch(
        tk: &ModifiedIpeToken<E>,
        cts: &[&ModifiedIpePreparedCiphertext<E>],
    ) -> Vec<E::Gt> {
        let rows: Vec<&[E::G2Prepared]> = cts.iter().map(|ct| ct.elements.as_slice()).collect();
        E::multi_pair_prepared_batch(&tk.elements, &rows)
    }
}

impl<E: Engine> ModifiedIpeMasterKey<E> {
    /// Payload dimension.
    pub fn base_dim(&self) -> usize {
        self.base_dim
    }

    /// `det B` (white-box testing with the mock engine).
    pub fn det_b(&self) -> Fr {
        self.det_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::inner_product;
    use eqjoin_crypto::ChaChaRng;
    use eqjoin_pairing::{Bls12, MockEngine};

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(0x30d)
    }

    fn rand_vec(n: usize, r: &mut ChaChaRng) -> Vec<Fr> {
        (0..n).map(|_| Fr::random(r)).collect()
    }

    #[test]
    fn decrypt_is_det_b_times_inner_product_mock() {
        // With the transparent engine, the decrypted exponent is directly
        // observable: it must equal det(B)·⟨ν, ω⟩ regardless of δ/γ₁.
        let mut r = rng();
        let msk = ModifiedIpe::<MockEngine>::setup(5, &mut r);
        let nu = rand_vec(5, &mut r);
        let omega = rand_vec(5, &mut r);
        let tk = ModifiedIpe::<MockEngine>::token(&msk, &nu, &mut r).unwrap();
        let ct = ModifiedIpe::<MockEngine>::encrypt(&msk, &omega, &mut r).unwrap();
        let d = ModifiedIpe::<MockEngine>::decrypt(&tk, &ct);
        assert_eq!(d.0, msk.det_b() * inner_product(&nu, &omega));
    }

    #[test]
    fn equal_inner_products_collide_distinct_do_not() {
        let mut r = rng();
        let msk = ModifiedIpe::<MockEngine>::setup(3, &mut r);
        let nu = rand_vec(3, &mut r);
        // ω and ω' with ⟨ν,ω⟩ = ⟨ν,ω'⟩ by construction.
        let mut omega1 = rand_vec(3, &mut r);
        let mut omega2 = rand_vec(3, &mut r);
        // Adjust last coordinate of ω₂ so the inner products match.
        let diff = inner_product(&nu, &omega1) - inner_product(&nu, &omega2);
        omega2[2] += diff * nu[2].invert().unwrap();
        let tk = ModifiedIpe::<MockEngine>::token(&msk, &nu, &mut r).unwrap();
        let ct1 = ModifiedIpe::<MockEngine>::encrypt(&msk, &omega1, &mut r).unwrap();
        let ct2 = ModifiedIpe::<MockEngine>::encrypt(&msk, &omega2, &mut r).unwrap();
        assert_eq!(
            ModifiedIpe::<MockEngine>::decrypt(&tk, &ct1),
            ModifiedIpe::<MockEngine>::decrypt(&tk, &ct2)
        );
        // Perturb ω₂: decryption diverges.
        omega1[0] += Fr::one();
        let ct3 = ModifiedIpe::<MockEngine>::encrypt(&msk, &omega1, &mut r).unwrap();
        assert_ne!(
            ModifiedIpe::<MockEngine>::decrypt(&tk, &ct1),
            ModifiedIpe::<MockEngine>::decrypt(&tk, &ct3)
        );
    }

    #[test]
    fn bls_engine_agrees_with_mock_on_match_pattern() {
        // The *match pattern* (which pairs of D values collide) must be
        // identical across engines.
        let mut r = rng();
        let msk_m = ModifiedIpe::<MockEngine>::setup(2, &mut r);
        let mut r2 = rng();
        let msk_b = ModifiedIpe::<Bls12>::setup(2, &mut r2);
        let nu = vec![Fr::from_u64(3), Fr::from_u64(1)];
        let w1 = vec![Fr::from_u64(2), Fr::from_u64(5)]; // ⟨ν,w⟩ = 11
        let w2 = vec![Fr::from_u64(1), Fr::from_u64(8)]; // ⟨ν,w⟩ = 11
        let w3 = vec![Fr::from_u64(1), Fr::from_u64(9)]; // ⟨ν,w⟩ = 12
        for (same, other) in [(true, &w2), (false, &w3)] {
            let tk_m = ModifiedIpe::<MockEngine>::token(&msk_m, &nu, &mut r).unwrap();
            let c1_m = ModifiedIpe::<MockEngine>::encrypt(&msk_m, &w1, &mut r).unwrap();
            let c2_m = ModifiedIpe::<MockEngine>::encrypt(&msk_m, other, &mut r).unwrap();
            let mock_match = ModifiedIpe::<MockEngine>::decrypt(&tk_m, &c1_m)
                == ModifiedIpe::<MockEngine>::decrypt(&tk_m, &c2_m);
            let tk_b = ModifiedIpe::<Bls12>::token(&msk_b, &nu, &mut r2).unwrap();
            let c1_b = ModifiedIpe::<Bls12>::encrypt(&msk_b, &w1, &mut r2).unwrap();
            let c2_b = ModifiedIpe::<Bls12>::encrypt(&msk_b, other, &mut r2).unwrap();
            let bls_match = ModifiedIpe::<Bls12>::decrypt(&tk_b, &c1_b)
                == ModifiedIpe::<Bls12>::decrypt(&tk_b, &c2_b);
            assert_eq!(mock_match, same);
            assert_eq!(bls_match, same);
        }
    }

    #[test]
    fn prepared_decryption_matches_raw_on_both_engines() {
        fn check<E: Engine>(seed: u64) {
            let mut r = ChaChaRng::seed_from_u64(seed);
            let msk = ModifiedIpe::<E>::setup(3, &mut r);
            let nu = rand_vec(3, &mut r);
            let tk = ModifiedIpe::<E>::token(&msk, &nu, &mut r).unwrap();
            let cts: Vec<_> = (0..4)
                .map(|_| {
                    let omega = rand_vec(3, &mut r);
                    ModifiedIpe::<E>::encrypt(&msk, &omega, &mut r).unwrap()
                })
                .collect();
            let prepared: Vec<_> = cts.iter().map(ModifiedIpe::<E>::prepare).collect();
            for (ct, prep) in cts.iter().zip(&prepared) {
                assert_eq!(
                    ModifiedIpe::<E>::decrypt(&tk, ct),
                    ModifiedIpe::<E>::decrypt_prepared(&tk, prep)
                );
            }
            let refs: Vec<_> = prepared.iter().collect();
            let batch = ModifiedIpe::<E>::decrypt_prepared_batch(&tk, &refs);
            for (ct, d) in cts.iter().zip(&batch) {
                assert_eq!(ModifiedIpe::<E>::decrypt(&tk, ct), *d);
            }
            assert!(ModifiedIpe::<E>::decrypt_prepared_batch(&tk, &[]).is_empty());
        }
        check::<MockEngine>(0x77);
        check::<Bls12>(0x78);
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let mut r = rng();
        let msk = ModifiedIpe::<MockEngine>::setup(3, &mut r);
        let err = ModifiedIpe::<MockEngine>::token(&msk, &rand_vec(2, &mut r), &mut r).unwrap_err();
        assert_eq!((err.what, err.expected, err.got), ("token vector", 3, 2));
        let err =
            ModifiedIpe::<MockEngine>::encrypt(&msk, &rand_vec(4, &mut r), &mut r).unwrap_err();
        assert_eq!(
            (err.what, err.expected, err.got),
            ("ciphertext vector", 3, 4)
        );
    }

    #[test]
    fn tokens_and_ciphertexts_are_randomized() {
        let mut r = rng();
        let msk = ModifiedIpe::<MockEngine>::setup(2, &mut r);
        let nu = rand_vec(2, &mut r);
        let tk1 = ModifiedIpe::<MockEngine>::token(&msk, &nu, &mut r).unwrap();
        let tk2 = ModifiedIpe::<MockEngine>::token(&msk, &nu, &mut r).unwrap();
        assert_ne!(tk1.elements, tk2.elements, "δ must randomize tokens");
        let ct1 = ModifiedIpe::<MockEngine>::encrypt(&msk, &nu, &mut r).unwrap();
        let ct2 = ModifiedIpe::<MockEngine>::encrypt(&msk, &nu, &mut r).unwrap();
        assert_ne!(ct1.elements, ct2.elements, "γ₁ must randomize ciphertexts");
    }

    #[test]
    fn cross_randomness_does_not_affect_decryption() {
        // Any token decrypts any ciphertext to det(B)⟨ν,ω⟩ independent of
        // the δ/γ₁ draws (the padded slots pair randomness with zero).
        let mut r = rng();
        let msk = ModifiedIpe::<MockEngine>::setup(4, &mut r);
        let nu = rand_vec(4, &mut r);
        let omega = rand_vec(4, &mut r);
        let expect = msk.det_b() * inner_product(&nu, &omega);
        for _ in 0..5 {
            let tk = ModifiedIpe::<MockEngine>::token(&msk, &nu, &mut r).unwrap();
            let ct = ModifiedIpe::<MockEngine>::encrypt(&msk, &omega, &mut r).unwrap();
            assert_eq!(ModifiedIpe::<MockEngine>::decrypt(&tk, &ct).0, expect);
        }
    }
}
