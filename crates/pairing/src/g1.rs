//! The group `G1`: the `r`-torsion of `E(Fp): y² = x³ + 4`.
//!
//! The generator is constructed deterministically (smallest valid `x`,
//! lexicographically smaller `y`, cleared by the cofactor `h1`) rather than
//! hard-coded; its order is verified at derivation time.

use crate::curve::{Affine, CurveParams, Projective};
use crate::fp::Fp;
use crate::fr::Fr;
use crate::params;
use crate::scalar_mul::mul_wnaf;

use std::sync::OnceLock;

/// Curve parameters of `E(Fp)`.
#[derive(Clone, Copy, Debug)]
pub struct G1Params;

impl CurveParams for G1Params {
    type Base = Fp;
    fn b() -> Fp {
        Fp::from_u64(4)
    }
}

/// Affine `G1` point.
pub type G1Affine = Affine<G1Params>;
/// Jacobian `G1` point.
pub type G1Projective = Projective<G1Params>;

/// Number of bytes in the uncompressed affine serialization.
pub const G1_BYTES: usize = 2 * Fp::BYTES;

/// Deterministic generator of the order-`r` subgroup.
pub fn generator() -> &'static G1Projective {
    static GEN: OnceLock<G1Projective> = OnceLock::new();
    GEN.get_or_init(|| {
        let c = params::consts();
        let mut x = Fp::one();
        loop {
            if let Some(point) = point_with_x(x) {
                let cleared = mul_wnaf(&point.to_projective(), &c.g1_cofactor);
                if !cleared.is_identity() {
                    assert!(
                        mul_wnaf(&cleared, &c.r_limbs).is_identity(),
                        "cofactor-cleared point must have order r"
                    );
                    return cleared;
                }
            }
            x += Fp::one();
        }
    })
}

/// The curve point with the given `x`, if one exists (canonical `y`).
fn point_with_x(x: Fp) -> Option<G1Affine> {
    let rhs = x.square() * x + G1Params::b();
    let y = rhs.sqrt()?;
    // Canonicalize the y choice by byte order so the generator derivation
    // is platform-independent.
    let y = canonical_y(y);
    G1Affine::new(x, y)
}

fn canonical_y(y: Fp) -> Fp {
    let neg = -y;
    if y.to_bytes() <= neg.to_bytes() {
        y
    } else {
        neg
    }
}

/// Multiply a point by a scalar-field element (wNAF).
pub fn mul_fr(point: &G1Projective, s: &Fr) -> G1Projective {
    mul_wnaf(point, &s.to_canonical_limbs())
}

/// The endomorphism `φ(x, y) = (βx, y)` (`β³ = 1`); in Jacobian
/// coordinates `X ↦ βX`. On the subgroup it is multiplication by `−z²`.
pub fn phi(point: &G1Projective) -> G1Projective {
    phi_with(point, params::endomorphisms().beta)
}

/// [`phi`] with an explicit cube root of unity (the derivation in
/// [`params`] picks `β` with it).
pub(crate) fn phi_with(point: &G1Projective, beta: Fp) -> G1Projective {
    let mut image = *point;
    image.x *= beta;
    image
}

/// Check membership in the order-`r` subgroup: `φ(P) = −[z²]P`
/// (Scott, eprint 2021/1130 §6; proof in eprint 2022/352).
///
/// Sound because `φ² + φ + 1 = 0` on the whole curve: `φ(P) = [λ]P`
/// forces `[λ² + λ + 1]P = O`, and for `λ = −z²` that multiplier is
/// `z⁴ − z² + 1 = r` exactly. Complete because [`params`] picks the `β`
/// whose `φ` has eigenvalue `−z²` on the subgroup. Costs two
/// [`G1Projective::mul_by_x`] (126 doublings + 10 additions) instead of
/// a 255-bit `r·P`.
pub fn in_subgroup(point: &G1Projective) -> bool {
    phi(point) == point.mul_by_x().mul_by_x().neg()
}

/// Hash arbitrary bytes to a subgroup point (try-and-increment over the
/// hashed x-coordinate, then cofactor clearing). Not constant-time; used
/// for tests and baselines, not the core protocol.
pub fn hash_to_g1(domain: &[u8], msg: &[u8]) -> G1Projective {
    let mut counter = 0u32;
    loop {
        let mut material = Vec::with_capacity(msg.len() + 8);
        material.extend_from_slice(&counter.to_le_bytes());
        material.extend_from_slice(msg);
        let fe = crate::fr::Fr::hash_to_field(domain, &material);
        // Map Fr bits into Fp (injective: r < p).
        let limbs4 = fe.to_canonical_limbs();
        let mut limbs6 = [0u64; 6];
        limbs6[..4].copy_from_slice(&limbs4);
        let x = Fp::from_canonical_limbs(limbs6).expect("r < p");
        if let Some(point) = point_with_x(x) {
            // Cofactor clearing through the wNAF path: the naive ladder
            // here used to dominate every try-and-increment attempt.
            let cleared = mul_wnaf(&point.to_projective(), &params::consts().g1_cofactor);
            if !cleared.is_identity() {
                return cleared;
            }
        }
        counter += 1;
    }
}

/// Serialize an affine point (uncompressed; all-zero = identity).
pub fn to_bytes(point: &G1Affine) -> [u8; G1_BYTES] {
    let mut out = [0u8; G1_BYTES];
    if !point.infinity {
        out[..Fp::BYTES].copy_from_slice(&point.x.to_bytes());
        out[Fp::BYTES..].copy_from_slice(&point.y.to_bytes());
    }
    out
}

/// Deserialize an affine point; checks the curve equation and subgroup.
pub fn from_bytes(bytes: &[u8; G1_BYTES]) -> Option<G1Affine> {
    if bytes.iter().all(|&b| b == 0) {
        return Some(G1Affine::identity());
    }
    let mut xb = [0u8; Fp::BYTES];
    let mut yb = [0u8; Fp::BYTES];
    xb.copy_from_slice(&bytes[..Fp::BYTES]);
    yb.copy_from_slice(&bytes[Fp::BYTES..]);
    let point = G1Affine::new(Fp::from_bytes(&xb)?, Fp::from_bytes(&yb)?)?;
    in_subgroup(&point.to_projective()).then_some(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::subgroup_cases::{self, order_divides_r};
    use eqjoin_bigint::BigUint;
    use eqjoin_crypto::{ChaChaRng, RandomSource};
    use proptest::prelude::*;

    /// The first `n` curve points `x = 1, 2, …` before cofactor clearing.
    fn raw_points(n: usize) -> Vec<G1Projective> {
        (1u64..)
            .filter_map(|x| point_with_x(Fp::from_u64(x)))
            .map(|p| p.to_projective())
            .take(n)
            .collect()
    }

    #[test]
    fn generator_has_order_r() {
        let g = generator();
        assert!(g.is_on_curve());
        assert!(!g.is_identity());
        assert!(in_subgroup(g));
        // Order exactly r (not a proper divisor): r is prime, so any
        // non-identity point of r-torsion has order r.
        assert!(!g.mul_limbs(&[2]).is_identity());
    }

    #[test]
    fn generator_matches_standard_one_in_subgroup_size() {
        // r·G = O and (r-1)·G = -G.
        let c = params::consts();
        let g = generator();
        let mut r_minus_1 = c.r_big.limbs().to_vec();
        r_minus_1[0] -= 1;
        assert_eq!(g.mul_limbs(&r_minus_1), g.neg());
    }

    #[test]
    fn scalar_mul_by_fr_is_group_hom() {
        let g = generator();
        let mut rng = ChaChaRng::seed_from_u64(31);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(
            mul_fr(g, &a).add(&mul_fr(g, &b)),
            mul_fr(g, &(a + b)),
            "additive homomorphism"
        );
        assert_eq!(mul_fr(&mul_fr(g, &a), &b), mul_fr(g, &(a * b)));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(32);
        let s = Fr::random(&mut rng);
        let p = mul_fr(generator(), &s).to_affine();
        let bytes = to_bytes(&p);
        assert_eq!(from_bytes(&bytes).unwrap(), p);
        // Identity encodes as all-zero.
        let id = G1Affine::identity();
        assert_eq!(to_bytes(&id), [0u8; G1_BYTES]);
        assert!(from_bytes(&[0u8; G1_BYTES]).unwrap().infinity);
    }

    #[test]
    fn from_bytes_rejects_off_curve() {
        let mut bytes = [0u8; G1_BYTES];
        bytes[Fp::BYTES - 1] = 1; // x = 1, y = 0: not on curve
        assert!(from_bytes(&bytes).is_none());
    }

    #[test]
    fn in_subgroup_agrees_with_r_times_p() {
        let h1 = BigUint::from_limbs(&params::consts().g1_cofactor);
        let small_orders = subgroup_cases::small_prime_factors(&h1);
        // h1 = (z-1)²/3 = 3·11²·10177²·859267²·52437899²: fully factored.
        assert_eq!(small_orders, [3, 11, 10177, 859267, 52437899]);
        let cases = subgroup_cases::cases(generator(), &raw_points(8), &h1, &small_orders);
        subgroup_cases::assert_agrees_with_reference(in_subgroup, &cases);
    }

    #[test]
    fn from_bytes_rejects_non_subgroup_points() {
        // On the curve, validly encoded, outside the subgroup.
        let raw = raw_points(1)[0];
        assert!(!order_divides_r(&raw));
        assert!(from_bytes(&to_bytes(&raw.to_affine())).is_none());
        // Order 3: x = 0, where φ is the identity.
        let order_3 = G1Affine::new(Fp::zero(), Fp::from_u64(2)).unwrap();
        assert!(order_3.to_projective().mul_limbs(&[3]).is_identity());
        assert!(from_bytes(&to_bytes(&order_3)).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_in_subgroup_agrees_on_random_curve_points(seed in any::<u64>()) {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let raw = loop {
                if let Some(p) = point_with_x(Fp::random(&mut rng)) {
                    break p.to_projective();
                }
            };
            let h = BigUint::from_limbs(&params::consts().g1_cofactor);
            let cases = subgroup_cases::cases(generator(), &[raw], &h, &[]);
            subgroup_cases::assert_agrees_with_reference(in_subgroup, &cases);
        }
    }

    #[test]
    fn hash_to_g1_lands_in_subgroup() {
        let p = hash_to_g1(b"test", b"hello");
        let q = hash_to_g1(b"test", b"world");
        assert!(in_subgroup(&p) && in_subgroup(&q));
        assert_ne!(p, q);
        assert_eq!(p, hash_to_g1(b"test", b"hello"));
    }

    #[test]
    fn random_points_via_rng() {
        let mut rng = ChaChaRng::seed_from_u64(33);
        let s = Fr::random(&mut rng);
        let p = mul_fr(generator(), &s);
        assert!(p.is_on_curve() && in_subgroup(&p));
        let _ = rng.next_u32();
    }
}
