//! The group `G1`: the `r`-torsion of `E(Fp): y² = x³ + 4`.
//!
//! The generator is constructed deterministically (smallest valid `x`,
//! lexicographically smaller `y`, cleared by the cofactor `h1`) rather than
//! hard-coded; its order is verified at derivation time.
//!
//! # Encoding
//!
//! A point travels as [`G1_BYTES`] = 48 bytes: `x`, big-endian. `p` has
//! 381 bits, so the top three bits of the first byte are spare. One of
//! them, `LARGER_Y` (`0x20`, as in ZCash's layout), says that `y` is the
//! larger of the two roots of `x³ + 4` in big-endian byte order (the
//! root the generator derivation does not pick); the other two must be
//! clear. All-zero is the identity. [`from_bytes`] recovers `y` with one
//! `Fp` square root, then runs the subgroup check, and refuses
//! everything else: `x ≥ p`, a set unused bit (on the identity too), an
//! `x` off the curve, and every point outside the subgroup — among them
//! `LARGER_Y` over a zero `x`, the order-3 point `(0, −2)`. So each
//! element has exactly one encoding, and every 48-byte string that
//! decodes re-encodes to itself.

use crate::curve::{Affine, CurveParams, Projective};
use crate::fp::Fp;
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

/// Number of bytes in the compressed serialization: `x` alone.
pub const G1_BYTES: usize = Fp::BYTES;

/// The flag bit in the first byte of an encoding: `y` is the larger of
/// its two roots (the one `canonical_y` does not pick).
const LARGER_Y: u8 = 0x20;
/// The first byte's bits above `p`'s 381: `LARGER_Y` and two that must
/// be clear.
const SPARE_BITS: u8 = 0xe0;

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

/// Multiply a point by a scalar-field element (wNAF). Tests only: the
/// product multiplies no `G1` point but the generator, through the comb.
#[cfg(test)]
pub(crate) fn mul_fr(point: &G1Projective, s: &crate::fr::Fr) -> G1Projective {
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

/// Serialize an affine point: `x`, plus the `LARGER_Y` flag when `y`
/// is the larger root (all-zero = identity). Choosing the flag is one
/// byte comparison.
pub fn to_bytes(point: &G1Affine) -> [u8; G1_BYTES] {
    if point.infinity {
        return [0u8; G1_BYTES];
    }
    let mut out = point.x.to_bytes();
    if canonical_y(point.y) != point.y {
        out[0] |= LARGER_Y;
    }
    out
}

/// Deserialize a point: recovers `y` from `x` and the flag, then checks
/// the subgroup. The refusals are listed in the module docs.
pub fn from_bytes(bytes: &[u8; G1_BYTES]) -> Option<G1Affine> {
    if bytes.iter().all(|&b| b == 0) {
        return Some(G1Affine::identity());
    }
    if bytes[0] & SPARE_BITS & !LARGER_Y != 0 {
        return None;
    }
    let mut xb = *bytes;
    xb[0] &= !LARGER_Y;
    let mut point = point_with_x(Fp::from_bytes(&xb)?)?;
    if bytes[0] & LARGER_Y != 0 {
        point.y = -point.y;
    }
    in_subgroup(&point.to_projective()).then_some(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::subgroup_cases::{self, order_divides_r};
    use crate::fr::Fr;
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
        let mut x_only = bytes;
        x_only[0] &= !LARGER_Y;
        assert_eq!(x_only, p.x.to_bytes(), "the encoding is x and a flag");
        // Identity encodes as all-zero.
        let id = G1Affine::identity();
        assert_eq!(to_bytes(&id), [0u8; G1_BYTES]);
        assert!(from_bytes(&[0u8; G1_BYTES]).unwrap().infinity);
    }

    #[test]
    fn from_bytes_rejects_off_curve() {
        // The first x whose x³ + 4 has no square root: no point has it.
        let x = (1u64..)
            .map(Fp::from_u64)
            .find(|&x| (x.square() * x + G1Params::b()).sqrt().is_none())
            .expect("half of all x are off the curve");
        for flag in [0, LARGER_Y] {
            let mut bytes = x.to_bytes();
            bytes[0] |= flag;
            assert!(from_bytes(&bytes).is_none());
        }
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
        for point in [raw.to_affine(), raw.to_affine().neg()] {
            assert!(from_bytes(&to_bytes(&point)).is_none());
        }
        // Order 3 (x = 0): `from_bytes_refuses_the_order_3_points`.
    }

    /// A subgroup point from a seeded scalar.
    fn random_point(seed: u64) -> G1Affine {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        mul_fr(generator(), &Fr::random(&mut rng)).to_affine()
    }

    /// Little-endian limbs as 48 big-endian bytes.
    fn be_bytes(limbs: [u64; 6]) -> [u8; G1_BYTES] {
        let mut out = [0u8; G1_BYTES];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs.iter().rev()) {
            chunk.copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// `x + p` in the 48 bytes, if it still fits below the spare bits:
    /// the one other reading of a point's `x` the width allows.
    fn x_plus_p(x: Fp) -> Option<[u8; G1_BYTES]> {
        let sum = BigUint::from_limbs(&x.to_canonical_limbs()).add(&params::consts().p_big);
        (sum.bit_len() <= 381).then(|| be_bytes(sum.to_limbs_fixed()))
    }

    #[test]
    fn from_bytes_refuses_every_other_use_of_the_spare_bits() {
        let p = random_point(34);
        let good = to_bytes(&p);
        // A stray flag bit next to a valid x and either y flag.
        for stray in [0x40, 0x80, 0xc0] {
            for flag in [0, LARGER_Y] {
                let mut bytes = good;
                bytes[0] = (bytes[0] & !LARGER_Y) | flag | stray;
                assert!(from_bytes(&bytes).is_none(), "stray bits {stray:#x}");
            }
        }
        // The identity with any spare bit set: the two unused bits are
        // refused as such, and `LARGER_Y` alone reads as `(0, −2)`, a
        // point of order 3 (`from_bytes_refuses_the_order_3_points`).
        for top in [0x20, 0x40, 0x60, 0x80, 0xa0, 0xc0, 0xe0] {
            let mut bytes = [0u8; G1_BYTES];
            bytes[0] = top;
            assert!(from_bytes(&bytes).is_none(), "identity with {top:#x}");
        }
    }

    #[test]
    fn from_bytes_refuses_x_at_or_above_p() {
        let p_bytes = be_bytes(Fp::PARAMS.modulus);
        let mut all_ones = [0xffu8; G1_BYTES];
        all_ones[0] = 0x1f; // 2^381 − 1, no spare bit set
        for x in [p_bytes, all_ones] {
            for flag in [0, LARGER_Y] {
                let mut bytes = x;
                bytes[0] |= flag;
                assert!(from_bytes(&bytes).is_none());
            }
        }
        // A subgroup point's x + p, where it fits: same point, refused.
        let shifted = (40..)
            .find_map(|seed| x_plus_p(random_point(seed).x))
            .expect("a quarter of all x leave room for x + p");
        assert!(from_bytes(&shifted).is_none());
    }

    #[test]
    fn from_bytes_refuses_the_order_3_points() {
        // x = 0, y = ±2: φ is the identity there and 3·P = O.
        let small = G1Affine::new(Fp::zero(), Fp::from_u64(2)).unwrap();
        let large = small.neg();
        for point in [small, large] {
            assert!(point.to_projective().mul_limbs(&[3]).is_identity());
        }
        // The larger root is `LARGER_Y` over a zero x: refused. The
        // smaller one's string is all-zero, the identity's, so no string
        // reads as `(0, 2)` at all.
        assert_eq!(to_bytes(&large)[0], LARGER_Y);
        assert!(from_bytes(&to_bytes(&large)).is_none());
        assert_eq!(to_bytes(&small), [0u8; G1_BYTES]);
        assert_eq!(from_bytes(&to_bytes(&small)), Some(G1Affine::identity()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_decode_encode_is_identity_for_both_signs(seed in any::<u64>()) {
            let p = random_point(seed);
            let (plus, minus) = (to_bytes(&p), to_bytes(&p.neg()));
            prop_assert_eq!(from_bytes(&plus), Some(p));
            prop_assert_eq!(from_bytes(&minus), Some(p.neg()));
            // The two roots share x and differ in the flag alone.
            prop_assert_eq!(plus[0] ^ minus[0], LARGER_Y);
            prop_assert_eq!(&plus[1..], &minus[1..]);
        }

        // One encoding per element: every string within reach of a valid
        // one — each combination of the spare bits, `x + p`, any single
        // bit flipped — either fails to decode or re-encodes to itself,
        // and only the point's own encoding decodes to it.
        #[test]
        fn prop_every_decodable_string_reencodes_to_itself(
            seed in any::<u64>(),
            flip in 0..8 * G1_BYTES,
        ) {
            let p = random_point(seed);
            let good = to_bytes(&p);
            let mut candidates: Vec<[u8; G1_BYTES]> = (0u8..8)
                .map(|spare| {
                    let mut bytes = good;
                    bytes[0] = (bytes[0] & !SPARE_BITS) | (spare << 5);
                    bytes
                })
                .collect();
            let mut flipped = good;
            flipped[flip / 8] ^= 1 << (flip % 8);
            candidates.push(flipped);
            if let Some(shifted) = x_plus_p(p.x) {
                candidates.push(shifted);
                let mut other = shifted;
                other[0] ^= LARGER_Y;
                candidates.push(other);
            }
            let mut decoding_to_p = 0;
            for bytes in candidates {
                if let Some(q) = from_bytes(&bytes) {
                    prop_assert_eq!(to_bytes(&q), bytes);
                    decoding_to_p += usize::from(q == p);
                }
            }
            prop_assert_eq!(decoding_to_p, 1);
        }

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
    fn random_points_via_rng() {
        let mut rng = ChaChaRng::seed_from_u64(33);
        let s = Fr::random(&mut rng);
        let p = mul_fr(generator(), &s);
        assert!(p.is_on_curve() && in_subgroup(&p));
        let _ = rng.next_u32();
    }
}
