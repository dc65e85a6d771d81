//! The group `G2`: the `r`-torsion of the sextic twist
//! `E'(Fp2): y² = x³ + 4(1+u) = x³ + 4ξ`.
//!
//! As for `G1`, the generator is found deterministically and cleared by
//! the (≈508-bit) cofactor `h2`, with the order verified at derivation
//! time.

use crate::curve::{Affine, CurveParams, Projective};
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::params;
use crate::scalar_mul::mul_wnaf;
use crate::traits::Field;
use std::sync::OnceLock;

/// Curve parameters of the twist `E'(Fp2)`.
#[derive(Clone, Copy, Debug)]
pub struct G2Params;

impl CurveParams for G2Params {
    type Base = Fp2;
    fn b() -> Fp2 {
        // 4·ξ = 4 + 4u.
        Fp2::new(Fp::from_u64(4), Fp::from_u64(4))
    }
}

/// Affine `G2` point.
pub type G2Affine = Affine<G2Params>;
/// Jacobian `G2` point.
pub type G2Projective = Projective<G2Params>;

/// Number of bytes in the uncompressed affine serialization.
pub const G2_BYTES: usize = 4 * Fp::BYTES;

/// Deterministic generator of the order-`r` subgroup of the twist.
pub fn generator() -> &'static G2Projective {
    static GEN: OnceLock<G2Projective> = OnceLock::new();
    GEN.get_or_init(|| {
        let c = params::consts();
        let mut n = 0u64;
        loop {
            // Walk x = n + u, n = 0, 1, 2, … (x with a u-component so we
            // don't accidentally start in a proper subfield).
            let x = Fp2::new(Fp::from_u64(n), Fp::one());
            if let Some(point) = point_with_x(x) {
                let cleared = mul_wnaf(&point.to_projective(), &c.g2_cofactor);
                if !cleared.is_identity() {
                    assert!(
                        mul_wnaf(&cleared, &c.r_limbs).is_identity(),
                        "cofactor-cleared twist point must have order r"
                    );
                    return cleared;
                }
            }
            n += 1;
        }
    })
}

fn point_with_x(x: Fp2) -> Option<G2Affine> {
    let rhs = x.square() * x + G2Params::b();
    let y = rhs.sqrt()?;
    let y = canonical_y(y);
    G2Affine::new(x, y)
}

fn canonical_y(y: Fp2) -> Fp2 {
    let neg = -y;
    let yb = (y.c0.to_bytes(), y.c1.to_bytes());
    let nb = (neg.c0.to_bytes(), neg.c1.to_bytes());
    if yb <= nb {
        y
    } else {
        neg
    }
}

/// Multiply a point by a scalar-field element (wNAF). Tests only: the
/// product multiplies no `G2` point but the generator, through the comb.
#[cfg(test)]
pub(crate) fn mul_fr(point: &G2Projective, s: &crate::fr::Fr) -> G2Projective {
    mul_wnaf(point, &s.to_canonical_limbs())
}

/// The endomorphism `ψ = twist ∘ Frobenius ∘ untwist`,
/// `ψ(x, y) = (c_x·x̄, c_y·ȳ)`; in Jacobian coordinates
/// `(X, Y, Z) ↦ (c_x·X̄, c_y·Ȳ, Z̄)`. On the subgroup it is
/// multiplication by `z`.
pub fn psi(point: &G2Projective) -> G2Projective {
    let e = params::endomorphisms();
    psi_with(point, e.psi_x, e.psi_y)
}

/// [`psi`] with explicit coefficients (the derivation in [`params`]
/// asserts its eigenvalue with it).
pub(crate) fn psi_with(point: &G2Projective, c_x: Fp2, c_y: Fp2) -> G2Projective {
    let mut image = *point;
    image.x = point.x.conjugate() * c_x;
    image.y = point.y.conjugate() * c_y;
    image.z = point.z.conjugate();
    image
}

/// Check membership in the order-`r` subgroup: `ψ(P) = [z]P`
/// (Scott, eprint 2021/1130 §4; proof in eprint 2022/352).
///
/// Sound because `ψ² − tψ + p = 0` on the whole twist (`t = z + 1`):
/// `ψ(P) = [z]P` forces `[z² − tz + p]P = [p − z]P = [h1·r]P = O`; the
/// twist's order `h2·r` also kills `P`, and `gcd(h1, h2) = 1`, so
/// `[r]P = O`. Costs one [`G2Projective::mul_by_x`] (63 doublings + 5
/// additions) instead of a 255-bit `r·P`.
pub fn in_subgroup(point: &G2Projective) -> bool {
    psi(point) == point.mul_by_x()
}

/// Serialize an affine point (uncompressed; all-zero = identity).
pub fn to_bytes(point: &G2Affine) -> [u8; G2_BYTES] {
    let mut out = [0u8; G2_BYTES];
    if !point.infinity {
        out[..Fp::BYTES].copy_from_slice(&point.x.c0.to_bytes());
        out[Fp::BYTES..2 * Fp::BYTES].copy_from_slice(&point.x.c1.to_bytes());
        out[2 * Fp::BYTES..3 * Fp::BYTES].copy_from_slice(&point.y.c0.to_bytes());
        out[3 * Fp::BYTES..].copy_from_slice(&point.y.c1.to_bytes());
    }
    out
}

/// Deserialize an affine point; checks the curve equation and subgroup.
pub fn from_bytes(bytes: &[u8; G2_BYTES]) -> Option<G2Affine> {
    from_bytes_on_curve(bytes).filter(|point| in_subgroup(&point.to_projective()))
}

/// Deserialize an affine point of the twist: canonical `Fp` limbs and
/// the curve equation, **not** the subgroup. For bytes whose subgroup
/// check happens later and before any pairing — in the walk of
/// [`crate::pairing::G2Prepared::prepare_batch_checked`].
pub fn from_bytes_on_curve(bytes: &[u8; G2_BYTES]) -> Option<G2Affine> {
    if bytes.iter().all(|&b| b == 0) {
        return Some(G2Affine::identity());
    }
    let part = |i: usize| -> Option<Fp> {
        let mut b = [0u8; Fp::BYTES];
        b.copy_from_slice(&bytes[i * Fp::BYTES..(i + 1) * Fp::BYTES]);
        Fp::from_bytes(&b)
    };
    let x = Fp2::new(part(0)?, part(1)?);
    let y = Fp2::new(part(2)?, part(3)?);
    G2Affine::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::subgroup_cases::{self, order_divides_r};
    use crate::engine::{Bls12, Engine};
    use crate::fr::Fr;
    use crate::pairing::G2Prepared;
    use eqjoin_bigint::BigUint;
    use eqjoin_crypto::ChaChaRng;
    use proptest::prelude::*;

    /// The first `n` twist points `x = 0 + u, 1 + u, …` before cofactor
    /// clearing.
    fn raw_points(n: usize) -> Vec<G2Projective> {
        (0u64..)
            .filter_map(|k| point_with_x(Fp2::new(Fp::from_u64(k), Fp::one())))
            .map(|p| p.to_projective())
            .take(n)
            .collect()
    }

    /// The verdict of the preparation walk on one point.
    fn walk_accepts(point: &G2Projective) -> bool {
        G2Prepared::prepare_batch_checked(&[point.to_affine()])[0].is_some()
    }

    #[test]
    fn generator_has_order_r() {
        let g = generator();
        assert!(g.is_on_curve());
        assert!(!g.is_identity());
        assert!(in_subgroup(g));
        assert!(!g.mul_limbs(&[2]).is_identity());
    }

    #[test]
    fn twist_group_laws() {
        let g = generator();
        let two_g = g.double();
        let three_g = two_g.add(g);
        assert_eq!(three_g.sub(g), two_g);
        assert_eq!(g.mul_limbs(&[3]), three_g);
        assert!(three_g.is_on_curve());
    }

    #[test]
    fn scalar_mul_homomorphism() {
        let g = generator();
        let mut rng = ChaChaRng::seed_from_u64(41);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(mul_fr(g, &a).add(&mul_fr(g, &b)), mul_fr(g, &(a + b)));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(42);
        let p = mul_fr(generator(), &Fr::random(&mut rng)).to_affine();
        assert_eq!(from_bytes(&to_bytes(&p)).unwrap(), p);
        assert!(from_bytes(&[0u8; G2_BYTES]).unwrap().infinity);
    }

    #[test]
    fn from_bytes_rejects_non_subgroup_points() {
        // A twist point before cofactor clearing is on the curve but
        // outside the r-subgroup; deserialization must reject it.
        let raw = raw_points(1)[0];
        assert!(!order_divides_r(&raw));
        assert!(from_bytes(&to_bytes(&raw.to_affine())).is_none());
    }

    #[test]
    fn in_subgroup_agrees_with_r_times_p() {
        let h2 = BigUint::from_limbs(&params::consts().g2_cofactor);
        let small_orders = subgroup_cases::small_prime_factors(&h2);
        // h2 = 13²·23²·2713·11953·262069·(a 4xx-bit prime).
        assert_eq!(small_orders, [13, 23, 2713, 11953, 262069]);
        let cases = subgroup_cases::cases(generator(), &raw_points(8), &h2, &small_orders);
        subgroup_cases::assert_agrees_with_reference(in_subgroup, &cases);
        // The preparation walk decides the same thing — the small-order
        // cases are the ones whose walk meets a zero denominator.
        subgroup_cases::assert_agrees_with_reference(walk_accepts, &cases);

        // One batch over every case: exactly the non-members are
        // refused, and a member's coefficients are those a members-only
        // batch gives it (a refused neighbour's substituted denominator
        // stays its own).
        let points: Vec<G2Affine> = cases.iter().map(|c| c.point.to_affine()).collect();
        let mixed = G2Prepared::prepare_batch_checked(&points);
        let members: Vec<G2Affine> = cases
            .iter()
            .filter(|c| in_subgroup(&c.point))
            .map(|c| c.point.to_affine())
            .collect();
        assert!(members.len() < points.len());
        let mut alone = G2Prepared::prepare_batch(&members).into_iter();
        for (case, prepared) in cases.iter().zip(mixed) {
            assert_eq!(
                prepared.is_some(),
                in_subgroup(&case.point),
                "{}",
                case.label
            );
            if let Some(prepared) = prepared {
                assert_eq!(Some(prepared), alone.next(), "{}", case.label);
            }
        }
        // The identity is a member with nothing to walk.
        let identity = G2Prepared::prepare_batch_checked(&[G2Affine::identity()]);
        assert!(identity[0].as_ref().is_some_and(G2Prepared::is_identity));
    }

    #[test]
    fn from_bytes_on_curve_defers_the_subgroup_check_and_nothing_else() {
        let h2 = BigUint::from_limbs(&params::consts().g2_cofactor);
        for case in subgroup_cases::cases(generator(), &raw_points(2), &h2, &[13]) {
            let point = case.point.to_affine();
            let bytes = to_bytes(&point);
            assert_eq!(from_bytes_on_curve(&bytes), Some(point), "{}", case.label);
            let strict = from_bytes(&bytes);
            assert_eq!(strict.is_some(), in_subgroup(&case.point), "{}", case.label);
            assert!(strict.is_none() || strict == Some(point), "{}", case.label);
        }
        let good = to_bytes(&generator().to_affine());
        // Off the curve: y + 1.
        let mut off_curve = good;
        off_curve[G2_BYTES - 1] ^= 1;
        assert!(from_bytes_on_curve(&off_curve).is_none());
        // A limb ≥ p is not a canonical `Fp`.
        let mut non_canonical = good;
        non_canonical[..Fp::BYTES].fill(0xff);
        assert!(from_bytes_on_curve(&non_canonical).is_none());
        // Wrong length, through the engine's slice-taking entry point.
        assert!(Bls12::g2_from_bytes_on_curve(&good[1..]).is_none());
        assert!(Bls12::g2_from_bytes_on_curve(&good).is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_in_subgroup_agrees_on_random_curve_points(seed in any::<u64>()) {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let raw = loop {
                if let Some(p) = point_with_x(Fp2::random(&mut rng)) {
                    break p.to_projective();
                }
            };
            let h = BigUint::from_limbs(&params::consts().g2_cofactor);
            let cases = subgroup_cases::cases(generator(), &[raw], &h, &[]);
            subgroup_cases::assert_agrees_with_reference(in_subgroup, &cases);
            subgroup_cases::assert_agrees_with_reference(walk_accepts, &cases);
        }
    }
}
