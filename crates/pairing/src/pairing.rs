//! The optimal ate pairing `e : G1 × G2 → GT` and the multi-pairing
//! `∏ᵢ e(Pᵢ, Qᵢ)` with a shared Miller loop.
//!
//! # Implementation notes
//!
//! * `G2` points are *untwisted* into `E(Fp12)` via
//!   `(x', y') ↦ (x'/w², y'/w³)` (with `w⁶ = ξ` this maps
//!   `y'² = x'³ + 4ξ` onto `y² = x³ + 4`), and the Miller loop runs with
//!   plain affine chord-and-tangent formulas over `Fp12`. Vertical-line
//!   denominators are omitted: their values lie in `Fp6`, which the easy
//!   part of the final exponentiation annihilates.
//! * The loop parameter is `|z|`; since the BLS parameter is negative the
//!   Miller value is conjugated at the end (`conj(f) = f⁻¹ · f^{p⁶+1}` and
//!   `f^{p⁶+1} ∈ Fp6` is likewise killed by the final exponentiation).
//! * Slope computations need one field inversion per step; across a
//!   multi-pairing all pairs share a single **batched inversion** per step
//!   (Montgomery's trick), which is what makes the `m(t+1)+3`-element
//!   products in `SJ.Dec` affordable.
//! * The final exponentiation splits into the easy part
//!   `(p⁶-1)(p²+1)` and the Hayashida et al. BLS12 hard part
//!   `(z-1)²(z+p)(z²+p²-1) + 3` (a 3-multiple of `(p⁴-p²+1)/r`, verified
//!   symbolically in `params::tests`).

use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::fr::Fr;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::params::{BLS_X, BLS_X_IS_NEGATIVE};
use crate::traits::{batch_invert, Field};
use std::sync::OnceLock;

/// An element of the pairing target group `GT ⊂ Fp12^*` (order `r`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Gt(pub(crate) Fp12);

impl Gt {
    /// The identity element `1`.
    pub fn one() -> Self {
        Gt(Fp12::one())
    }

    /// Group operation (written multiplicatively, as in the paper).
    pub fn mul(&self, other: &Gt) -> Gt {
        Gt(self.0 * other.0)
    }

    /// Inverse — conjugation, valid on the cyclotomic subgroup.
    pub fn inverse(&self) -> Gt {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by a scalar-field element.
    ///
    /// Runs width-4 wNAF over the cyclotomic subgroup, where the
    /// inverse needed for negative digits is a free conjugation —
    /// ~51 multiplications instead of the square-and-multiply ~128.
    pub fn pow(&self, s: &Fr) -> Gt {
        crate::ops::count_gt_pow();
        Gt(cyclotomic_pow_wnaf(&self.0, &s.to_canonical_limbs()))
    }

    /// Exponentiation by a small integer.
    pub fn pow_u64(&self, e: u64) -> Gt {
        crate::ops::count_gt_pow();
        Gt(cyclotomic_pow_wnaf(&self.0, &[e]))
    }

    /// Canonical serialization (576 bytes) — the hash-join key for
    /// `SJ.Match`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Access the underlying field element.
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }
}

/// wNAF exponentiation valid on the cyclotomic subgroup, where the
/// inverse of an element is its conjugate (so negative digits cost
/// nothing extra) and squaring is the Granger–Scott cyclotomic squaring
/// (roughly half a generic `Fp12` squaring). Width 4: odd powers
/// `f, f³, f⁵, f⁷` precomputed.
fn cyclotomic_pow_wnaf(base: &Fp12, exp: &[u64]) -> Fp12 {
    let digits = crate::scalar_mul::wnaf_digits(exp, 4);
    if digits.is_empty() {
        return Fp12::one();
    }
    let base_sq = base.cyclotomic_square();
    let mut table = [*base; 4];
    for i in 1..4 {
        table[i] = table[i - 1] * base_sq;
    }
    let mut acc = Fp12::one();
    for &d in digits.iter().rev() {
        acc = acc.cyclotomic_square();
        if d > 0 {
            acc *= table[d as usize / 2];
        } else if d < 0 {
            acc *= table[d.unsigned_abs() as usize / 2].conjugate();
        }
    }
    acc
}

/// Untwist constants `ξ⁻¹·w⁴` (= `w⁻²`) and `ξ⁻¹·w³` (= `w⁻³`).
fn untwist_consts() -> &'static (Fp12, Fp12) {
    static CONSTS: OnceLock<(Fp12, Fp12)> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let xi_inv = Fp2::xi().invert().expect("ξ nonzero");
        // w⁻² = ξ⁻¹·w⁴ = ξ⁻¹·v²  (coefficient c0.c2)
        let w_inv_2 = Fp12::new(Fp6::new(Fp2::zero(), Fp2::zero(), xi_inv), Fp6::zero());
        // w⁻³ = ξ⁻¹·w³ = ξ⁻¹·v·w (coefficient c1.c1)
        let w_inv_3 = Fp12::new(Fp6::zero(), Fp6::new(Fp2::zero(), xi_inv, Fp2::zero()));
        (w_inv_2, w_inv_3)
    })
}

/// Map a twist point into `E(Fp12): y² = x³ + 4`.
pub(crate) fn untwist(q: &G2Affine) -> (Fp12, Fp12) {
    let (w2, w3) = untwist_consts();
    (Fp12::from_fp2(q.x) * *w2, Fp12::from_fp2(q.y) * *w3)
}

/// Multiply `f` by a sparse line value `a + b·(v·w) + c·(v²·w)`
/// (`w`-degrees 0, 3 and 5 — the shape every Miller-loop line takes after
/// scaling by `ξ`). Costs 15 `Fp2` multiplications instead of a full
/// `Fp12` multiplication's 18.
fn mul_by_line(f: &Fp12, a: Fp2, b: Fp2, c: Fp2) -> Fp12 {
    // l = A + B·w with A = (a, 0, 0), B = (0, b, c) over Fp6.
    let t0 = f.c0.scale(a);
    let t1 = mul_fp6_by_0bc(&f.c1, b, c);
    let cross = (f.c0 + f.c1) * Fp6::new(a, b, c);
    Fp12 {
        c0: t0 + t1.mul_by_v(),
        c1: cross - t0 - t1,
    }
}

/// `(f0 + f1·v + f2·v²)·(b·v + c·v²)` with `v³ = ξ`.
fn mul_fp6_by_0bc(f: &Fp6, b: Fp2, c: Fp2) -> Fp6 {
    Fp6::new(
        (f.c1 * c + f.c2 * b).mul_by_xi(),
        f.c0 * b + (f.c2 * c).mul_by_xi(),
        f.c0 * c + f.c1 * b,
    )
}

/// Per-pair Miller-loop state in twist coordinates: `T = (xt, yt)` walks
/// multiples of `Q` on `E'(Fp2)`; `yp_xi` caches `ξ·y_P`.
struct TwistState {
    xp: Fp,
    yp_xi: Fp2,
    xq: Fp2,
    yq: Fp2,
    xt: Fp2,
    yt: Fp2,
}

/// Shared Miller loop over all pairs (identity pairs contribute 1 and are
/// skipped). Returns the un-exponentiated Miller value.
///
/// The loop runs entirely in `Fp2` twist coordinates: the untwist
/// `(x', y') ↦ (x'/w², y'/w³)` turns the affine tangent/chord line at
/// `P = (x_P, y_P)` into (after scaling by the exponentiation-killed
/// factor `ξ ∈ Fp2 ⊂ Fp6`)
///
/// ```text
///   ξ·y_P  +  (λ'·x'_• - y'_•)·w³  -  (λ'·x_P)·w⁵
/// ```
///
/// where `λ' ∈ Fp2` is the twist-affine slope and `•` is `T` (doubling) or
/// `Q` (addition). Slope denominators are batch-inverted across all pairs.
pub fn multi_miller_loop(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    let mut states: Vec<TwistState> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .map(|(p, q)| TwistState {
            xp: p.x,
            yp_xi: Fp2::xi().scale(p.y),
            xq: q.x,
            yq: q.y,
            xt: q.x,
            yt: q.y,
        })
        .collect();
    crate::ops::count_pairing(states.len() as u64);
    if states.is_empty() {
        return Fp12::one();
    }

    let mut f = Fp12::one();
    let bits = 64 - BLS_X.leading_zeros() as usize;
    let mut denoms: Vec<Fp2> = Vec::with_capacity(states.len());

    for i in (0..bits - 1).rev() {
        f = f.square();

        // Doubling: λ' = 3x_T²/(2y_T) on the twist, batched inversion.
        denoms.clear();
        denoms.extend(states.iter().map(|s| s.yt.double()));
        batch_invert(&mut denoms);
        for (s, inv) in states.iter_mut().zip(&denoms) {
            let xt_sq = s.xt.square();
            let lambda = (xt_sq.double() + xt_sq) * *inv;
            let b = lambda * s.xt - s.yt;
            let c = -lambda.scale(s.xp);
            f = mul_by_line(&f, s.yp_xi, b, c);
            let x3 = lambda.square() - s.xt.double();
            let y3 = lambda * (s.xt - x3) - s.yt;
            s.xt = x3;
            s.yt = y3;
        }

        if (BLS_X >> i) & 1 == 1 {
            // Addition: λ' = (y_T - y_Q)/(x_T - x_Q); T = mQ with
            // 2 ≤ m < r-1 never collides with ±Q on an order-r point, so
            // the denominators are nonzero.
            denoms.clear();
            denoms.extend(states.iter().map(|s| s.xt - s.xq));
            batch_invert(&mut denoms);
            for (s, inv) in states.iter_mut().zip(&denoms) {
                let lambda = (s.yt - s.yq) * *inv;
                let b = lambda * s.xq - s.yq;
                let c = -lambda.scale(s.xp);
                f = mul_by_line(&f, s.yp_xi, b, c);
                let x3 = lambda.square() - s.xt - s.xq;
                let y3 = lambda * (s.xt - x3) - s.yt;
                s.xt = x3;
                s.yt = y3;
            }
        }
    }

    if BLS_X_IS_NEGATIVE {
        f = f.conjugate();
    }
    f
}

/// Precomputed Miller-loop line state for one `G2` point: the slope
/// `λ'` and intercept term `λ'·x_• − y_•` of every doubling/addition
/// line, in loop order. These are exactly the `P`-independent parts of
/// the twist-coordinate line
///
/// ```text
///   ξ·y_P  +  (λ'·x'_• − y'_•)·w³  −  (λ'·x_P)·w⁵
/// ```
///
/// so a pairing against a prepared point costs **no slope inversions
/// and no point arithmetic** — only table reads and sparse `Fp12` line
/// multiplications. A stored ciphertext is prepared once (by the first
/// query that selects it) and then reused by every later query of the
/// series, which is the paper's reuse pattern exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct G2Prepared {
    /// `(λ', λ'·x_• − y_•)` per Miller step (63 doublings interleaved
    /// with 5 additions for the BLS12-381 loop parameter).
    coeffs: Vec<(Fp2, Fp2)>,
    /// The point was the identity; it contributes `1` to the product.
    infinity: bool,
}

/// Number of line coefficients a non-identity [`G2Prepared`] carries:
/// one per doubling step plus one per addition step of the Miller loop.
fn prepared_coeff_count() -> usize {
    let bits = 64 - BLS_X.leading_zeros() as usize;
    (bits - 1) + (BLS_X.count_ones() as usize - 1)
}

impl G2Prepared {
    /// Prepare one point ([`G2Prepared::prepare_batch`] with arity 1).
    pub fn from_affine(q: &G2Affine) -> Self {
        Self::prepare_batch(&[*q]).pop().expect("one in, one out")
    }

    /// Prepare a batch of points, sharing one slope inversion per
    /// Miller step across the whole batch (Montgomery's trick) — the
    /// shape of a first touch, where every ciphertext element of every
    /// row a query newly selects is prepared at once.
    pub fn prepare_batch(qs: &[G2Affine]) -> Vec<G2Prepared> {
        struct Walk {
            xq: Fp2,
            yq: Fp2,
            xt: Fp2,
            yt: Fp2,
            slot: usize,
        }
        let mut walks: Vec<Walk> = qs
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.infinity)
            .map(|(slot, q)| Walk {
                xq: q.x,
                yq: q.y,
                xt: q.x,
                yt: q.y,
                slot,
            })
            .collect();
        crate::ops::count_g2_prepares(walks.len() as u64);
        let mut out: Vec<G2Prepared> = qs
            .iter()
            .map(|q| G2Prepared {
                coeffs: Vec::with_capacity(if q.infinity {
                    0
                } else {
                    prepared_coeff_count()
                }),
                infinity: q.infinity,
            })
            .collect();
        if walks.is_empty() {
            return out;
        }

        let bits = 64 - BLS_X.leading_zeros() as usize;
        let mut denoms: Vec<Fp2> = Vec::with_capacity(walks.len());
        for i in (0..bits - 1).rev() {
            // Doubling: λ' = 3x_T²/(2y_T), batched inversion.
            denoms.clear();
            denoms.extend(walks.iter().map(|w| w.yt.double()));
            batch_invert(&mut denoms);
            for (w, inv) in walks.iter_mut().zip(&denoms) {
                let xt_sq = w.xt.square();
                let lambda = (xt_sq.double() + xt_sq) * *inv;
                out[w.slot].coeffs.push((lambda, lambda * w.xt - w.yt));
                let x3 = lambda.square() - w.xt.double();
                let y3 = lambda * (w.xt - x3) - w.yt;
                w.xt = x3;
                w.yt = y3;
            }
            if (BLS_X >> i) & 1 == 1 {
                // Addition: λ' = (y_T - y_Q)/(x_T - x_Q); nonzero
                // denominators for order-r points (see the loop above).
                denoms.clear();
                denoms.extend(walks.iter().map(|w| w.xt - w.xq));
                batch_invert(&mut denoms);
                for (w, inv) in walks.iter_mut().zip(&denoms) {
                    let lambda = (w.yt - w.yq) * *inv;
                    out[w.slot].coeffs.push((lambda, lambda * w.xq - w.yq));
                    let x3 = lambda.square() - w.xt - w.xq;
                    let y3 = lambda * (w.xt - x3) - w.yt;
                    w.xt = x3;
                    w.yt = y3;
                }
            }
        }
        out
    }

    /// True iff this is the prepared identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }
}

/// The shared Miller loop over **prepared** `G2` points: identical
/// output to [`multi_miller_loop`] (asserted bit-for-bit by tests), but
/// every line's slope comes from the [`G2Prepared`] table — no
/// inversions, no squarings, no point updates. This is the hot path of
/// `SJ.Dec` over stored ciphertexts.
pub fn multi_miller_loop_prepared(pairs: &[(G1Affine, &G2Prepared)]) -> Fp12 {
    struct Eval<'a> {
        xp: Fp,
        yp_xi: Fp2,
        coeffs: &'a [(Fp2, Fp2)],
    }
    let states: Vec<Eval<'_>> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .map(|(p, q)| {
            debug_assert_eq!(q.coeffs.len(), prepared_coeff_count());
            Eval {
                xp: p.x,
                yp_xi: Fp2::xi().scale(p.y),
                coeffs: &q.coeffs,
            }
        })
        .collect();
    crate::ops::count_prepared_pairing(states.len() as u64);
    if states.is_empty() {
        return Fp12::one();
    }

    let mut f = Fp12::one();
    let bits = 64 - BLS_X.leading_zeros() as usize;
    let mut step = 0usize;
    for i in (0..bits - 1).rev() {
        f = f.square();
        for s in &states {
            let (lambda, b) = s.coeffs[step];
            f = mul_by_line(&f, s.yp_xi, b, -lambda.scale(s.xp));
        }
        step += 1;
        if (BLS_X >> i) & 1 == 1 {
            for s in &states {
                let (lambda, b) = s.coeffs[step];
                f = mul_by_line(&f, s.yp_xi, b, -lambda.scale(s.xp));
            }
            step += 1;
        }
    }

    if BLS_X_IS_NEGATIVE {
        f = f.conjugate();
    }
    f
}

struct PairState {
    xp: Fp12,
    yp: Fp12,
    xq: Fp12,
    yq: Fp12,
    xt: Fp12,
    yt: Fp12,
}

/// Reference Miller loop with generic `Fp12` arithmetic over the untwisted
/// points — kept as a correctness oracle for [`multi_miller_loop`] (the
/// two must agree bit-for-bit) and as the "no twist-coordinate / sparse
/// line optimization" arm of the ablation benchmarks.
pub fn multi_miller_loop_generic(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    let mut states: Vec<PairState> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .map(|(p, q)| {
            let (xq, yq) = untwist(q);
            PairState {
                xp: Fp12::from_fp(p.x),
                yp: Fp12::from_fp(p.y),
                xq,
                yq,
                xt: xq,
                yt: yq,
            }
        })
        .collect();
    if states.is_empty() {
        return Fp12::one();
    }

    let mut f = Fp12::one();
    let bits = 64 - BLS_X.leading_zeros() as usize;
    let mut denoms = Vec::with_capacity(states.len());

    for i in (0..bits - 1).rev() {
        f = f.square();

        // Doubling step: λ = 3x_T² / (2y_T), batched across pairs.
        denoms.clear();
        denoms.extend(states.iter().map(|s| s.yt.double()));
        batch_invert(&mut denoms);
        for (s, inv) in states.iter_mut().zip(&denoms) {
            let xt_sq = s.xt.square();
            let lambda = (xt_sq.double() + xt_sq) * *inv;
            let line = s.yp - s.yt - lambda * (s.xp - s.xt);
            f *= line;
            let x3 = lambda.square() - s.xt.double();
            let y3 = lambda * (s.xt - x3) - s.yt;
            s.xt = x3;
            s.yt = y3;
        }

        if (BLS_X >> i) & 1 == 1 {
            // Addition step: λ = (y_T - y_Q)/(x_T - x_Q), batched. T = mQ
            // with 2 ≤ m < r-1 never collides with ±Q on an order-r point,
            // so the denominators are nonzero.
            denoms.clear();
            denoms.extend(states.iter().map(|s| s.xt - s.xq));
            batch_invert(&mut denoms);
            for (s, inv) in states.iter_mut().zip(&denoms) {
                let lambda = (s.yt - s.yq) * *inv;
                let line = s.yp - s.yq - lambda * (s.xp - s.xq);
                f *= line;
                let x3 = lambda.square() - s.xt - s.xq;
                let y3 = lambda * (s.xt - x3) - s.yt;
                s.xt = x3;
                s.yt = y3;
            }
        }
    }

    if BLS_X_IS_NEGATIVE {
        f = f.conjugate();
    }
    f
}

/// Exponentiation by `|z|` followed by the sign fix-up, valid for elements
/// of the cyclotomic subgroup (where inversion is conjugation and
/// squaring is the Granger–Scott cyclotomic squaring — `|z|` has only 6
/// set bits, so this is essentially 63 cyclotomic squarings).
fn exp_by_z(m: &Fp12) -> Fp12 {
    let bits = 64 - BLS_X.leading_zeros();
    let mut pow = *m;
    for i in (0..bits - 1).rev() {
        pow = pow.cyclotomic_square();
        if (BLS_X >> i) & 1 == 1 {
            pow *= *m;
        }
    }
    if BLS_X_IS_NEGATIVE {
        pow.conjugate()
    } else {
        pow
    }
}

/// The hard part of the final exponentiation (Hayashida et al.):
/// `m^((z-1)²(z+p)(z²+p²-1) + 3)` for `m` in the cyclotomic subgroup.
fn final_exponentiation_hard(m: &Fp12) -> Fp12 {
    // All arithmetic stays in the cyclotomic subgroup, where the
    // inverse is the conjugate.
    let cyc_inv = |x: &Fp12| x.conjugate();

    // a = m^(z-1), twice → m^((z-1)²).
    let a = exp_by_z(m) * cyc_inv(m);
    let a = exp_by_z(&a) * cyc_inv(&a);
    // b = a^(z+p).
    let b = exp_by_z(&a) * a.frobenius();
    // c = b^(z²+p²-1).
    let c = exp_by_z(&exp_by_z(&b)) * b.frobenius2() * cyc_inv(&b);
    // result = c · m³.
    c * m.cyclotomic_square() * *m
}

/// The final exponentiation `f^((p¹²-1)/r)` (up to a harmless cube).
pub fn final_exponentiation(f: &Fp12) -> Gt {
    // Easy part: f^((p⁶-1)(p²+1)).
    let t = f.conjugate() * f.invert().expect("Miller value nonzero");
    let m = t.frobenius2() * t;
    Gt(final_exponentiation_hard(&m))
}

/// Final exponentiation of a whole decrypt phase at once: the easy
/// part's per-element inversion is batched with Montgomery's trick
/// (one field inversion for `n` Miller values — the same trick the
/// Miller loop already plays on slope denominators), then the hard part
/// runs per element. Output order matches input order;
/// `final_exponentiation_batch(&[f])[0] == final_exponentiation(&f)`.
pub fn final_exponentiation_batch(fs: &[Fp12]) -> Vec<Gt> {
    let mut inverses = fs.to_vec();
    batch_invert(&mut inverses);
    fs.iter()
        .zip(&inverses)
        .map(|(f, f_inv)| {
            let t = f.conjugate() * *f_inv;
            let m = t.frobenius2() * t;
            Gt(final_exponentiation_hard(&m))
        })
        .collect()
}

/// The optimal ate pairing of a single point pair.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    final_exponentiation(&multi_miller_loop(&[(*p, *q)]))
}

/// The product of pairings `∏ᵢ e(Pᵢ, Qᵢ)` with one shared Miller loop and
/// one final exponentiation.
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    final_exponentiation(&multi_miller_loop(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{g1, g2, params};
    use eqjoin_crypto::ChaChaRng;

    fn g1_gen() -> G1Affine {
        g1::generator().to_affine()
    }

    fn g2_gen() -> G2Affine {
        g2::generator().to_affine()
    }

    #[test]
    fn untwist_lands_on_e_fp12() {
        let (x, y) = untwist(&g2_gen());
        // y² = x³ + 4 over Fp12.
        assert_eq!(y.square(), x.square() * x + Fp12::from_fp(Fp::from_u64(4)));
    }

    #[test]
    fn untwist_is_homomorphic() {
        // untwist(2Q) must equal the curve double of untwist(Q) on E(Fp12);
        // checked through the affine doubling formula.
        let q = g2_gen();
        let q2 = g2::generator().double().to_affine();
        let (x1, y1) = untwist(&q);
        let (x2, y2) = untwist(&q2);
        let lambda = (x1.square().double() + x1.square()) * (y1.double()).invert().unwrap();
        let x_dbl = lambda.square() - x1.double();
        let y_dbl = lambda * (x1 - x_dbl) - y1;
        assert_eq!((x_dbl, y_dbl), (x2, y2));
    }

    #[test]
    fn fast_loop_matches_generic_oracle() {
        // The twist-coordinate loop scales every line by ξ, so the raw
        // Miller values differ by ξ^(#lines) ∈ Fp2 — a factor the final
        // exponentiation kills. The *pairings* must agree exactly.
        let mut rng = ChaChaRng::seed_from_u64(50);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..3)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                (
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )
            })
            .collect();
        assert_eq!(
            final_exponentiation(&multi_miller_loop(&pairs)),
            final_exponentiation(&multi_miller_loop_generic(&pairs))
        );
        assert_eq!(
            final_exponentiation(&multi_miller_loop(&pairs[..1])),
            final_exponentiation(&multi_miller_loop_generic(&pairs[..1]))
        );
    }

    #[test]
    fn prepared_loop_matches_unprepared_bit_for_bit() {
        let mut rng = ChaChaRng::seed_from_u64(58);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                (
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )
            })
            .collect();
        let prepared: Vec<G2Prepared> =
            G2Prepared::prepare_batch(&pairs.iter().map(|(_, q)| *q).collect::<Vec<_>>());
        let with_prep: Vec<(G1Affine, &G2Prepared)> = pairs
            .iter()
            .zip(&prepared)
            .map(|((p, _), q)| (*p, q))
            .collect();
        // The raw Miller values must agree exactly — the prepared loop
        // replays the very same lines.
        assert_eq!(
            multi_miller_loop_prepared(&with_prep),
            multi_miller_loop(&pairs)
        );
        assert_eq!(
            multi_miller_loop_prepared(&with_prep[..1]),
            multi_miller_loop(&pairs[..1])
        );
        // Batch preparation equals one-at-a-time preparation.
        for ((_, q), prep) in pairs.iter().zip(&prepared) {
            assert_eq!(G2Prepared::from_affine(q), *prep);
        }
    }

    #[test]
    fn prepared_identity_contributes_one() {
        let id = G2Prepared::from_affine(&G2Affine::identity());
        assert!(id.is_identity());
        assert_eq!(multi_miller_loop_prepared(&[(g1_gen(), &id)]), Fp12::one());
    }

    #[test]
    fn batched_final_exponentiation_matches_scalar() {
        let mut rng = ChaChaRng::seed_from_u64(59);
        let fs: Vec<Fp12> = (0..5)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                multi_miller_loop(&[(
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )])
            })
            .collect();
        let batch = final_exponentiation_batch(&fs);
        assert_eq!(batch.len(), fs.len());
        for (f, gt) in fs.iter().zip(&batch) {
            assert_eq!(final_exponentiation(f), *gt);
        }
        assert!(final_exponentiation_batch(&[]).is_empty());
    }

    #[test]
    fn non_degeneracy() {
        let e = pairing(&g1_gen(), &g2_gen());
        assert_ne!(e, Gt::one(), "e(G1, G2) must not be 1");
    }

    #[test]
    fn gt_has_order_r() {
        let e = pairing(&g1_gen(), &g2_gen());
        let r = params::consts().r_big.limbs().to_vec();
        assert_eq!(Gt(e.0.pow_slice(&r)), Gt::one());
    }

    #[test]
    fn identity_pairs() {
        assert_eq!(pairing(&G1Affine::identity(), &g2_gen()), Gt::one());
        assert_eq!(pairing(&g1_gen(), &G2Affine::identity()), Gt::one());
        assert_eq!(multi_pairing(&[]), Gt::one());
    }

    #[test]
    fn bilinearity_in_g1() {
        let mut rng = ChaChaRng::seed_from_u64(51);
        let a = Fr::random(&mut rng);
        let pa = g1::mul_fr(g1::generator(), &a).to_affine();
        let lhs = pairing(&pa, &g2_gen());
        let rhs = pairing(&g1_gen(), &g2_gen()).pow(&a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinearity_in_g2() {
        let mut rng = ChaChaRng::seed_from_u64(52);
        let b = Fr::random(&mut rng);
        let qb = g2::mul_fr(g2::generator(), &b).to_affine();
        let lhs = pairing(&g1_gen(), &qb);
        let rhs = pairing(&g1_gen(), &g2_gen()).pow(&b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn full_bilinearity() {
        let mut rng = ChaChaRng::seed_from_u64(53);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = g1::mul_fr(g1::generator(), &a).to_affine();
        let qb = g2::mul_fr(g2::generator(), &b).to_affine();
        assert_eq!(
            pairing(&pa, &qb),
            pairing(&g1_gen(), &g2_gen()).pow(&(a * b))
        );
    }

    #[test]
    fn additivity_left() {
        let mut rng = ChaChaRng::seed_from_u64(54);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = g1::mul_fr(g1::generator(), &a);
        let pb = g1::mul_fr(g1::generator(), &b);
        let sum = pa.add(&pb).to_affine();
        let lhs = pairing(&sum, &g2_gen());
        let rhs = pairing(&pa.to_affine(), &g2_gen()).mul(&pairing(&pb.to_affine(), &g2_gen()));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn multi_pairing_is_product() {
        let mut rng = ChaChaRng::seed_from_u64(55);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                (
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )
            })
            .collect();
        let product = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        assert_eq!(multi_pairing(&pairs), product);
    }

    #[test]
    fn multi_pairing_inner_product_structure() {
        // ∏ e(g1^aᵢ, g2^bᵢ) = e(g1, g2)^{⟨a, b⟩} — the exact property the
        // FHIPE decryption relies on.
        let mut rng = ChaChaRng::seed_from_u64(56);
        let a: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let b: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let pairs: Vec<(G1Affine, G2Affine)> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| {
                (
                    g1::mul_fr(g1::generator(), x).to_affine(),
                    g2::mul_fr(g2::generator(), y).to_affine(),
                )
            })
            .collect();
        let ip: Fr = a.iter().zip(&b).map(|(x, y)| *x * *y).sum();
        assert_eq!(
            multi_pairing(&pairs),
            pairing(&g1_gen(), &g2_gen()).pow(&ip)
        );
    }

    #[test]
    fn cyclotomic_pow_matches_square_and_multiply() {
        let e = pairing(&g1_gen(), &g2_gen());
        let mut rng = ChaChaRng::seed_from_u64(57);
        for _ in 0..3 {
            let s = Fr::random(&mut rng);
            let limbs = s.to_canonical_limbs();
            assert_eq!(cyclotomic_pow_wnaf(&e.0, &limbs), e.0.pow_slice(&limbs));
        }
        // Edge exponents: 0, 1, 2, r−1 (the last equals inversion).
        assert_eq!(cyclotomic_pow_wnaf(&e.0, &[0]), Fp12::one());
        assert_eq!(cyclotomic_pow_wnaf(&e.0, &[1]), e.0);
        assert_eq!(cyclotomic_pow_wnaf(&e.0, &[2]), e.0.square());
        assert_eq!(e.pow(&(-Fr::one())), e.inverse());
    }

    #[test]
    fn gt_group_ops() {
        let e = pairing(&g1_gen(), &g2_gen());
        assert_eq!(e.mul(&e.inverse()), Gt::one());
        assert_eq!(e.pow_u64(3), e.mul(&e).mul(&e));
        assert_eq!(e.pow(&Fr::from_u64(1)), e);
        assert_eq!(e.pow(&Fr::zero()), Gt::one());
        assert_eq!(e.to_bytes().len(), 576);
    }
}
