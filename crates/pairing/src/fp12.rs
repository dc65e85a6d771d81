//! Quadratic extension `Fp12 = Fp6[w]/(w² - v)` — the pairing target
//! field. Includes the `p`-power Frobenius endomorphism (whose
//! coefficients are derived at runtime from `ξ^((p-1)/6)`), used by the
//! final exponentiation.

use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::params;
use crate::traits::Field;
use eqjoin_crypto::RandomSource;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// An element `c0 + c1·w` of `Fp12`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Fp12 {
    /// Constant coefficient.
    pub c0: Fp6,
    /// Coefficient of `w`.
    pub c1: Fp6,
}

/// Frobenius coefficients `γ^k = ξ^(k(p-1)/6)` for `k = 0..6`, derived once.
pub(crate) fn gamma_pows() -> &'static [Fp2; 6] {
    static GAMMA: OnceLock<[Fp2; 6]> = OnceLock::new();
    GAMMA.get_or_init(|| {
        let gamma = Fp2::xi().pow_slice(&params::consts().p_minus_1_over_6);
        let mut pows = [Fp2::one(); 6];
        for k in 1..6 {
            pows[k] = pows[k - 1] * gamma;
        }
        pows
    })
}

impl Fp12 {
    /// Construct from coefficients.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Fp12 { c0, c1 }
    }

    /// Embed an `Fp6` element.
    pub fn from_fp6(c0: Fp6) -> Self {
        Fp12 {
            c0,
            c1: Fp6::zero(),
        }
    }

    /// Embed an `Fp2` element.
    pub fn from_fp2(c: Fp2) -> Self {
        Self::from_fp6(Fp6::from_fp2(c))
    }

    /// Embed an `Fp` element.
    pub fn from_fp(c: Fp) -> Self {
        Self::from_fp2(Fp2::from_fp(c))
    }

    /// Conjugation over `Fp6`: `c0 - c1·w`. Equals the `p⁶`-power Frobenius
    /// map; for elements of the cyclotomic subgroup it is the inverse.
    pub fn conjugate(&self) -> Self {
        Fp12 {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// The `p`-power Frobenius endomorphism.
    ///
    /// In the `w`-power basis `(1, w, w², …, w⁵)` over `Fp2` the map sends
    /// coefficient `c_k` of `w^k` to `conj(c_k)·ξ^(k(p-1)/6)` because
    /// `(w^k)^p = w^k · (w⁶)^(k(p-1)/6)` and `w⁶ = ξ` (`p ≡ 1 mod 6`).
    /// Our tower stores `w^{0,2,4}` in `c0` and `w^{1,3,5}` in `c1`.
    pub fn frobenius(&self) -> Self {
        let g = gamma_pows();
        Fp12 {
            c0: Fp6::new(
                self.c0.c0.conjugate(),
                self.c0.c1.conjugate() * g[2],
                self.c0.c2.conjugate() * g[4],
            ),
            c1: Fp6::new(
                self.c1.c0.conjugate() * g[1],
                self.c1.c1.conjugate() * g[3],
                self.c1.c2.conjugate() * g[5],
            ),
        }
    }

    /// The `p²`-power Frobenius (two applications of [`Self::frobenius`]).
    pub fn frobenius2(&self) -> Self {
        self.frobenius().frobenius()
    }

    /// Granger–Scott cyclotomic squaring, valid for elements of the
    /// cyclotomic subgroup (`x^(p⁶+1) = 1` — everything the easy part of
    /// the final exponentiation emits, hence every `GT` element).
    ///
    /// Decomposing `Fp12 = Fp4[w]` with `Fp4 = Fp2[v·w]`, the norm-1
    /// condition collapses a full squaring (2 `Fp6` multiplications = 12
    /// `Fp2` multiplications) into three `Fp4` squarings — 9 `Fp2`
    /// squarings plus additions, of 2 `Fp` multiplications each where an
    /// `Fp2` multiplication takes 3. `Gt::pow` and the hard part of the
    /// final exponentiation are squaring-dominated, so they run on this.
    pub fn cyclotomic_square(&self) -> Self {
        crate::ops::count_cyclotomic_square();
        // Coefficients in the w-power basis: c0 = (z0, z4, z3)·(1, v, v²),
        // c1 = (z2, z1, z5)·(1, v, v²) — the Fp4 pairs are (z0, z1),
        // (z2, z3), (z4, z5).
        let z0 = self.c0.c0;
        let z4 = self.c0.c1;
        let z3 = self.c0.c2;
        let z2 = self.c1.c0;
        let z1 = self.c1.c1;
        let z5 = self.c1.c2;

        let (t0, t1) = fp4_square(z0, z1);
        let z0 = (t0 - z0).double() + t0;
        let z1 = (t1 + z1).double() + t1;

        let (t0, t1) = fp4_square(z2, z3);
        let (t2, t3) = fp4_square(z4, z5);
        let z4 = (t0 - z4).double() + t0;
        let z5 = (t1 + z5).double() + t1;

        let t0 = t3.mul_by_xi();
        let z2 = (t0 + z2).double() + t0;
        let z3 = (t2 - z3).double() + t2;

        Fp12 {
            c0: Fp6::new(z0, z4, z3),
            c1: Fp6::new(z2, z1, z5),
        }
    }

    /// Multiply by the sparse element `1 + b·w³ + c·w⁵` — the shape of
    /// every Miller-loop line once it is normalised by its `Fp2`
    /// constant term (see [`mod@crate::pairing`]).
    ///
    /// With `B = b·v + c·v²` the line is `1 + B·w`, so
    /// `(f0 + f1·w)(1 + B·w) = (f0 + v·f1·B) + (f1 + f0·B)·w`: two
    /// sparse `Fp6` products of 5 `Fp2` multiplications each, against a
    /// dense multiplication's 18.
    pub fn mul_by_line(&self, b: Fp2, c: Fp2) -> Self {
        Fp12 {
            c0: self.c0 + self.c1.mul_by_0bc(b, c).mul_by_v(),
            c1: self.c1 + self.c0.mul_by_0bc(b, c),
        }
    }

    /// Canonical byte serialization (12 × 48 bytes, coefficients in tower
    /// order). Used for `GT` equality hashing in the hash join.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 * Fp::BYTES);
        for part in [&self.c0, &self.c1] {
            for coeff in [&part.c0, &part.c1, &part.c2] {
                out.extend_from_slice(&coeff.c0.to_bytes());
                out.extend_from_slice(&coeff.c1.to_bytes());
            }
        }
        out
    }
}

/// Squaring in `Fp4 = Fp2[s]/(s² - v·w… )` represented by its two `Fp2`
/// coefficients: `(a + b·s)² = a² + ξ·b² + (2ab)·s`.
fn fp4_square(a: Fp2, b: Fp2) -> (Fp2, Fp2) {
    let t0 = a.square();
    let t1 = b.square();
    let c0 = t1.mul_by_xi() + t0;
    let c1 = (a + b).square() - t0 - t1;
    (c0, c1)
}

impl Add for Fp12 {
    type Output = Fp12;
    #[inline]
    fn add(self, rhs: Fp12) -> Fp12 {
        Fp12 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fp12 {
    type Output = Fp12;
    #[inline]
    fn sub(self, rhs: Fp12) -> Fp12 {
        Fp12 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Neg for Fp12 {
    type Output = Fp12;
    #[inline]
    fn neg(self) -> Fp12 {
        Fp12 {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl Mul for Fp12 {
    type Output = Fp12;
    fn mul(self, rhs: Fp12) -> Fp12 {
        // Karatsuba over Fp6 with w² = v.
        let t0 = self.c0 * rhs.c0;
        let t1 = self.c1 * rhs.c1;
        let sum = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fp12 {
            c0: t0 + t1.mul_by_v(),
            c1: sum - t0 - t1,
        }
    }
}

impl AddAssign for Fp12 {
    fn add_assign(&mut self, rhs: Fp12) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp12 {
    fn sub_assign(&mut self, rhs: Fp12) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp12 {
    fn mul_assign(&mut self, rhs: Fp12) {
        *self = *self * rhs;
    }
}

impl Field for Fp12 {
    fn zero() -> Self {
        Fp12 {
            c0: Fp6::zero(),
            c1: Fp6::zero(),
        }
    }

    fn one() -> Self {
        Fp12 {
            c0: Fp6::one(),
            c1: Fp6::zero(),
        }
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn square(&self) -> Self {
        // Complex squaring: (c0 + c1 w)² = c0² + v c1² + 2 c0 c1 w, and
        // with t = c0 c1, (c0 + c1)(c0 + v c1) = c0² + v c1² + t + v t —
        // two `Fp6` products.
        let t = self.c0 * self.c1;
        Fp12 {
            c0: (self.c0 + self.c1) * (self.c0 + self.c1.mul_by_v()) - t - t.mul_by_v(),
            c1: t + t,
        }
    }

    fn invert(&self) -> Option<Self> {
        // (c0 + c1 w)⁻¹ = (c0 - c1 w)/(c0² - v c1²).
        let denom = self.c0.square() - self.c1.square().mul_by_v();
        let d_inv = denom.invert()?;
        Some(Fp12 {
            c0: self.c0 * d_inv,
            c1: -(self.c1 * d_inv),
        })
    }

    fn random(rng: &mut dyn RandomSource) -> Self {
        Fp12 {
            c0: Fp6::random(rng),
            c1: Fp6::random(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_crypto::ChaChaRng;

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(12)
    }

    fn w() -> Fp12 {
        Fp12::new(Fp6::zero(), Fp6::one())
    }

    #[test]
    fn w_squared_is_v() {
        let v = Fp12::from_fp6(Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero()));
        assert_eq!(w().square(), v);
        assert_eq!(w() * w(), v);
    }

    #[test]
    fn w_sixth_is_xi() {
        let mut acc = Fp12::one();
        for _ in 0..6 {
            acc *= w();
        }
        assert_eq!(acc, Fp12::from_fp2(Fp2::xi()));
    }

    #[test]
    fn field_axioms_random() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fp12::random(&mut r);
            let b = Fp12::random(&mut r);
            let c = Fp12::random(&mut r);
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn square_matches_mul_on_random_and_sparse_inputs() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fp12::random(&mut r);
            assert_eq!(a.square(), a * a);
            let only_c0 = Fp12::from_fp6(a.c0);
            assert_eq!(only_c0.square(), only_c0 * only_c0);
            let only_c1 = Fp12::new(Fp6::zero(), a.c1);
            assert_eq!(only_c1.square(), only_c1 * only_c1);
        }
        assert_eq!(Fp12::zero().square(), Fp12::zero());
        assert_eq!(Fp12::one().square(), Fp12::one());
    }

    #[test]
    fn mul_by_line_matches_dense_mul() {
        let mut r = rng();
        for _ in 0..5 {
            let f = Fp12::random(&mut r);
            let (b, c) = (Fp2::random(&mut r), Fp2::random(&mut r));
            let line = Fp12::new(Fp6::one(), Fp6::new(Fp2::zero(), b, c));
            assert_eq!(f.mul_by_line(b, c), f * line);
        }
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fp12::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), Fp12::one());
        }
        assert_eq!(w() * w().invert().unwrap(), Fp12::one());
    }

    #[test]
    fn frobenius_matches_pth_power() {
        // The coefficient-wise Frobenius must equal x ↦ x^p. This pins the
        // whole γ-coefficient derivation.
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let expect = a.pow_slice(params::consts().p_big.limbs());
        assert_eq!(a.frobenius(), expect);
    }

    #[test]
    fn frobenius_is_additive_and_multiplicative() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let b = Fp12::random(&mut r);
        assert_eq!((a + b).frobenius(), a.frobenius() + b.frobenius());
        assert_eq!((a * b).frobenius(), a.frobenius() * b.frobenius());
    }

    #[test]
    fn frobenius_order_twelve() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let mut x = a;
        for _ in 0..12 {
            x = x.frobenius();
        }
        assert_eq!(x, a);
        // Six applications give conjugation (the p⁶ power).
        let mut y = a;
        for _ in 0..6 {
            y = y.frobenius();
        }
        assert_eq!(y, a.conjugate());
    }

    #[test]
    fn bytes_are_canonical_and_injective() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let b = Fp12::random(&mut r);
        assert_eq!(a.to_bytes().len(), 576);
        assert_eq!(a.to_bytes(), a.to_bytes());
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn cyclotomic_square_matches_generic_square_on_the_subgroup() {
        let mut r = rng();
        for _ in 0..4 {
            let a = Fp12::random(&mut r);
            if a.is_zero() {
                continue;
            }
            // Project into the cyclotomic subgroup via the easy part of
            // the final exponentiation: x ↦ x^((p⁶-1)(p²+1)).
            let t = a.conjugate() * a.invert().unwrap();
            let m = t.frobenius2() * t;
            assert_eq!(m.cyclotomic_square(), m.square());
            assert_eq!(
                m.cyclotomic_square().cyclotomic_square(),
                m.square().square()
            );
            // Sanity: membership really holds (x^(p⁶+1) = 1 ⇔ the
            // conjugate is the inverse).
            assert_eq!(m * m.conjugate(), Fp12::one());
        }
    }

    #[test]
    fn embeddings_compose() {
        let x = Fp::from_u64(9);
        assert_eq!(Fp12::from_fp(x) * Fp12::from_fp(x), Fp12::from_fp(x * x));
    }
}
