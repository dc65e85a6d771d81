//! Cubic extension `Fp6 = Fp2[v]/(v³ - ξ)` with `ξ = 1 + u`.

use crate::fp2::Fp2;
use crate::traits::Field;
use eqjoin_crypto::RandomSource;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element `c0 + c1·v + c2·v²` of `Fp6`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Fp6 {
    /// Constant coefficient.
    pub c0: Fp2,
    /// Coefficient of `v`.
    pub c1: Fp2,
    /// Coefficient of `v²`.
    pub c2: Fp2,
}

impl Fp6 {
    /// Construct from coefficients.
    pub const fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Fp6 { c0, c1, c2 }
    }

    /// Embed an `Fp2` element.
    pub fn from_fp2(c0: Fp2) -> Self {
        Fp6 {
            c0,
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    /// Multiply by `v`: `(c0, c1, c2) ↦ (ξ·c2, c0, c1)`.
    pub fn mul_by_v(&self) -> Self {
        Fp6 {
            c0: self.c2.mul_by_xi(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// Multiply by the sparse element `b·v + c·v²` — half of a Miller
    /// line (see [`crate::fp12::Fp12::mul_by_line`]). 5 `Fp2`
    /// multiplications: `c1·c + c2·b` comes out of one Karatsuba product
    /// that reuses `c1·b` and `c2·c`.
    pub(crate) fn mul_by_0bc(&self, b: Fp2, c: Fp2) -> Self {
        let t1 = self.c1 * b;
        let t2 = self.c2 * c;
        let cross = (self.c1 + self.c2) * (b + c) - t1 - t2;
        Fp6 {
            c0: cross.mul_by_xi(),
            c1: self.c0 * b + t2.mul_by_xi(),
            c2: self.c0 * c + t1,
        }
    }

    /// Scale every coefficient by an `Fp2` element.
    pub fn scale(&self, k: Fp2) -> Self {
        Fp6 {
            c0: self.c0 * k,
            c1: self.c1 * k,
            c2: self.c2 * k,
        }
    }
}

impl Add for Fp6 {
    type Output = Fp6;
    #[inline]
    fn add(self, rhs: Fp6) -> Fp6 {
        Fp6 {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
            c2: self.c2 + rhs.c2,
        }
    }
}

impl Sub for Fp6 {
    type Output = Fp6;
    #[inline]
    fn sub(self, rhs: Fp6) -> Fp6 {
        Fp6 {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
            c2: self.c2 - rhs.c2,
        }
    }
}

impl Neg for Fp6 {
    type Output = Fp6;
    #[inline]
    fn neg(self) -> Fp6 {
        Fp6 {
            c0: -self.c0,
            c1: -self.c1,
            c2: -self.c2,
        }
    }
}

impl Mul for Fp6 {
    type Output = Fp6;
    fn mul(self, rhs: Fp6) -> Fp6 {
        // Toom-style interpolation (standard Fp6 schoolbook with shared
        // products): t_i = a_i b_i.
        let t0 = self.c0 * rhs.c0;
        let t1 = self.c1 * rhs.c1;
        let t2 = self.c2 * rhs.c2;

        let s12 = (self.c1 + self.c2) * (rhs.c1 + rhs.c2) - t1 - t2; // a1b2 + a2b1
        let s01 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1) - t0 - t1; // a0b1 + a1b0
        let s02 = (self.c0 + self.c2) * (rhs.c0 + rhs.c2) - t0 - t2; // a0b2 + a2b0

        Fp6 {
            c0: t0 + s12.mul_by_xi(),
            c1: s01 + t2.mul_by_xi(),
            c2: s02 + t1,
        }
    }
}

impl AddAssign for Fp6 {
    fn add_assign(&mut self, rhs: Fp6) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp6 {
    fn sub_assign(&mut self, rhs: Fp6) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp6 {
    fn mul_assign(&mut self, rhs: Fp6) {
        *self = *self * rhs;
    }
}

impl Field for Fp6 {
    fn zero() -> Self {
        Fp6 {
            c0: Fp2::zero(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    fn one() -> Self {
        Fp6 {
            c0: Fp2::one(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    fn square(&self) -> Self {
        *self * *self
    }

    fn invert(&self) -> Option<Self> {
        // Standard Fp6 inversion: with a = a0 + a1 v + a2 v²,
        //   A = a0² - ξ a1 a2, B = ξ a2² - a0 a1, C = a1² - a0 a2,
        //   F = a0 A + ξ (a2 B + a1 C),  a⁻¹ = (A + B v + C v²)/F.
        let a = self.c0.square() - (self.c1 * self.c2).mul_by_xi();
        let b = self.c2.square().mul_by_xi() - self.c0 * self.c1;
        let c = self.c1.square() - self.c0 * self.c2;
        let f = self.c0 * a + ((self.c2 * b + self.c1 * c).mul_by_xi());
        let f_inv = f.invert()?;
        Some(Fp6 {
            c0: a * f_inv,
            c1: b * f_inv,
            c2: c * f_inv,
        })
    }

    fn random(rng: &mut dyn RandomSource) -> Self {
        Fp6 {
            c0: Fp2::random(rng),
            c1: Fp2::random(rng),
            c2: Fp2::random(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_crypto::ChaChaRng;

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(6)
    }

    fn v() -> Fp6 {
        Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero())
    }

    #[test]
    fn v_cubed_is_xi() {
        let v3 = v() * v() * v();
        assert_eq!(v3, Fp6::from_fp2(Fp2::xi()));
    }

    #[test]
    fn mul_by_v_matches_mul() {
        let mut r = rng();
        let a = Fp6::random(&mut r);
        assert_eq!(a.mul_by_v(), a * v());
    }

    #[test]
    fn field_axioms_random() {
        let mut r = rng();
        for _ in 0..8 {
            let a = Fp6::random(&mut r);
            let b = Fp6::random(&mut r);
            let c = Fp6::random(&mut r);
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        for _ in 0..8 {
            let a = Fp6::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), Fp6::one());
        }
        assert!(Fp6::zero().invert().is_none());
        // Inverses of basis monomials hit all branches of the formula.
        assert_eq!(v() * v().invert().unwrap(), Fp6::one());
        let v2 = v() * v();
        assert_eq!(v2 * v2.invert().unwrap(), Fp6::one());
    }

    #[test]
    fn embedding_is_homomorphic() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        let b = Fp2::random(&mut r);
        assert_eq!(Fp6::from_fp2(a) * Fp6::from_fp2(b), Fp6::from_fp2(a * b));
        assert_eq!(Fp6::from_fp2(a) + Fp6::from_fp2(b), Fp6::from_fp2(a + b));
    }

    #[test]
    fn mul_by_0bc_matches_dense_mul() {
        let mut r = rng();
        for _ in 0..8 {
            let a = Fp6::random(&mut r);
            let (b, c) = (Fp2::random(&mut r), Fp2::random(&mut r));
            assert_eq!(a.mul_by_0bc(b, c), a * Fp6::new(Fp2::zero(), b, c));
        }
    }

    #[test]
    fn scale_matches_embedded_mul() {
        let mut r = rng();
        let a = Fp6::random(&mut r);
        let k = Fp2::random(&mut r);
        assert_eq!(a.scale(k), a * Fp6::from_fp2(k));
    }
}
