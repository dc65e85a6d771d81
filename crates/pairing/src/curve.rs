//! Generic short-Weierstrass curve arithmetic `y² = x³ + b` (the `a = 0`
//! shape of both BLS12-381 groups), parameterized over the base field.
//!
//! Points are represented in Jacobian coordinates `(X, Y, Z)` with
//! `x = X/Z²`, `y = Y/Z³`; the identity is `Z = 0`. Formulas are the
//! standard EFD `dbl-2009-l` and `add-2007-bl`.

use crate::params::{BLS_X, BLS_X_IS_NEGATIVE};
use crate::traits::Field;
use std::fmt::Debug;
use std::marker::PhantomData;

// `mul_by_x` starts its accumulator at the top bit of `BLS_X`.
const _: () = assert!(BLS_X >> 63 == 1);

/// Static parameters of a concrete curve.
pub trait CurveParams: 'static + Copy + Clone + Debug + Send + Sync {
    /// The field the coordinates live in.
    type Base: Field;
    /// The constant `b` in `y² = x³ + b`.
    fn b() -> Self::Base;
}

/// An affine point (or the point at infinity).
#[derive(Clone, Copy, Debug)]
pub struct Affine<C: CurveParams> {
    /// x-coordinate (meaningless if `infinity`).
    pub x: C::Base,
    /// y-coordinate (meaningless if `infinity`).
    pub y: C::Base,
    /// True for the identity element.
    pub infinity: bool,
}

/// A Jacobian-coordinates point.
#[derive(Clone, Copy, Debug)]
pub struct Projective<C: CurveParams> {
    /// Jacobian X.
    pub x: C::Base,
    /// Jacobian Y.
    pub y: C::Base,
    /// Jacobian Z (`0` for the identity).
    pub z: C::Base,
    _marker: PhantomData<C>,
}

impl<C: CurveParams> PartialEq for Affine<C> {
    fn eq(&self, other: &Self) -> bool {
        match (self.infinity, other.infinity) {
            (true, true) => true,
            (false, false) => self.x == other.x && self.y == other.y,
            _ => false,
        }
    }
}
impl<C: CurveParams> Eq for Affine<C> {}

impl<C: CurveParams> Affine<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Affine {
            x: C::Base::zero(),
            y: C::Base::zero(),
            infinity: true,
        }
    }

    /// Construct from coordinates, checking the curve equation.
    pub fn new(x: C::Base, y: C::Base) -> Option<Self> {
        let p = Affine {
            x,
            y,
            infinity: false,
        };
        p.is_on_curve().then_some(p)
    }

    /// Check `y² = x³ + b` (identity passes).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + C::b()
    }

    /// Negate (reflect over the x-axis).
    pub fn neg(&self) -> Self {
        Affine {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Lift to Jacobian coordinates.
    pub fn to_projective(&self) -> Projective<C> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective {
                x: self.x,
                y: self.y,
                z: C::Base::one(),
                _marker: PhantomData,
            }
        }
    }
}

impl<C: CurveParams> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1², Y1/Z1³) == (X2/Z2², Y2/Z2³) cross-multiplied.
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (false, false) => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * (z2z2 * other.z) == other.y * (z1z1 * self.z)
            }
            _ => false,
        }
    }
}
impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> Projective<C> {
    /// The identity element.
    pub fn identity() -> Self {
        Projective {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
            _marker: PhantomData,
        }
    }

    /// True iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (EFD `dbl-2009-l`, a = 0).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let eight_c = c.double().double().double();
        let y3 = e * (d - x3) - eight_c;
        let z3 = (self.y * self.z).double();
        if z3.is_zero() {
            // y was zero: the tangent is vertical (cannot happen on odd-order
            // subgroups, but handle it for generic correctness).
            return Self::identity();
        }
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// General point addition (EFD `add-2007-bl`).
    pub fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Mixed addition with an affine point (`Z2 = 1`; EFD
    /// `madd-2007-bl`). Saves ~4 field multiplications over the general
    /// [`Projective::add`] — the workhorse of table-based scalar
    /// multiplication, where every table entry is pre-normalized.
    pub fn add_affine(&self, other: &Affine<C>) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * self.z * z1z1;
        if self.x == u2 {
            return if self.y == s2 {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Projective {
            x: self.x,
            y: -self.y,
            z: self.z,
            _marker: PhantomData,
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Scalar multiplication by a little-endian limb-slice scalar
    /// (double-and-add, MSB first).
    ///
    /// This is the slow textbook ladder, kept as the correctness
    /// oracle and benchmark baseline for the optimized paths in
    /// [`crate::scalar_mul`] (wNAF and fixed-base comb tables); hot
    /// code should call [`crate::scalar_mul::mul_wnaf`] instead.
    // audit-allow(ct-discipline): textbook double-and-add, kept only as the correctness oracle and benchmark baseline for scalar_mul
    pub fn mul_limbs(&self, scalar: &[u64]) -> Self {
        let mut acc = Self::identity();
        for &limb in scalar.iter().rev() {
            for i in (0..64).rev() {
                acc = acc.double();
                if (limb >> i) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// `[z]·self` for the BLS parameter `z` (sign from
    /// [`BLS_X_IS_NEGATIVE`]): MSB-first double-and-add over the 64-bit,
    /// Hamming-weight-6 [`BLS_X`] — 63 doublings + 5 additions. The
    /// multiplier is a public constant this sparse, so there is no
    /// table, no recoding and no inversion; it is the only scalar
    /// multiplication the subgroup checks need.
    pub fn mul_by_x(&self) -> Self {
        let mut acc = *self;
        for i in (0..63).rev() {
            acc = acc.double();
            if (BLS_X >> i) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        if BLS_X_IS_NEGATIVE {
            acc.neg()
        } else {
            acc
        }
    }

    /// Normalize to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let z_inv = self.z.invert().expect("nonzero z");
        let z_inv2 = z_inv.square();
        Affine {
            x: self.x * z_inv2,
            y: self.y * z_inv2 * z_inv,
            infinity: false,
        }
    }

    /// Check the curve equation in Jacobian form:
    /// `Y² = X³ + b·Z⁶` (identity passes).
    pub fn is_on_curve(&self) -> bool {
        if self.is_identity() {
            return true;
        }
        let z6 = self.z.square().square() * self.z.square();
        self.y.square() == self.x.square() * self.x + C::b() * z6
    }
}

/// Inputs for the differential tests of `g1::in_subgroup` /
/// `g2::in_subgroup` against the `r·P = O` reference: everything is
/// generic in the curve, so both groups are fed the same families.
#[cfg(test)]
pub(crate) mod subgroup_cases {
    use super::*;
    use crate::params;
    use crate::scalar_mul::mul_wnaf;
    use eqjoin_bigint::BigUint;

    /// Trial division stops here. It covers every prime factor below
    /// 2³² of both cofactors — `h1 = 3·11²·10177²·859267²·52437899²`
    /// and `h2 = 13²·23²·2713·11953·262069·(one 4xx-bit prime)` — which
    /// the callers assert against those published lists.
    const SMALL_ORDER_BOUND: u64 = 1 << 26;

    /// The reference check the endomorphism tests replaced.
    pub fn order_divides_r<C: CurveParams>(point: &Projective<C>) -> bool {
        mul_wnaf(point, &params::consts().r_limbs).is_identity()
    }

    /// The distinct prime factors of `n` below [`SMALL_ORDER_BOUND`],
    /// ascending, by trial division (stops early once `n` is used up).
    pub fn small_prime_factors(n: &BigUint) -> Vec<u64> {
        let rem = |n: &BigUint, d: u64| {
            n.limbs()
                .iter()
                .rev()
                .fold(0u128, |rem, &limb| ((rem << 64) | limb as u128) % d as u128)
        };
        let one = BigUint::one();
        let mut n = n.clone();
        let mut factors = Vec::new();
        for d in std::iter::once(2).chain((3..SMALL_ORDER_BOUND).step_by(2)) {
            if n == one {
                break;
            }
            while rem(&n, d) == 0 {
                n = n.div_exact_u64(d);
                if factors.last() != Some(&d) {
                    factors.push(d);
                }
            }
        }
        factors
    }

    /// A labelled point and, where it is known a priori, whether it
    /// lies in the order-`r` subgroup.
    pub struct Case<C: CurveParams> {
        pub label: String,
        pub point: Projective<C>,
        pub expect: Option<bool>,
    }

    /// The case families of the differential test. `raw` are curve
    /// points before cofactor clearing, `generator` generates the
    /// order-`r` subgroup, `cofactor` is `h` with `#curve = h·r` and
    /// `small_orders` its prime factors to build points of.
    pub fn cases<C: CurveParams>(
        generator: &Projective<C>,
        raw: &[Projective<C>],
        cofactor: &BigUint,
        small_orders: &[u64],
    ) -> Vec<Case<C>> {
        let c = params::consts();
        let case = |label: String, point, expect| Case {
            label,
            point,
            expect,
        };
        let mut out = vec![case("identity".into(), Projective::identity(), Some(true))];
        let in_subgroup: Vec<_> = [1u64, 2, 0xdead_beef, u64::MAX]
            .iter()
            .map(|&k| mul_wnaf(generator, &[k, k, k]))
            .collect();
        for (i, p) in in_subgroup.iter().enumerate() {
            out.push(case(format!("subgroup #{i}"), *p, Some(true)));
        }
        for (i, p) in raw.iter().enumerate() {
            out.push(case(format!("raw #{i}"), *p, None));
            // [r]·raw has order dividing h, coprime to r: in the
            // subgroup iff it is the identity — and so is anything
            // in the subgroup plus it.
            let pure_cofactor = mul_wnaf(p, &c.r_limbs);
            let expect = Some(pure_cofactor.is_identity());
            out.push(case(format!("[r]·raw #{i}"), pure_cofactor, expect));
            let cleared = mul_wnaf(p, cofactor.limbs());
            out.push(case(format!("[h]·raw #{i}"), cleared, Some(true)));
            out.push(case(
                format!("[h]·raw #{i} + [r]·raw #{i}"),
                cleared.add(&pure_cofactor),
                expect,
            ));
        }
        let curve_order = cofactor.mul(&c.r_big);
        for &l in small_orders {
            // Project a raw point onto the curve's l-part (which need not
            // be cyclic: l² | h for most of these), then walk down to
            // order exactly l.
            let mut l_free = curve_order.clone();
            while l_free.div_rem_u64(l).1 == 0 {
                l_free = l_free.div_exact_u64(l);
            }
            let mut small = raw
                .iter()
                .map(|p| mul_wnaf(p, l_free.limbs()))
                .find(|q| !q.is_identity())
                .unwrap_or_else(|| panic!("no raw point has an order-{l} component"));
            loop {
                let next = small.mul_limbs(&[l]);
                if next.is_identity() {
                    break;
                }
                small = next;
            }
            out.push(case(format!("order {l}"), small, Some(false)));
            for (i, p) in in_subgroup.iter().enumerate() {
                out.push(case(
                    format!("subgroup #{i} + order {l}"),
                    p.add(&small),
                    Some(false),
                ));
            }
        }
        out
    }

    /// `check` must agree with the `r·P = O` reference on every case,
    /// and with what is known about the case a priori.
    pub fn assert_agrees_with_reference<C: CurveParams>(
        check: impl Fn(&Projective<C>) -> bool,
        cases: &[Case<C>],
    ) {
        for case in cases {
            assert!(case.point.is_on_curve(), "{}", case.label);
            let got = check(&case.point);
            assert_eq!(got, order_divides_r(&case.point), "{}", case.label);
            if let Some(expect) = case.expect {
                assert_eq!(got, expect, "{}", case.label);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp;

    // A concrete instantiation for testing the generic formulas: the G1
    // curve y² = x³ + 4 over Fp.
    #[derive(Clone, Copy, Debug)]
    struct TestCurve;
    impl CurveParams for TestCurve {
        type Base = Fp;
        fn b() -> Fp {
            Fp::from_u64(4)
        }
    }

    fn base_point() -> Projective<TestCurve> {
        // Smallest x with a valid y on y² = x³ + 4 (not necessarily in the
        // r-torsion; fine for formula tests on the full group).
        let mut x = Fp::zero();
        loop {
            let rhs = x.square() * x + Fp::from_u64(4);
            if let Some(y) = rhs.sqrt() {
                return Affine::<TestCurve>::new(x, y).unwrap().to_projective();
            }
            x += Fp::one();
        }
    }

    #[test]
    fn identity_laws() {
        let p = base_point();
        let id = Projective::<TestCurve>::identity();
        assert_eq!(p.add(&id), p);
        assert_eq!(id.add(&p), p);
        assert_eq!(id.double(), id);
        assert!(id.to_affine().infinity);
        assert_eq!(p.add(&p.neg()), id);
    }

    #[test]
    fn double_matches_add() {
        let p = base_point();
        assert_eq!(p.double(), p.add(&p));
        assert!(p.double().is_on_curve());
    }

    #[test]
    fn associativity_and_commutativity() {
        let p = base_point();
        let q = p.double();
        let r = q.double();
        assert_eq!(p.add(&q), q.add(&p));
        assert_eq!(p.add(&q).add(&r), p.add(&q.add(&r)));
    }

    #[test]
    fn scalar_mul_small() {
        let p = base_point();
        assert_eq!(p.mul_limbs(&[0]), Projective::identity());
        assert_eq!(p.mul_limbs(&[1]), p);
        assert_eq!(p.mul_limbs(&[2]), p.double());
        assert_eq!(p.mul_limbs(&[5]), p.double().double().add(&p));
        // (a+b)P = aP + bP
        assert_eq!(
            p.mul_limbs(&[7]).add(&p.mul_limbs(&[8])),
            p.mul_limbs(&[15])
        );
    }

    #[test]
    fn mul_by_x_matches_the_ladder() {
        let p = base_point().mul_limbs(&[3]);
        let by_ladder = p.mul_limbs(&[BLS_X]);
        let expect = if BLS_X_IS_NEGATIVE {
            by_ladder.neg()
        } else {
            by_ladder
        };
        assert_eq!(p.mul_by_x(), expect);
        assert_eq!(BLS_X.count_ones(), 6);
        assert!(Projective::<TestCurve>::identity().mul_by_x().is_identity());
    }

    #[test]
    fn affine_roundtrip() {
        let p = base_point().mul_limbs(&[12345]);
        let a = p.to_affine();
        assert!(a.is_on_curve());
        assert_eq!(a.to_projective(), p);
        assert_eq!(a.neg().to_projective(), p.neg());
    }

    #[test]
    fn new_rejects_off_curve() {
        assert!(Affine::<TestCurve>::new(Fp::from_u64(1), Fp::from_u64(1)).is_none());
    }

    #[test]
    fn projective_eq_ignores_scaling() {
        let p = base_point().mul_limbs(&[99]);
        // Scale Jacobian coordinates by λ²,λ³ — same point.
        let lambda = Fp::from_u64(7);
        let scaled = Projective::<TestCurve> {
            x: p.x * lambda.square(),
            y: p.y * lambda.square() * lambda,
            z: p.z * lambda,
            _marker: PhantomData,
        };
        assert_eq!(p, scaled);
        assert!(scaled.is_on_curve());
    }

    #[test]
    fn add_affine_matches_general_add() {
        let p = base_point().mul_limbs(&[1234]);
        let q = base_point().mul_limbs(&[987]);
        let qa = q.to_affine();
        assert_eq!(p.add_affine(&qa), p.add(&q));
        // Branches: identity on either side, doubling, inverse pair.
        let id = Projective::<TestCurve>::identity();
        assert_eq!(id.add_affine(&qa), q);
        assert_eq!(p.add_affine(&Affine::identity()), p);
        assert_eq!(q.add_affine(&qa), q.double());
        assert!(q.add_affine(&qa.neg()).is_identity());
    }

    #[test]
    fn mixed_branch_in_add() {
        let p = base_point();
        // add with equal x / equal y triggers the doubling branch
        assert_eq!(p.add(&p), p.double());
        // and with negated y the identity branch
        assert!(p.add(&p.neg()).is_identity());
    }
}
