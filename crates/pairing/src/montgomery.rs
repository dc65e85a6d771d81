//! Fixed-width Montgomery-form prime-field arithmetic, generic over the
//! limb count, plus the `impl_montgomery_field!` macro that stamps out a
//! concrete field type (`Fp` with 6 limbs, `Fr` with 4).
//!
//! All Montgomery parameters are computed from the modulus at compile
//! time ([`FieldParams::derive`] is a `const fn`): `inv = -p⁻¹ mod 2⁶⁴`
//! by Newton iteration, and `R`, `R²`, `R³` by repeated modular doubling
//! (no multi-precision division needed). A field type holds them as an
//! associated constant, so every operation sees its modulus as an
//! immediate rather than a load behind a `OnceLock`.
//!
//! The arithmetic is branch-free: `p < 2^(64N-1)` (asserted by `derive`,
//! so at compile time) means a sum of two reduced values and every
//! Montgomery intermediate stay below `2p ≤ 2^(64N)` and never carry out
//! of `N` limbs, and the one conditional subtraction or addition that
//! brings a result back into `[0, p)` is a mask-select, not a jump —
//! secret `Fr` scalars steer no branch here. (Inversion is the
//! exception; see [`inv_mod`].)

use eqjoin_bigint::limb::{adc, mac, sbb};

/// Compile-time-derived Montgomery parameters for an `N`-limb prime
/// field.
#[derive(Debug, Clone)]
pub struct FieldParams<const N: usize> {
    /// The prime modulus `p` (little-endian limbs).
    pub modulus: [u64; N],
    /// `-p⁻¹ mod 2⁶⁴`.
    pub inv: u64,
    /// `R = 2^(64N) mod p` — the Montgomery form of 1.
    pub r: [u64; N],
    /// `R² mod p` — converts canonical to Montgomery form.
    pub r2: [u64; N],
    /// `R³ mod p` — used for wide (2N-limb) reductions.
    pub r3: [u64; N],
    /// Number of significant bits of `p`.
    pub bits: usize,
}

impl<const N: usize> FieldParams<N> {
    /// Derive all parameters from the modulus. `p` must be odd, larger
    /// than 1 and leave the top bit of its top limb free; the caller
    /// guarantees primality.
    pub const fn derive(modulus: [u64; N]) -> Self {
        assert!(modulus[0] & 1 == 1, "modulus must be odd");
        assert!(
            modulus[N - 1] >> 63 == 0,
            "2p must fit in N limbs: the carry-free arithmetic relies on it"
        );
        // Newton iteration for p⁻¹ mod 2⁶⁴ (doubles correct bits each step).
        let mut inv = 1u64;
        let mut i = 0;
        while i < 6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(modulus[0].wrapping_mul(inv)));
            i += 1;
        }
        assert!(modulus[0].wrapping_mul(inv) == 1);
        let inv = inv.wrapping_neg();

        // R, R², R³ by doubling 1 modulo p: after 64N doublings we have R,
        // after 128N we have R², after 192N we have R³.
        let mut acc = [0u64; N];
        acc[0] = 1;
        let mut r = [0u64; N];
        let mut r2 = [0u64; N];
        let mut i = 1;
        while i <= 3 * 64 * N {
            acc = mod_add(&acc, &acc, &modulus);
            if i == 64 * N {
                r = acc;
            } else if i == 2 * 64 * N {
                r2 = acc;
            }
            i += 1;
        }

        FieldParams {
            modulus,
            inv,
            r,
            r2,
            r3: acc,
            bits: bit_len(&modulus),
        }
    }
}

/// Significant bits of an `N`-limb value.
pub const fn bit_len<const N: usize>(a: &[u64; N]) -> usize {
    let mut i = N;
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return 64 * i + (64 - a[i].leading_zeros() as usize);
        }
    }
    0
}

fn geq<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for i in (0..N).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

#[inline(always)]
const fn add_limbs<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut carry = 0u64;
    let mut i = 0;
    while i < N {
        (out[i], carry) = adc(a[i], b[i], carry);
        i += 1;
    }
    (out, carry)
}

#[inline(always)]
const fn sub_limbs<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < N {
        (out[i], borrow) = sbb(a[i], b[i], borrow);
        i += 1;
    }
    (out, borrow)
}

/// `a` where `mask` is all ones, `b` where it is zero.
#[inline(always)]
const fn select<const N: usize>(mask: u64, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut i = 0;
    while i < N {
        out[i] = (a[i] & mask) | (b[i] & !mask);
        i += 1;
    }
    out
}

/// Reduce `value < 2p` into `[0, p)`: subtract `p`, keep the difference
/// unless it borrowed.
#[inline(always)]
const fn reduce_once<const N: usize>(value: &[u64; N], p: &[u64; N]) -> [u64; N] {
    let (diff, borrow) = sub_limbs(value, p);
    select(borrow.wrapping_neg(), value, &diff)
}

/// Montgomery product `a·b·R⁻¹ mod p` for `b < p`; `a` may be any
/// `N`-limb value (wide reduction feeds unreduced halves through it).
///
/// CIOS with the multiplication and reduction passes interleaved, in
/// its "no-carry" form: every outer iteration maps `t < 2p` to
/// `(t + aᵢ·b + m·p)/2⁶⁴ < (2p + (2⁶⁴−1)·p + (2⁶⁴−1)·p)/2⁶⁴ = 2p` —
/// using only `aᵢ, m < 2⁶⁴` and `b < p` — and `2p ≤ 2^(64N)`, so the
/// two carry chains' top words sum without overflow and no `(N+1)`-th
/// limb survives an iteration.
#[inline(always)]
pub const fn mont_mul<const N: usize>(
    a: &[u64; N],
    b: &[u64; N],
    p: &[u64; N],
    inv: u64,
) -> [u64; N] {
    let mut t = [0u64; N];
    let mut i = 0;
    while i < N {
        // t += a[i]·b and t = (t + m·p)/2⁶⁴ in one pass over j.
        let (t0, mut mul_carry) = mac(t[0], a[i], b[0], 0);
        let m = t0.wrapping_mul(inv);
        let (_, mut red_carry) = mac(t0, m, p[0], 0);
        let mut j = 1;
        while j < N {
            let tj;
            (tj, mul_carry) = mac(t[j], a[i], b[j], mul_carry);
            (t[j - 1], red_carry) = mac(tj, m, p[j], red_carry);
            j += 1;
        }
        (t[N - 1], _) = adc(mul_carry, red_carry, 0);
        i += 1;
    }
    reduce_once(&t, p)
}

/// Modular addition of values already in `[0, p)`.
#[inline(always)]
pub const fn mod_add<const N: usize>(a: &[u64; N], b: &[u64; N], p: &[u64; N]) -> [u64; N] {
    let (sum, _) = add_limbs(a, b);
    reduce_once(&sum, p)
}

/// Modular subtraction of values already in `[0, p)`: add `p` back
/// where the difference borrowed.
#[inline(always)]
pub const fn mod_sub<const N: usize>(a: &[u64; N], b: &[u64; N], p: &[u64; N]) -> [u64; N] {
    let (diff, borrow) = sub_limbs(a, b);
    let (fixed, _) = add_limbs(&diff, &select(borrow.wrapping_neg(), p, &[0u64; N]));
    fixed
}

/// Modular negation of a value in `[0, p)`: `p − a`, masked to zero
/// for `a = 0` so the result stays fully reduced.
#[inline(always)]
pub const fn mod_neg<const N: usize>(a: &[u64; N], p: &[u64; N]) -> [u64; N] {
    let mut any = 0u64;
    let mut i = 0;
    while i < N {
        any |= a[i];
        i += 1;
    }
    // Top bit of `any | −any` is set iff `any ≠ 0`.
    let nonzero = ((any | any.wrapping_neg()) >> 63).wrapping_neg();
    let (out, _) = sub_limbs(p, a);
    select(nonzero, &out, &[0u64; N])
}

/// Plain (non-Montgomery) modular inverse via binary extended Euclid.
/// Returns `None` for zero input. `a` must be `< p`, `p` odd prime.
/// Variable-time: the one routine here whose branches follow its input.
pub fn inv_mod<const N: usize>(a: &[u64; N], p: &[u64; N]) -> Option<[u64; N]> {
    if a.iter().all(|&l| l == 0) {
        return None;
    }
    let one = {
        let mut o = [0u64; N];
        o[0] = 1;
        o
    };
    let is_one = |x: &[u64; N]| *x == one;
    let is_even = |x: &[u64; N]| x[0] & 1 == 0;
    // Halve x, adding p first if x is odd; tracks values mod p.
    let halve_mod = |x: &[u64; N]| -> [u64; N] {
        let (val, carry) = if is_even(x) { (*x, 0) } else { add_limbs(x, p) };
        let mut out = [0u64; N];
        let mut high = carry;
        for i in (0..N).rev() {
            out[i] = (val[i] >> 1) | (high << 63);
            high = val[i] & 1;
        }
        out
    };
    let shr1 = |x: &[u64; N]| -> [u64; N] {
        let mut out = [0u64; N];
        let mut high = 0u64;
        for i in (0..N).rev() {
            out[i] = (x[i] >> 1) | (high << 63);
            high = x[i] & 1;
        }
        out
    };

    let mut u = *a;
    let mut v = *p;
    let mut x1 = one;
    let mut x2 = [0u64; N];
    while !is_one(&u) && !is_one(&v) {
        while is_even(&u) {
            u = shr1(&u);
            x1 = halve_mod(&x1);
        }
        while is_even(&v) {
            v = shr1(&v);
            x2 = halve_mod(&x2);
        }
        if geq(&u, &v) {
            u = mod_sub(&u, &v, p);
            x1 = mod_sub(&x1, &x2, p);
        } else {
            v = mod_sub(&v, &u, p);
            x2 = mod_sub(&x2, &x1, p);
        }
    }
    Some(if is_one(&u) { x1 } else { x2 })
}

/// Define a Montgomery-form prime-field type.
///
/// `$name` — the type; `$n` — limb count literal; `$modulus` — the
/// prime as little-endian limbs, from which the type's
/// [`FieldParams`] are derived at compile time.
#[macro_export]
macro_rules! impl_montgomery_field {
    ($(#[$attr:meta])* $name:ident, $n:expr, $modulus:expr) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub(crate) [u64; $n]);

        impl $name {
            /// Number of 64-bit limbs.
            pub const LIMBS: usize = $n;
            /// Serialized length in bytes.
            pub const BYTES: usize = $n * 8;
            /// The Montgomery parameters, derived from the modulus at
            /// compile time.
            pub const PARAMS: $crate::montgomery::FieldParams<$n> =
                $crate::montgomery::FieldParams::derive($modulus);
            const MODULUS: [u64; $n] = Self::PARAMS.modulus;

            /// Montgomery product of two limb arrays below the modulus.
            #[inline(always)]
            const fn mont_mul(a: &[u64; $n], b: &[u64; $n]) -> [u64; $n] {
                $crate::montgomery::mont_mul(a, b, &Self::MODULUS, Self::PARAMS.inv)
            }

            /// The additive identity.
            #[inline]
            pub fn zero() -> Self {
                $name([0u64; $n])
            }

            /// The multiplicative identity (Montgomery form of 1).
            #[inline]
            pub fn one() -> Self {
                $name(Self::PARAMS.r)
            }

            /// Construct from a small integer.
            pub fn from_u64(v: u64) -> Self {
                let mut limbs = [0u64; $n];
                limbs[0] = v;
                $name(Self::mont_mul(&limbs, &Self::PARAMS.r2))
            }

            /// Construct from a signed small integer.
            pub fn from_i64(v: i64) -> Self {
                if v >= 0 {
                    Self::from_u64(v as u64)
                } else {
                    -Self::from_u64(v.unsigned_abs())
                }
            }

            /// Construct from canonical little-endian limbs; `None` if the
            /// value is not fully reduced (`>= p`).
            pub fn from_canonical_limbs(limbs: [u64; $n]) -> Option<Self> {
                // reject limbs >= modulus
                let mut borrow = 0u64;
                for i in 0..$n {
                    let (_, b) = eqjoin_bigint::limb::sbb(limbs[i], Self::MODULUS[i], borrow);
                    borrow = b;
                }
                if borrow == 0 {
                    return None;
                }
                Some($name(Self::mont_mul(&limbs, &Self::PARAMS.r2)))
            }

            /// Reduce a double-width little-endian limb value modulo `p`.
            ///
            /// Used for near-uniform sampling and hash-to-field: the input
            /// is `2N` limbs, the statistical bias is `≈ 2^-(64N - bits)`.
            pub fn from_wide_limbs(limbs: [u64; 2 * $n]) -> Self {
                let mut lo = [0u64; $n];
                let mut hi = [0u64; $n];
                lo.copy_from_slice(&limbs[..$n]);
                hi.copy_from_slice(&limbs[$n..]);
                // value = lo + hi·R; Montgomery form is lo·R + hi·R².
                let lo_m = Self::mont_mul(&lo, &Self::PARAMS.r2);
                let hi_m = Self::mont_mul(&hi, &Self::PARAMS.r3);
                $name($crate::montgomery::mod_add(&lo_m, &hi_m, &Self::MODULUS))
            }

            /// Canonical (non-Montgomery) little-endian limbs in `[0, p)`.
            pub fn to_canonical_limbs(&self) -> [u64; $n] {
                let mut one = [0u64; $n];
                one[0] = 1;
                Self::mont_mul(&self.0, &one)
            }

            /// Canonical big-endian byte serialization.
            pub fn to_bytes(&self) -> [u8; $n * 8] {
                let limbs = self.to_canonical_limbs();
                let mut out = [0u8; $n * 8];
                for i in 0..$n {
                    out[8 * i..8 * i + 8]
                        .copy_from_slice(&limbs[$n - 1 - i].to_be_bytes());
                }
                out
            }

            /// Parse canonical big-endian bytes; `None` if `>= p`.
            pub fn from_bytes(bytes: &[u8; $n * 8]) -> Option<Self> {
                let mut limbs = [0u64; $n];
                for i in 0..$n {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(&bytes[8 * i..8 * i + 8]);
                    limbs[$n - 1 - i] = u64::from_be_bytes(word);
                }
                Self::from_canonical_limbs(limbs)
            }

            /// Uniformly random element.
            pub fn random(rng: &mut dyn eqjoin_crypto::RandomSource) -> Self {
                let mut wide = [0u64; 2 * $n];
                for limb in wide.iter_mut() {
                    *limb = rng.next_u64();
                }
                Self::from_wide_limbs(wide)
            }

            /// Uniformly random nonzero element.
            pub fn random_nonzero(rng: &mut dyn eqjoin_crypto::RandomSource) -> Self {
                loop {
                    let v = Self::random(rng);
                    if !v.is_zero() {
                        return v;
                    }
                }
            }

            /// True iff this is the additive identity.
            #[inline]
            pub fn is_zero(&self) -> bool {
                self.0.iter().all(|&l| l == 0)
            }

            /// Field multiplication.
            #[inline]
            pub fn mul_assign_ref(&mut self, other: &Self) {
                self.0 = Self::mont_mul(&self.0, &other.0);
            }

            /// `self²`.
            #[inline]
            pub fn square(&self) -> Self {
                $name(Self::mont_mul(&self.0, &self.0))
            }

            /// `2·self`.
            #[inline]
            pub fn double(&self) -> Self {
                $name($crate::montgomery::mod_add(&self.0, &self.0, &Self::MODULUS))
            }

            /// Multiplicative inverse (`None` for zero).
            pub fn invert(&self) -> Option<Self> {
                let plain = self.to_canonical_limbs();
                let inv_plain = $crate::montgomery::inv_mod(&plain, &Self::MODULUS)?;
                Some($name(Self::mont_mul(&inv_plain, &Self::PARAMS.r2)))
            }

            /// Exponentiation by a little-endian limb-slice exponent.
            pub fn pow_limbs(&self, exp: &[u64]) -> Self {
                let mut res = Self::one();
                for &limb in exp.iter().rev() {
                    for i in (0..64).rev() {
                        res = res.square();
                        if (limb >> i) & 1 == 1 {
                            res *= *self;
                        }
                    }
                }
                res
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let limbs = self.to_canonical_limbs();
                write!(f, "0x")?;
                for l in limbs.iter().rev() {
                    write!(f, "{l:016x}")?;
                }
                Ok(())
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::zero()
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name($crate::montgomery::mod_add(&self.0, &rhs.0, &Self::MODULUS))
            }
        }

        impl std::ops::Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name($crate::montgomery::mod_sub(&self.0, &rhs.0, &Self::MODULUS))
            }
        }

        impl std::ops::Mul for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(Self::mont_mul(&self.0, &rhs.0))
            }
        }

        impl std::ops::Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name($crate::montgomery::mod_neg(&self.0, &Self::MODULUS))
            }
        }

        impl std::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                *self = *self + rhs;
            }
        }

        impl std::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                *self = *self - rhs;
            }
        }

        impl std::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: $name) {
                self.mul_assign_ref(&rhs);
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::zero(), |acc, x| acc + x)
            }
        }

        impl std::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::one(), |acc, x| acc * x)
            }
        }

        impl $crate::traits::Field for $name {
            fn zero() -> Self {
                $name::zero()
            }
            fn one() -> Self {
                $name::one()
            }
            fn is_zero(&self) -> bool {
                $name::is_zero(self)
            }
            fn square(&self) -> Self {
                $name::square(self)
            }
            fn double(&self) -> Self {
                $name::double(self)
            }
            fn invert(&self) -> Option<Self> {
                $name::invert(self)
            }
            fn random(rng: &mut dyn eqjoin_crypto::RandomSource) -> Self {
                $name::random(rng)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // A tiny 1-limb field (p = 2^61 - 1, a Mersenne prime) exercises the
    // generic machinery independently of the BLS12-381 parameters.
    const TINY_P: u64 = (1 << 61) - 1;

    fn tiny_params() -> FieldParams<1> {
        FieldParams::derive([TINY_P])
    }

    #[test]
    fn derive_small_field_params() {
        let p = tiny_params();
        assert_eq!(p.modulus[0].wrapping_mul(p.inv.wrapping_neg()), 1);
        // R = 2^64 mod p
        let r_expect = ((1u128 << 64) % TINY_P as u128) as u64;
        assert_eq!(p.r[0], r_expect);
        let r2_expect = ((r_expect as u128 * r_expect as u128) % TINY_P as u128) as u64;
        assert_eq!(p.r2[0], r2_expect);
        assert_eq!(p.bits, 61);
    }

    #[test]
    fn mont_mul_matches_u128_model() {
        let p = tiny_params();
        // mont_mul(aR, bR) = abR; verify against plain modular arithmetic.
        let cases = [(3u64, 5u64), (TINY_P - 1, TINY_P - 1), (0, 7), (1, 1)];
        let to_mont = |x: u64| mont_mul(&[x], &p.r2, &p.modulus, p.inv);
        let from_mont = |x: [u64; 1]| mont_mul(&x, &[1], &p.modulus, p.inv)[0];
        for (a, b) in cases {
            let am = to_mont(a);
            let bm = to_mont(b);
            let cm = mont_mul(&am, &bm, &p.modulus, p.inv);
            let expect = ((a as u128 * b as u128) % TINY_P as u128) as u64;
            assert_eq!(from_mont(cm), expect, "a={a} b={b}");
        }
    }

    #[test]
    fn inv_mod_small() {
        let p = [TINY_P];
        for a in [1u64, 2, 3, 12345, TINY_P - 1] {
            let inv = inv_mod(&[a], &p).unwrap();
            let prod = ((a as u128 * inv[0] as u128) % TINY_P as u128) as u64;
            assert_eq!(prod, 1, "a={a}");
        }
        assert!(inv_mod(&[0u64], &p).is_none());
    }

    #[test]
    fn mod_ops_small() {
        let p = [TINY_P];
        assert_eq!(mod_add(&[TINY_P - 1], &[1], &p), [0]);
        assert_eq!(mod_sub(&[0], &[1], &p), [TINY_P - 1]);
        assert_eq!(mod_neg(&[5], &p), [TINY_P - 5]);
        assert_eq!(mod_neg(&[0], &p), [0]);
    }

    #[test]
    fn bit_len_works() {
        assert_eq!(bit_len(&[0u64, 0]), 0);
        assert_eq!(bit_len(&[1u64, 0]), 1);
        assert_eq!(bit_len(&[0u64, 1]), 65);
        assert_eq!(bit_len(&[u64::MAX, u64::MAX]), 128);
    }
}
