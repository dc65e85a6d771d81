//! Derivation of every BLS12-381 constant from the BLS family parameter.
//!
//! BLS12 curves are parameterized by one integer `z`; for BLS12-381,
//! `z = -0xd201_0000_0001_0000`. The family polynomials are
//!
//! * scalar field modulus  `r(z) = z⁴ - z² + 1`
//! * base field modulus    `p(z) = (z-1)²·r(z)/3 + z`
//! * G1 cofactor           `h1(z) = (z-1)²/3`
//! * G2 cofactor           `h2(z) = (z⁸ - 4z⁷ + 5z⁶ - 4z⁴ + 6z³ - 4z² - 4z + 13)/9`
//! * trace of Frobenius    `t(z) = z + 1`
//!
//! Since `z < 0`, every polynomial is rearranged in `|z|` so all
//! intermediate values are non-negative (see the inline comments).
//!
//! Derived here: `p`, `r`, the exponents `(p-1)/2`, `(p+1)/4`,
//! `(p-1)/6`, the cofactors `h1`, `h2` ([`consts`]), and the
//! coefficients of the two efficient
//! endomorphisms the subgroup checks run on ([`endomorphisms`]): the
//! cube root of unity `β` of `φ(x, y) = (βx, y)` on `G1` and
//! `c_x = 1/ξ^((p-1)/3)`, `c_y = 1/ξ^((p-1)/2)` of
//! `ψ(x, y) = (c_x·x̄, c_y·ȳ)` on `G2`. The derived values are
//! cross-checked against the published standard constants in the test
//! module.
//!
//! The two moduli are the exception to "derived here": `Fp` and `Fr`
//! carry them as literals, because their Montgomery parameters are
//! computed at compile time (`FieldParams::derive` is a `const fn`).
//! [`consts`] asserts each literal equals its family polynomial at `z`
//! before it returns anything, and the tests re-derive `inv`, `R`, `R²`
//! and `R³` from `p(z)` and `r(z)` with big-integer arithmetic.

use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fr::Fr;
use crate::traits::Field;
use crate::{g1, g2};
use eqjoin_bigint::BigUint;
use std::sync::OnceLock;

/// `|z|` for BLS12-381 (`z` itself is negative).
pub const BLS_X: u64 = 0xd201_0000_0001_0000;

/// Sign of the BLS parameter (true = negative), affecting the Miller loop
/// and final exponentiation.
pub const BLS_X_IS_NEGATIVE: bool = true;

/// All derived curve constants.
pub struct Constants {
    /// `p` as a big integer.
    pub p_big: BigUint,
    /// `r` as a big integer.
    pub r_big: BigUint,
    /// `(p - 1) / 2` — Legendre-symbol exponent.
    pub p_minus_1_over_2: Vec<u64>,
    /// `(p + 1) / 4` — square-root exponent (`p ≡ 3 mod 4`).
    pub p_plus_1_over_4: Vec<u64>,
    /// `(p - 1) / 6` — Frobenius coefficient exponent (`p ≡ 1 mod 6`).
    pub p_minus_1_over_6: Vec<u64>,
    /// G1 cofactor `h1` limbs.
    pub g1_cofactor: Vec<u64>,
    /// G2 cofactor `h2` limbs.
    pub g2_cofactor: Vec<u64>,
    /// `r` limbs (the generators' order assert and the `r·P = O` test
    /// oracle of the subgroup checks).
    pub r_limbs: Vec<u64>,
}

/// Global constants, derived once per process.
pub fn consts() -> &'static Constants {
    static CONSTS: OnceLock<Constants> = OnceLock::new();
    CONSTS.get_or_init(derive)
}

fn derive() -> Constants {
    let z = BigUint::from_u64(BLS_X);
    let one = BigUint::one();

    // r = z⁴ - z² + 1 (identical in z and |z|: even powers only).
    let z2 = z.square();
    let z4 = z2.square();
    let r_big = z4.sub(&z2).add(&one);

    // p = (z-1)²·r/3 + z. With z = -|z|: (z-1)² = (|z|+1)², and +z = -|z|.
    let zp1_sq = z.add(&one).square();
    let p_big = zp1_sq.mul(&r_big).div_exact_u64(3).sub(&z);

    // Structural sanity checks used throughout the tower construction.
    assert_eq!(
        p_big.rem(&BigUint::from_u64(4)),
        BigUint::from_u64(3),
        "p ≡ 3 mod 4"
    );
    assert_eq!(
        p_big.rem(&BigUint::from_u64(6)),
        BigUint::from_u64(1),
        "p ≡ 1 mod 6"
    );
    // The field types were compiled over literals; they are the BLS12
    // family's moduli at this z or nothing below means anything.
    assert_eq!(p_big.limbs(), Fp::PARAMS.modulus, "Fp modulus is p(z)");
    assert_eq!(r_big.limbs(), Fr::PARAMS.modulus, "Fr modulus is r(z)");

    let p_minus_1 = p_big.sub(&one);
    let p_minus_1_over_2 = p_minus_1.div_exact_u64(2).limbs().to_vec();
    let p_minus_1_over_6 = p_minus_1.div_exact_u64(6).limbs().to_vec();
    let p_plus_1_over_4 = p_big.add(&one).div_exact_u64(4).limbs().to_vec();

    // h1 = (z-1)²/3 = (|z|+1)²/3.
    let g1_cofactor = zp1_sq.div_exact_u64(3).limbs().to_vec();

    // h2 = (z⁸ - 4z⁷ + 5z⁶ - 4z⁴ + 6z³ - 4z² - 4z + 13)/9. Substituting
    // z = -|z| flips the sign of odd powers:
    //   9·h2 = |z|⁸ + 4|z|⁷ + 5|z|⁶ + 4|z| + 13 - (4|z|⁴ + 6|z|³ + 4|z|²)
    let z3 = z2.mul(&z);
    let z6 = z3.square();
    let z7 = z6.mul(&z);
    let z8 = z7.mul(&z);
    let positive = z8
        .add(&z7.mul_u64(4))
        .add(&z6.mul_u64(5))
        .add(&z.mul_u64(4))
        .add(&BigUint::from_u64(13));
    let negative = z4.mul_u64(4).add(&z3.mul_u64(6)).add(&z2.mul_u64(4));
    let g2_cofactor = positive.sub(&negative).div_exact_u64(9).limbs().to_vec();

    Constants {
        p_minus_1_over_2,
        p_plus_1_over_4,
        p_minus_1_over_6,
        g1_cofactor,
        g2_cofactor,
        r_limbs: r_big.limbs().to_vec(),
        p_big,
        r_big,
    }
}

/// Coefficients of the endomorphisms behind [`g1::in_subgroup`] and
/// [`g2::in_subgroup`].
pub struct Endomorphisms {
    /// `β`: the primitive cube root of unity in `Fp` for which
    /// `φ(x, y) = (βx, y)` acts on `G1` as `−z²` (the other root,
    /// `β²`, acts as `z² − 1`).
    pub beta: Fp,
    /// `c_x = 1/ξ^((p-1)/3)`: x-coefficient of `ψ`.
    pub psi_x: Fp2,
    /// `c_y = 1/ξ^((p-1)/2)`: y-coefficient of `ψ`.
    pub psi_y: Fp2,
}

/// Endomorphism coefficients, derived once per process.
///
/// Separate from [`consts`] because the derivation runs field and
/// curve arithmetic, which itself reads [`consts`].
pub fn endomorphisms() -> &'static Endomorphisms {
    static ENDO: OnceLock<Endomorphisms> = OnceLock::new();
    ENDO.get_or_init(derive_endomorphisms)
}

fn derive_endomorphisms() -> Endomorphisms {
    let c = consts();

    // ω = g^((p-1)/3) for the smallest non-cube g: a primitive cube
    // root of unity (p ≡ 1 mod 3 follows from p ≡ 1 mod 6).
    let p_minus_1_over_3 = c.p_big.sub(&BigUint::one()).div_exact_u64(3);
    let omega = (2u64..)
        .map(|g| Fp::from_u64(g).pow_limbs(p_minus_1_over_3.limbs()))
        .find(|w| *w != Fp::one())
        .expect("some small integer is not a cube");
    assert!(
        (omega.square() + omega + Fp::one()).is_zero(),
        "ω² + ω + 1 = 0"
    );

    // φ satisfies φ² + φ + 1 = 0, so on G1 it is multiplication by a
    // root of λ² + λ + 1 mod r = z⁴ - z² + 1: −z² for one of ω, ω² and
    // z² − 1 for the other. The check needs the first (then
    // λ² + λ + 1 is r itself, not a multiple).
    let g = g1::generator();
    let minus_z2_g = g.mul_by_x().mul_by_x().neg();
    let beta = [omega, omega.square()]
        .into_iter()
        .find(|b| g1::phi_with(g, *b) == minus_z2_g)
        .expect("one cube root of unity acts on G1 as −z²");

    // ψ = twist ∘ Frobenius ∘ untwist. The untwist is
    // (x', y') ↦ (x'/w², y'/w³) with w⁶ = ξ, so
    // ψ(x', y') = (x̄'·w²/w^(2p), ȳ'·w³/w^(3p))
    //           = (x̄'/ξ^((p-1)/3), ȳ'/ξ^((p-1)/2))
    //           = (x̄'/γ², ȳ'/γ³)
    // for the Frobenius coefficient γ = ξ^((p-1)/6) of `Fp12`.
    let gamma = crate::fp12::gamma_pows();
    let psi_x = gamma[2].invert().expect("ξ ≠ 0");
    let psi_y = gamma[3].invert().expect("ξ ≠ 0");
    // ψ² − tψ + p = 0 with t = z + 1, and p ≡ z mod r, so ψ acts on G2
    // as a root of λ² − (z+1)λ + z = (λ − z)(λ − 1): z, as ψ ≠ id.
    let g = g2::generator();
    assert!(
        g2::psi_with(g, psi_x, psi_y) == g.mul_by_x(),
        "ψ acts on G2 as z"
    );

    Endomorphisms { beta, psi_x, psi_y }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montgomery::FieldParams;
    use crate::scalar_mul::mul_wnaf;
    use eqjoin_crypto::ChaChaRng;

    /// The published standard BLS12-381 moduli — the derivation must
    /// reproduce them exactly.
    #[test]
    fn derived_moduli_match_standard() {
        let c = consts();
        assert_eq!(
            c.p_big.to_hex(),
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624\
             1eabfffeb153ffffb9feffffffffaaab"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(
            c.r_big.to_hex(),
            "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"
        );
    }

    /// The compile-time Montgomery parameters against a derivation that
    /// shares no code with `FieldParams::derive`: big-integer shifts and
    /// remainders modulo the z-derived modulus.
    fn assert_params_match<const N: usize>(params: &FieldParams<N>, modulus: &BigUint) {
        assert_eq!(modulus.limbs(), params.modulus);
        assert_eq!(params.bits, modulus.bit_len());
        assert_eq!(params.modulus[0].wrapping_mul(params.inv), u64::MAX);
        let r = BigUint::one().shl(64 * N).rem(modulus);
        let r2 = r.square().rem(modulus);
        let r3 = r2.mul(&r).rem(modulus);
        assert_eq!(r.to_limbs_fixed::<N>(), params.r, "R");
        assert_eq!(r2.to_limbs_fixed::<N>(), params.r2, "R²");
        assert_eq!(r3.to_limbs_fixed::<N>(), params.r3, "R³");
    }

    #[test]
    fn compile_time_montgomery_parameters_match_the_z_derivation() {
        let c = consts();
        assert_params_match(&Fp::PARAMS, &c.p_big);
        assert_params_match(&Fr::PARAMS, &c.r_big);
    }

    #[test]
    fn cofactor_times_r_covers_curve_order() {
        // #E(Fp) = h1 · r must equal p + 1 - t with t = z + 1 = 1 - |z|,
        // i.e. p + |z| (since t = 1 - |z|, p + 1 - t = p + |z|).
        let c = consts();
        let h1 = BigUint::from_limbs(&c.g1_cofactor);
        let lhs = h1.mul(&c.r_big);
        let rhs = c.p_big.add(&BigUint::from_u64(BLS_X));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn exponents_recombine() {
        let c = consts();
        let one = BigUint::one();
        let half = BigUint::from_limbs(&c.p_minus_1_over_2);
        assert_eq!(half.mul_u64(2).add(&one), c.p_big);
        let sixth = BigUint::from_limbs(&c.p_minus_1_over_6);
        assert_eq!(sixth.mul_u64(6).add(&one), c.p_big);
        let quarter = BigUint::from_limbs(&c.p_plus_1_over_4);
        assert_eq!(quarter.mul_u64(4), c.p_big.add(&one));
    }

    #[test]
    fn g2_cofactor_size() {
        // h2 has ~508 bits for BLS12-381.
        let c = consts();
        let h2 = BigUint::from_limbs(&c.g2_cofactor);
        assert!(h2.bit_len() > 500 && h2.bit_len() < 520, "{}", h2.bit_len());
    }

    #[test]
    fn hard_part_decomposition_holds() {
        // Final-exponentiation hard part (Hayashida et al. for BLS12):
        //   (x-1)²·(x+p)·(x²+p²-1) + 3  ==  3·(p⁴-p²+1)/r
        // Verified without division: LHS·r == 3·(p⁴-p²+1).
        let c = consts();
        let one = BigUint::one();
        let p = &c.p_big;
        let p2 = p.square();
        let p4 = p2.square();
        let x_minus_1_sq = BigUint::from_u64(BLS_X).add(&one).square(); // (x-1)² with x<0
        let x_plus_p = p.sub(&BigUint::from_u64(BLS_X)); // p - |x|
        let x2_plus_p2_minus_1 = BigUint::from_u64(BLS_X).square().add(&p2).sub(&one);
        let lhs = x_minus_1_sq
            .mul(&x_plus_p)
            .mul(&x2_plus_p2_minus_1)
            .add(&BigUint::from_u64(3));
        let rhs = p4.sub(&p2).add(&one).mul_u64(3);
        assert_eq!(lhs.mul(&c.r_big), rhs);
    }

    /// The published BLS12-381 endomorphism constants (β as in Scott,
    /// eprint 2021/1130, and the zkcrypto/blst `BETA`; the ψ
    /// coefficients as RFC 9380 §G.3's `c1`, `c2`) — the derivation must
    /// reproduce them exactly.
    #[test]
    fn derived_endomorphism_constants_match_standard() {
        let hex = |f: &Fp| BigUint::from_limbs(&f.to_canonical_limbs()).to_hex();
        let e = endomorphisms();
        assert_eq!(
            hex(&e.beta),
            "5f19672fdf76ce51ba69c6076a0f77eaddb3a93be6f89688de17d813620a0002\
             2e01fffffffefffe"
        );
        // c_x = 1/ξ^((p-1)/3) = (1 + β²)·u, purely imaginary.
        assert_eq!(hex(&e.psi_x.c0), "0");
        assert_eq!(
            hex(&e.psi_x.c1),
            "1a0111ea397fe699ec02408663d4de85aa0d857d89759ad4897d29650fb85f9b\
             409427eb4f49fffd8bfd00000000aaad"
        );
        assert_eq!(
            hex(&e.psi_y.c0),
            "135203e60180a68ee2e9c448d77a2cd91c3dedd930b1cf60ef396489f61eb45e\
             304466cf3e67fa0af1ee7b04121bdea2"
        );
        assert_eq!(
            hex(&e.psi_y.c1),
            "6af0e0437ff400b6831e36d6bd17ffe48395dabc2d3435e77f76e17009241c5\
             ee67992f72ec05f4c81084fbede3cc09"
        );
    }

    #[test]
    fn cofactors_are_coprime() {
        // The G2 check's soundness argument ends in gcd(h1, h2) = 1.
        let c = consts();
        let mut a = BigUint::from_limbs(&c.g2_cofactor);
        let mut b = BigUint::from_limbs(&c.g1_cofactor);
        while !b.is_zero() {
            (a, b) = (b.clone(), a.rem(&b));
        }
        assert_eq!(a, BigUint::one());
    }

    #[test]
    fn phi_satisfies_its_characteristic_equation() {
        // φ³ = id and φ² + φ + 1 = 0, on random subgroup points.
        let mut rng = ChaChaRng::seed_from_u64(51);
        for _ in 0..4 {
            let p = g1::mul_fr(g1::generator(), &Fr::random(&mut rng));
            let phi_p = g1::phi(&p);
            let phi2_p = g1::phi(&phi_p);
            assert_ne!(phi_p, p);
            assert_eq!(g1::phi(&phi2_p), p);
            assert!(phi2_p.add(&phi_p).add(&p).is_identity());
        }
    }

    #[test]
    fn psi_satisfies_its_characteristic_equation() {
        // ψ² − [t]ψ + [p] = 0 with t = z + 1, on random subgroup points.
        let c = consts();
        let mut rng = ChaChaRng::seed_from_u64(52);
        for _ in 0..4 {
            let p = g2::mul_fr(g2::generator(), &Fr::random(&mut rng));
            let psi_p = g2::psi(&p);
            let t_psi_p = psi_p.mul_by_x().add(&psi_p);
            let p_p = mul_wnaf(&p, c.p_big.limbs());
            assert!(g2::psi(&psi_p).sub(&t_psi_p).add(&p_p).is_identity());
        }
    }
}
