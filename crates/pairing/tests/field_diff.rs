//! Differential tests for the branch-free Montgomery core: every `Fp`
//! and `Fr` operation against [`BigUint`] arithmetic modulo the
//! **z-derived** modulus — a model that shares nothing with the limb
//! code (no Montgomery form, no compile-time constants, no masks).
//!
//! Operands are chosen to force what a dependent chain of random
//! multiplications rarely does: carries rippling across every limb,
//! sums that land on or next to `p`, differences that borrow all the
//! way up. Each case is run both on the element whose *canonical* value
//! has the edge pattern and on the element whose *Montgomery limbs*
//! have it.
//!
//! Every result must also be fully reduced: `Hash`, `Eq` and
//! `Gt::to_bytes` rely on one representation per value.

use eqjoin_bigint::BigUint;
use eqjoin_pairing::{params, Fp, Fr};
use proptest::prelude::*;

macro_rules! field_diff {
    ($module:ident, $f:ty, $n:literal, $modulus:expr) => {
        mod $module {
            use super::*;

            fn modulus() -> BigUint {
                $modulus
            }

            fn model(x: &$f) -> BigUint {
                BigUint::from_limbs(&x.to_canonical_limbs())
            }

            fn elem(v: &BigUint) -> $f {
                <$f>::from_canonical_limbs(v.rem(&modulus()).to_limbs_fixed::<$n>())
                    .expect("reduced below the modulus")
            }

            /// The element whose Montgomery limbs are `v mod p`: with
            /// `e = R⁻¹` (Montgomery limbs `1`), the limbs of `x·e` are
            /// `limbs(x)·1·R⁻¹ = v·R·R⁻¹`.
            fn with_montgomery_limbs(v: &BigUint) -> $f {
                let r = BigUint::one().shl(64 * $n).rem(&modulus());
                elem(v) * elem(&r).invert().expect("R is a unit")
            }

            /// One representation per value: the limbs a result carries
            /// are the limbs its canonical value converts back to.
            fn assert_reduced(x: &$f, what: &str) {
                let back = <$f>::from_canonical_limbs(x.to_canonical_limbs())
                    .expect("canonical limbs are below the modulus");
                assert!(back == *x, "{what}: result is not fully reduced");
            }

            fn check_pair(a: &$f, b: &$f) {
                let p = modulus();
                let (ma, mb) = (model(a), model(b));
                let cases = [
                    ("add", *a + *b, ma.add(&mb).rem(&p)),
                    ("sub", *a - *b, ma.add(&p).sub(&mb).rem(&p)),
                    ("mul", *a * *b, ma.mul(&mb).rem(&p)),
                    ("neg", -*a, p.sub(&ma).rem(&p)),
                    ("square", a.square(), ma.square().rem(&p)),
                    ("double", a.double(), ma.add(&ma).rem(&p)),
                ];
                for (op, got, want) in cases {
                    assert_reduced(&got, op);
                    assert!(
                        model(&got) == want,
                        "{op} of {a:?}, {b:?}: got {got:?}, the model says 0x{}",
                        want.to_hex()
                    );
                }
                let mut assigned = *a;
                assigned += *b;
                assert!(assigned == *a + *b);
                assigned -= *b;
                assert!(assigned == *a);
                assigned *= *b;
                assert!(assigned == *a * *b);
            }

            fn edge_values() -> Vec<BigUint> {
                let p = modulus();
                let one = BigUint::one();
                let mut low_ones = [u64::MAX; $n];
                low_ones[$n - 1] = 0;
                let mut alternating = [0u64; $n];
                for limb in alternating.iter_mut().step_by(2) {
                    *limb = u64::MAX;
                }
                vec![
                    BigUint::zero(),
                    one.clone(),
                    BigUint::from_u64(2),
                    p.sub(&one),
                    p.sub(&BigUint::from_u64(2)),
                    // R mod p: the Montgomery form of 1.
                    one.shl(64 * $n).rem(&p),
                    p.sub(&one).shr1(),
                    p.add(&one).shr1(),
                    BigUint::from_limbs(&low_ones),
                    BigUint::from_limbs(&alternating).rem(&p),
                    BigUint::from_u64(u64::MAX),
                    one.shl(64),
                    one.shl(64 * ($n - 1)),
                ]
            }

            #[test]
            fn edge_values_pairwise_match_the_model() {
                let elements: Vec<$f> = edge_values()
                    .iter()
                    .flat_map(|v| [elem(v), with_montgomery_limbs(v)])
                    .collect();
                for a in &elements {
                    for b in &elements {
                        check_pair(a, b);
                    }
                }
            }

            #[test]
            fn inverses_and_constants_are_reduced() {
                for v in edge_values() {
                    if v.is_zero() {
                        continue;
                    }
                    let x = elem(&v);
                    let inv = x.invert().expect("nonzero");
                    assert_reduced(&inv, "invert");
                    assert!(x * inv == <$f>::one());
                }
                assert_reduced(&<$f>::one(), "one");
                assert_reduced(&<$f>::zero(), "zero");
                assert_reduced(&<$f>::from_u64(u64::MAX), "from_u64");
                assert_reduced(&<$f>::from_i64(-1), "from_i64");
                assert_reduced(
                    &<$f>::from_wide_limbs([u64::MAX; 2 * $n]),
                    "from_wide_limbs",
                );
                assert!(
                    model(&<$f>::from_wide_limbs([u64::MAX; 2 * $n]))
                        == BigUint::from_limbs(&[u64::MAX; 2 * $n]).rem(&modulus())
                );
            }

            /// `x^e mod p` bit by bit on the model.
            fn model_pow(x: &BigUint, e: &BigUint) -> BigUint {
                let p = modulus();
                let mut acc = BigUint::one();
                for i in (0..e.bit_len()).rev() {
                    acc = acc.square().rem(&p);
                    if e.bit(i) {
                        acc = acc.mul(x).rem(&p);
                    }
                }
                acc
            }

            fn check_pow(a: &$f, exp: &[u64]) {
                let got = a.pow_limbs(exp);
                assert_reduced(&got, "pow_limbs");
                assert!(
                    model(&got) == model_pow(&model(a), &BigUint::from_limbs(exp)),
                    "pow_limbs of {a:?} by {exp:x?}"
                );
            }

            /// Windowed exponentiation against the model: empty, zero,
            /// one-nibble and limb-straddling exponents, and the full-width
            /// ones the fields raise to (`p − 1`, `(p − 1)/2`, `(p + 1)/4`).
            #[test]
            fn pow_limbs_matches_the_model() {
                let p = modulus();
                let one = BigUint::one();
                let mut exponents: Vec<Vec<u64>> = vec![
                    vec![],
                    vec![0],
                    vec![1],
                    vec![5],
                    vec![0xf],
                    vec![0x10],
                    vec![0, 1],
                    vec![u64::MAX, 0xf0],
                    vec![u64::MAX; $n],
                ];
                for e in [p.sub(&one), p.sub(&one).shr1(), p.add(&one).shr1().shr1()] {
                    exponents.push(e.limbs().to_vec());
                }
                for v in edge_values() {
                    for exp in &exponents {
                        check_pow(&elem(&v), exp);
                    }
                }
            }

            /// Limbs drawn per 2 bits of `shape`: all-zero, all-one or
            /// (twice as often) random — long runs of `0`/`f` limbs are
            /// where carry and borrow chains cross limb boundaries.
            fn shaped(limbs: &[u64], shape: u64) -> BigUint {
                let limbs: Vec<u64> = limbs
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| match (shape >> (2 * i)) & 3 {
                        0 => 0,
                        1 => u64::MAX,
                        _ => l,
                    })
                    .collect();
                BigUint::from_limbs(&limbs)
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                #[test]
                fn random_operands_match_the_model(
                    a in proptest::collection::vec(any::<u64>(), $n),
                    b in proptest::collection::vec(any::<u64>(), $n),
                    shape in any::<u64>(),
                ) {
                    let (a, b) = (shaped(&a, shape), shaped(&b, shape >> 32));
                    check_pair(&elem(&a), &elem(&b));
                    check_pair(&with_montgomery_limbs(&a), &with_montgomery_limbs(&b));
                }
            }

            proptest! {
                // Each case is a full-width exponentiation on the model.
                #![proptest_config(ProptestConfig::with_cases(32))]

                #[test]
                fn random_exponents_match_the_model(
                    a in proptest::collection::vec(any::<u64>(), $n),
                    exp in proptest::collection::vec(any::<u64>(), 0..=$n),
                    shape in any::<u64>(),
                ) {
                    check_pow(&with_montgomery_limbs(&shaped(&a, shape)), &exp);
                }
            }
        }
    };
}

field_diff!(fp, Fp, 6, params::consts().p_big.clone());
field_diff!(fr, Fr, 4, params::consts().r_big.clone());
