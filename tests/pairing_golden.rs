//! Arithmetic byte identity: `fixtures/pairing_golden.hex` holds field,
//! tower and pairing results for fixed-seed inputs, written by the build
//! that preceded the rewrite of the field core and the Miller line and
//! committed before that rewrite. `SJ.Dec` outputs live in decrypt caches
//! inside snapshots, so a store written by one build and reopened by the
//! next must see rows decrypted by the new arithmetic match rows cached
//! by the old: every value below has to come out byte for byte the same,
//! whatever the arithmetic underneath does. The fixture is never
//! regenerated.

use eqjoin::crypto::ChaChaRng;
use eqjoin::pairing::{
    final_exponentiation, pairing, Bls12, Engine, Field, Fp, Fp12, Fr, G1Affine, G2Affine,
};
use std::fmt::Write;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").expect("writing to a String");
        s
    })
}

/// `+ − neg × square double invert` over one prime field, on seeded
/// random operands and on the values next to the modulus.
macro_rules! field_lines {
    ($out:expr, $name:literal, $f:ty, $seed:expr) => {{
        let mut rng = ChaChaRng::seed_from_u64($seed);
        let mut operands: Vec<($f, $f)> = (0..4)
            .map(|_| (<$f>::random(&mut rng), <$f>::random(&mut rng)))
            .collect();
        let minus_one = -<$f>::one();
        operands.push((minus_one, minus_one));
        operands.push((minus_one, <$f>::one()));
        operands.push((<$f>::zero(), operands[0].0));
        operands.push((
            <$f>::from_u64(u64::MAX),
            minus_one - <$f>::from_u64(u64::MAX),
        ));
        for (i, (a, b)) in operands.into_iter().enumerate() {
            let mut line = |op: &str, v: $f| {
                writeln!($out, "{}.{i}.{op} {}", $name, hex(&v.to_bytes())).expect("String");
            };
            line("a", a);
            line("b", b);
            line("add", a + b);
            line("sub", a - b);
            line("neg", -a);
            line("mul", a * b);
            line("square", a.square());
            line("double", a.double());
            line("invert", a.invert().unwrap_or(<$f>::zero()));
        }
    }};
}

fn render() -> String {
    let mut out = String::new();
    field_lines!(out, "fp", Fp, 0x9001);
    field_lines!(out, "fr", Fr, 0x9002);

    let mut rng = ChaChaRng::seed_from_u64(0x9003);
    let mut line = |label: &str, bytes: Vec<u8>| {
        writeln!(out, "{label} {}", hex(&bytes)).expect("String");
    };

    let (x, y) = (Fp12::random(&mut rng), Fp12::random(&mut rng));
    line("fp12.mul", (x * y).to_bytes());
    line("fp12.square", x.square().to_bytes());
    // A fixed Miller value: any nonzero `Fp12` element will do, and one
    // drawn here does not depend on how lines are scaled.
    let gt = final_exponentiation(&x);
    line("gt.final_exponentiation", gt.to_bytes());
    line(
        "fp12.cyclotomic_square",
        gt.as_fp12().cyclotomic_square().to_bytes(),
    );
    let s = Fr::random(&mut rng);
    line("gt.pow", gt.pow(&s).to_bytes());

    let g1 = Bls12::g1_mul_gen(&Fr::one());
    let g2 = Bls12::g2_mul_gen(&Fr::one());
    line("gt.e_g1_g2", pairing(&g1, &g2).to_bytes());

    // The shape of SJ.Dec at (m, t) = (2, 3): an 11-element token
    // against 11-element ciphertexts.
    let token: Vec<G1Affine> = (0..11)
        .map(|_| Bls12::g1_mul_gen(&Fr::random(&mut rng)))
        .collect();
    let rows: Vec<Vec<G2Affine>> = (0..3)
        .map(|_| {
            (0..11)
                .map(|_| Bls12::g2_mul_gen(&Fr::random(&mut rng)))
                .collect()
        })
        .collect();
    line(
        "gt.multi_pair_11",
        Bls12::multi_pair(&token, &rows[0]).to_bytes(),
    );
    let prepared: Vec<_> = rows.iter().map(|r| Bls12::g2_prepare_batch(r)).collect();
    let row_refs: Vec<&[_]> = prepared.iter().map(Vec::as_slice).collect();
    for (i, gt) in Bls12::multi_pair_prepared_batch(&token, &row_refs)
        .iter()
        .enumerate()
    {
        line(&format!("gt.prepared_batch.{i}"), gt.to_bytes());
    }
    out
}

#[test]
fn arithmetic_reproduces_the_parent_written_fixture() {
    let golden = include_str!("fixtures/pairing_golden.hex");
    let rendered = render();
    for (got, want) in rendered.lines().zip(golden.lines()) {
        let label = want.split(' ').next().unwrap_or_default();
        assert_eq!(got, want, "{label} differs from the parent's bytes");
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}
