//! Micro-benchmarks of the cryptographic substrate (not a paper figure,
//! but the numbers every other measurement decomposes into): field
//! multiplication and inversion, tower arithmetic, group operations and
//! the pairing itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eqjoin_crypto::ChaChaRng;
use eqjoin_pairing::{g1, g2, Bls12, Engine, Field, Fp, Fp12, Fr};
use std::time::Instant;

fn bench_fields(c: &mut Criterion) {
    let mut group = c.benchmark_group("field_ops");
    group.sample_size(20);
    let mut rng = ChaChaRng::seed_from_u64(0x11);
    let a = Fp::random(&mut rng);
    let b = Fp::random(&mut rng);
    group.bench_function("fp_mul", |bch| bch.iter(|| a * b));
    group.bench_function("fp_square", |bch| bch.iter(|| a.square()));
    group.bench_function("fp_invert", |bch| bch.iter(|| a.invert().unwrap()));
    let x = Fp12::random(&mut rng);
    let y = Fp12::random(&mut rng);
    group.bench_function("fp12_mul", |bch| bch.iter(|| x * y));
    group.bench_function("fp12_invert", |bch| bch.iter(|| x.invert().unwrap()));
    group.bench_function("fp12_frobenius", |bch| bch.iter(|| x.frobenius()));
    let s = Fr::random(&mut rng);
    let t = Fr::random(&mut rng);
    group.bench_function("fr_mul", |bch| bch.iter(|| s * t));
    group.bench_function("fr_invert", |bch| bch.iter(|| s.invert().unwrap()));
    group.finish();
}

fn bench_groups_and_pairing(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_ops");
    group.sample_size(10);
    let mut rng = ChaChaRng::seed_from_u64(0x12);
    let s = Fr::random(&mut rng);
    let p = g1::mul_fr(g1::generator(), &s);
    let q = g2::mul_fr(g2::generator(), &s);
    group.bench_function("g1_double", |b| b.iter(|| p.double()));
    group.bench_function("g1_add", |b| b.iter(|| p.add(&p.double())));
    group.bench_function("g1_scalar_mul_wnaf", |b| b.iter(|| g1::mul_fr(&p, &s)));
    group.bench_function("g2_scalar_mul_wnaf", |b| b.iter(|| g2::mul_fr(&q, &s)));
    group.bench_function("g1_scalar_mul_double_and_add", |b| {
        b.iter(|| p.mul_limbs(&s.to_canonical_limbs()))
    });
    group.bench_function("g2_scalar_mul_double_and_add", |b| {
        b.iter(|| q.mul_limbs(&s.to_canonical_limbs()))
    });
    group.bench_function("g1_mul_gen_comb", |b| b.iter(|| Bls12::g1_mul_gen(&s)));
    group.bench_function("g2_mul_gen_comb", |b| b.iter(|| Bls12::g2_mul_gen(&s)));
    let pa = p.to_affine();
    let qa = q.to_affine();
    // Decode = curve equation + endomorphism subgroup check: what every
    // element on the wire, in the journal or in a snapshot pays.
    let (pb, qb) = (g1::to_bytes(&pa), g2::to_bytes(&qa));
    group.bench_function("g1_from_bytes", |b| b.iter(|| g1::from_bytes(&pb)));
    group.bench_function("g2_from_bytes", |b| b.iter(|| g2::from_bytes(&qb)));
    group.bench_function("pairing", |b| b.iter(|| eqjoin_pairing::pairing(&pa, &qa)));
    let gt = eqjoin_pairing::pairing(&pa, &qa);
    group.bench_function("gt_pow", |b| b.iter(|| gt.pow(&s)));
    group.bench_function("gt_hash_key_bytes", |b| b.iter(|| Bls12::gt_bytes(&gt)));
    group.finish();
}

/// Acceptance gate, not just a report: the fixed-base comb path must
/// beat the naive double-and-add ladder by at least 4× on `G1` (it is
/// ~10–20× in practice — zero doublings and ≤ 64 mixed additions per
/// exponentiation vs 256 doublings + ~128 additions).
fn bench_fixed_base_speedup(_c: &mut Criterion) {
    let mut rng = ChaChaRng::seed_from_u64(0x15);
    let scalars: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
    let iters = 6;
    // Warm the OnceLock table so its one-time build is not timed, and
    // let the CPU settle on both paths before measuring.
    black_box(Bls12::g1_mul_gen(&scalars[0]));
    black_box(g1::generator().mul_limbs(&scalars[0].to_canonical_limbs()));

    // Alternate *blocks* of each path (burst execution is how SJ.Enc /
    // SJ.TokenGen actually run — whole vectors at a time) and keep the
    // fastest block per path, which is robust to scheduler noise.
    let mut comb = std::time::Duration::MAX;
    let mut ladder = std::time::Duration::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        for s in &scalars {
            black_box(Bls12::g1_mul_gen(s));
        }
        comb = comb.min(t.elapsed());
        let t = Instant::now();
        for s in &scalars {
            black_box(g1::generator().mul_limbs(&s.to_canonical_limbs()));
        }
        ladder = ladder.min(t.elapsed());
    }
    let speedup = ladder.as_secs_f64() / comb.as_secs_f64().max(1e-12);
    println!("\ng1 fixed-base comb vs double-and-add: {speedup:.1}x faster");
    assert!(
        speedup >= 4.0,
        "fixed-base g1_mul_gen must be ≥ 4× faster than double-and-add \
         (measured {speedup:.2}x)"
    );
}

/// Acceptance gate for the Granger–Scott cyclotomic squaring: `Gt::pow`
/// (wNAF over cyclotomic squarings) must beat plain square-and-multiply
/// (`pow_slice`, generic `Fp12` squarings) — and the `ops` counters
/// must prove the cyclotomic path is actually engaged (a squaring-count
/// delta on the fast path, none on the generic one).
fn bench_cyclotomic_squaring_speedup(_c: &mut Criterion) {
    use eqjoin_pairing::ops;
    let mut rng = ChaChaRng::seed_from_u64(0x16);
    let gt = eqjoin_pairing::pairing(&g1::generator().to_affine(), &g2::generator().to_affine());
    let scalars: Vec<Fr> = (0..6).map(|_| Fr::random(&mut rng)).collect();

    // Counter audit: the fast path squares cyclotomically, the generic
    // exponentiation never does.
    let before = ops::snapshot();
    black_box(gt.pow(&scalars[0]));
    let fast_delta = ops::snapshot().since(&before);
    assert!(
        fast_delta.cyclotomic_squares >= 200,
        "Gt::pow must run on cyclotomic squarings (saw {})",
        fast_delta.cyclotomic_squares
    );
    let before = ops::snapshot();
    black_box(gt.as_fp12().pow_slice(&scalars[0].to_canonical_limbs()));
    let generic_delta = ops::snapshot().since(&before);
    assert_eq!(
        generic_delta.cyclotomic_squares, 0,
        "pow_slice is the generic-squaring baseline"
    );

    // Timing gate: fastest-block-of-each, robust to scheduler noise.
    let mut fast = std::time::Duration::MAX;
    let mut generic = std::time::Duration::MAX;
    for _ in 0..6 {
        let t = Instant::now();
        for s in &scalars {
            black_box(gt.pow(s));
        }
        fast = fast.min(t.elapsed());
        let t = Instant::now();
        for s in &scalars {
            black_box(gt.as_fp12().pow_slice(&s.to_canonical_limbs()));
        }
        generic = generic.min(t.elapsed());
    }
    let speedup = generic.as_secs_f64() / fast.as_secs_f64().max(1e-12);
    println!("\ngt_pow cyclotomic vs generic square-and-multiply: {speedup:.2}x faster");
    assert!(
        speedup >= 1.2,
        "cyclotomic Gt::pow must be ≥ 1.2× faster than generic square-and-multiply \
         (measured {speedup:.2}x)"
    );
}

fn bench_symmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetric");
    group.sample_size(20);
    let data = vec![0xabu8; 4096];
    group.bench_function("sha256_4k", |b| b.iter(|| eqjoin_crypto::sha256(&data)));
    group.bench_function("hash_to_field", |b| {
        b.iter(|| Fr::hash_to_field(b"bench", &data[..64]))
    });
    let key = eqjoin_crypto::AeadKey::from_master(&[7u8; 32]);
    let mut rng = ChaChaRng::seed_from_u64(0x13);
    group.bench_function("aead_seal_4k", |b| {
        b.iter(|| key.seal(&mut rng, b"ad", &data))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fields,
    bench_groups_and_pairing,
    bench_fixed_base_speedup,
    bench_cyclotomic_squaring_speedup,
    bench_symmetric
);
criterion_main!(benches);
