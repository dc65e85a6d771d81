use eqjoin_pairing::engine::Engine;
use eqjoin_pairing::*;
use std::time::Instant;
fn main() {
    let mut rng = eqjoin_crypto::ChaChaRng::seed_from_u64(1);
    let a = Fr::random(&mut rng);
    let b = Fr::random(&mut rng);
    // warm up parameter derivation + tables
    let t0 = Instant::now();
    let p = Bls12::g1_mul_gen(&a);
    println!("param derivation + g1 table + 1 mul: {:?}", t0.elapsed());
    let t0 = Instant::now();
    let q = Bls12::g2_mul_gen(&b);
    println!("g2 table + 1 mul: {:?}", t0.elapsed());
    let t0 = Instant::now();
    for _ in 0..20 {
        let _ = Bls12::g1_mul_gen(&a);
    }
    println!("g1_mul_gen: {:?}", t0.elapsed() / 20);
    let t0 = Instant::now();
    for _ in 0..20 {
        let _ = Bls12::g2_mul_gen(&b);
    }
    println!("g2_mul_gen: {:?}", t0.elapsed() / 20);
    let t0 = Instant::now();
    for _ in 0..10 {
        let _ = Bls12::pair(&p, &q);
    }
    println!("single pairing: {:?}", t0.elapsed() / 10);
    // decode = curve equation + subgroup check; the first call derives
    // the endomorphism constants, so warm up before timing
    let (pb, qb) = (Bls12::g1_bytes(&p), Bls12::g2_bytes(&q));
    assert!(Bls12::g1_from_bytes(&pb).is_some() && Bls12::g2_from_bytes(&qb).is_some());
    let t0 = Instant::now();
    for _ in 0..200 {
        let _ = Bls12::g1_from_bytes(&pb);
    }
    println!("g1_from_bytes: {:?}", t0.elapsed() / 200);
    let t0 = Instant::now();
    for _ in 0..200 {
        let _ = Bls12::g2_from_bytes(&qb);
    }
    println!("g2_from_bytes: {:?}", t0.elapsed() / 200);
    let ps: Vec<_> = (0..19)
        .map(|i| Bls12::g1_mul_gen(&Fr::from_u64(i + 1)))
        .collect();
    let qs: Vec<_> = (0..19)
        .map(|i| Bls12::g2_mul_gen(&Fr::from_u64(i + 7)))
        .collect();
    let t0 = Instant::now();
    for _ in 0..10 {
        let _ = Bls12::multi_pair(&ps, &qs);
    }
    println!("multi-pairing (19 pairs): {:?}", t0.elapsed() / 10);
}
