//! Unit costs of the cold path, bottom up: field → tower → line →
//! Miller loop → final exponentiation → one `SJ.Dec` row at
//! `(m, t) = (2, 3)` (11 pairs), then what the rest of a query pays the
//! pairing crate for (preparation, inversion, fixed-base multiplication,
//! decoding).
//!
//! Every row is the **minimum** over `ROUNDS × BATCHES` batches of the
//! mean time per operation, and the rounds visit all rows in turn: a
//! shared box drifts by 2× within a minute, a mean follows the drift,
//! and a row timed in one stretch can sit entirely inside a slow one.
//!
//! ```sh
//! cargo run --release -p eqjoin-pairing --example timing
//! ```

use eqjoin_pairing::engine::Engine;
use eqjoin_pairing::*;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 5;
const BATCHES: usize = 5;

struct Row<'a> {
    name: &'static str,
    /// Calls of `f` per batch.
    calls: usize,
    /// Operations one call of `f` performs.
    ops: usize,
    f: Box<dyn FnMut() + 'a>,
    best_ns: f64,
}

fn row<'a>(name: &'static str, calls: usize, ops: usize, f: impl FnMut() + 'a) -> Row<'a> {
    Row {
        name,
        calls,
        ops,
        f: Box::new(f),
        best_ns: f64::INFINITY,
    }
}

/// A dependent chain `x = op(x)`, 100 links per call, so one
/// operation's latency is what gets timed rather than loop overhead.
macro_rules! chain {
    ($name:literal, $x:ident, $op:expr) => {
        row($name, 2_000, 100, move || {
            for _ in 0..100 {
                $x = $op;
            }
            black_box($x);
        })
    };
}

fn main() {
    let mut rng = eqjoin_crypto::ChaChaRng::seed_from_u64(1);

    let (mut x, y) = (Fp::random(&mut rng), Fp::random(&mut rng));
    let (mut x2, y2) = (Fp2::random(&mut rng), Fp2::random(&mut rng));
    let (mut x12, y12) = (Fp12::random(&mut rng), Fp12::random(&mut rng));

    const PAIRS: usize = 11;
    let g1: Vec<_> = (0..PAIRS)
        .map(|_| Bls12::g1_mul_gen(&Fr::random(&mut rng)))
        .collect();
    let g2: Vec<_> = (0..PAIRS)
        .map(|_| Bls12::g2_mul_gen(&Fr::random(&mut rng)))
        .collect();
    let mut cyc = *pairing(&g1[0], &g2[0]).as_fp12();
    let prepared = G2Prepared::prepare_batch(&g2);
    let pairs: Vec<_> = g1.iter().copied().zip(&prepared).collect();
    let f = multi_miller_loop_prepared(&pairs);
    let nonzero = Fp::random_nonzero(&mut rng);
    let s = Fr::random(&mut rng);
    // decode = curve equation + subgroup check
    let (pb, qb) = (Bls12::g1_bytes(&g1[0]), Bls12::g2_bytes(&g2[0]));

    let mut rows = vec![
        chain!("fp_add", x, x + y),
        chain!("fp_mul", x, x * y),
        chain!("fp_square", x, x.square()),
        chain!("fp2_mul", x2, x2 * y2),
        row("fp12_mul", 500, 1, move || x12 = black_box(x12 * y12)),
        row("fp12_square", 500, 1, move || x12 = black_box(x12.square())),
        row("line multiplication", 500, 1, move || {
            x12 = black_box(x12.mul_by_line(y2, x2))
        }),
        row("cyclotomic_square", 500, 1, move || {
            cyc = black_box(cyc.cyclotomic_square())
        }),
        row("miller loop per pair (11 prepared)", 4, PAIRS, || {
            black_box(multi_miller_loop_prepared(black_box(&pairs)));
        }),
        row("final_exp", 8, 1, || {
            black_box(final_exponentiation(black_box(&f)));
        }),
        row("row (11-pair multi_pair_prepared)", 4, 1, || {
            black_box(Bls12::multi_pair_prepared(black_box(&g1), &prepared));
        }),
        row("G2 prepare per element (batch 11)", 2, PAIRS, || {
            black_box(G2Prepared::prepare_batch(black_box(&g2)));
        }),
        row("fp_invert", 200, 1, || {
            black_box(black_box(&nonzero).invert());
        }),
        row("g1_mul_gen", 20, 1, || {
            black_box(Bls12::g1_mul_gen(black_box(&s)));
        }),
        row("g2_mul_gen", 20, 1, || {
            black_box(Bls12::g2_mul_gen(black_box(&s)));
        }),
        row("g1_from_bytes", 20, 1, || {
            black_box(Bls12::g1_from_bytes(black_box(&pb)));
        }),
        row("g2_from_bytes (+ subgroup)", 20, 1, || {
            black_box(Bls12::g2_from_bytes(black_box(&qb)));
        }),
        row("g2_from_bytes_on_curve (all doors)", 200, 1, || {
            black_box(Bls12::g2_from_bytes_on_curve(black_box(&qb)));
        }),
    ];

    for _ in 0..ROUNDS {
        for r in &mut rows {
            for _ in 0..BATCHES {
                let t = Instant::now();
                for _ in 0..r.calls {
                    (r.f)();
                }
                let ns = t.elapsed().as_nanos() as f64 / (r.calls * r.ops) as f64;
                r.best_ns = r.best_ns.min(ns);
            }
        }
    }
    for r in &rows {
        if r.best_ns < 10_000.0 {
            println!("{:<36}{:>10.1} ns", r.name, r.best_ns);
        } else {
            println!("{:<36}{:>10.1} us", r.name, r.best_ns / 1e3);
        }
    }
}
