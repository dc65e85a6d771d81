//! Regenerate **Figure 4**: join runtime as the `IN`-clause size sweeps
//! `t = 1..10` at fixed scale factor, for the four selectivity levels.
//! Each `t` re-encrypts the database (ciphertext dimension `m(t+1)+3`).
//!
//! ```sh
//! cargo run --release -p eqjoin-bench --bin fig4 -- mock 0.01
//! cargo run --release -p eqjoin-bench --bin fig4 -- bls 0.002 1
//! ```
//!
//! Positional arguments: `engine [scale reps]`.

use eqjoin_bench::selectivity_sweep;
use eqjoin_pairing::{Bls12, Engine, MockEngine};

fn sweep<E: Engine>(scale: f64, reps: usize) {
    println!(
        "Figure 4 — join runtime vs IN-clause size, scale = {scale}, engine = {} ({} reps)",
        E::NAME,
        reps
    );
    let points: Vec<(f64, usize)> = (1..=10).map(|t| (scale, t)).collect();
    selectivity_sweep::<E>(
        &format!("results/fig4_{}.csv", E::NAME),
        &["t"],
        &points,
        44,
        reps,
        |_, t, _| vec![t.to_string()],
    );

    println!("\npaper (Fig. 4, scale 0.01): monotone growth in t, steeper for higher");
    println!("selectivity; reference points: s=1/100: 3.50 s (t=1) -> 8.75 s (t=10);");
    println!("s=1/12.5: 27.86 s (t=1) -> 69.62 s (t=10).");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let engine = args.get(1).map(String::as_str).unwrap_or("mock");
    let f = |i: usize, d: f64| args.get(i).map(|s| s.parse().expect("number")).unwrap_or(d);
    match engine {
        "mock" => sweep::<MockEngine>(f(2, 0.01), f(3, 3.0) as usize),
        "bls" => sweep::<Bls12>(f(2, 0.002), f(3, 1.0) as usize),
        other => panic!("unknown engine {other:?} (use 'mock' or 'bls')"),
    }
}
