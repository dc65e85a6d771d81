//! Regenerate **Figure 3**: server-side join runtime (`SJ.Dec` +
//! `SJ.Match`) over `Orders ⋈ Customers` for scale factors and the four
//! selectivity levels, `t = 1`.
//!
//! ```sh
//! # full paper grid on the mock engine (shape-faithful, fast):
//! cargo run --release -p eqjoin-bench --bin fig3 -- mock
//! # reduced grid on the real BLS12-381 engine:
//! cargo run --release -p eqjoin-bench --bin fig3 -- bls 0.002 0.01 0.002 1
//! ```
//!
//! Positional arguments: `engine [scale_min scale_max scale_step reps]`.

use eqjoin_bench::selectivity_sweep;
use eqjoin_pairing::{Bls12, Engine, MockEngine};

fn sweep<E: Engine>(scale_min: f64, scale_max: f64, step: f64, reps: usize) {
    println!(
        "Figure 3 — join runtime vs scale factor, t = 1, engine = {} ({} reps)",
        E::NAME,
        reps
    );
    let mut points = Vec::new();
    let mut scale = scale_min;
    while scale <= scale_max + 1e-12 {
        points.push((scale, 1));
        scale += step;
    }
    selectivity_sweep::<E>(
        &format!("results/fig3_{}.csv", E::NAME),
        &["scale", "rows_total"],
        &points,
        33,
        reps,
        |scale, _, rows| vec![format!("{scale:.4}"), (rows.0 + rows.1).to_string()],
    );

    println!("\npaper (Fig. 3): linear growth in the scale factor; ordering");
    println!("s=1/12.5 > 1/25 > 1/50 > 1/100 (more selected rows = more SJ.Dec).");
    println!("Reference points: scale 0.01 @ s=1/100 = 3.52 s; scale 0.1 @ s=1/12.5 = 282.49 s.");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let engine = args.get(1).map(String::as_str).unwrap_or("mock");
    let f = |i: usize, d: f64| args.get(i).map(|s| s.parse().expect("number")).unwrap_or(d);
    match engine {
        "mock" => sweep::<MockEngine>(f(2, 0.01), f(3, 0.1), f(4, 0.01), f(5, 3.0) as usize),
        "bls" => sweep::<Bls12>(f(2, 0.002), f(3, 0.01), f(4, 0.002), f(5, 1.0) as usize),
        other => panic!("unknown engine {other:?} (use 'mock' or 'bls')"),
    }
}
