//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians, the delta, the bound and a verdict. Every ratio
//! is printed with its base (A's median).

use crate::json::{parse, Json};
use crate::report::{contract, median, spread};

/// Sizes that repeat to the byte for a seed. Their bound in
/// `BENCHMARK.json` covers what they differ by *between* seeds (payload
/// lengths); two files made from one seed are compared with bound 0.
const EXACT_FOR_A_SEED: [&str; 2] = ["wire_bytes_per_query", "stored_bytes_per_row"];

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// B against A for one metric. `worse` is the share of A's median by
/// which B is worse (negative when better).
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noise = spread(a).max(spread(b));
    let verdict = if noise > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound.max(noise) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// The untraced values of `metric` on `workload` in a `run` file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| {
            run.get("metrics")?
                .get(metric)?
                .get("value")
                .and_then(Json::as_f64)
        })
        .collect()
}

/// Print the table; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |file: &Json| file.get("provenance")?.get("seed")?.as_f64();
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    println!("A = {path_a}\nB = {path_b}\ndelta and spread are shares of A's median; + is worse");
    if same_seed {
        println!(
            "same seed: {} are exact counts, compared with bound 0",
            EXACT_FOR_A_SEED.join(" and ")
        );
    }
    println!();
    println!(
        "{:<15} {:<21} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "delta", "spread", "bound"
    );
    let mut clean = true;
    for workload in &contract().workloads {
        for metric in &contract().end_to_end {
            let (va, vb) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<15} {:<21} missing on one side", metric.name);
                clean = false;
                continue;
            }
            let bound = if same_seed && EXACT_FOR_A_SEED.contains(&metric.name.as_str()) {
                0.0
            } else {
                metric.bound.expect("end-to-end metrics have bounds")
            };
            let (worse, verdict) = verdict(&va, &vb, metric.higher_is_better, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<15} {:<21} {:>13.4} {:>13.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {}",
                metric.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                spread(&va).max(spread(&vb)) * 100.0,
                bound * 100.0,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5];
        let v = |b: &[f64], higher| verdict(&base, b, higher, 0.10).1;
        assert_eq!(v(&[100.2, 100.1, 99.9, 100.0], false), Verdict::Unchanged);
        assert_eq!(v(&[120.0, 121.0, 119.0, 120.0], false), Verdict::Regressed);
        assert_eq!(v(&[120.0, 121.0, 119.0, 120.0], true), Verdict::Improved);
        assert_eq!(v(&[80.0, 81.0, 79.0, 80.0], false), Verdict::Improved);
        assert_eq!(v(&[60.0, 140.0, 90.0, 120.0], false), Verdict::Unresolved);
        // An exact count on one seed: bound 0, any growth regresses.
        let exact = |b: &[f64]| verdict(&[7305.0; 3], b, false, 0.0).1;
        assert_eq!(exact(&[7305.0; 3]), Verdict::Unchanged);
        assert_eq!(exact(&[7306.0; 3]), Verdict::Regressed);
        assert_eq!(exact(&[7304.0; 3]), Verdict::Improved);
    }
}
