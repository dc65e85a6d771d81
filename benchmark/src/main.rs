//! The repository's benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; result line last
//! benchmark run     [--seed N] [--seconds S] [--out FILE]
//! benchmark trace   [--seed N] [--seconds S] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//! `--smoke` (any mode but `compare`) swaps in the mock engine and the
//! shortest loops: it proves the harness, it measures nothing.

mod compare;
mod inputs;
mod json;
mod layers;
mod measure;
mod reference;
mod report;
mod stack;
mod tenant;
mod trace;
mod workloads;

use eqjoin_pairing::{Bls12, MockEngine};
use report::{contract, median, number, Outcome};
use std::process::{Command, ExitCode};
use workloads::Kind;

/// Runs of each workload `run` makes: enough for a median and a spread.
const RUNS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: contract().run_seconds,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a valid value");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process.
fn run_here(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or_else(|| {
        format!(
            "unknown workload {name} (one of {})",
            contract().workloads.join(", ")
        )
    })?;
    std::fs::create_dir_all(".bench_data").map_err(|e| format!(".bench_data: {e}"))?;
    if args.smoke {
        measure::run::<MockEngine>(kind, args.seed, args.seconds, args.trace, true)
    } else {
        measure::run::<Bls12>(kind, args.seed, args.seconds, args.trace, false)
    }
}

fn first_line(command: &str, args: &[&str]) -> String {
    Command::new(command)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what the numbers were taken.
fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"git_commit\": {}, \"rustc\": {}, \
         \"nproc\": {nproc}, \"cpu_model\": {}, \"pool_threads\": {}, \"reactor_workers\": {}, \
         \"pairing.fp_mul_ns\": {}}}",
        args.seed,
        number(args.seconds),
        args.smoke,
        json::quote(&first_line("git", &["rev-parse", "HEAD"])),
        json::quote(&first_line("rustc", &["-V"])),
        json::quote(&cpu),
        stack::POOL_THREADS,
        stack::thread_cap(),
        number(layers::fp_mul_ns()),
    )
}

/// `run` / `trace`: every workload in a child process of its own (so
/// that peak RSS and the process-wide counters are per workload), the
/// result lines gathered into one file and one table.
fn run_all(args: &Args, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads = &contract().workloads;
    let mut runs = Vec::new();
    let mut clean = true;
    for workload in workloads {
        for _ in 0..if traced { 1 } else { RUNS } {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &number(args.seconds)])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            let output = child
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            let mut notes: Vec<&str> = stdout.lines().collect();
            let line = notes.pop().unwrap_or_default();
            for note in notes {
                println!("  {note}");
            }
            let result = json::parse(line).map_err(|e| {
                format!(
                    "{workload} printed no result ({e}): {}",
                    String::from_utf8_lossy(&output.stderr)
                )
            })?;
            clean &= output.status.success()
                && result.get("correct").and_then(json::Json::as_bool) == Some(true);
            runs.push((workload, line.to_owned(), result));
        }
    }

    // One cell per workload, in the contract's order.
    let row = |cell: &dyn Fn(&str) -> String| -> String {
        let cells: Vec<String> = workloads.iter().map(|w| cell(w)).collect();
        cells.join(" ")
    };
    println!(
        "\n{:<28} {:>8}  {}",
        "metric",
        "unit",
        row(&|w| format!("{w:>15}"))
    );
    let declared = if traced {
        &contract().per_layer
    } else {
        &contract().end_to_end
    };
    let cell = |workload: &str, metric: &str| -> f64 {
        let values: Vec<f64> = runs
            .iter()
            .filter(|(w, _, _)| *w == workload)
            .filter_map(|(_, _, r)| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect();
        median(&values)
    };
    for m in declared {
        let cells = row(&|w| format!("{:>15.4}", cell(w, &m.name)));
        println!("{:<28} {:>8}  {cells}", m.name, m.unit);
    }
    for field in ["attempted", "failed"] {
        let cells = row(&|w| {
            let total: f64 = runs
                .iter()
                .filter(|(name, _, _)| *name == w)
                .filter_map(|(_, _, r)| r.get(field)?.as_f64())
                .sum();
            format!("{total:>15}")
        });
        println!("{:<28} {:>8}  {cells}", format!("ops_{field}"), "count");
    }

    if let Some(path) = &args.out {
        let body: Vec<String> = runs
            .iter()
            .map(|(workload, line, _)| {
                // Splice the workload and trace flag into the child's
                // own result object.
                format!(
                    "{{\"workload\": {}, \"trace\": {}, {}",
                    json::quote(workload),
                    u8::from(traced),
                    line.trim_start().trim_start_matches('{')
                )
            })
            .collect();
        let file = format!(
            "{{\"provenance\": {},\n \"runs\": [\n  {}\n ]}}\n",
            provenance(args),
            body.join(",\n  ")
        );
        std::fs::write(path, file).map_err(|e| format!("{path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: benchmark compare A.json B.json".to_owned()),
        },
        Some(mode @ ("run" | "trace")) => {
            parse_args(&args[1..]).and_then(|parsed| run_all(&parsed, mode == "trace"))
        }
        // The contract: one workload, the result line last, exit 0
        // whenever a result was printed (`correct` carries the verdict).
        _ => parse_args(&args).and_then(|parsed| {
            let outcome = run_here(&parsed)?;
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", outcome.json_line());
            Ok(true)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    /// The smoke run: every workload, both modes, on the mock engine.
    /// Every declared metric is printed exactly once with its unit and
    /// nothing fails.
    #[test]
    fn smoke_prints_every_declared_metric_once() {
        std::fs::create_dir_all(".bench_data").unwrap();
        for workload in &contract().workloads {
            for traced in [false, true] {
                let kind = Kind::parse(workload).unwrap();
                let outcome = measure::run::<MockEngine>(kind, 7, 0.0, traced, true)
                    .unwrap_or_else(|e| panic!("{workload} trace={traced}: {e}"));
                assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
                assert!(outcome.attempted > 0);
                let line = json::parse(&outcome.json_line()).expect("result line parses");
                let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let printed = line.get("metrics").unwrap().as_obj();
                let declared = if traced {
                    &contract().per_layer
                } else {
                    &contract().end_to_end
                };
                assert_eq!(printed.len(), declared.len(), "{workload}");
                for ((name, value), want) in printed.iter().zip(declared) {
                    assert_eq!(*name, want.name);
                    assert_eq!(field(value, "unit"), want.unit);
                    let v = value.get("value").and_then(Json::as_f64);
                    assert!(v.is_some_and(f64::is_finite), "{workload} {name}: {v:?}");
                    if !traced {
                        assert!(v.unwrap() > 0.0, "{workload} {name} must never be 0");
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_outside_the_contract_are_refused() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
        assert!(args(&[
            "--workload",
            "cold_chain",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--nope", "1"]).is_err());
    }
}
