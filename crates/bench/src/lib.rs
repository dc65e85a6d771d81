//! Shared harness for the binaries that regenerate the paper's
//! evaluation (§6): encrypted TPC-H setup, the Figure 3/4 query shapes,
//! timing helpers and simple table/CSV reporting.
//!
//! Each figure and table has one binary
//! (`cargo run --release -p eqjoin-bench --bin fig3 -- …`) that sweeps
//! the paper's parameter grid and prints the series the paper plots,
//! writing CSV under `results/`. Time, memory and bytes on the wire are
//! measured by the `benchmark/` package (`BENCHMARK.json`); exact
//! operation counts are pinned by `tests/op_counts.rs`.

#![forbid(unsafe_code)]

use eqjoin_db::{
    ClientConfig, DbClient, DbServer, JoinOptions, JoinQuery, Session, SessionConfig, TableConfig,
    Value,
};
use eqjoin_pairing::Engine;
use eqjoin_tpch::{generate_customers, generate_orders, TpchConfig};
use std::time::{Duration, Instant};

/// The four selectivity labels of Figures 3/4 in the paper's plotting
/// order (least to most selective work).
pub const SELECTIVITY_LABELS: [&str; 4] = ["1/100", "1/50", "1/25", "1/12.5"];

/// An encrypted TPC-H instance ready for join queries.
pub struct TpchBench<E: Engine> {
    /// The trusted client.
    pub client: DbClient<E>,
    /// The server holding both encrypted tables.
    pub server: DbServer<E>,
    /// Row counts `(customers, orders)`.
    pub rows: (usize, usize),
}

/// Build an encrypted `Customers`/`Orders` instance.
///
/// `m = 2` filter attributes per table (a category column plus the
/// paper's `selectivity` column); `t` is the `IN`-clause bound, which
/// fixes the ciphertext dimension `m(t+1)+3` exactly as in the paper's
/// Figure 2/4 sweeps. The §4.3 selectivity pre-filter is enabled — the
/// configuration the paper's server-side numbers correspond to.
pub fn setup_tpch<E: Engine>(scale: f64, t: usize, seed: u64) -> TpchBench<E> {
    let cfg = TpchConfig::new(scale, seed);
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    let rows = (customers.len(), orders.len());
    let mut client =
        DbClient::<E>::with_config(ClientConfig::new(2, t).seed(seed ^ 0xbe9c).prefilter(true));
    let mut server = DbServer::new();
    server
        .insert_table(
            client
                .encrypt_table(
                    &customers,
                    TableConfig {
                        join_column: "custkey".into(),
                        filter_columns: vec!["mktsegment".into(), "selectivity".into()],
                    },
                )
                .expect("encrypt customers"),
        )
        .expect("store customers");
    server
        .insert_table(
            client
                .encrypt_table(
                    &orders,
                    TableConfig {
                        join_column: "custkey".into(),
                        filter_columns: vec!["orderpriority".into(), "selectivity".into()],
                    },
                )
                .expect("encrypt orders"),
        )
        .expect("store orders");
    TpchBench {
        client,
        server,
        rows,
    }
}

/// The Figure 3/4 query: join `Customers ⋈ Orders` on `custkey`,
/// selecting the `selectivity = s` block on both sides with an
/// `IN`-clause padded to `in_size` values (the padding values match no
/// row, so the selected fraction stays `s` while the token degree — and
/// hence the per-row decryption cost — grows with `in_size`, exactly the
/// Figure 4 sweep).
pub fn selectivity_query(s_label: &str, in_size: usize) -> JoinQuery {
    let mut values: Vec<Value> = vec![s_label.into()];
    for pad in 1..in_size {
        values.push(format!("pad-{pad}").into());
    }
    JoinQuery::on("Customers", "custkey", "Orders", "custkey")
        .filter("Customers", "selectivity", values.clone())
        .filter("Orders", "selectivity", values)
}

/// Result of one measured join execution.
pub struct JoinMeasurement {
    /// Total server wall time (decrypt + match).
    pub total: Duration,
    /// `SJ.Dec` phase time.
    pub decrypt: Duration,
    /// `SJ.Match` phase time.
    pub match_phase: Duration,
    /// Rows decrypted across both sides.
    pub rows_decrypted: usize,
    /// Matched pairs.
    pub matched_pairs: usize,
}

/// Execute one join and collect the timing breakdown.
pub fn run_join<E: Engine>(
    bench: &mut TpchBench<E>,
    query: &JoinQuery,
    opts: &JoinOptions,
) -> JoinMeasurement {
    let tokens = bench.client.query_tokens(query).expect("tokens");
    let t0 = Instant::now();
    let (result, _) = bench
        .server
        .execute_join(&tokens, opts)
        .expect("join executes");
    let total = t0.elapsed();
    JoinMeasurement {
        total,
        decrypt: result.stats.decrypt_time,
        match_phase: result.stats.match_time,
        rows_decrypted: result.stats.rows_decrypted,
        matched_pairs: result.stats.matched_pairs,
    }
}

/// An encrypted TPC-H instance behind the [`Session`] API — the harness
/// the figure binaries drive.
pub struct TpchSession<E: Engine> {
    /// The session (client keys + local backend + token cache).
    pub session: Session<E>,
    /// Row counts `(customers, orders)`.
    pub rows: (usize, usize),
}

/// Build an encrypted `Customers`/`Orders` session: same tables and
/// parameters as [`setup_tpch`], pre-filter on — and the **token cache
/// off**, because the figure binaries time the same query repeatedly
/// and must measure fresh `SJ.Dec` work every run: each run draws fresh
/// tokens, which no decrypt-cache entry matches.
pub fn setup_tpch_session<E: Engine>(scale: f64, t: usize, seed: u64) -> TpchSession<E> {
    let cfg = TpchConfig::new(scale, seed);
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    let rows = (customers.len(), orders.len());
    let mut session = Session::<E>::local(
        SessionConfig::new(2, t)
            .seed(seed ^ 0xbe9c)
            .prefilter(true)
            .token_cache(false),
    );
    session
        .create_table(
            &customers,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["mktsegment".into(), "selectivity".into()],
            },
        )
        .expect("encrypt customers");
    session
        .create_table(
            &orders,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["orderpriority".into(), "selectivity".into()],
            },
        )
        .expect("encrypt orders");
    TpchSession { session, rows }
}

/// Execute one join through the session and collect the timing
/// breakdown. `total` is the server-side work (`SJ.Dec` + `SJ.Match`)
/// reported by the backend, matching what [`run_join`] timed on the raw
/// path; client-side token generation is excluded (and skipped entirely
/// on repeats, via the session token cache).
pub fn run_join_session<E: Engine>(
    bench: &mut TpchSession<E>,
    query: &JoinQuery,
) -> JoinMeasurement {
    let result = bench.session.execute(query).expect("join executes");
    JoinMeasurement {
        total: result.stats.decrypt_time + result.stats.match_time,
        decrypt: result.stats.decrypt_time,
        match_phase: result.stats.match_time,
        rows_decrypted: result.stats.rows_decrypted,
        matched_pairs: result.stats.matched_pairs,
    }
}

/// Mean of `reps` measurements of `f` (wall-clock), discarding nothing —
/// the figure binaries use this for the paper-style "average of N runs"
/// numbers.
pub fn mean_duration(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    assert!(reps > 0);
    let total: Duration = (0..reps).map(|_| f()).sum();
    total / reps as u32
}

/// Format a duration in seconds with 2 decimals (the paper's axes).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Format a duration in milliseconds with 1 decimal (Figure 2's axis).
pub fn millis(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Minimal CSV writer for the experiment outputs.
pub struct CsvWriter {
    out: Option<std::io::BufWriter<std::fs::File>>,
}

impl CsvWriter {
    /// Create (or truncate) `path`; `None` disables writing.
    pub fn create(path: Option<&str>) -> Self {
        let out = path.map(|p| {
            if let Some(dir) = std::path::Path::new(p).parent() {
                std::fs::create_dir_all(dir).expect("create results dir");
            }
            std::io::BufWriter::new(std::fs::File::create(p).expect("create csv"))
        });
        CsvWriter { out }
    }

    /// Write one row.
    pub fn row(&mut self, fields: &[String]) {
        use std::io::Write;
        if let Some(out) = self.out.as_mut() {
            writeln!(out, "{}", fields.join(",")).expect("write csv row");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_pairing::MockEngine;

    #[test]
    fn harness_runs_a_join() {
        let mut bench = setup_tpch::<MockEngine>(0.001, 2, 5);
        assert_eq!(bench.rows, (150, 1500));
        let q = selectivity_query("1/25", 1);
        let m = run_join(&mut bench, &q, &JoinOptions::default());
        // 1/25 of each table decrypted (± rounding).
        let expected = (150 / 25) + (1500 / 25);
        assert_eq!(m.rows_decrypted, expected);
        assert!(m.total >= m.decrypt);
    }

    #[test]
    fn session_harness_matches_raw_harness() {
        let mut raw = setup_tpch::<MockEngine>(0.001, 2, 5);
        let mut sess = setup_tpch_session::<MockEngine>(0.001, 2, 5);
        assert_eq!(sess.rows, raw.rows);
        let q = selectivity_query("1/25", 1);
        let m_raw = run_join(&mut raw, &q, &JoinOptions::default());
        let m_sess = run_join_session(&mut sess, &q);
        assert_eq!(m_raw.rows_decrypted, m_sess.rows_decrypted);
        assert_eq!(m_raw.matched_pairs, m_sess.matched_pairs);
        // Repeat: a fresh bundle, decrypted afresh (the figures time
        // `SJ.Dec`, not the caches).
        let repeat = run_join_session(&mut sess, &q);
        assert_eq!(sess.session.stats().token_cache_hits, 0);
        assert_eq!(sess.session.stats().client.tkgen_calls, 4);
        assert_eq!(sess.session.stats().decrypt_cache_hits, 0);
        assert_eq!(repeat.rows_decrypted, m_sess.rows_decrypted);
    }

    #[test]
    fn padded_in_clause_keeps_selection_constant() {
        let mut bench = setup_tpch::<MockEngine>(0.001, 4, 6);
        let q1 = selectivity_query("1/50", 1);
        let q4 = selectivity_query("1/50", 4);
        let m1 = run_join(&mut bench, &q1, &JoinOptions::default());
        let m4 = run_join(&mut bench, &q4, &JoinOptions::default());
        assert_eq!(m1.rows_decrypted, m4.rows_decrypted);
        assert_eq!(m1.matched_pairs, m4.matched_pairs);
    }

    #[test]
    fn mean_duration_averages() {
        let mut calls = 0;
        let d = mean_duration(4, || {
            calls += 1;
            Duration::from_millis(10)
        });
        assert_eq!(calls, 4);
        assert_eq!(d, Duration::from_millis(10));
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(Duration::from_millis(3520)), "3.52");
        assert_eq!(millis(Duration::from_micros(21200)), "21.2");
    }
}
