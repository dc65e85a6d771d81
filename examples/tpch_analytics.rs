//! TPC-H analytics over encrypted data: generate `Customers`/`Orders`,
//! encrypt them into a [`Session`](eqjoin::Session), and run a small
//! analyst workload of SQL join queries with selectivity and IN-clause
//! filters, reporting server-side timings. The workload repeats its
//! first query at the end, so the session token cache gets one hit.
//!
//! Arguments: `[scale_factor] [engine]` where engine ∈ {mock, bls}.
//!
//! ```sh
//! cargo run --release --example tpch_analytics -- 0.002 bls
//! cargo run --release --example tpch_analytics -- 0.01 mock
//! ```

use eqjoin::db::{Session, SessionConfig, TableConfig};
use eqjoin::pairing::{Bls12, Engine, MockEngine};
use eqjoin::tpch::{generate_customers, generate_orders, TpchConfig};
use std::time::Instant;

fn workload() -> Vec<&'static str> {
    vec![
        // The paper's Figure 3/4 query shape: selectivity-filtered join.
        "SELECT * FROM Customers JOIN Orders ON Customers.custkey = Orders.custkey \
         WHERE Customers.selectivity = '1/100' AND Orders.selectivity = '1/100'",
        // Segment analysis with an IN clause.
        "SELECT * FROM Customers JOIN Orders ON Customers.custkey = Orders.custkey \
         WHERE mktsegment IN ('BUILDING', 'AUTOMOBILE') AND Orders.selectivity = '1/50'",
        // Priority sweep.
        "SELECT * FROM Customers JOIN Orders ON Customers.custkey = Orders.custkey \
         WHERE Customers.selectivity = '1/25' AND orderpriority IN ('1-URGENT', '2-HIGH')",
        // The dashboard refreshes: query 1 again, served from the token
        // cache without re-running SJ.TkGen.
        "SELECT * FROM Customers JOIN Orders ON Customers.custkey = Orders.custkey \
         WHERE Customers.selectivity = '1/100' AND Orders.selectivity = '1/100'",
    ]
}

fn run<E: Engine>(scale: f64) {
    let cfg = TpchConfig::new(scale, 2026);
    let t0 = Instant::now();
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    println!(
        "generated Customers ({} rows) and Orders ({} rows) in {:?}",
        customers.len(),
        orders.len(),
        t0.elapsed()
    );

    // The configuration the paper measures: pre-filter on.
    let mut session = Session::<E>::local(SessionConfig::new(2, 4).seed(1).prefilter(true));

    let t0 = Instant::now();
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
    println!(
        "encrypted + uploaded both tables in {:?} (engine: {})",
        t0.elapsed(),
        E::NAME
    );
    println!();

    for sql in workload() {
        let plan = eqjoin::sql::plan(sql, session.catalog()).expect("plan");
        let result = session.execute(&plan).expect("query");
        println!(
            "query: {}",
            sql.split_whitespace().collect::<Vec<_>>().join(" ")
        );
        println!(
            "  -> {} joined rows | {} rows decrypted server-side \
             ({} pre-filtered out) | SJ.Dec {:?} | SJ.Match {:?}{}",
            result.rows.len(),
            result.stats.rows_decrypted,
            result.stats.rows_prefiltered_out,
            result.stats.decrypt_time,
            result.stats.match_time,
            if result.cache_hit {
                " | token cache hit"
            } else {
                ""
            },
        );
    }

    let stats = session.stats();
    println!(
        "\nsession: {} queries, {} SJ.TkGen calls ({} cache hits), leakage within bound: {}",
        stats.queries_executed,
        stats.client.tkgen_calls,
        stats.token_cache_hits,
        session.leakage_report().within_bound,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args
        .get(1)
        .map(|s| s.parse().expect("scale factor"))
        .unwrap_or(0.002);
    let engine = args.get(2).map(String::as_str).unwrap_or("mock");
    match engine {
        "bls" => run::<Bls12>(scale),
        "mock" => run::<MockEngine>(scale),
        other => panic!("unknown engine {other:?} (use 'mock' or 'bls')"),
    }
}
