//! Multi-way join chains over one encrypted session: a 3-table TPC-H
//! style pipeline `Orders ⋈ Customers ⋈ Returns` (all through
//! `custkey`) with an explicit projection, executed twice plus one
//! overlapping 2-table query — demonstrating that
//!
//! * a chain lowers to pipelined pairwise stages shipped as **one**
//!   batched round trip,
//! * the per-stage token cache makes overlapping chains share tokens
//!   (asserted: nonzero hits, and the full repeat hits on *every*
//!   stage — this run is a CI gate),
//! * the projection means the client decrypts only the selected
//!   columns (asserted via the `ClientStats` counters),
//! * the full repeat opens no payload: the client reuses every value
//!   the first run opened (asserted, same counters).
//!
//! ```sh
//! cargo run --release --example multiway_chain
//! ```

use eqjoin::db::{Schema, SessionConfig, Table, TableConfig, Value};
use eqjoin::pairing::Bls12;
use eqjoin::tpch::{generate_customers, generate_orders, TpchConfig};

/// A small synthetic `Returns` table keyed by `custkey` — the third
/// link of the chain (TPC-H has no per-customer complaint table, so we
/// grow one in the same spirit).
fn generate_returns(customers: usize) -> Table {
    let mut t = Table::new(Schema::new("Returns", &["custkey", "reason", "amount"]));
    let reasons = ["damaged", "late", "wrong item"];
    for i in 0..customers {
        // Roughly every third customer filed a return; some filed two.
        if i % 3 == 0 {
            t.push_row(vec![
                Value::Int((i + 1) as i64),
                reasons[i % reasons.len()].into(),
                Value::Decimal(((i * 731) % 90_000) as i64 + 1_000),
            ]);
        }
        if i % 9 == 0 {
            t.push_row(vec![
                Value::Int((i + 1) as i64),
                reasons[(i + 1) % reasons.len()].into(),
                Value::Decimal(((i * 397) % 90_000) as i64 + 1_000),
            ]);
        }
    }
    t
}

fn main() {
    let tpch = TpchConfig::new(0.0005, 0x5eed);
    let customers = generate_customers(&tpch);
    let orders = generate_orders(&tpch);
    let returns = generate_returns(customers.len());
    println!(
        "tables: {} orders ⋈ {} customers ⋈ {} returns (BLS12-381)",
        orders.len(),
        customers.len(),
        returns.len(),
    );

    let mut session =
        eqjoin::session::<Bls12>(SessionConfig::new(2, 3).seed(0xc4a1).prefilter(true));
    session
        .create_table(
            &orders,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["orderpriority".into(), "selectivity".into()],
            },
        )
        .expect("encrypt orders");
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
            &returns,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["reason".into()],
            },
        )
        .expect("encrypt returns");

    // The chain, straight from SQL: a projection over three tables,
    // joined pairwise through each table's encrypted join column.
    let chain = "SELECT name, orderpriority, reason FROM Orders \
                 JOIN Customers ON Orders.custkey = Customers.custkey \
                 INNER JOIN Returns ON Customers.custkey = Returns.custkey \
                 WHERE mktsegment = 'BUILDING'";

    let trips_before = session.transport_stats().round_trips;
    let first = session.execute(chain).expect("chain");
    assert_eq!(
        session.transport_stats().round_trips - trips_before,
        1,
        "the whole chain must ship as one batched round trip"
    );
    assert_eq!(first.stage_stats.len(), 2, "two pairwise stages");
    let first_opens = session.stats().client.column_decrypts;
    println!(
        "chain: {} result rows from {} pairwise stages (one round trip); \
         per-stage rows decrypted: {:?}",
        first.rows.len(),
        first.stage_stats.len(),
        first
            .stage_stats
            .iter()
            .map(|s| s.rows_decrypted)
            .collect::<Vec<_>>(),
    );
    let header: Vec<String> = first.columns.iter().map(|c| c.to_string()).collect();
    println!("  {}", header.join(" | "));
    for row in first.rows.iter().take(3) {
        let cells: Vec<String> = row.0.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }

    // The projection pays: only 3 of the 22 combined columns are opened.
    let stats = session.stats();
    println!(
        "projection: {} column values opened, {} skipped",
        stats.client.column_decrypts, stats.client.column_decrypts_skipped,
    );
    assert!(
        stats.client.column_decrypts_skipped > stats.client.column_decrypts,
        "the 3-of-22 projection must skip most column decrypts"
    );

    // An overlapping 2-table query: its Orders ⋈ Customers stage is
    // byte-identical to the chain's first stage, so the token cache
    // serves it.
    let overlap = "SELECT name, totalprice FROM Orders \
                   JOIN Customers ON Orders.custkey = Customers.custkey \
                   WHERE mktsegment = 'BUILDING'";
    let two_table = session.execute(overlap).expect("overlapping query");
    assert!(
        two_table.cache_hit,
        "the overlapping stage must reuse the chain's token bundle"
    );

    // Repeating the chain hits the cache on *every* stage, and the
    // client opens no payload: the server ships the bytes it already
    // opened, so every value comes back from what it kept.
    let before_again = session.stats().client;
    let again = session.execute(chain).expect("repeat chain");
    assert!(again.cache_hit && again.stage_cache_hits.iter().all(|&h| h));
    assert_eq!(again.rows, first.rows);
    let after_again = session.stats().client;
    println!(
        "repeat: {} column values opened, {} reused (the first run opened {})",
        after_again.column_decrypts - before_again.column_decrypts,
        after_again.column_opens_reused - before_again.column_opens_reused,
        first_opens,
    );
    assert_eq!(
        after_again.column_decrypts, before_again.column_decrypts,
        "the full repeat must run no AEAD open"
    );
    assert_eq!(
        after_again.column_opens_reused - before_again.column_opens_reused,
        first_opens,
        "the full repeat must reuse exactly what the first run opened"
    );

    // CI gate: a nonzero token-cache hit count across the chain's
    // overlapping stages (1 from the 2-table overlap + 2 from the
    // repeat).
    let stats = session.stats();
    assert!(
        stats.token_cache_hits >= 3,
        "expected ≥ 3 stage token-cache hits, got {}",
        stats.token_cache_hits
    );
    assert_eq!(
        stats.client.tkgen_calls, 4,
        "2 sides × 2 distinct stages — overlaps generated nothing new"
    );

    let report = session.leakage_report();
    println!(
        "token cache: {} stage hits, {} misses | SJ.TkGen calls: {}",
        stats.token_cache_hits, stats.token_cache_misses, stats.client.tkgen_calls,
    );
    println!(
        "leakage: {} ledgered pairwise joins (each chain stage counts), \
         {} visible pairs, within paper bound: {}",
        report.queries, report.visible_pairs, report.within_bound,
    );
    assert!(report.within_bound);
    println!("ok: overlapping chains share stage tokens and stay within the bound");
}
