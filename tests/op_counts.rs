//! The op-count drift guard: a small fixed-seed `Bls12` series through
//! [`Session`], with every counter that does not depend on the clock
//! compared, exactly, against `fixtures/op_counts.txt`.
//!
//! Three phases, each counted on its own:
//! * `encrypt` — bulk `SJ.Enc` of three tables into a fresh session;
//! * `token_cache_off` — the series with fresh tokens per query, so
//!   every selected row costs one `SJ.Dec`;
//! * `token_cache_on` — the same series with the token cache on, so
//!   repeated rounds send byte-identical tokens and the server's decrypt
//!   cache answers them with no pairing at all.
//!
//! Per phase the fixture pins every `OpCounts` field, `SJ.TkGen`
//! calls, token-cache hits and misses, decrypt-cache hits, rows
//! decrypted, and the transport's round trips, requests and batches.
//! `(m, t) = (2, 3)` makes a row 11 Miller pairs, the shape of every
//! `SJ.Dec` the benchmark times; decrypt threads are pinned to 1 so no
//! count depends on the host's cores. The counters are process-wide,
//! which is why the whole series is one test.
//!
//! A deliberate change to what the series costs is one edit: the failure
//! prints the fixture the current code produces.

use eqjoin::db::{
    QueryInput, QueryPlan, Schema, Session, SessionConfig, SessionStats, Table, TableConfig, Value,
};
use eqjoin::pairing::{ops, Bls12};
use std::fmt::Write;

const ROUNDS: usize = 2;

fn config(token_cache: bool) -> SessionConfig {
    SessionConfig::new(2, 3)
        .seed(0x0c0c)
        .prefilter(true)
        .token_cache(token_cache)
        .threads(1)
}

/// `Customers`, `Orders` and `Profiles`, joined on `custkey`, each with
/// the filter columns the series selects on.
fn tables() -> Vec<(Table, TableConfig)> {
    let cfg = |filters: &[&str]| TableConfig {
        join_column: "custkey".into(),
        filter_columns: filters.iter().map(|f| f.to_string()).collect(),
    };
    let mut customers = Table::new(Schema::new("Customers", &["custkey", "name", "segment"]));
    for i in 0..4i64 {
        customers.push_row(vec![
            Value::Int(i),
            format!("cust-{i}").as_str().into(),
            ["auto", "build"][(i % 2) as usize].into(),
        ]);
    }
    let mut orders = Table::new(Schema::new("Orders", &["custkey", "priority", "total"]));
    for i in 0..8i64 {
        orders.push_row(vec![
            Value::Int(i % 4),
            ["urgent", "high", "low"][(i % 3) as usize].into(),
            Value::Int(100 + i),
        ]);
    }
    let mut profiles = Table::new(Schema::new("Profiles", &["custkey", "region"]));
    for i in 0..4i64 {
        profiles.push_row(vec![
            Value::Int(i),
            ["emea", "apac", "amer"][(i % 3) as usize].into(),
        ]);
    }
    vec![
        (customers, cfg(&["segment"])),
        (orders, cfg(&["priority"])),
        (profiles, cfg(&["region"])),
    ]
}

/// One round: a three-table chain with a projection, then a pairwise
/// join, under different filters.
fn round() -> Vec<QueryInput> {
    vec![
        QueryPlan::scan("Customers")
            .join_on("Customers", "custkey", "Orders", "custkey")
            .join_on("Customers", "custkey", "Profiles", "custkey")
            .project(&[
                ("Customers", "name"),
                ("Orders", "priority"),
                ("Profiles", "region"),
            ])
            .filter("Customers", "segment", vec!["auto".into()])
            .filter("Orders", "priority", vec!["urgent".into()])
            .into(),
        QueryPlan::scan("Customers")
            .join_on("Customers", "custkey", "Orders", "custkey")
            .filter("Customers", "segment", vec!["build".into()])
            .filter("Orders", "priority", vec!["high".into(), "low".into()])
            .into(),
    ]
}

/// Run `work` on `session` as one phase and append what it cost as
/// `phase.counter: value` lines; `work` returns the rows it decrypted.
/// The `OpCounts` lines come from its `Debug` form, so a counter added
/// to it shows up here without an edit.
fn phase(
    out: &mut String,
    name: &str,
    session: &mut Session<Bls12>,
    work: fn(&mut Session<Bls12>) -> u64,
) {
    let (before, ops_before) = (session.stats(), ops::snapshot());
    let rows_decrypted = work(session);
    let (after, ops) = (session.stats(), ops::snapshot().since(&ops_before));
    let debug = format!("{ops:?}");
    let fields = debug
        .trim_start_matches("OpCounts {")
        .trim_end_matches('}')
        .split(',');
    for field in fields.map(str::trim).filter(|f| !f.is_empty()) {
        writeln!(out, "{name}.{field}").expect("String");
    }
    let delta = |counter: fn(&SessionStats) -> u64| counter(&after) - counter(&before);
    let counters = [
        ("tkgen_calls", delta(|s| s.client.tkgen_calls)),
        ("token_cache_hits", delta(|s| s.token_cache_hits)),
        ("token_cache_misses", delta(|s| s.token_cache_misses)),
        ("decrypt_cache_hits", delta(|s| s.decrypt_cache_hits)),
        ("rows_decrypted", rows_decrypted),
        ("round_trips", delta(|s| s.transport.round_trips)),
        ("requests", delta(|s| s.transport.requests)),
        ("batches", delta(|s| s.transport.batches)),
    ];
    for (counter, value) in counters {
        writeln!(out, "{name}.{counter}: {value}").expect("String");
    }
}

/// Encrypt and upload the tables (no row is decrypted).
fn upload(session: &mut Session<Bls12>) -> u64 {
    for (table, cfg) in tables() {
        session
            .create_table(&table, cfg)
            .expect("encrypt and upload");
    }
    0
}

/// `ROUNDS` rounds of the series.
fn series(session: &mut Session<Bls12>) -> u64 {
    let mut rows_decrypted = 0;
    for _ in 0..ROUNDS {
        for input in round() {
            let result = session.execute(input).expect("query");
            rows_decrypted += result.stats.rows_decrypted as u64;
        }
    }
    rows_decrypted
}

fn render() -> String {
    let mut out =
        String::from("# Exact counters of the fixed-seed Bls12 series in tests/op_counts.rs.\n");
    let mut off = Session::local(config(false));
    phase(&mut out, "encrypt", &mut off, upload);
    phase(&mut out, "token_cache_off", &mut off, series);
    let mut on = Session::local(config(true));
    upload(&mut on);
    phase(&mut out, "token_cache_on", &mut on, series);
    out
}

#[test]
fn series_op_counts_match_the_fixture() {
    let fixture = include_str!("fixtures/op_counts.txt");
    let rendered = render();
    let drift: String = rendered
        .lines()
        .zip(fixture.lines())
        .filter(|(now, then)| now != then)
        .map(|(now, then)| format!("  fixture: {then}\n  current: {now}\n"))
        .collect();
    assert!(
        rendered == fixture,
        "the series' op counts drifted from tests/fixtures/op_counts.txt:\n{drift}\
         if the change is meant, the fixture must become:\n{rendered}"
    );
}
