//! Transport bench: batched (`Session::execute_all`, one TCP round
//! trip per refresh) vs one-at-a-time (`Session::execute`, one round
//! trip per query) over a `RemoteBackend` talking to a loopback
//! `eqjoind`. The token cache is on for both arms, so after the first
//! refresh the arms differ *only* in round trips — the transport
//! counters printed at the end show exactly what batching saved.

use criterion::{criterion_group, criterion_main, Criterion};
use eqjoin_bench::{selectivity_query, spawn_loopback, SELECTIVITY_LABELS};
use eqjoin_db::{JoinQuery, QueryInput, Session, SessionConfig, TableConfig};
use eqjoin_pairing::MockEngine;
use eqjoin_tpch::{generate_customers, generate_orders, TpchConfig};
use eqjoind_net::NetHandle;

/// An encrypted TPC-H session over its own loopback `eqjoind` (the
/// handle keeps the server up while the session is in use).
fn remote_session() -> (Session<MockEngine>, NetHandle) {
    let (addr, server) = spawn_loopback::<MockEngine>();
    let mut session = Session::remote(
        SessionConfig::new(2, 3)
            .seed(0x5e55 ^ 0xbe9c)
            .prefilter(true),
        addr,
    )
    .expect("connect to loopback eqjoind");
    let cfg = TpchConfig::new(0.002, 0x5e55);
    session
        .create_table(
            &generate_customers(&cfg),
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["mktsegment".into(), "selectivity".into()],
            },
        )
        .expect("encrypt customers");
    session
        .create_table(
            &generate_orders(&cfg),
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["orderpriority".into(), "selectivity".into()],
            },
        )
        .expect("encrypt orders");
    (session, server)
}

/// One dashboard refresh: the four selectivity queries of Figures 3/4.
fn refresh_queries() -> Vec<JoinQuery> {
    SELECTIVITY_LABELS
        .iter()
        .map(|s| selectivity_query(s, 3))
        .collect()
}

fn bench_remote_batching(c: &mut Criterion) {
    let queries = refresh_queries();
    let inputs: Vec<QueryInput> = queries.iter().map(QueryInput::from).collect();
    let (mut one_at_a_time, _server_one) = remote_session();
    let (mut batched, _server_batched) = remote_session();

    let mut group = c.benchmark_group("remote_series");
    group.sample_size(30);
    group.bench_function("one_at_a_time", |b| {
        b.iter(|| {
            for query in &queries {
                one_at_a_time.execute(query).expect("remote join");
            }
        })
    });
    group.bench_function("batched_execute_all", |b| {
        b.iter(|| batched.execute_all(&inputs).expect("remote batch"))
    });
    group.finish();

    let single = one_at_a_time.stats().transport;
    let batch = batched.stats().transport;
    println!(
        "round trips per refresh ({} queries): one-at-a-time {:.1}, batched {:.1} \
         ({} vs {} trips total; batched sent {} B, received {} B)",
        queries.len(),
        // Subtract the two table uploads before averaging per refresh.
        (single.round_trips - 2) as f64 / (single.requests - 2) as f64 * queries.len() as f64,
        (batch.round_trips - 2) as f64 / (batch.requests - 2) as f64 * queries.len() as f64,
        single.round_trips,
        batch.round_trips,
        batch.bytes_sent,
        batch.bytes_received,
    );
    assert!(
        batch.round_trips < single.round_trips,
        "batching must save round trips ({} vs {})",
        batch.round_trips,
        single.round_trips
    );
}

criterion_group!(benches, bench_remote_batching);
criterion_main!(benches);
