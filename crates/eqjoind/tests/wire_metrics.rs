//! Daemon wire-metrics gate: a served `eqjoind` counts the frames it
//! takes off and puts on the wire. A real daemon in its own process
//! (so no client-side frame ever lands in its registry) serves a
//! `RemoteBackend` that uploads two tables and runs one join; the
//! daemon's `Request::Stats` exposition must then equal, frame for
//! frame and byte for byte, what the client's `TransportStats` say it
//! sent and received.

mod harness;

use eqjoin_db::{
    DbClient, JoinQuery, RemoteBackend, Request, Response, Schema, ServerApi, Table, TableConfig,
    Value,
};
use eqjoin_pairing::MockEngine;
use harness::{scratch_data_dir, Daemon};

/// One unlabeled series out of an exposition body; absent reads as 0.
fn series_value(body: &str, series: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

#[test]
fn daemon_frame_counters_equal_the_clients_wire_traffic() {
    let mut client = DbClient::<MockEngine>::new(1, 2, 0x3e7);
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for i in 0..6i64 {
        left.push_row(vec![Value::Int(i % 3), Value::Str(format!("l{i}"))]);
        right.push_row(vec![Value::Int(i % 2), Value::Str(format!("r{i}"))]);
    }
    let cfg = |col: &str| TableConfig {
        join_column: "k".into(),
        filter_columns: vec![col.to_owned()],
    };
    let enc_l = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_r = client.encrypt_table(&right, cfg("b")).unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();

    let data_dir = scratch_data_dir("wire-metrics");
    let daemon = Daemon::spawn(&data_dir);
    let backend = RemoteBackend::connect(daemon.addr.as_str()).unwrap();
    let api: &dyn ServerApi<MockEngine> = &backend;
    for table in [enc_l, enc_r] {
        assert!(matches!(
            api.handle(Request::InsertTable(table)),
            Response::TableInserted { .. }
        ));
    }
    let joined = api.handle(Request::ExecuteJoin {
        tokens: tokens.into(),
        projection: Default::default(),
    });
    assert!(
        matches!(joined, Response::JoinExecuted { .. }),
        "{joined:?}"
    );

    // The daemon renders its exposition before it queues the Stats
    // reply, so that reply is the one frame the exposition cannot see.
    let received_before_stats = api.transport_stats().bytes_received;
    let exposition = match api.handle(Request::Stats) {
        Response::Stats(exposition) => exposition,
        other => panic!("Stats answered with {other:?}"),
    };
    let client = api.transport_stats();
    assert_eq!(client.round_trips, 4, "two uploads, one join, one Stats");
    assert_eq!(
        (
            series_value(&exposition, "eqjoin_frames_received_total"),
            series_value(&exposition, "eqjoin_frame_bytes_received_total"),
            series_value(&exposition, "eqjoin_frames_sent_total"),
            series_value(&exposition, "eqjoin_frame_bytes_sent_total"),
        ),
        (
            client.round_trips,
            client.bytes_sent,
            client.round_trips - 1,
            received_before_stats,
        ),
        "the daemon's frame counters (received, received bytes, sent, sent bytes) \
         against the client's wire traffic:\n{exposition}"
    );

    drop(backend);
    daemon.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
}
