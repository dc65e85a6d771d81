//! Loopback integration: spawn `eqjoind`'s serving stack on an
//! ephemeral port **in-process**, run the `end_to_end.rs` paper series
//! through a `RemoteBackend` session — SQL text crosses the SQL
//! front-end, the token cache, the wire codec, a real TCP socket and
//! back — and assert the results match the in-process path exactly.

use eqjoin::db::{DbError, QueryInput, Session, SessionConfig, TableConfig, Value};
use eqjoin::pairing::{Bls12, Engine, MockEngine};
use eqjoind_net::{NetConfig, NetHandle, NetServer, TenantRegistry};
use std::net::SocketAddr;
use std::sync::Arc;

/// In-process `eqjoind`: the reactor over a tenant registry, as the
/// binary runs it. The handle keeps the server alive for the test and
/// drains it (joining the reactor thread) on drop — no leaked listener.
fn spawn_server<E: Engine>() -> (SocketAddr, NetHandle) {
    let registry = Arc::new(TenantRegistry::<E>::new(None, None, None));
    NetServer::spawn(registry, NetConfig::default()).unwrap()
}

/// The `end_to_end.rs` setup: the paper's Teams/Employees tables
/// (Example 2.1) behind an arbitrary session.
fn populate_paper_tables<E: Engine>(session: &mut Session<E>) {
    use eqjoin::baselines::ground_truth::example_2_1;
    let (teams, employees) = example_2_1();
    session
        .create_table(
            &teams,
            TableConfig {
                join_column: "Key".into(),
                filter_columns: vec!["Name".into()],
            },
        )
        .unwrap();
    session
        .create_table(
            &employees,
            TableConfig {
                join_column: "Team".into(),
                filter_columns: vec!["Record".into(), "Employee".into(), "Role".into()],
            },
        )
        .unwrap();
}

const PAPER_SERIES: [&str; 3] = [
    "SELECT * FROM Employees JOIN Teams ON Team = Key \
     WHERE Name = 'Web Application' AND Role = 'Tester'",
    "SELECT * FROM Employees JOIN Teams ON Team = Key \
     WHERE Name = 'Database' AND Role = 'Programmer'",
    // Repeat of the first query: exercises the token cache over TCP.
    "SELECT * FROM Employees JOIN Teams ON Team = Key \
     WHERE Name = 'Web Application' AND Role = 'Tester'",
];

#[test]
fn paper_series_over_tcp_matches_local_bls12() {
    let config = SessionConfig::new(3, 2).seed(424242);
    let mut local = eqjoin::session::<Bls12>(config);
    let (addr, _server) = spawn_server::<Bls12>();
    let mut remote = eqjoin::session_remote::<Bls12>(config, &addr.to_string()).unwrap();

    populate_paper_tables(&mut local);
    populate_paper_tables(&mut remote);

    for sql in PAPER_SERIES {
        let l = local.execute(sql).unwrap();
        let r = remote.execute(sql).unwrap();
        assert_eq!(l.rows, r.rows, "decrypted rows must match across TCP");
        assert_eq!(l.tuples, r.tuples);
        assert_eq!(l.cache_hit, r.cache_hit);
    }

    assert_eq!(local.leakage_report(), remote.leakage_report());
    assert!(remote.leakage_report().within_bound);

    // Table 3 sanity on a remote re-run of query 0: the exact row the
    // paper prints.
    let result = remote.execute(PAPER_SERIES[0]).unwrap();
    assert!(result.cache_hit);
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0].get(1), &Value::Str("Kaily".into()));
    assert_eq!(result.rows[0].get(4), &Value::Int(1), "θ via Teams.Key");
    assert_eq!(
        local.stats().client.tkgen_calls,
        remote.stats().client.tkgen_calls,
        "the token cache saves SJ.TkGen identically over TCP"
    );

    let transport = remote.transport_stats();
    assert_eq!(
        transport.round_trips,
        2 + 4,
        "2 table uploads + 4 single-query executes"
    );
    assert!(transport.bytes_sent > 0 && transport.bytes_received > 0);
}

#[test]
fn batched_series_over_tcp_is_one_round_trip_bls12() {
    let config = SessionConfig::new(3, 2).seed(77);
    let (addr, _server) = spawn_server::<Bls12>();
    let mut remote = eqjoin::session_remote::<Bls12>(config, &addr.to_string()).unwrap();
    let mut local = eqjoin::session::<Bls12>(config);
    populate_paper_tables(&mut remote);
    populate_paper_tables(&mut local);

    let inputs: Vec<QueryInput> = PAPER_SERIES.iter().map(|&sql| sql.into()).collect();
    let before = remote.transport_stats();
    let remote_results = remote.execute_all(&inputs).unwrap();
    let after = remote.transport_stats();
    assert_eq!(after.round_trips - before.round_trips, 1);
    assert_eq!(after.requests - before.requests, PAPER_SERIES.len() as u64);

    let local_results = local.execute_all(&inputs).unwrap();
    for (l, r) in local_results.iter().zip(&remote_results) {
        assert_eq!(l.rows, r.rows);
        assert_eq!(l.tuples, r.tuples);
    }
    assert_eq!(local.leakage_report(), remote.leakage_report());
}

#[test]
fn engine_mismatch_is_rejected_not_misdecoded() {
    // A mock-engine client against a BLS server: mock G1/G2 encodings
    // fail BLS validation, so the server answers with a protocol error
    // instead of executing garbage.
    let (addr, _server) = spawn_server::<Bls12>();
    let mut session =
        eqjoin::session_remote::<MockEngine>(SessionConfig::new(1, 2), &addr.to_string()).unwrap();
    use eqjoin::db::{Schema, Table};
    let mut t = Table::new(Schema::new("T", &["k", "a"]));
    t.push_row(vec![Value::Int(1), "x".into()]);
    let err = session
        .create_table(
            &t,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["a".into()],
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, DbError::Protocol(_)),
        "expected a protocol error, got {err:?}"
    );
}

#[test]
fn a_drained_server_fails_its_sessions_typed() {
    // Dropping the handle drains the server: it closes the session's
    // idle connection and the listener. The session's next query must
    // come back as a typed transport error (after the retry policy's
    // reconnect attempts are refused) — not a hang, not a panic.
    let (addr, server) = spawn_server::<MockEngine>();
    let mut session =
        eqjoin::session_remote::<MockEngine>(SessionConfig::new(3, 2), &addr.to_string()).unwrap();
    populate_paper_tables(&mut session);
    assert!(session.execute(PAPER_SERIES[0]).is_ok());
    drop(server);
    match session.execute(PAPER_SERIES[1]) {
        Err(DbError::Transport(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}
