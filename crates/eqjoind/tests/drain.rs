//! Graceful-drain gate against a **real**, default-configured
//! `eqjoind` process (no flag beyond the harness's engine, listen
//! address and data dir):
//!
//! * SIGTERM mid-series → the server finishes what it admitted,
//!   flushes its snapshot, and exits 0; a warm restart on the same
//!   data dir replays the series with zero fresh `SJ.Dec` and
//!   byte-identical results.
//! * A client `Drain` request pipelined behind other work → every
//!   earlier request is still answered, in order, before the ack and
//!   the exit.
//! * `--help` is not an error: usage on stdout, exit 0.

mod harness;

use eqjoin_db::{
    DbClient, JoinQuery, Request, Response, Schema, ServerApi, Table, TableConfig, Value,
};
use eqjoin_pairing::MockEngine;
use harness::{join_response_bytes, scratch_data_dir, Daemon};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Client-side state for a small join series: encrypted tables plus a
/// closure producing the (cacheable) execute request.
struct Series {
    enc_l: eqjoin_db::EncryptedTable<MockEngine>,
    enc_r: eqjoin_db::EncryptedTable<MockEngine>,
    tokens: eqjoin_db::QueryTokens<MockEngine>,
}

fn series() -> Series {
    let mut client = DbClient::<MockEngine>::new(1, 2, 0xd2a1);
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for i in 0..12i64 {
        left.push_row(vec![Value::Int(i % 4), Value::Str(format!("l{i}"))]);
        right.push_row(vec![Value::Int(i % 3), Value::Str(format!("r{i}"))]);
    }
    let cfg = |col: &str| TableConfig {
        join_column: "k".into(),
        filter_columns: vec![col.to_owned()],
    };
    Series {
        enc_l: client.encrypt_table(&left, cfg("a")).unwrap(),
        enc_r: client.encrypt_table(&right, cfg("b")).unwrap(),
        tokens: client
            .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
            .unwrap(),
    }
}

fn exec(series: &Series) -> Request<MockEngine> {
    Request::ExecuteJoin {
        tokens: series.tokens.clone().into(),
        projection: Default::default(),
    }
}

#[test]
fn sigterm_drains_flushes_and_restarts_warm() {
    let data_dir = scratch_data_dir("drain-sigterm");
    let series = series();

    // ---- first process: upload, warm the cache, SIGTERM ----
    // `--metrics-addr` spawns a helper thread before the reactor runs;
    // it must inherit a blocked SIGTERM or the signal kills the process
    // instead of reaching the signalfd (regression guard).
    let daemon = Daemon::spawn_with(&data_dir, &["--metrics-addr", "127.0.0.1:0"]);
    let warm_bytes;
    {
        let backend = eqjoin_db::RemoteBackend::connect(daemon.addr.as_str()).unwrap();
        let api: &dyn ServerApi<MockEngine> = &backend;
        assert!(matches!(
            api.handle(Request::InsertTable(series.enc_l.clone())),
            Response::TableInserted { .. }
        ));
        assert!(matches!(
            api.handle(Request::InsertTable(series.enc_r.clone())),
            Response::TableInserted { .. }
        ));
        let (_, rows, hits) = join_response_bytes(&api.handle(exec(&series)));
        assert_eq!(rows, 24);
        assert_eq!(hits, 0, "first run is cold");
        let (bytes, rows, hits) = join_response_bytes(&api.handle(exec(&series)));
        assert_eq!(hits as usize, rows, "second run is fully warm");
        warm_bytes = bytes;
    }
    let status = daemon.terminate_and_wait(Duration::from_secs(30));
    assert!(
        status.success(),
        "SIGTERM must drain cleanly (exit 0), got {status:?}"
    );

    // ---- warm restart on the drained data dir ----
    let daemon = Daemon::spawn(&data_dir);
    {
        let backend = eqjoin_db::RemoteBackend::connect(daemon.addr.as_str()).unwrap();
        let api: &dyn ServerApi<MockEngine> = &backend;
        let (bytes, rows, hits) = join_response_bytes(&api.handle(exec(&series)));
        assert_eq!(
            hits as usize, rows,
            "the drained snapshot must restore the decrypt cache: zero fresh SJ.Dec"
        );
        assert_eq!(bytes, warm_bytes, "results byte-identical across the drain");
    }
    daemon.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
}

fn frame(request: &Request<MockEngine>) -> Vec<u8> {
    let payload = request.to_bytes();
    let mut framed = Vec::with_capacity(payload.len() + 4);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&payload);
    framed
}

#[test]
fn drain_request_answers_pipelined_work_before_exiting() {
    let data_dir = scratch_data_dir("drain-request");
    let daemon = Daemon::spawn(&data_dir);

    // One TCP segment carrying three pings and then the drain: the
    // reactor must answer all three before acking the drain, and only
    // then exit.
    let mut stream = TcpStream::connect(daemon.addr.as_str()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut burst = Vec::new();
    for _ in 0..3 {
        burst.extend_from_slice(&frame(&Request::Ping));
    }
    burst.extend_from_slice(&frame(&Request::Drain));
    stream.write_all(&burst).unwrap();

    for i in 0..4 {
        let payload = eqjoin_db::backend::read_frame(&mut stream)
            .unwrap()
            .unwrap_or_else(|| panic!("connection closed before response {i}"));
        match Response::from_bytes(&payload).unwrap() {
            Response::Pong => {}
            other => panic!("response {i}: expected Pong, got {other:?}"),
        }
    }
    drop(stream);
    let status = daemon.wait_exit(Duration::from_secs(30));
    assert!(status.success(), "drain must exit 0, got {status:?}");
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let bin = env!("CARGO_BIN_EXE_eqjoind");
    for flag in ["--help", "-h"] {
        let output = std::process::Command::new(bin).arg(flag).output().unwrap();
        assert!(output.status.success(), "{flag}: {:?}", output.status);
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.starts_with("usage: eqjoind"), "{flag}: {stdout}");
        assert!(output.stderr.is_empty());
    }
    // A flag the daemon does not know stays a usage error.
    let output = std::process::Command::new(bin)
        .arg("--no-such-flag")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
