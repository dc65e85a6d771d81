//! Warm-restart gate: run a query series against a **real** `eqjoind`
//! process started with `--data-dir`, kill the process, start a fresh
//! one on the same directory, and replay the series. The restarted
//! server must serve every repeated row from its restored decrypt
//! cache — zero fresh `SJ.Dec` (hence zero fresh Miller loops) — and
//! return byte-identical results.

mod harness;

use eqjoin_db::{DbClient, JoinQuery, Request, Schema, ServerApi, Table, TableConfig, Value};
use eqjoin_pairing::MockEngine;
use harness::{join_response_bytes, scratch_data_dir, Daemon};

#[test]
fn killed_and_restarted_eqjoind_resumes_the_series_warm() {
    let data_dir = scratch_data_dir("warm-restart");

    let mut client = DbClient::<MockEngine>::new(1, 2, 0xa11ce);
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
    let enc_l = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_r = client.encrypt_table(&right, cfg("b")).unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    let exec = || Request::<MockEngine>::ExecuteJoin {
        tokens: tokens.clone().into(),
        projection: Default::default(),
    };

    // ---- first server process: upload, run the query twice ----
    let daemon = Daemon::spawn(&data_dir);
    let warm_bytes;
    {
        let backend = eqjoin_db::RemoteBackend::connect(daemon.addr.as_str()).unwrap();
        let api: &dyn ServerApi<MockEngine> = &backend;
        assert!(matches!(
            api.handle(Request::InsertTable(enc_l)),
            eqjoin_db::Response::TableInserted { .. }
        ));
        assert!(matches!(
            api.handle(Request::InsertTable(enc_r)),
            eqjoin_db::Response::TableInserted { .. }
        ));
        let (_, rows, hits) = join_response_bytes(&api.handle(exec()));
        assert_eq!(rows, 24);
        assert_eq!(hits, 0, "first run is cold");
        let (bytes, rows, hits) = join_response_bytes(&api.handle(exec()));
        assert_eq!(hits as usize, rows, "second run is fully warm");
        warm_bytes = bytes;
    }

    // ---- kill the process, restart on the same data dir ----
    daemon.kill();
    let daemon = Daemon::spawn(&data_dir);
    {
        let backend = eqjoin_db::RemoteBackend::connect(daemon.addr.as_str()).unwrap();
        let api: &dyn ServerApi<MockEngine> = &backend;
        let (bytes, rows, hits) = join_response_bytes(&api.handle(exec()));
        assert_eq!(
            hits as usize, rows,
            "restarted server must run ZERO fresh SJ.Dec (no fresh Miller loops) \
             for the repeated join"
        );
        assert_eq!(
            bytes, warm_bytes,
            "results byte-identical across the restart"
        );
    }
    daemon.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
}
