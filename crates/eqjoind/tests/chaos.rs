//! Chaos gate: every registered failpoint, armed against a **real**
//! `eqjoind` process (fault plans ship via `EQJOIN_FAILPOINTS`) or
//! in-process against the client transport, must leave the system in
//! one of exactly two states per operation — success, or a typed
//! [`DbError`] — never a hang, a panic, or a corrupt store. The
//! SIGKILL-mid-save scenario additionally proves the journal + tmp +
//! rename protocol: a process aborted between the snapshot tmp write
//! and the rename restarts into a store that replays the journaled
//! intent and serves the mutation's effects.
//!
//! Only compiled with `--features failpoints`; the tier-1 build never
//! pays for any of this.
#![cfg(feature = "failpoints")]

mod harness;

use eqjoin_db::backend::{RemoteConfig, RetryPolicy};
use eqjoin_db::{
    DbClient, DbError, JoinQuery, RemoteBackend, Request, Response, Schema, ServerApi, Table,
    TableConfig, Value,
};
use eqjoin_pairing::MockEngine;
use harness::{join_response_bytes, scratch_data_dir, Daemon};
use std::time::Duration;

/// Per-socket-operation deadline for every chaos client: a faulted
/// server may stall, but the client must type the failure out, not
/// hang the suite.
const CHAOS_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The failpoint registry is process-global and this binary's own
/// transport evaluates the `remote::*` sites, so chaos tests must not
/// overlap — one arming a client fault would bleed into another's
/// workload. Every test holds this for its whole body.
static CHAOS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_backend(addr: &str) -> RemoteBackend {
    RemoteBackend::connect_with(
        addr,
        RemoteConfig {
            io_timeout: Some(CHAOS_IO_TIMEOUT),
            retry: RetryPolicy::default(),
        },
    )
    .expect("chaos daemon accepts connections")
}

/// A deterministic client + table pair every scenario shares.
fn client() -> (DbClient<MockEngine>, Table, Table) {
    let client = DbClient::<MockEngine>::new(1, 2, 0xc4a05);
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for i in 0..10i64 {
        left.push_row(vec![Value::Int(i % 4), Value::Str(format!("l{i}"))]);
        right.push_row(vec![Value::Int(i % 4), Value::Str(format!("r{i}"))]);
    }
    (client, left, right)
}

fn cfg(col: &str) -> TableConfig {
    TableConfig {
        join_column: "k".into(),
        filter_columns: vec![col.to_owned()],
    }
}

/// Upload both tables and run the join twice over one connection.
/// Every operation must come back as SOME `Response` — the faulted
/// path answers `Response::Error(typed)`, never hangs (the transport
/// deadline is the backstop) and never kills this process.
fn workload(addr: &str) -> Vec<Response> {
    let (mut client, left, right) = client();
    let enc_l = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_r = client.encrypt_table(&right, cfg("b")).unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    let backend = chaos_backend(addr);
    let api: &dyn ServerApi<MockEngine> = &backend;
    let mut out = Vec::new();
    out.push(api.handle(Request::InsertTable(enc_l)));
    out.push(api.handle(Request::InsertTable(enc_r)));
    for _ in 0..2 {
        out.push(api.handle(Request::ExecuteJoin {
            tokens: tokens.clone().into(),
            projection: Default::default(),
        }));
    }
    out
}

fn all_ok(responses: &[Response]) -> bool {
    responses.iter().all(|r| !matches!(r, Response::Error(_)))
}

/// One-shot server-side faults against the default daemon: the faulted
/// operation fails typed (or is transparently retried), the NEXT full
/// workload on the same daemon succeeds — the failpoint's shot budget
/// is spent and nothing was corrupted or wedged.
#[test]
fn every_server_failpoint_degrades_to_a_typed_error_then_recovers() {
    let _guard = chaos_guard();
    let scenarios = [
        "local::flush=1*return-error",
        "local::journal::after_append=1*return-error",
        "store::journal::compact=1*return-error",
        "store::save::after_tmp_write=1*return-error",
        "store::save::after_rename=1*return-error",
        "reactor::read=1*drop-conn",
        "reactor::read=1*return-error",
        "reactor::write=1*partial-write(3)",
        "reactor::write=1*drop-conn",
        "reactor::write=1*delay(100)",
    ];
    for plan in scenarios {
        let data_dir = scratch_data_dir("chaos-matrix");
        let daemon = Daemon::spawn_with_env(&data_dir, &[], &[("EQJOIN_FAILPOINTS", plan)]);

        // Faulted pass: every operation completes and is typed. (Some
        // may even succeed — an idempotent join rides the retry path.)
        let faulted = workload(&daemon.addr);
        assert_eq!(faulted.len(), 4, "{plan}: every operation must answer");

        // Recovery pass: the shot budget is spent, so a full fresh
        // workload must now succeed end-to-end on the SAME daemon.
        let recovered = workload(&daemon.addr);
        assert!(
            all_ok(&recovered),
            "{plan}: daemon must fully recover once the fault clears, got {recovered:?}"
        );

        daemon.kill();
        let _ = std::fs::remove_dir_all(&data_dir);
    }
}

/// Client-side transport failpoints, armed in-process: a dropped
/// connection mid-exchange is retried transparently for idempotent
/// requests, surfaces typed for mutations, and a failed connect types
/// out instead of wedging. All in one test — the registry is
/// process-global.
#[test]
fn client_failpoints_are_retried_or_typed() {
    let _guard = chaos_guard();
    let data_dir = scratch_data_dir("chaos-client");
    let daemon = Daemon::spawn(&data_dir);

    // Idempotent request + dropped send: retried transparently.
    eqjoin_failpoint::clear();
    eqjoin_failpoint::configure("remote::send", "1*drop-conn").unwrap();
    let backend = chaos_backend(&daemon.addr);
    let api: &dyn ServerApi<MockEngine> = &backend;
    assert!(matches!(api.handle(Request::Ping), Response::Pong));
    let stats = api.transport_stats();
    assert_eq!(stats.retries, 1, "the dropped exchange was retried");
    assert_eq!(stats.gave_up, 0);

    // Mutation + dropped reply: typed error, never silently replayed.
    let (mut client, left, _right) = client();
    let enc_l = client.encrypt_table(&left, cfg("a")).unwrap();
    eqjoin_failpoint::configure("remote::recv", "1*drop-conn").unwrap();
    match api.handle(Request::InsertTable(enc_l.clone())) {
        Response::Error(DbError::Transport(_)) => {}
        other => panic!("mutation with a lost reply must fail typed, got {other:?}"),
    }
    assert_eq!(api.transport_stats().gave_up, 1);
    // The same mutation, re-issued deliberately, goes through.
    assert!(matches!(
        api.handle(Request::InsertTable(enc_l)),
        Response::TableInserted { .. }
    ));

    // Failed connect: typed, and the next connect succeeds.
    eqjoin_failpoint::configure("remote::connect", "1*return-error").unwrap();
    match RemoteBackend::connect(daemon.addr.as_str()) {
        Err(DbError::Transport(_)) => {}
        Ok(_) => panic!("connect must honor the armed failpoint"),
        Err(other) => panic!("connect failure must be a transport error, got {other:?}"),
    }
    assert!(RemoteBackend::connect(daemon.addr.as_str()).is_ok());

    eqjoin_failpoint::clear();
    daemon.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A fault plan that fails the startup snapshot load: the daemon must
/// refuse to serve (exit non-zero with the typed error on stderr)
/// rather than come up over a store it could not read.
#[test]
fn failed_snapshot_load_refuses_startup() {
    let _guard = chaos_guard();
    let data_dir = scratch_data_dir("chaos-load");
    // Seed a real snapshot first.
    let daemon = Daemon::spawn(&data_dir);
    assert!(all_ok(&workload(&daemon.addr)));
    daemon.terminate_and_wait(Duration::from_secs(10));

    let (status, stderr) = Daemon::spawn_expecting_exit(
        &data_dir,
        &[],
        &[("EQJOIN_FAILPOINTS", "store::load=return-error")],
        Duration::from_secs(10),
    );
    assert!(!status.success(), "a failed load must not serve");
    assert!(
        stderr.contains("failpoint store::load"),
        "stderr carries the typed snapshot error, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// The crash-consistency gate: SIGKILL (via the `abort` action — no
/// unwinding, no destructors) between the snapshot tmp write and the
/// rename. On restart the store must replay the journaled intent and
/// serve the mutation's effects; no `.tmp` or `.journal` debris
/// survives the recovery flush.
#[test]
fn sigkill_mid_save_restarts_consistent_via_journal_replay() {
    let _guard = chaos_guard();
    let data_dir = scratch_data_dir("chaos-sigkill");
    let (mut client, left, right) = client();
    let enc_l = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_r = client.encrypt_table(&right, cfg("b")).unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    let exec = || Request::<MockEngine>::ExecuteJoin {
        tokens: tokens.clone().into(),
        projection: Default::default(),
    };

    // ---- healthy first process: upload, baseline query, clean kill ----
    let baseline_pairs;
    {
        let daemon = Daemon::spawn(&data_dir);
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        assert!(matches!(
            api.handle(Request::InsertTable(enc_l)),
            Response::TableInserted { .. }
        ));
        assert!(matches!(
            api.handle(Request::InsertTable(enc_r)),
            Response::TableInserted { .. }
        ));
        let (bytes, _, _) = join_response_bytes(&api.handle(exec()));
        baseline_pairs = bytes;
        daemon.kill();
    }

    // ---- faulted process: the save aborts after the tmp write ----
    // The InsertRows intent hits the journal and the in-memory store,
    // then the snapshot flush dies mid-protocol: tmp written and
    // fsynced, rename never issued. The client sees a typed transport
    // failure (the process is gone), NOT an ack.
    let (start_row, new_rows) = client
        .encrypt_rows("L", &[vec![Value::Int(1), Value::Str("l-new".into())]])
        .unwrap();
    {
        let daemon = Daemon::spawn_with_env(
            &data_dir,
            &[],
            &[("EQJOIN_FAILPOINTS", "store::save::after_tmp_write=abort")],
        );
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        match api.handle(Request::InsertRows {
            table: "L".into(),
            start_row,
            rows: new_rows.clone(),
        }) {
            Response::Error(DbError::Transport(_) | DbError::Timeout(_)) => {}
            other => panic!("a crash mid-save must surface as a transport loss, got {other:?}"),
        }
        daemon.kill(); // already dead; reap
    }
    assert!(
        data_dir.join("store.journal").exists(),
        "the journaled intent must survive the crash"
    );
    assert!(
        data_dir.join("store.tmp").exists(),
        "the crash left the torn snapshot tmp behind"
    );

    // ---- recovery: replay, then serve the mutation's effects ----
    {
        let daemon = Daemon::spawn(&data_dir);
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        let (bytes, _, _) = join_response_bytes(&api.handle(exec()));
        assert_ne!(
            bytes, baseline_pairs,
            "the journaled InsertRows must be visible after replay"
        );
        assert!(
            bytes.len() > baseline_pairs.len(),
            "the replayed insert adds join pairs, never loses any"
        );
        daemon.terminate_and_wait(Duration::from_secs(10));
    }
    assert!(
        !data_dir.join("store.journal").exists(),
        "recovery folds the journal into a fresh snapshot"
    );
    assert!(
        !data_dir.join("store.tmp").exists(),
        "recovery sweeps the torn tmp"
    );
    assert!(
        data_dir.join("store.snap").exists(),
        "the folded snapshot is durable"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// The other half of the compaction window: SIGKILL **between** the
/// snapshot rename and the journal truncation. The snapshot already
/// covers the journaled intent, so the restart replays the stale
/// journal over a *newer* snapshot — every entry must collide into a
/// no-op, never double-apply.
#[test]
fn sigkill_between_snapshot_and_journal_truncate_replays_idempotently() {
    let _guard = chaos_guard();
    let data_dir = scratch_data_dir("chaos-compact");
    let (mut client, left, right) = client();
    let enc_l = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_r = client.encrypt_table(&right, cfg("b")).unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    let exec = || Request::<MockEngine>::ExecuteJoin {
        tokens: tokens.clone().into(),
        projection: Default::default(),
    };

    // ---- healthy first process: upload, baseline query, clean kill ----
    let baseline_pairs;
    let baseline_count;
    {
        let daemon = Daemon::spawn(&data_dir);
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        assert!(matches!(
            api.handle(Request::InsertTable(enc_l)),
            Response::TableInserted { .. }
        ));
        assert!(matches!(
            api.handle(Request::InsertTable(enc_r)),
            Response::TableInserted { .. }
        ));
        let response = api.handle(exec());
        let (bytes, _, _) = join_response_bytes(&response);
        baseline_pairs = bytes;
        let Response::JoinExecuted { observation, .. } = response else {
            unreachable!("join_response_bytes verified the variant");
        };
        baseline_count = observation.pairs().len();
        daemon.kill();
    }

    // ---- faulted process: abort after the snapshot is durable ----
    // The InsertRows intent journals, applies, and the snapshot rename
    // completes — then the process dies before truncating the journal.
    let (start_row, new_rows) = client
        .encrypt_rows("L", &[vec![Value::Int(1), Value::Str("l-new".into())]])
        .unwrap();
    {
        let daemon = Daemon::spawn_with_env(
            &data_dir,
            &[],
            &[("EQJOIN_FAILPOINTS", "store::journal::compact=abort")],
        );
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        match api.handle(Request::InsertRows {
            table: "L".into(),
            start_row,
            rows: new_rows.clone(),
        }) {
            Response::Error(DbError::Transport(_) | DbError::Timeout(_)) => {}
            other => {
                panic!("a crash mid-compaction must surface as a transport loss, got {other:?}")
            }
        }
        daemon.kill(); // already dead; reap
    }
    assert!(
        data_dir.join("store.snap").exists(),
        "the snapshot rename completed before the crash"
    );
    assert!(
        data_dir.join("store.journal").exists(),
        "the stale journal survives the crash window"
    );

    // ---- recovery: the stale journal replays as a no-op ----
    {
        let daemon = Daemon::spawn(&data_dir);
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        let response = api.handle(exec());
        let (bytes, _, _) = join_response_bytes(&response);
        assert_ne!(
            bytes, baseline_pairs,
            "the mutation the snapshot captured must be visible"
        );
        // k=1 gains one left row: its 3 right matches appear exactly
        // once — a replay that double-applied would add 6, one that
        // dropped the intent would add 0.
        let Response::JoinExecuted { observation, .. } = response else {
            unreachable!("join_response_bytes verified the variant");
        };
        assert_eq!(
            observation.pairs().len(),
            baseline_count + 3,
            "the stale journal must replay idempotently (exactly-once effects)"
        );
        daemon.terminate_and_wait(Duration::from_secs(10));
    }
    assert!(
        !data_dir.join("store.journal").exists(),
        "recovery drops the stale journal"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// O(delta) persistence end-to-end through the daemon flag: with
/// `--compaction-threshold` armed, mutations leave only journal deltas
/// on disk (no snapshot rewrite), and the graceful drain compacts so
/// the next start is warm and journal-free.
#[test]
fn compaction_threshold_daemon_defers_then_drain_compacts() {
    let _guard = chaos_guard();
    let data_dir = scratch_data_dir("chaos-odelta");
    let (mut client, left, right) = client();
    let enc_l = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_r = client.encrypt_table(&right, cfg("b")).unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();

    {
        let daemon = Daemon::spawn_with(&data_dir, &["--compaction-threshold", "1073741824"]);
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        assert!(matches!(
            api.handle(Request::InsertTable(enc_l)),
            Response::TableInserted { .. }
        ));
        assert!(matches!(
            api.handle(Request::InsertTable(enc_r)),
            Response::TableInserted { .. }
        ));
        assert!(
            data_dir.join("store.journal").exists(),
            "sub-threshold mutations persist as journal deltas"
        );
        assert!(
            !data_dir.join("store.snap").exists(),
            "the snapshot rewrite is deferred below the threshold"
        );
        daemon.terminate_and_wait(Duration::from_secs(10));
    }
    assert!(
        data_dir.join("store.snap").exists(),
        "graceful drain compacts to a full snapshot"
    );
    assert!(
        !data_dir.join("store.journal").exists(),
        "drain leaves no journal behind"
    );

    // Warm restart off the compacted snapshot alone.
    {
        let daemon = Daemon::spawn(&data_dir);
        let backend = chaos_backend(&daemon.addr);
        let api: &dyn ServerApi<MockEngine> = &backend;
        match api.handle(Request::ExecuteJoin {
            tokens: tokens.into(),
            projection: Default::default(),
        }) {
            Response::JoinExecuted { observation, .. } => {
                assert!(
                    !observation.pairs().is_empty(),
                    "compacted snapshot restores the store"
                )
            }
            other => panic!("join over compacted snapshot failed: {other:?}"),
        }
        daemon.kill();
    }
    let _ = std::fs::remove_dir_all(&data_dir);
}
