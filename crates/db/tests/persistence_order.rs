//! Race tests for the persistent backend's one lock order: a
//! mutation's journal record and its store change happen in one hold
//! of the write lock, and snapshot writes never overlap. Each race test
//! holds a window open with a `delay` failpoint, sends a second request
//! once the first thread is inside it, and then checks the disk against
//! the store that served. One more tears a journal append with
//! `partial-write` and checks that the intents after it survive.
//!
//! Run with `cargo test -p eqjoin-db --features failpoints --test
//! persistence_order`; without the feature this file is empty.

#![cfg(feature = "failpoints")]

use eqjoin_db::{
    DbClient, EncryptedTable, JoinQuery, LocalBackend, Request, Response, Schema, ServerApi, Table,
    TableConfig, Value,
};
use eqjoin_pairing::MockEngine;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The failpoint registry is process state: one test at a time, each
/// starting from a disarmed registry.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    eqjoin_failpoint::clear();
    guard
}

/// Block until the named failpoint has fired: the thread that hit it
/// is now inside the window its `delay` holds open.
fn wait_for(failpoint: &str) {
    while eqjoin_failpoint::hits(failpoint) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eqjoin-persistence-order-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// O(delta) persistence: every mutation below stays under the
/// threshold, so only an explicit flush writes a snapshot.
fn open(snap: &Path) -> LocalBackend<MockEngine> {
    LocalBackend::with_persistence(snap, None, None, 1 << 20).unwrap()
}

fn table_t(client: &mut DbClient<MockEngine>) -> EncryptedTable<MockEngine> {
    let mut t = Table::new(Schema::new("T", &["k", "a"]));
    for i in 0..4i64 {
        t.push_row(vec![Value::Int(i % 2), Value::Str(format!("x{i}"))]);
    }
    let config = TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["a".into()],
    };
    client.encrypt_table(&t, config).unwrap()
}

fn insert_rows(client: &mut DbClient<MockEngine>) -> Request<MockEngine> {
    let (start_row, rows) = client
        .encrypt_rows("T", &[vec![Value::Int(1), "y".into()]])
        .unwrap();
    Request::InsertRows {
        table: "T".into(),
        start_row,
        rows,
    }
}

fn acked(response: Response) {
    assert!(!matches!(response, Response::Error(_)), "{response:?}");
}

/// Drop the backend without a flush (the crash), reopen, and compare
/// the replayed store with the one that served.
fn assert_reopens_as_served(backend: LocalBackend<MockEngine>, snap: &Path) {
    let served = backend.server().store().snapshot_bytes();
    drop(backend);
    let reopened = open(snap).server().store().snapshot_bytes();
    assert!(
        reopened == served,
        "an acknowledged mutation did not survive the restart: served {} bytes, reopened {}",
        served.len(),
        reopened.len()
    );
}

#[test]
fn a_flush_cannot_truncate_an_intent_before_it_applies() {
    let _serial = serial();
    let mut client = DbClient::<MockEngine>::new(1, 2, 31);
    let dir = scratch("lost-intent");
    let snap = dir.join("store.snap");
    let backend = open(&snap);
    acked(backend.handle(Request::InsertTable(table_t(&mut client))));
    let insert = insert_rows(&mut client);

    // The InsertRows intent is on disk and not applied yet when the
    // flush arrives.
    eqjoin_failpoint::configure("local::journal::after_append", "1*delay(400)").unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| acked(backend.handle(insert)));
        wait_for("local::journal::after_append");
        backend.flush().unwrap();
    });
    assert_reopens_as_served(backend, &snap);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutations_apply_in_journal_order() {
    let _serial = serial();
    let mut client = DbClient::<MockEngine>::new(1, 2, 37);
    let dir = scratch("reorder");
    let snap = dir.join("store.snap");
    let backend = open(&snap);
    acked(backend.handle(Request::InsertTable(table_t(&mut client))));
    let insert = insert_rows(&mut client);
    // Same shape, fresh ciphertexts: the InsertRows chunk fits either.
    let replacement = table_t(&mut client);

    // InsertRows is journaled first; the InsertTable that replaces T
    // arrives while it waits to apply.
    eqjoin_failpoint::configure("local::journal::after_append", "1*delay(400)").unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| acked(backend.handle(insert)));
        wait_for("local::journal::after_append");
        acked(backend.handle(Request::InsertTable(replacement)));
    });
    assert_reopens_as_served(backend, &snap);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_writes_never_overlap() {
    let _serial = serial();
    let mut client = DbClient::<MockEngine>::new(1, 2, 41);
    let dir = scratch("overlap");
    let snap = dir.join("store.snap");
    let backend = open(&snap);
    acked(backend.handle(Request::InsertTable(table_t(&mut client))));
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();

    // The first save stalls between writing `store.tmp` and renaming
    // it; a cold query dirties the decrypt cache and flushes meanwhile.
    eqjoin_failpoint::configure("store::save::after_tmp_write", "1*delay(300)").unwrap();
    let (first, second) = std::thread::scope(|scope| {
        let first = scope.spawn(|| backend.flush());
        wait_for("store::save::after_tmp_write");
        let second = scope.spawn(|| {
            acked(backend.handle(Request::ExecuteJoin {
                tokens: tokens.into(),
                projection: Default::default(),
            }));
            backend.flush()
        });
        (first.join().unwrap(), second.join().unwrap())
    });
    first.expect("the stalled flush");
    second.expect("the flush behind it");
    assert!(
        std::fs::read(&snap).unwrap() == backend.server().store().snapshot_bytes(),
        "the snapshot on disk is not the live store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_refused_append_strands_no_later_intent() {
    let _serial = serial();
    let mut client = DbClient::<MockEngine>::new(1, 2, 43);
    let dir = scratch("torn-append");
    let snap = dir.join("store.snap");
    let backend = open(&snap);
    acked(backend.handle(Request::InsertTable(table_t(&mut client))));

    // The append tears after 5 bytes: the mutation is refused, and its
    // head must not stay in the journal in front of the next record.
    eqjoin_failpoint::configure("local::journal::append", "1*partial-write(5)").unwrap();
    let refused = backend.handle(insert_rows(&mut client));
    assert!(matches!(refused, Response::Error(_)), "{refused:?}");
    eqjoin_failpoint::remove("local::journal::append");
    acked(backend.handle(insert_rows(&mut client)));
    assert_reopens_as_served(backend, &snap);
    let _ = std::fs::remove_dir_all(&dir);
}
