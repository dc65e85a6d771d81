//! Stored ciphertext elements are subgroup-checked at their first
//! preparation, not at replay/load — through both doors this server
//! reads its own bytes by.
//!
//! A journal record and a snapshot body are bytes the server wrote
//! (after validating every element at the wire) and reads back under a
//! checksum; they are decoded with the curve check only, and the walk
//! that prepares an element for its first pairing decides the rest.
//! So a data directory rewritten under valid checksums with an
//! on-curve point outside the order-`r` subgroup **opens**; rows no
//! query selects keep answering; the join that selects the poisoned row
//! gets a typed error before any Miller loop takes the element, every
//! time it is tried; and the worker that refused it keeps serving.
//! Off-curve bytes are refused at load exactly as before, and a
//! network frame is decoded strictly whatever it carries.
//!
//! The op counters and the metrics registry are process-wide, so every
//! test here runs under one lock.

mod outside_subgroup;

use eqjoin::core::SjRowCiphertext;
use eqjoin::db::{
    ClientConfig, DbClient, DbError, EncryptedRow, EncryptedStore, EncryptedTable, JoinOptions,
    JoinQuery, LocalBackend, QueryTokens, RemoteBackend, RemoteConfig, Request, Response,
    RetryPolicy, Schema, ServerApi, Table, TableConfig, Value,
};
use eqjoin::pairing::{ops, Bls12, Engine, MockEngine};
use eqjoind_net::{NetConfig, NetHandle, NetServer, TenantRegistry};
use outside_subgroup::{
    g2_outside_subgroup, g2_point_outside_subgroup, splice, splice_journal, splice_snapshot,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn counter(name: &str, label: Option<(&str, &str)>) -> u64 {
    eqjoin::obs::registry().counter_value(name, label)
}

fn journal_entries(outcome: &str) -> u64 {
    counter(
        "eqjoin_store_journal_entries_total",
        Some(("outcome", outcome)),
    )
}

fn refused_elements() -> u64 {
    counter("eqjoin_store_stored_elements_refused_total", None)
}

fn prepared_rows() -> i64 {
    eqjoin::obs::registry().gauge_value("eqjoin_store_prepared_rows", None)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eqjoin-stored-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn join<E: Engine>(tokens: &QueryTokens<E>) -> Request<E> {
    Request::ExecuteJoin {
        tokens: tokens.clone(),
        options: JoinOptions {
            threads: 1,
            ..JoinOptions::default()
        },
        projection: Default::default(),
    }
}

fn pairs(response: Response) -> Vec<(usize, usize)> {
    match response {
        Response::JoinExecuted { result, .. } => result
            .pairs
            .iter()
            .map(|p| (p.left_row, p.right_row))
            .collect(),
        other => panic!("join failed: {other:?}"),
    }
}

/// `L(k, a)`: rows 0, 1 with `a = x`, row 2 (the one to poison) with
/// `a = y`; `R(k, b)`: two rows.
struct Fixture {
    client: DbClient<Bls12>,
    left: EncryptedTable<Bls12>,
    right: EncryptedTable<Bls12>,
    /// Encoding of one element of `L` row 2, as stored.
    victim: Vec<u8>,
    elements: u64,
}

fn fixture() -> Fixture {
    let cfg = |filter: &str| TableConfig {
        join_column: "k".into(),
        filter_columns: vec![filter.to_owned()],
    };
    let mut client =
        DbClient::<Bls12>::with_config(ClientConfig::new(1, 1).seed(22).prefilter(true));
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    for (k, a) in [(1, "x"), (2, "x"), (1, "y")] {
        left.push_row(vec![Value::Int(k), a.into()]);
    }
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for k in [1, 2] {
        right.push_row(vec![Value::Int(k), "z".into()]);
    }
    let left = client.encrypt_table(&left, cfg("a")).unwrap();
    let right = client.encrypt_table(&right, cfg("b")).unwrap();
    let victim = Bls12::g2_bytes(&left.rows[2].cipher.elements()[1]);
    let elements = left.rows[2].cipher.elements().len() as u64;
    Fixture {
        client,
        left,
        right,
        victim,
        elements,
    }
}

impl Fixture {
    /// `L ⋈ R` over the `L` rows with `a = value`.
    fn tokens(&mut self, value: &str) -> QueryTokens<Bls12> {
        let query = JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec![value.into()]);
        self.client.query_tokens(&query).unwrap()
    }

    fn upload(&self, backend: &dyn ServerApi<Bls12>) {
        for table in [&self.left, &self.right] {
            let response = backend.handle(Request::InsertTable(table.clone()));
            assert!(
                matches!(response, Response::TableInserted { .. }),
                "{response:?}"
            );
        }
    }
}

/// One reactor worker in front of `registry`: if a request took it
/// down, nothing answers the next one (the deadline turns that hang
/// into a failure).
fn one_worker_server<E: Engine>(registry: TenantRegistry<E>) -> (RemoteBackend, NetHandle) {
    let config = NetConfig {
        workers: 1,
        ..NetConfig::default()
    };
    let (addr, server) = NetServer::spawn(Arc::new(registry), config).unwrap();
    let remote = RemoteBackend::connect_with(
        addr,
        RemoteConfig {
            io_timeout: Some(Duration::from_secs(60)),
            retry: RetryPolicy::none(),
        },
    )
    .unwrap();
    (remote, server)
}

/// What a store holding the poisoned `L` row 2 must do, whichever door
/// the row came back through. `vouched` are tokens whose sides the
/// store's decrypt cache answers in full (the snapshot door only).
fn poisoned_row_is_refused_at_first_use(
    backend: &dyn ServerApi<Bls12>,
    fx: &mut Fixture,
    vouched: Option<&QueryTokens<Bls12>>,
) {
    let baseline = prepared_rows();

    // Rows the pre-filter keeps away from the poisoned one answer.
    let clean = fx.tokens("x");
    assert_eq!(pairs(backend.handle(join(&clean))), vec![(0, 0), (1, 1)]);
    let prepared = prepared_rows();
    assert_eq!(prepared - baseline, 4, "L rows 0, 1 and both R rows");

    // A side the decrypt cache answers in full is never paired, hence
    // never prepared, hence touches nothing.
    if let Some(tokens) = vouched {
        let before = ops::snapshot();
        assert_eq!(pairs(backend.handle(join(tokens))), vec![(2, 0)]);
        let delta = ops::snapshot().since(&before);
        assert_eq!((delta.g2_prepares, delta.miller_pairs), (0, 0));
    }

    // The join that selects the row — under fresh tokens, so SJ.Dec has
    // to run — is refused by the row's preparation: the walk ran, no
    // Miller loop did. Twice: the refusal is not cached as "prepared".
    for attempt in 0..2 {
        let tokens = fx.tokens("y");
        let (before, refused) = (ops::snapshot(), refused_elements());
        match backend.handle(join(&tokens)) {
            Response::Error(DbError::Snapshot(msg)) => assert!(
                msg.contains("table L row 2") && msg.contains("subgroup"),
                "{msg}"
            ),
            other => panic!("attempt {attempt}: expected the typed refusal, got {other:?}"),
        }
        let delta = ops::snapshot().since(&before);
        assert_eq!(delta.g2_prepares, fx.elements, "attempt {attempt}");
        assert_eq!((delta.miller_pairs, delta.pairings), (0, 0));
        assert_eq!(refused_elements() - refused, 1);
        assert_eq!(prepared_rows(), prepared, "the cell stays empty");
    }

    // The backend (over TCP: its only worker) goes on serving.
    assert!(matches!(backend.handle(Request::Ping), Response::Pong));
    let clean = fx.tokens("x");
    assert_eq!(pairs(backend.handle(join(&clean))), vec![(0, 0), (1, 1)]);
}

#[test]
fn a_poisoned_snapshot_opens_and_the_row_is_refused_at_first_use() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut fx = fixture();
    let dir = scratch_dir("snapshot");
    let snap = dir.join("store.snap");

    // Write the snapshot honestly — the decrypt cache answering the
    // `a = y` query included — then poison row 2 under a fresh SHA-256.
    let backend = LocalBackend::<Bls12>::with_persistence(&snap, Some(1), None, 0).unwrap();
    fx.upload(&backend);
    let vouched = fx.tokens("y");
    assert_eq!(pairs(backend.handle(join(&vouched))), vec![(2, 0)]);
    backend.flush().unwrap();
    drop(backend);
    let good = std::fs::read(&snap).unwrap();
    let poisoned = splice_snapshot(&good, &fx.victim, &g2_outside_subgroup());
    std::fs::write(&snap, &poisoned).unwrap();

    let before = ops::snapshot();
    let backend = LocalBackend::<Bls12>::with_persistence(&snap, Some(1), None, 0)
        .expect("an on-curve element under a valid checksum opens");
    assert_eq!(ops::snapshot().since(&before).g2_prepares, 0);
    poisoned_row_is_refused_at_first_use(&backend, &mut fx, Some(&vouched));
    drop(backend);

    // The same snapshot behind a one-worker reactor (the clean joins
    // above re-saved the store with their cache entries).
    std::fs::write(&snap, &poisoned).unwrap();
    let registry =
        TenantRegistry::<Bls12>::with_persistence(dir.clone(), Some(1), None, 0, None).unwrap();
    let (remote, _server) = one_worker_server(registry);
    poisoned_row_is_refused_at_first_use(&remote, &mut fx, Some(&vouched));

    // An off-curve splice under a valid checksum is refused at load.
    let mut off_curve = fx.victim.clone();
    *off_curve.last_mut().unwrap() ^= 1;
    std::fs::write(&snap, splice_snapshot(&good, &fx.victim, &off_curve)).unwrap();
    match LocalBackend::<Bls12>::with_persistence(&snap, Some(1), None, 0) {
        Err(DbError::Snapshot(msg)) => assert!(msg.contains("invalid G2 element"), "{msg}"),
        other => panic!(
            "expected a typed snapshot error, got {:?}",
            other.map(|_| "Ok(backend)")
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data directory whose journal is the only durable copy of `L`, `R`.
fn journaled(fx: &Fixture, snap: &Path) -> Vec<u8> {
    let backend = LocalBackend::<Bls12>::with_persistence(snap, Some(1), None, 1 << 20).unwrap();
    fx.upload(&backend);
    drop(backend);
    assert!(!snap.exists());
    std::fs::read(snap.with_extension("journal")).unwrap()
}

#[test]
fn a_poisoned_journal_replays_and_the_row_is_refused_at_first_use() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut fx = fixture();
    let dir = scratch_dir("journal");
    let snap = dir.join("store.snap");
    let journal = snap.with_extension("journal");
    let good = journaled(&fx, &snap);

    std::fs::write(
        &journal,
        splice_journal(&good, &fx.victim, &g2_outside_subgroup()),
    )
    .unwrap();
    let (before, applied) = (ops::snapshot(), journal_entries("applied"));
    let backend = LocalBackend::<Bls12>::with_persistence(&snap, Some(1), None, 1 << 20)
        .expect("an on-curve element under a valid checksum replays");
    assert_eq!(ops::snapshot().since(&before).g2_prepares, 0);
    assert_eq!(journal_entries("applied") - applied, 2);
    assert!(
        snap.exists() && !journal.exists(),
        "replay folds into a snapshot"
    );
    poisoned_row_is_refused_at_first_use(&backend, &mut fx, None);
    drop(backend);

    // An off-curve splice under a valid record checksum: that entry is
    // skipped (its table never appears), the other one applies.
    std::fs::remove_file(&snap).unwrap();
    let mut off_curve = fx.victim.clone();
    *off_curve.last_mut().unwrap() ^= 1;
    std::fs::write(&journal, splice_journal(&good, &fx.victim, &off_curve)).unwrap();
    let (applied, skipped) = (journal_entries("applied"), journal_entries("skipped"));
    let backend = LocalBackend::<Bls12>::with_persistence(&snap, Some(1), None, 1 << 20).unwrap();
    assert_eq!(journal_entries("applied") - applied, 1);
    assert_eq!(journal_entries("skipped") - skipped, 1);
    let server = backend.server();
    assert!(server.store().table("L").is_none() && server.store().table("R").is_some());
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lenient decode is for this server's own storage only: whatever a
/// frame carries, both wire decoders read it strictly — and so does the
/// reactor, which refuses the upload at the door.
#[test]
fn a_network_frame_is_decoded_strictly_whatever_it_carries() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let insert_rows = |rows: Vec<EncryptedRow<Bls12>>| Request::InsertRows {
        table: "L".into(),
        start_row: 3,
        rows,
    };
    let good_row = fx.left.rows[2].clone();
    let mut elements = good_row.cipher.elements().to_vec();
    elements[1] = g2_point_outside_subgroup();
    let mut bad_row = good_row.clone();
    bad_row.cipher = SjRowCiphertext::from_elements(elements);
    // Bare, as a batch element, and under a tenant envelope.
    let frames = |row: &EncryptedRow<Bls12>| {
        [
            insert_rows(vec![row.clone()]),
            Request::Batch(vec![Request::Ping, insert_rows(vec![row.clone()])]),
            Request::WithTenant {
                tenant: "t".into(),
                inner: Box::new(insert_rows(vec![row.clone()])),
            },
        ]
        .map(|request| request.to_bytes())
    };
    assert_eq!(
        frames(&bad_row)[0],
        splice(&frames(&good_row)[0], &fx.victim, &g2_outside_subgroup())
    );
    type Decoder = fn(&[u8]) -> Result<Request<Bls12>, DbError>;
    let decoders: [Decoder; 2] = [Request::from_bytes, Request::from_bytes_deferring_tokens];
    for decode in decoders {
        for (good, bad) in frames(&good_row).iter().zip(frames(&bad_row)) {
            assert!(decode(good).is_ok());
            match decode(&bad) {
                Err(DbError::Protocol(msg)) => assert!(msg.contains("G2"), "{msg}"),
                other => panic!("decoded a poisoned frame: {:?}", other.map(|_| ())),
            }
        }
    }

    // Through a reactor: the poisoned row never reaches the store.
    let (remote, _server) = one_worker_server(TenantRegistry::<Bls12>::new(Some(1), None, None));
    fx.upload(&remote);
    match remote.handle(insert_rows(vec![bad_row])) {
        Response::Error(DbError::Protocol(msg)) => assert!(msg.contains("G2"), "{msg}"),
        other => panic!("the reactor accepted a poisoned upload: {other:?}"),
    }
    let ping = Request::<Bls12>::Ping;
    assert!(matches!(remote.handle(ping), Response::Pong));
}

/// Shapes, on the mock engine: what was written is what is read back
/// (the lenient reader changes no byte), and replay's tally says what
/// became of each record.
#[test]
fn stored_bytes_round_trip_and_replay_is_tallied() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut client =
        DbClient::<MockEngine>::with_config(ClientConfig::new(1, 2).seed(5).prefilter(true));
    let mut t = Table::new(Schema::new("T", &["k", "a"]));
    for i in 0..4 {
        t.push_row(vec![Value::Int(i % 2), "x".into()]);
    }
    let cfg = TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["a".into()],
    };
    let table = client.encrypt_table(&t, cfg).unwrap();
    let (start_row, rows) = client
        .encrypt_rows("T", &[vec![Value::Int(1), "y".into()]])
        .unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();

    let dir = scratch_dir("mock");
    let snap = dir.join("store.snap");
    let open = || LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 20).unwrap();
    let backend = open();
    backend.handle(Request::InsertTable(table));
    backend.handle(Request::InsertRows {
        table: "T".into(),
        start_row,
        rows,
    });
    drop(backend);

    let replays = || {
        eqjoin::obs::registry()
            .histogram("eqjoin_store_journal_replay_seconds")
            .snapshot()
            .count
    };
    let (applied, covered, skipped, replayed) = (
        journal_entries("applied"),
        journal_entries("covered"),
        journal_entries("skipped"),
        replays(),
    );
    let backend = open();
    assert_eq!(journal_entries("applied") - applied, 2);
    assert_eq!(journal_entries("covered"), covered);
    assert_eq!(journal_entries("skipped"), skipped);
    assert_eq!(replays() - replayed, 1);
    assert_eq!(pairs(backend.handle(join(&tokens))).len(), 4 + 9);
    backend.flush().unwrap();
    drop(backend);

    let written = std::fs::read(&snap).unwrap();
    let reloaded = EncryptedStore::<MockEngine>::from_snapshot_bytes(&written).unwrap();
    assert_eq!(reloaded.snapshot_bytes(), written);
    let _ = std::fs::remove_dir_all(&dir);
}
