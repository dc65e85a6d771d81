//! Ciphertext elements are subgroup-checked at their first preparation,
//! not at decode — through all three doors a row enters the store by:
//! an upload frame, a journal record and a snapshot body.
//!
//! Every door decodes elements with the curve check only, and the walk
//! that prepares an element for its first pairing decides the rest. So
//! an upload carrying an on-curve point outside the order-`r` subgroup
//! is **acked**, and a data directory rewritten under valid checksums
//! with one **opens**; rows no query selects keep answering; the join
//! that selects the poisoned row gets a typed error before any Miller
//! loop takes the element, every time it is tried; and the worker that
//! refused it keeps serving. Off-curve bytes are refused at load
//! (`tests/subgroup_rejection.rs` has the same refusals for frames).
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
    g2_outside_subgroup, g2_point_outside_subgroup, splice_journal, splice_snapshot,
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

/// The request kinds that upload ciphertexts.
#[derive(Clone, Copy, Debug)]
enum Upload {
    InsertTable,
    InsertRows,
    CopyRows,
}

/// How an upload — and every request after it — is framed.
#[derive(Clone, Copy, Debug)]
enum Framing {
    Bare,
    /// Behind a `Ping`, as the second element of a batch.
    Batch,
    /// Under a `WithTenant` envelope: the tenant's own store.
    Envelope,
}

impl Framing {
    fn wrap(self, request: Request<Bls12>) -> Request<Bls12> {
        match self {
            Framing::Bare => request,
            Framing::Batch => Request::Batch(vec![Request::Ping, request]),
            Framing::Envelope => Request::WithTenant {
                tenant: "t".into(),
                inner: Box::new(request),
            },
        }
    }

    fn unwrap(self, response: Response) -> Response {
        match (self, response) {
            (Framing::Batch, Response::Batch(mut slots)) => {
                assert_eq!(slots.len(), 2, "a batch answers slot for slot");
                assert!(matches!(slots[0], Response::Pong), "{:?}", slots[0]);
                slots.pop().unwrap()
            }
            (_, response) => response,
        }
    }
}

/// A server as a client sees it through one framing. In process
/// (`decode`), every request is encoded and read back with
/// `Request::from_bytes`, the decoder the reactor runs.
struct Framed<'a> {
    server: &'a dyn ServerApi<Bls12>,
    framing: Framing,
    decode: bool,
}

impl ServerApi<Bls12> for Framed<'_> {
    fn handle(&self, request: Request<Bls12>) -> Response {
        let request = self.framing.wrap(request);
        let response = if self.decode {
            match Request::from_bytes(&request.to_bytes()) {
                Ok(request) => self.server.handle(request),
                Err(e) => Response::Error(e),
            }
        } else {
            self.server.handle(request)
        };
        self.framing.unwrap(response)
    }
}

impl Fixture {
    /// The requests that store `L` and `R` through `kind`, `L` row 2
    /// carrying an on-curve element outside the subgroup.
    fn poisoned_uploads(&self, kind: Upload) -> Vec<Request<Bls12>> {
        let mut left = self.left.clone();
        let mut elements = left.rows[2].cipher.elements().to_vec();
        elements[1] = g2_point_outside_subgroup();
        left.rows[2].cipher = SjRowCiphertext::from_elements(elements);
        let copy = |start_row: u64, rows: &[EncryptedRow<Bls12>]| Request::CopyRows {
            table: left.name.clone(),
            join_column: left.join_column.clone(),
            filter_columns: left.filter_columns.clone(),
            start_row,
            rows: rows.to_vec(),
        };
        let mut uploads = match kind {
            Upload::InsertTable => vec![Request::InsertTable(left.clone())],
            Upload::InsertRows => {
                let poisoned = left.rows.split_off(2);
                vec![
                    Request::InsertTable(left.clone()),
                    Request::InsertRows {
                        table: left.name.clone(),
                        start_row: 2,
                        rows: poisoned,
                    },
                ]
            }
            Upload::CopyRows => vec![copy(0, &left.rows[..2]), copy(2, &left.rows[2..])],
        };
        uploads.push(Request::InsertTable(self.right.clone()));
        uploads
    }
}

/// Either request decoder, either door: a poisoned upload is acked —
/// no subgroup check ran at decode — and the row it carried is refused
/// by its first use, exactly like a poisoned journal or snapshot; so is
/// it after a restart replays the journal the uploads wrote.
#[test]
fn a_poisoned_upload_is_acked_and_the_row_is_refused_at_first_use() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut fx = fixture();
    let open = |dir: &Path| {
        TenantRegistry::<Bls12>::with_persistence(dir.to_owned(), Some(1), None, 1 << 20, None)
            .unwrap()
    };
    for kind in [Upload::InsertTable, Upload::InsertRows, Upload::CopyRows] {
        for framing in [Framing::Bare, Framing::Batch, Framing::Envelope] {
            let uploads = fx.poisoned_uploads(kind);
            let upload = |server: &Framed<'_>| {
                for request in uploads.clone() {
                    let response = server.handle(request);
                    assert!(
                        matches!(
                            response,
                            Response::TableInserted { .. }
                                | Response::RowsInserted { .. }
                                | Response::CopyRows { .. }
                        ),
                        "{kind:?} {framing:?}: {response:?}"
                    );
                }
            };

            // In process, through the reactor's decoder.
            let dir = scratch_dir(&format!("upload-{kind:?}-{framing:?}"));
            let registry = open(&dir);
            let local = Framed {
                server: &registry,
                framing,
                decode: true,
            };
            upload(&local);
            poisoned_row_is_refused_at_first_use(&local, &mut fx, None);
            drop(registry);

            // The journal is the data directory's only copy of the
            // uploads: a restart replays it, preparing nothing.
            let (before, applied) = (ops::snapshot(), journal_entries("applied"));
            let registry = open(&dir);
            let local = Framed {
                server: &registry,
                framing,
                decode: true,
            };
            assert!(matches!(local.handle(Request::Ping), Response::Pong));
            assert_eq!(ops::snapshot().since(&before).g2_prepares, 0);
            assert_eq!(
                journal_entries("applied") - applied,
                uploads.len() as u64,
                "{kind:?} {framing:?}"
            );
            poisoned_row_is_refused_at_first_use(&local, &mut fx, None);
            drop(registry);
            let _ = std::fs::remove_dir_all(&dir);

            // Over TCP, into a one-worker reactor.
            let (client, _server) =
                one_worker_server(TenantRegistry::<Bls12>::new(Some(1), None, None));
            let remote = Framed {
                server: &client,
                framing,
                decode: false,
            };
            upload(&remote);
            poisoned_row_is_refused_at_first_use(&remote, &mut fx, None);
        }
    }
}

/// Shapes, on the mock engine: what was written is what is read back
/// (the curve-only reader changes no byte), and replay's tally says what
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
