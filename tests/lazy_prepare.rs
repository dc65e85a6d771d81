//! The preparation contract: a stored row's pairing state
//! (`G2Prepared` line coefficients) is computed by the first `SJ.Dec`
//! that selects the row and by nothing else — not ingest, not journal
//! replay, not snapshot load — is computed at most once, is dropped
//! with the row, and never changes a result, an observation, a leakage
//! report or a snapshot byte.
//!
//! Checked by the process-wide pairing op counters and the
//! `eqjoin_store_prepared_rows` gauge, so every test here runs under
//! one lock.

use eqjoin::db::{
    ClientConfig, DbClient, JoinOptions, JoinQuery, LocalBackend, QueryPlan, QueryTokens, Request,
    Response, Schema, ServerApi, Session, SessionConfig, Table, TableConfig, Value,
};
use eqjoin::pairing::{ops, Bls12, Engine, MockEngine};
use proptest::prelude::*;
use std::sync::{Arc, Barrier, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

/// Rows currently holding prepared state, process-wide.
fn prepared_rows() -> i64 {
    eqjoin::obs::registry().gauge_value("eqjoin_store_prepared_rows", None)
}

fn cfg(filter: &str) -> TableConfig {
    TableConfig {
        join_column: "k".into(),
        filter_columns: vec![filter.to_owned()],
    }
}

fn join<E: Engine>(tokens: &QueryTokens<E>) -> Request<E> {
    Request::ExecuteJoin {
        tokens: tokens.clone().into(),
        projection: Default::default(),
    }
}

/// The matched pairs of one join the backend's server runs under
/// `options` — a direct call, for passes no wire request can ask for
/// (decrypt cache off).
fn pairs_under<E: Engine>(
    backend: &LocalBackend<E>,
    tokens: &QueryTokens<E>,
    options: JoinOptions,
) -> Vec<(usize, usize)> {
    let (_, observation) = backend.server().execute_join(tokens, &options).unwrap();
    observation.pairs()
}

/// Execute a join and return `(matched pairs, rows SJ.Dec considered)`.
fn run<E: Engine>(backend: &LocalBackend<E>, request: Request<E>) -> (Vec<(usize, usize)>, u64) {
    match backend.handle(request) {
        Response::JoinExecuted {
            result,
            observation,
        } => (observation.pairs(), result.stats.rows_decrypted as u64),
        other => panic!("join failed: {other:?}"),
    }
}

fn applied<E: Engine>(backend: &LocalBackend<E>, request: Request<E>) {
    let response = backend.handle(request);
    assert!(!matches!(response, Response::Error(_)), "{response:?}");
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eqjoin-lazy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// (a) Ingest, journal replay and snapshot load prepare nothing; the
/// first query prepares exactly the rows it decrypts; repeats and later
/// queries over those rows prepare nothing; after an insert only the
/// new rows a query selects are prepared; a deleted row's state goes.
#[test]
fn rows_are_prepared_by_the_first_query_that_selects_them_and_by_nothing_else() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut client =
        DbClient::<Bls12>::with_config(ClientConfig::new(1, 1).seed(3).prefilter(true));
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for i in 0..4i64 {
        left.push_row(vec![
            Value::Int(i % 2),
            if i < 2 { "x" } else { "y" }.into(),
        ]);
    }
    for i in 0..3i64 {
        right.push_row(vec![Value::Int(i % 2), "z".into()]);
    }
    let enc_left = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_right = client.encrypt_table(&right, cfg("b")).unwrap();
    let elements = enc_left.rows[0].cipher.elements().len() as u64;
    let (start_row, more) = client
        .encrypt_rows(
            "L",
            &[
                vec![Value::Int(1), "x".into()],
                vec![Value::Int(0), "y".into()],
            ],
        )
        .unwrap();

    let dir = scratch_dir("contract");
    let snap = dir.join("store.snap");
    let open = || LocalBackend::<Bls12>::with_persistence(&snap, Some(1), None, 1 << 20).unwrap();
    let baseline = prepared_rows();
    let before = ops::snapshot();

    // Ingest through all three doors; the journal is the only durable
    // copy (the threshold defers every snapshot).
    let backend = open();
    applied(&backend, Request::InsertTable(enc_left));
    applied(
        &backend,
        Request::CopyRows {
            table: "R".into(),
            join_column: "k".into(),
            filter_columns: vec!["b".into()],
            start_row: 0,
            rows: enc_right.rows,
        },
    );
    applied(
        &backend,
        Request::InsertRows {
            table: "L".into(),
            start_row,
            rows: more,
        },
    );
    drop(backend);
    assert!(snap.with_extension("journal").exists() && !snap.exists());
    // Restart 1 replays the journal (and folds it into a snapshot),
    // restart 2 loads that snapshot.
    drop(open());
    assert!(snap.exists() && !snap.with_extension("journal").exists());
    let backend = open();
    assert_eq!(
        ops::snapshot().since(&before).g2_prepares,
        0,
        "ingest, journal replay and snapshot load must prepare nothing"
    );
    assert_eq!(prepared_rows(), baseline);

    // First query: L rows with a = x (ids 0, 1, 4) and all three R rows.
    let query = JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec!["x".into()]);
    let tokens = client.query_tokens(&query).unwrap();
    let before = ops::snapshot();
    let (first, decrypted) = run(&backend, join(&tokens));
    assert_eq!(decrypted, 6);
    let delta = ops::snapshot().since(&before);
    assert_eq!(delta.g2_prepares, decrypted * elements);
    assert_eq!(delta.miller_pairs, decrypted * elements);
    assert_eq!(prepared_rows() - baseline, 6);

    // A byte-identical repeat is served from the decrypt cache; the
    // same query under fresh tokens runs SJ.Dec again — on prepared rows.
    let before = ops::snapshot();
    let (repeat, _) = run(&backend, join(&tokens));
    assert_eq!(repeat, first);
    let delta = ops::snapshot().since(&before);
    assert_eq!((delta.g2_prepares, delta.miller_pairs), (0, 0));
    let fresh = client.query_tokens(&query).unwrap();
    let (again, _) = run(&backend, join(&fresh));
    assert_eq!(again, first);
    let delta = ops::snapshot().since(&before);
    assert_eq!(delta.g2_prepares, 0, "prepared rows are not prepared again");
    assert_eq!(delta.miller_pairs, decrypted * elements);

    // Two new rows, one of which the query selects: one row prepared.
    let (start_row, rows) = client
        .encrypt_rows(
            "L",
            &[
                vec![Value::Int(0), "x".into()],
                vec![Value::Int(1), "y".into()],
            ],
        )
        .unwrap();
    applied(
        &backend,
        Request::InsertRows {
            table: "L".into(),
            start_row,
            rows,
        },
    );
    let before = ops::snapshot();
    let fresh = client.query_tokens(&query).unwrap();
    let (_, decrypted) = run(&backend, join(&fresh));
    assert_eq!(decrypted, 7);
    assert_eq!(ops::snapshot().since(&before).g2_prepares, elements);
    assert_eq!(prepared_rows() - baseline, 7);

    // Deleting a prepared row drops its state; deleting a row no query
    // selected (id 2, a = y) has none to drop; so does dropping the store.
    let delete = |rows: Vec<u64>| Request::DeleteRows {
        table: "L".into(),
        rows,
    };
    applied(&backend, delete(vec![0]));
    assert_eq!(prepared_rows() - baseline, 6);
    applied(&backend, delete(vec![2]));
    assert_eq!(prepared_rows() - baseline, 6);
    drop(backend);
    assert_eq!(prepared_rows(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Op totals of this scenario — two uploads, then one unfiltered join
/// over both whole tables — recorded at the last commit that prepared
/// every row at insert (`cb9ada5`): 9 rows × 5 elements.
const EAGER_G2_PREPARES: u64 = 45;
const EAGER_MILLER_PAIRS: u64 = 45;
const EAGER_PAIRINGS: u64 = 9;

/// (b) The case with nothing to save: a query that selects every row
/// prepares every row once, and ingest + that query cost exactly what
/// eager preparation cost — the work moved, it did not grow. The
/// tables carry no tags (a `prefilter(false)` client), so the filtered
/// query is a full scan.
#[test]
fn a_full_scan_costs_what_eager_preparation_cost() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut client =
        DbClient::<Bls12>::with_config(ClientConfig::new(1, 1).seed(9).prefilter(false));
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for i in 0..5i64 {
        left.push_row(vec![Value::Int(i % 3), format!("a{i}").into()]);
    }
    for i in 0..4i64 {
        right.push_row(vec![Value::Int(i % 3), format!("b{i}").into()]);
    }
    let enc_left = client.encrypt_table(&left, cfg("a")).unwrap();
    let enc_right = client.encrypt_table(&right, cfg("b")).unwrap();
    let query = JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec!["a0".into()]);
    let tokens = client.query_tokens(&query).unwrap();

    let baseline = prepared_rows();
    let before = ops::snapshot();
    let backend = LocalBackend::<Bls12>::with_config(Some(1), None);
    applied(&backend, Request::InsertTable(enc_left));
    applied(&backend, Request::InsertTable(enc_right));
    let (_, decrypted) = run(&backend, join(&tokens));
    let delta = ops::snapshot().since(&before);
    assert_eq!(decrypted, 9, "no tags: every stored row");
    assert_eq!(prepared_rows() - baseline, 9, "every row prepared");
    assert_eq!(
        (delta.g2_prepares, delta.miller_pairs, delta.pairings),
        (EAGER_G2_PREPARES, EAGER_MILLER_PAIRS, EAGER_PAIRINGS)
    );

    let before = ops::snapshot();
    let fresh = client.query_tokens(&query).unwrap();
    run(&backend, join(&fresh));
    assert_eq!(
        ops::snapshot().since(&before).g2_prepares,
        0,
        "and only once"
    );
}

/// (d) Eight threads first-touch the same cold rows at once: every
/// thread gets the same answer, and each row ends up prepared once.
#[test]
fn racing_first_touches_agree_and_fill_each_row_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const THREADS: usize = 8;
    let mut client = DbClient::<Bls12>::new(1, 1, 21);
    let mut t = Table::new(Schema::new("T", &["k", "a"]));
    for i in 0..6i64 {
        t.push_row(vec![Value::Int(i % 3), "x".into()]);
    }
    let enc = client.encrypt_table(&t, cfg("a")).unwrap();
    let elements = enc.rows[0].cipher.elements().len() as u64;
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();
    // No decrypt cache: every thread runs SJ.Dec itself.
    let options = JoinOptions {
        decrypt_cache: false,
        threads: 1,
        ..JoinOptions::default()
    };

    let baseline = prepared_rows();
    let backend = LocalBackend::<Bls12>::new();
    applied(&backend, Request::InsertTable(enc));
    let before = ops::snapshot();
    let start = Barrier::new(THREADS);
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    pairs_under(&backend, &tokens, options)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(answers[0].len(), 12, "keys 0, 1, 2 twice each");
    assert!(answers.iter().all(|a| *a == answers[0]));
    assert_eq!(prepared_rows() - baseline, 6, "each row filled once");
    let prepares = ops::snapshot().since(&before).g2_prepares;
    assert!(
        (6 * elements..=THREADS as u64 * 6 * elements).contains(&prepares),
        "racing touches may duplicate work, never skip it: {prepares}"
    );
}

// ---------------------------------------------------------------------------
// (c) Differential: first-use preparation against an all-touched store
// ---------------------------------------------------------------------------

/// A session's handle on a backend the test also inspects directly.
struct Shared(Arc<LocalBackend<MockEngine>>);

impl ServerApi<MockEngine> for Shared {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        self.0.handle(request)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u8),
    Copy(u8),
    Delete(u8),
    Query(u8),
}

/// Query-heavy mix over the raw proptest bytes.
fn decode_op(code: u8) -> Op {
    let arg = code / 8;
    match code % 8 {
        0 => Op::Insert(arg % 3 + 1),
        1 => Op::Copy(arg % 2 + 1),
        2 | 3 => Op::Delete(arg),
        _ => Op::Query(arg % 4),
    }
}

fn query(which: u8) -> JoinQuery {
    let base = JoinQuery::on("L", "k", "R", "k");
    match which {
        0 => base,
        1 => base.filter("L", "a", vec!["a0".into()]),
        2 => base.filter("R", "b", vec!["b1".into()]),
        _ => base.filter("L", "a", vec!["a1".into(), "a2".into()]),
    }
}

/// Touch every stored row of the backend without leaving a trace in
/// anything compared: a foreign client's tokens (right arity, wrong
/// keys) drive an unfiltered, uncached self-join over each table.
fn touch_all(backend: &LocalBackend<MockEngine>, foreign: &mut DbClient<MockEngine>) {
    let options = JoinOptions {
        decrypt_cache: false,
        ..JoinOptions::default()
    };
    for table in ["L", "R"] {
        let tokens = foreign
            .query_tokens(&JoinQuery::on(table, "k", table, "k"))
            .unwrap();
        pairs_under(backend, &tokens, options);
    }
}

/// Everything a run exposes, step by step: each query's answer, the
/// snapshot after every op, and the final leakage account.
#[derive(Debug, PartialEq)]
struct Transcript {
    steps: Vec<String>,
    snapshots: Vec<Vec<u8>>,
    leakage: String,
}

/// Run the interleaving; with `touch_up_front` every row is prepared
/// right after the op that stored it. Returns the transcript, how many
/// rows ended up prepared and how many are stored.
fn transcript(ops: &[Op], touch_up_front: bool) -> (Transcript, i64, i64) {
    let baseline = prepared_rows();
    let backend = Arc::new(LocalBackend::<MockEngine>::with_config(Some(2), None));
    let mut session = Session::<MockEngine>::with_backend(
        SessionConfig::new(1, 2).seed(33).prefilter(true),
        Box::new(Shared(Arc::clone(&backend))),
    );
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for i in 0..5i64 {
        left.push_row(vec![Value::Int(i % 3), format!("a{}", i % 3).into()]);
        right.push_row(vec![Value::Int(i % 4), format!("b{}", i % 2).into()]);
    }
    // The foreign client only needs to know the two tables' layouts.
    let mut foreign = DbClient::<MockEngine>::new(1, 2, 77);
    foreign.encrypt_table(&left, cfg("a")).unwrap();
    foreign.encrypt_table(&right, cfg("b")).unwrap();
    session.create_table(&left, cfg("a")).unwrap();
    session.create_table(&right, cfg("b")).unwrap();

    let mut live: Vec<u64> = (0..5).collect();
    let mut next_id = 5u64;
    let mut fresh = 0i64;
    let mut out = Transcript {
        steps: Vec::new(),
        snapshots: Vec::new(),
        leakage: String::new(),
    };
    let mut new_rows = |n: u8| -> Vec<Vec<Value>> {
        (0..n)
            .map(|_| {
                fresh += 1;
                vec![Value::Int(fresh % 3), format!("a{}", fresh % 3).into()]
            })
            .collect()
    };
    for op in ops {
        if touch_up_front {
            touch_all(&backend, &mut foreign);
        }
        let step = match op {
            Op::Insert(n) => {
                let n = session.insert_rows("L", &new_rows(*n)).unwrap() as u64;
                live.extend(next_id..next_id + n);
                next_id += n;
                format!("inserted {n}")
            }
            Op::Copy(n) => {
                let n = session.copy_rows("L", &new_rows(*n)).unwrap() as u64;
                live.extend(next_id..next_id + n);
                next_id += n;
                format!("copied {n}")
            }
            Op::Delete(which) if !live.is_empty() => {
                let id = live.remove(*which as usize % live.len());
                session.delete_rows("L", &[id]).unwrap();
                format!("deleted {id}")
            }
            Op::Delete(_) => "nothing to delete".to_owned(),
            Op::Query(which) => {
                let r = session.execute(&QueryPlan::from(&query(*which))).unwrap();
                format!(
                    "{:?} {:?} dec={} pre={} hits={} cmp={} tokens_cached={}",
                    r.tuples,
                    r.rows,
                    r.stats.rows_decrypted,
                    r.stats.rows_prefiltered_out,
                    r.stats.decrypt_cache_hits,
                    r.stats.comparisons,
                    r.cache_hit
                )
            }
        };
        out.steps.push(step);
        out.snapshots
            .push(backend.server().store().snapshot_bytes());
    }
    if touch_up_front {
        touch_all(&backend, &mut foreign);
    }
    out.leakage = format!(
        "{:?} {:?}",
        session.leakage_report(),
        session.visible_pairs()
    );
    let stored = (live.len() + 5) as i64;
    (out, prepared_rows() - baseline, stored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Whichever rows happen to be prepared — only those a query
    // selected, or all of them — every answer, every observation (the
    // ledger is built from them), the leakage report and every
    // snapshot byte are the same.
    #[test]
    fn first_use_preparation_is_invisible(codes in proptest::collection::vec(any::<u8>(), 1..14)) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let ops: Vec<Op> = codes.into_iter().map(decode_op).collect();
        let (lazy, lazy_prepared, stored) = transcript(&ops, false);
        let (touched, touched_prepared, _) = transcript(&ops, true);
        prop_assert_eq!(touched_prepared, stored, "the reference touched every row");
        prop_assert!(lazy_prepared <= stored);
        prop_assert!(lazy == touched, "ops {:?}:\n{:?}\nvs\n{:?}", ops, lazy.steps, touched.steps);
    }
}
