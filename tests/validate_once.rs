//! Validate once: a join token crosses the wire as bytes and is decoded
//! — curve and subgroup checked — by the store, before the first
//! pairing that needs it, unless the decrypt cache already answers
//! every row for exactly those bytes.
//!
//! Two halves. A *first sighting* is still refused through every door
//! (`Bls12`, where "on the curve, outside the subgroup" exists): the
//! reactor's decode into a `LocalBackend`, and a one-worker `NetServer`
//! over TCP. And the skip is exact (`MockEngine` for the shapes):
//! `eqjoin_store_token_elements_checked_total` moves by the element
//! count of precisely the sides the cache could not vouch for.
//!
//! The frame decoder (`Request::from_bytes`, the only one) copies token
//! bytes and checks none, so a bad token inside a `Request::Batch`
//! fails its own slot and its neighbours execute.
//!
//! The op counters and the metrics registry are process-wide, so every
//! test here runs under one lock.

use eqjoin::core::{SjTableSide, SjToken};
use eqjoin::db::{
    ClientConfig, DbClient, DbError, JoinOptions, JoinQuery, LocalBackend, PayloadProjection,
    QueryTokens, RemoteBackend, RemoteConfig, Request, Response, RetryPolicy, Schema, ServerApi,
    SideTokens, Table, TableConfig, Value, WireToken,
};
use eqjoin::pairing::curve::CurveParams;
use eqjoin::pairing::{g1, ops, Bls12, Engine, Fp, Fr, G1Affine, MockEngine};
use eqjoind_net::{NetConfig, NetHandle, NetServer, TenantRegistry};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// Token elements the store has decoded so far, process-wide.
fn checked_elements() -> u64 {
    eqjoin::obs::registry().counter_value("eqjoin_store_token_elements_checked_total", None)
}

fn cfg(filter: &str) -> TableConfig {
    TableConfig {
        join_column: "k".into(),
        filter_columns: vec![filter.to_owned()],
    }
}

/// A table `name(k, filter)` with one row per `(k, filter value)`.
fn table(name: &str, filter: &str, rows: &[(i64, &str)]) -> Table {
    let mut t = Table::new(Schema::new(name, &["k", filter]));
    for &(k, v) in rows {
        t.push_row(vec![Value::Int(k), v.into()]);
    }
    t
}

fn join<E: Engine>(tokens: &QueryTokens<E>, options: JoinOptions) -> Request<E> {
    Request::ExecuteJoin {
        tokens: tokens.clone(),
        options,
        projection: PayloadProjection::default(),
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

/// Matched pairs and `(rows SJ.Dec considered, rows served from the
/// decrypt cache)` of an executed join.
fn executed(response: Response) -> (Vec<(usize, usize)>, (usize, u64)) {
    match response {
        Response::JoinExecuted { result, .. } => (
            result
                .pairs
                .iter()
                .map(|p| (p.left_row, p.right_row))
                .collect(),
            (result.stats.rows_decrypted, result.stats.decrypt_cache_hits),
        ),
        other => panic!("join failed: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// A first sighting is still checked, through every door
// ---------------------------------------------------------------------------

/// Wire bytes of an on-curve `G1` point outside the subgroup — the
/// construction of `tests/subgroup_rejection.rs`: the first
/// `x = 1, 2, …` with a `y`, before any cofactor clearing.
fn g1_outside_subgroup() -> Vec<u8> {
    let p = (1u64..)
        .find_map(|x| {
            let x = Fp::from_u64(x);
            let y = (x.square() * x + g1::G1Params::b()).sqrt()?;
            G1Affine::new(x, y)
        })
        .expect("some small x is on the curve");
    let bytes = g1::to_bytes(&p).to_vec();
    assert!(p.is_on_curve() && Bls12::g1_from_bytes(&bytes).is_none());
    bytes
}

/// The `ExecuteJoin` frame for `tokens` with the point above spliced
/// over the first element of one side's token (same length, so every
/// length prefix stays valid), decoded the way the reactor decodes it.
fn spliced(tokens: &QueryTokens<Bls12>, bad: Side, options: JoinOptions) -> Request<Bls12> {
    let good = join(tokens, options).to_bytes();
    let element = match bad {
        Side::Left => &tokens.left.token.elements()[0],
        Side::Right => &tokens.right.token.elements()[0],
    };
    let at = good
        .windows(element.len())
        .position(|w| w == element.as_slice())
        .expect("the element is in the encoding");
    let mut frame = good;
    frame[at..at + element.len()].copy_from_slice(&g1_outside_subgroup());
    let request = Request::<Bls12>::from_bytes(&frame).unwrap();
    assert_eq!(request.to_bytes(), frame, "the codec copies token bytes");
    request
}

#[derive(Clone, Copy)]
enum Side {
    Left,
    Right,
}

fn assert_g1_refusal(response: &Response, case: &str) {
    match response {
        Response::Error(DbError::Protocol(msg)) => assert!(msg.contains("G1"), "{case}: {msg}"),
        other => panic!("{case}: expected the G1 protocol error, got {other:?}"),
    }
}

/// Upload two tiny tables, then send spliced joins in every situation
/// the store could be tempted to skip the check in. Each must be
/// answered with the `G1` protocol error before any pairing, and the
/// backend must go on serving.
fn first_sightings_are_refused(backend: &dyn ServerApi<Bls12>) {
    let mut client =
        DbClient::<Bls12>::with_config(ClientConfig::new(1, 1).seed(11).prefilter(true));
    let left = table("L", "a", &[(1, "x"), (2, "x")]);
    let right = table("R", "b", &[(1, "y"), (3, "y")]);
    for (t, filter) in [(&left, "a"), (&right, "b")] {
        let upload = Request::InsertTable(client.encrypt_table(t, cfg(filter)).unwrap());
        assert!(matches!(
            backend.handle(upload),
            Response::TableInserted { rows: 2, .. }
        ));
    }
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    let n = tokens.left.token.len() as u64;
    // The pre-filter leaves the left side no candidate row.
    let selects_nothing = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec!["absent".into()]))
        .unwrap();
    let cache_off = JoinOptions {
        decrypt_cache: false,
        ..JoinOptions::default()
    };

    // The left side is decrypted first: a bad left token must be
    // refused with no pairing run at all.
    let refused = |request: Request<Bls12>, case: &str| {
        let before = ops::snapshot();
        assert_g1_refusal(&backend.handle(request), case);
        let delta = ops::snapshot().since(&before);
        assert_eq!((delta.miller_pairs, delta.pairings), (0, 0), "{case}");
        assert!(matches!(backend.handle(Request::Ping), Response::Pong));
    };
    let default = JoinOptions::default();
    refused(spliced(&tokens, Side::Left, default), "first sighting");
    refused(
        spliced(&selects_nothing, Side::Left, default),
        "a side that selects no rows",
    );
    refused(spliced(&tokens, Side::Left, cache_off), "decrypt cache off");

    // A bad right token is refused when its side's turn comes: the left
    // side's two rows were paired with the left token, checked, and the
    // bad element reached no pairing.
    let before = ops::snapshot();
    let request = spliced(&tokens, Side::Right, cache_off);
    assert_g1_refusal(&backend.handle(request), "right side");
    assert_eq!(ops::snapshot().since(&before).miller_pairs, 2 * n);

    // The unspliced query is served, and warms the cache for *its*
    // bytes: a spliced frame is other bytes under another fingerprint.
    let (pairs, _) = executed(backend.handle(join(&tokens, default)));
    assert_eq!(pairs, vec![(0, 0)]);
    refused(
        spliced(&tokens, Side::Left, default),
        "right after the valid query warmed the cache",
    );

    // Inside a batch only the bad join's slot fails.
    let batch = Request::Batch(vec![
        Request::Ping,
        spliced(&tokens, Side::Right, default),
        join(&tokens, default),
    ]);
    assert!(Request::<Bls12>::from_bytes(&batch.to_bytes()).is_ok());
    let checked = checked_elements();
    let before = ops::snapshot();
    let Response::Batch(mut slots) = backend.handle(batch) else {
        panic!("a batch is answered by a batch");
    };
    assert_eq!(slots.len(), 3);
    let (pairs, (rows, hits)) = executed(slots.pop().unwrap());
    assert_eq!((pairs, rows as u64), (vec![(0, 0)], hits));
    assert_g1_refusal(&slots[1], "batch slot");
    assert!(matches!(slots[0], Response::Pong));
    // The bad join's left side is warm (the valid query's bytes) and
    // skipped, its right side is a first sighting; the valid repeat
    // after it checks nothing and pairs nothing.
    assert_eq!(checked_elements() - checked, n);
    assert_eq!(ops::snapshot().since(&before).miller_pairs, 0);
}

#[test]
fn a_first_sighting_outside_the_subgroup_is_refused_by_a_local_backend() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    first_sightings_are_refused(&LocalBackend::<Bls12>::new());
}

#[test]
fn a_first_sighting_outside_the_subgroup_is_refused_over_tcp_and_the_worker_lives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (remote, _server) = one_worker_server(TenantRegistry::<Bls12>::new(None, None, None));
    first_sightings_are_refused(&remote);
}

// ---------------------------------------------------------------------------
// The skip is observable and exact
// ---------------------------------------------------------------------------

/// `checked_elements()` and decrypt-cache misses added by one request.
fn checks_and_misses(
    backend: &dyn ServerApi<MockEngine>,
    request: Request<MockEngine>,
) -> (u64, usize) {
    let before = checked_elements();
    let joins = match backend.handle(request) {
        Response::Batch(slots) => slots,
        single => vec![single],
    };
    let misses = joins
        .into_iter()
        .map(|r| {
            let (_, (rows, hits)) = executed(r);
            rows - hits as usize
        })
        .sum();
    (checked_elements() - before, misses)
}

#[test]
fn the_store_checks_exactly_the_sides_its_cache_cannot_vouch_for() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (remote, _server) = one_worker_server(TenantRegistry::<MockEngine>::new(None, None, None));
    let mut client =
        DbClient::<MockEngine>::with_config(ClientConfig::new(1, 2).seed(4).prefilter(true));
    let tables = [
        table("A", "a", &[(1, "p"), (2, "p"), (3, "q")]),
        table("B", "b", &[(1, "x"), (2, "x"), (3, "y")]),
        table("C", "c", &[(1, "r"), (2, "s")]),
    ];
    for (t, filter) in tables.iter().zip(["a", "b", "c"]) {
        let upload = Request::InsertTable(client.encrypt_table(t, cfg(filter)).unwrap());
        assert!(matches!(
            remote.handle(upload),
            Response::TableInserted { .. }
        ));
    }
    // A ⋈ B ⋈ C, `B.b IN ('x')`: two stages, four sides, B in two.
    let only_x = |q: JoinQuery| q.filter("B", "b", vec!["x".into()]);
    let stages = [
        client
            .query_tokens(&only_x(JoinQuery::on("A", "k", "B", "k")))
            .unwrap(),
        client
            .query_tokens(&only_x(JoinQuery::on("B", "k", "C", "k")))
            .unwrap(),
    ];
    let n = stages[0].left.token.len() as u64;
    let chain = || {
        Request::Batch(
            stages
                .iter()
                .map(|t| join(t, JoinOptions::default()))
                .collect(),
        )
    };

    // First sighting of four sides; a byte-identical repeat checks none.
    assert_eq!(checks_and_misses(&remote, chain()), (4 * n, 3 + 2 + 2 + 2));
    assert_eq!(checks_and_misses(&remote, chain()), (0, 0));

    // A new B row the query selects: B's two sides have a miss each,
    // need their token, and are checked; A's and C's stay vouched for.
    let mut insert_into_b = |k: i64, b: &str| {
        let (start_row, rows) = client
            .encrypt_rows("B", &[vec![Value::Int(k), b.into()]])
            .unwrap();
        let request = Request::InsertRows {
            table: "B".into(),
            start_row,
            rows,
        };
        assert!(matches!(
            remote.handle(request),
            Response::RowsInserted { rows: 1, .. }
        ));
    };
    insert_into_b(2, "x");
    assert_eq!(checks_and_misses(&remote, chain()), (2 * n, 2));
    assert_eq!(checks_and_misses(&remote, chain()), (0, 0));
    // A new B row the pre-filter removes is no candidate: no miss, no check.
    insert_into_b(1, "y");
    assert_eq!(checks_and_misses(&remote, chain()), (0, 0));

    // Eviction: under a cap of one entry the right side's insert evicts
    // the left side's, so the repeat finds the right side vouched for
    // and the left side a first sighting again.
    let fresh = client
        .query_tokens(&JoinQuery::on("A", "k", "C", "k"))
        .unwrap();
    let cap_one = JoinOptions {
        decrypt_cache_cap: 1,
        ..JoinOptions::default()
    };
    assert_eq!(
        checks_and_misses(&remote, join(&fresh, cap_one)),
        (2 * n, 3 + 2)
    );
    assert_eq!(
        checks_and_misses(&remote, join(&fresh, JoinOptions::default())),
        (n, 3)
    );
    assert_eq!(
        checks_and_misses(&remote, join(&fresh, JoinOptions::default())),
        (0, 0)
    );
}

/// A snapshot's decrypt-cache entries were written by passes that
/// checked their bytes, and the snapshot's SHA-256 covers them: a
/// reopened store answers the repeat without decoding a token element
/// or running a Miller loop.
#[test]
fn a_store_reopened_from_a_snapshot_vouches_for_its_warm_sides() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("eqjoin-validate-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let registry =
            TenantRegistry::<Bls12>::with_persistence(dir.clone(), Some(1), None, 0, None).unwrap();
        one_worker_server(registry)
    };
    let mut client =
        DbClient::<Bls12>::with_config(ClientConfig::new(1, 1).seed(23).prefilter(true));
    let (remote, server) = open();
    for (t, filter) in [
        (table("L", "a", &[(1, "x"), (2, "x")]), "a"),
        (table("R", "b", &[(2, "y")]), "b"),
    ] {
        let upload = Request::InsertTable(client.encrypt_table(&t, cfg(filter)).unwrap());
        assert!(matches!(
            remote.handle(upload),
            Response::TableInserted { .. }
        ));
    }
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    let n = tokens.left.token.len() as u64;
    let checked = checked_elements();
    let (cold, _) = executed(remote.handle(join(&tokens, JoinOptions::default())));
    assert_eq!(cold, vec![(1, 0)]);
    assert_eq!(checked_elements() - checked, 2 * n);
    drop(remote);
    server.stop().unwrap();

    let (remote, _server) = open();
    let checked = checked_elements();
    let before = ops::snapshot();
    let (warm, (rows, hits)) = executed(remote.handle(join(&tokens, JoinOptions::default())));
    let delta = ops::snapshot().since(&before);
    assert_eq!((warm, rows as u64), (cold, hits));
    assert_eq!(checked_elements() - checked, 0);
    assert_eq!(
        (delta.miller_pairs, delta.pairings, delta.g2_prepares),
        (0, 0, 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The wire token and its codec
// ---------------------------------------------------------------------------

fn mock_g1(seed: u64) -> <MockEngine as Engine>::G1 {
    MockEngine::g1_mul_gen(&Fr::from_u64(seed))
}

/// An `ExecuteJoin` carrying `token` on its left side, through the
/// codec; the left token that comes out. The frame always decodes.
fn through_the_codec(token: WireToken<MockEngine>) -> WireToken<MockEngine> {
    let side = |token| SideTokens {
        table: "T".into(),
        token,
        prefilter: Vec::new(),
    };
    let tokens = QueryTokens {
        query_id: 7,
        left: side(token),
        right: side(SjToken::from_elements(SjTableSide::B, vec![mock_g1(1)]).into()),
    };
    let frame = join(&tokens, JoinOptions::default()).to_bytes();
    match Request::<MockEngine>::from_bytes(&frame) {
        Ok(Request::ExecuteJoin { tokens, .. }) => tokens.left.token,
        _ => panic!("an ExecuteJoin frame decodes to an ExecuteJoin"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Encoded once by the client, copied by the codec, decoded once by
    // `checked()`: same elements, same bytes, at every step.
    #[test]
    fn a_generated_token_survives_the_codec_and_the_check(
        seeds in proptest::collection::vec(any::<u64>(), 0..12),
        side_a in any::<bool>(),
    ) {
        let side = if side_a { SjTableSide::A } else { SjTableSide::B };
        let token = SjToken::<MockEngine>::from_elements(
            side,
            seeds.iter().map(|&s| mock_g1(s)).collect(),
        );
        let wire = WireToken::from(token.clone());
        let received = through_the_codec(wire.clone());
        prop_assert_eq!(received.side(), side);
        prop_assert_eq!(received.elements(), wire.elements());
        let checked = received.checked().unwrap();
        prop_assert_eq!(checked.side(), side);
        prop_assert_eq!(checked.elements(), token.elements());
        let reencoded = WireToken::from(checked);
        prop_assert_eq!(reencoded.elements(), wire.elements());
    }

    // Byte strings nobody vouches for — valid encodings, 32 random
    // bytes (a valid mock element about half the time), any length —
    // pass the codec untouched (the frame decodes), never panic, and
    // `checked()` decides: it accepts the token iff `g1_from_bytes`
    // accepts every element.
    #[test]
    fn arbitrary_element_bytes_never_panic_and_are_judged_by_g1_from_bytes(
        raw in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..48)),
            0..6,
        ),
    ) {
        let elements: Vec<Vec<u8>> = raw
            .into_iter()
            .map(|(kind, mut bytes)| match kind % 3 {
                0 => MockEngine::g1_bytes(&mock_g1(kind as u64)),
                1 => {
                    bytes.resize(32, kind);
                    bytes
                }
                _ => bytes,
            })
            .collect();
        let decoded: Vec<_> = elements.iter().map(|b| MockEngine::g1_from_bytes(b)).collect();
        let received = through_the_codec(WireToken::from_encoded(SjTableSide::A, elements.clone()));
        prop_assert_eq!(received.elements(), elements.as_slice());
        match received.checked() {
            Ok(token) => {
                let expected: Option<Vec<_>> = decoded.into_iter().collect();
                prop_assert_eq!(Some(token.elements().to_vec()), expected);
            }
            Err(DbError::Protocol(msg)) => {
                prop_assert!(msg.contains("G1"), "{}", msg);
                prop_assert!(decoded.iter().any(Option::is_none));
            }
            Err(other) => prop_assert!(false, "untyped refusal {:?}", other),
        }
    }
}
