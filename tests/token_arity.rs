//! A well-formed `ExecuteJoin` whose token has another element count
//! than the stored ciphertexts — a client keyed at `(m, t) = (2, 3)`
//! querying tables uploaded at `(1, 2)`: 11 token elements against 6
//! stored ones. The codec accepts it (every element is a valid group
//! element), so the store has to refuse it with a typed error before
//! any pairing runs: the engines assert equal lengths, and a panic in
//! the thread serving the request costs an `eqjoind` reactor worker.

use eqjoin::db::{
    ClientConfig, DbClient, DbError, JoinQuery, LocalBackend, PayloadProjection, QueryTokens,
    RemoteBackend, RemoteConfig, Request, Response, RetryPolicy, Schema, ServerApi, Table,
    TableConfig, Value,
};
use eqjoin::pairing::{Bls12, Engine, MockEngine};
use eqjoind_net::{NetConfig, NetHandle, NetServer, TenantRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Tables `L` and `R` (two rows each, so both decrypt paths see more
/// than one candidate) as `client` encrypts them.
fn tables<E: Engine>(client: &mut DbClient<E>) -> Vec<Request<E>> {
    ["L", "R"]
        .into_iter()
        .map(|name| {
            let mut t = Table::new(Schema::new(name, &["k", "a"]));
            t.push_row(vec![Value::Int(1), "x".into()]);
            t.push_row(vec![Value::Int(2), "y".into()]);
            let cfg = TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["a".into()],
            };
            Request::InsertTable(client.encrypt_table(&t, cfg).unwrap())
        })
        .collect()
}

fn join<E: Engine>(tokens: QueryTokens<E>) -> Request<E> {
    Request::ExecuteJoin {
        tokens: tokens.into(),
        projection: PayloadProjection::default(),
    }
}

/// The decrypt thread counts each backend below is configured with:
/// one worker, and one per available core.
const THREADS: [Option<usize>; 2] = [Some(1), None];

/// Upload at `(1, 2)`, then query with tokens generated at `(2, 3)`;
/// the backend must answer with `DimensionMismatch` and go on serving.
fn mismatched_token_is_refused<E: Engine>(backend: &dyn ServerApi<E>, threads: Option<usize>) {
    let mut owner = DbClient::<E>::with_config(ClientConfig::new(1, 2).seed(5));
    for upload in tables(&mut owner) {
        assert!(matches!(
            backend.handle(upload),
            Response::TableInserted { rows: 2, .. }
        ));
    }
    let mut stranger = DbClient::<E>::with_config(ClientConfig::new(2, 3).seed(6));
    let _ = tables(&mut stranger);
    let query = JoinQuery::on("L", "k", "R", "k");

    let tokens = stranger.query_tokens(&query).unwrap();
    assert_eq!(tokens.left.token.len(), 11);
    match backend.handle(join(tokens)) {
        Response::Error(DbError::DimensionMismatch { expected, got, .. }) => {
            assert_eq!((expected, got), (6, 11), "threads = {threads:?}");
        }
        Response::Error(other) => panic!("threads = {threads:?}: untyped refusal {other:?}"),
        _ => panic!("threads = {threads:?}: the mismatched token was not refused"),
    }
    // The thread that served the refusal serves the next requests.
    assert!(matches!(backend.handle(Request::Ping), Response::Pong));
    let tokens = owner.query_tokens(&query).unwrap();
    match backend.handle(join(tokens)) {
        Response::JoinExecuted { observation, .. } => assert_eq!(observation.pairs().len(), 2),
        _ => panic!("threads = {threads:?}: a valid join failed after the refusal"),
    }
}

fn through_local_backend<E: Engine>() {
    for threads in THREADS {
        mismatched_token_is_refused::<E>(&LocalBackend::<E>::with_config(threads, None), threads);
    }
}

/// One reactor worker in front of a server running joins on `threads`
/// decrypt workers: if a request took the reactor worker down, nothing
/// answers the next one (the deadline turns that hang into a failure).
fn one_worker_server<E: Engine>(threads: Option<usize>) -> (RemoteBackend, NetHandle) {
    let registry = Arc::new(TenantRegistry::<E>::new(threads, None, None));
    let config = NetConfig {
        workers: 1,
        ..NetConfig::default()
    };
    let (addr, server) = NetServer::spawn(registry, config).unwrap();
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

fn through_one_worker_server<E: Engine>() {
    for threads in THREADS {
        let (remote, _server) = one_worker_server::<E>(threads);
        mismatched_token_is_refused::<E>(&remote, threads);
    }
}

#[test]
fn mismatched_token_arity_is_a_typed_error_mock() {
    through_local_backend::<MockEngine>();
    through_one_worker_server::<MockEngine>();
}

#[test]
fn mismatched_token_arity_is_a_typed_error_bls12() {
    through_local_backend::<Bls12>();
    through_one_worker_server::<Bls12>();
}
