//! Request scope gate: a join request says what to join — tokens and a
//! projection — and nothing about how, so no request can change how the
//! server keeps its decrypt cache for later requests.
//!
//! Eight sides are warmed (four pairwise queries) on a server with the
//! default cap of `DEFAULT_DECRYPT_CACHE_CAP` entries. Then two halves:
//!
//! - **Over the codec**, every request kind that mutates nothing —
//!   `Ping`, `Stats`, `Drain`, a join with fresh tokens, its
//!   byte-identical repeat, and a `Batch` of joins — is served the way
//!   the reactor serves it.
//! - **Directly**, a join with fresh tokens and its repeat run through
//!   `DbServer::execute_join` under every value its `JoinOptions` take:
//!   `use_prefilter` on and off, `threads` 0, 1 and `usize::MAX`,
//!   `decrypt_cache` on and off.
//!
//! After each one the cache holds at least what it held before (no
//! request evicts an entry it did not insert; the eviction counter does
//! not move), and every warmed side still repeats from the cache alone.
//!
//! The eviction counter is process-wide, so the two tests run under one
//! lock.

use eqjoin_db::{
    ClientConfig, DbClient, JoinOptions, JoinQuery, LocalBackend, QueryTokens, Request, Response,
    Schema, ServerApi, Table, TableConfig, Value, DEFAULT_DECRYPT_CACHE_CAP,
};
use eqjoin_pairing::MockEngine;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Every value the options of a direct call can take, up to the thread
/// count's equivalence classes (auto, one, more than the server allows).
fn every_option() -> Vec<JoinOptions> {
    let mut all = Vec::new();
    for use_prefilter in [true, false] {
        for threads in [0, 1, usize::MAX] {
            for decrypt_cache in [true, false] {
                all.push(JoinOptions {
                    use_prefilter,
                    threads,
                    decrypt_cache,
                });
            }
        }
    }
    all
}

fn table(name: &str, rows: i64) -> Table {
    let mut t = Table::new(Schema::new(name, &["k", "a"]));
    for i in 0..rows {
        t.push_row(vec![Value::Int(i % 3), Value::Str(format!("{name}{i}"))]);
    }
    t
}

fn join(tokens: &QueryTokens<MockEngine>) -> Request<MockEngine> {
    Request::ExecuteJoin {
        tokens: tokens.clone().into(),
        projection: Default::default(),
    }
}

/// Serve one request the way the reactor does — through the codec.
fn serve(backend: &LocalBackend<MockEngine>, request: Request<MockEngine>) -> Response {
    backend.handle(Request::from_bytes(&request.to_bytes()).unwrap())
}

fn cache_len(backend: &LocalBackend<MockEngine>) -> usize {
    backend.server().store().decrypt_cache_len()
}

fn evictions() -> u64 {
    eqjoin_obs::registry().counter_value("eqjoin_store_decrypt_cache_evictions_total", None)
}

/// A backend with three tables and eight warmed sides, the client that
/// encrypted them, the queries, and the warming tokens.
struct Warmed {
    client: DbClient<MockEngine>,
    backend: LocalBackend<MockEngine>,
    queries: [JoinQuery; 4],
    warm: Vec<QueryTokens<MockEngine>>,
}

impl Warmed {
    fn new() -> Self {
        let mut client =
            DbClient::<MockEngine>::with_config(ClientConfig::new(1, 2).seed(37).prefilter(true));
        let backend = LocalBackend::<MockEngine>::new();
        for (name, rows) in [("L", 5), ("R", 4), ("S", 3)] {
            let config = TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["a".into()],
            };
            let upload =
                Request::InsertTable(client.encrypt_table(&table(name, rows), config).unwrap());
            assert!(matches!(
                backend.handle(upload),
                Response::TableInserted { .. }
            ));
        }
        let queries = [
            JoinQuery::on("L", "k", "R", "k"),
            JoinQuery::on("R", "k", "S", "k"),
            JoinQuery::on("L", "k", "S", "k"),
            JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec!["L0".into(), "L3".into()]),
        ];

        // Warm eight sides, well below the server's cap.
        let warm: Vec<QueryTokens<MockEngine>> = queries
            .iter()
            .map(|q| client.query_tokens(q).unwrap())
            .collect();
        for tokens in &warm {
            assert!(matches!(
                serve(&backend, join(tokens)),
                Response::JoinExecuted { .. }
            ));
        }
        assert_eq!(cache_len(&backend), 2 * warm.len());
        assert!(4 * cache_len(&backend) <= DEFAULT_DECRYPT_CACHE_CAP);
        Warmed {
            client,
            backend,
            queries,
            warm,
        }
    }

    fn fresh(&mut self, i: usize) -> QueryTokens<MockEngine> {
        let query = &self.queries[i % self.queries.len()];
        self.client.query_tokens(query).unwrap()
    }

    /// Run `request`, then check that it took nothing out of the cache
    /// and that every warmed side still repeats from the cache alone.
    fn assert_in_scope(&self, what: &str, request: impl FnOnce(&LocalBackend<MockEngine>)) {
        let (before, evictions_before) = (cache_len(&self.backend), evictions());
        request(&self.backend);
        let after = cache_len(&self.backend);
        assert!(
            after >= before,
            "{what} evicted {} cache entries it did not insert ({before} before, {after} after)",
            before - after
        );
        assert_eq!(
            evictions(),
            evictions_before,
            "{what} evicted a cache entry"
        );
        for (i, tokens) in self.warm.iter().enumerate() {
            let Response::JoinExecuted { result, .. } = serve(&self.backend, join(tokens)) else {
                panic!("warmed query {i} failed after {what}");
            };
            assert_eq!(
                result.stats.decrypt_cache_hits as usize, result.stats.rows_decrypted,
                "warmed query {i} is no longer served from the cache after {what}"
            );
        }
    }
}

#[test]
fn no_wire_request_changes_what_a_later_request_finds_in_the_cache() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = Warmed::new();
    let answered = |request: Request<MockEngine>, expected: fn(&Response) -> bool| {
        move |b: &LocalBackend<MockEngine>| {
            let response = serve(b, request);
            assert!(expected(&response), "unexpected answer {response:?}");
        }
    };
    w.assert_in_scope(
        "a Ping",
        answered(Request::Ping, |r| matches!(r, Response::Pong)),
    );
    w.assert_in_scope(
        "a Stats request",
        answered(Request::Stats, |r| matches!(r, Response::Stats(_))),
    );
    w.assert_in_scope(
        "a Drain",
        answered(Request::Drain, |r| matches!(r, Response::Pong)),
    );
    let fresh = w.fresh(0);
    let executed = |r: &Response| matches!(r, Response::JoinExecuted { .. });
    w.assert_in_scope("a fresh join", answered(join(&fresh), executed));
    w.assert_in_scope("its repeat", answered(join(&fresh), executed));
    let (a, b) = (w.fresh(1), w.fresh(2));
    let batch = Request::Batch(vec![join(&a), join(&b), join(&a)]);
    w.assert_in_scope(
        "a batch of joins",
        answered(batch, |r| match r {
            Response::Batch(parts) => {
                parts.len() == 3
                    && parts
                        .iter()
                        .all(|p| matches!(p, Response::JoinExecuted { .. }))
            }
            _ => false,
        }),
    );
}

#[test]
fn no_direct_call_changes_what_a_later_call_finds_in_the_cache() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = Warmed::new();
    for (i, options) in every_option().into_iter().enumerate() {
        let fresh = w.fresh(i);
        for kind in ["fresh", "repeated"] {
            w.assert_in_scope(&format!("a {kind} call with {options:?}"), |b| {
                b.server().execute_join(&fresh, &options).unwrap();
            });
        }
    }
}
