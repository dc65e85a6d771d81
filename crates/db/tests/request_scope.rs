//! Request scope gate: a join request says what to join, never how the
//! server keeps its decrypt cache for later requests.
//!
//! Eight sides are warmed (four pairwise queries) on a server with the
//! default cap of `DEFAULT_DECRYPT_CACHE_CAP` entries. Then, for every
//! value the request's options take — `use_prefilter` on and off,
//! `threads` 0, 1 and `usize::MAX`, `decrypt_cache` on and off — a
//! join with fresh tokens and its byte-identical repeat are served
//! through the wire codec. After each
//! one the cache holds at least what it held before (no request evicts
//! an entry it did not insert; the eviction counter does not move), and
//! every warmed side still repeats from the cache alone.
//!
//! One `#[test]` in this file on purpose: it reads a process-wide
//! counter, which no other test in this binary touches.

use eqjoin_db::{
    ClientConfig, DbClient, JoinOptions, JoinQuery, LocalBackend, QueryTokens, Request, Response,
    Schema, ServerApi, ServerStats, Table, TableConfig, Value, DEFAULT_DECRYPT_CACHE_CAP,
};
use eqjoin_pairing::MockEngine;

/// Every value the options of a join request can take, up to the
/// thread count's equivalence classes (auto, one, more than the
/// server allows).
fn every_request_option() -> Vec<JoinOptions> {
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

/// Serve one join the way the reactor does — through the codec — and
/// return its counters.
fn serve(
    backend: &LocalBackend<MockEngine>,
    tokens: &QueryTokens<MockEngine>,
    options: JoinOptions,
) -> ServerStats {
    let request = Request::ExecuteJoin {
        tokens: tokens.clone(),
        options,
        projection: Default::default(),
    };
    let request = Request::from_bytes(&request.to_bytes()).unwrap();
    match backend.handle(request) {
        Response::JoinExecuted { result, .. } => result.stats,
        other => panic!("join failed: {other:?}"),
    }
}

fn cache_len(backend: &LocalBackend<MockEngine>) -> usize {
    backend.server().store().decrypt_cache_len()
}

fn evictions() -> u64 {
    eqjoin_obs::registry().counter_value("eqjoin_store_decrypt_cache_evictions_total", None)
}

#[test]
fn no_request_changes_what_a_later_request_finds_in_the_cache() {
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
        serve(&backend, tokens, JoinOptions::default());
    }
    assert_eq!(cache_len(&backend), 2 * warm.len());
    assert!(4 * cache_len(&backend) <= DEFAULT_DECRYPT_CACHE_CAP);

    let all_warm_sides_repeat = |after: &str| {
        for (i, tokens) in warm.iter().enumerate() {
            let stats = serve(&backend, tokens, JoinOptions::default());
            assert_eq!(
                stats.decrypt_cache_hits as usize, stats.rows_decrypted,
                "warmed query {i} is no longer served from the cache after {after}"
            );
        }
    };

    let evictions_before = evictions();
    for (i, options) in every_request_option().into_iter().enumerate() {
        let fresh = client.query_tokens(&queries[i % queries.len()]).unwrap();
        for (kind, tokens) in [("fresh", &fresh), ("repeated", &fresh)] {
            let before = cache_len(&backend);
            serve(&backend, tokens, options);
            let after = cache_len(&backend);
            assert!(
                after >= before,
                "a {kind} request with {options:?} evicted {} cache entries it did not insert \
                 ({before} before, {after} after)",
                before - after
            );
            assert_eq!(
                evictions(),
                evictions_before,
                "a {kind} request with {options:?} evicted a cache entry"
            );
            all_warm_sides_repeat(&format!("a {kind} request with {options:?}"));
        }
    }
}
