//! Cross-backend equivalence and transport-level acceptance tests:
//! the in-process `LocalBackend` (the reference) and `RemoteBackend`
//! over TCP to a loopback reactor serving a tenant registry — what
//! `eqjoind` runs — must return **byte-identical** result sets and
//! identical leakage reports for the same series, and a prepared
//! series through `Session::execute_all` over the remote backend must
//! cost exactly **one** TCP round trip.

use eqjoin::db::{
    JoinQuery, QueryInput, ResultSet, Session, SessionConfig, Table, TableConfig, Value,
};
use eqjoin::pairing::MockEngine;
use eqjoind_net::{NetConfig, NetHandle, NetServer, TenantRegistry};
use std::net::SocketAddr;
use std::sync::Arc;

/// Serializes the tests that measure BLS12-381 op-counter deltas (the
/// counters are process-wide; concurrent BLS work would pollute them).
static BLS_OPS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tables() -> (Table, Table) {
    use eqjoin::db::Schema;
    let mut left = Table::new(Schema::new("L", &["k", "color", "size"]));
    let mut right = Table::new(Schema::new("R", &["k", "grade", "zone"]));
    for i in 0..40i64 {
        left.push_row(vec![
            Value::Int(i % 7),
            ["red", "blue", "green"][(i % 3) as usize].into(),
            Value::Int(i % 4),
        ]);
        right.push_row(vec![
            Value::Int(i % 5),
            ["a", "b"][(i % 2) as usize].into(),
            Value::Int(i % 6),
        ]);
    }
    (left, right)
}

fn series() -> Vec<JoinQuery> {
    let base = || JoinQuery::on("L", "k", "R", "k");
    vec![
        base(),
        base().filter("L", "color", vec!["red".into(), "blue".into()]),
        base().filter("R", "grade", vec!["a".into()]),
        base(), // repeat of query 0: token-cache hit
        base()
            .filter("L", "color", vec!["green".into()])
            .filter("R", "grade", vec!["b".into()]),
    ]
}

fn populate(session: &mut Session<MockEngine>) {
    let (left, right) = tables();
    session
        .create_table(
            &left,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["color".into(), "size".into()],
            },
        )
        .unwrap();
    session
        .create_table(
            &right,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["grade".into(), "zone".into()],
            },
        )
        .unwrap();
}

fn config(token_cache: bool) -> SessionConfig {
    SessionConfig::new(2, 3)
        .seed(0xd15c)
        .token_cache(token_cache)
}

/// Byte-exact encoding of a result series (rows and matched pairs).
fn encode(results: &[ResultSet]) -> Vec<Vec<u8>> {
    results
        .iter()
        .map(|result| {
            let mut bytes = Vec::new();
            for row in &result.rows {
                bytes.extend_from_slice(&row.encode());
            }
            for &row in result.tuples.iter().flatten() {
                bytes.extend_from_slice(&(row as u64).to_le_bytes());
            }
            bytes
        })
        .collect()
}

/// A loopback server as `eqjoind` runs it: the reactor over a fresh
/// in-memory tenant registry. Dropping the handle drains it, so keep
/// it alive as long as any session is connected.
fn spawn_server() -> (SocketAddr, NetHandle) {
    let registry = Arc::new(TenantRegistry::<MockEngine>::new(None, None, None));
    NetServer::spawn(registry, NetConfig::default()).unwrap()
}

fn run_series(session: &mut Session<MockEngine>) -> Vec<Vec<u8>> {
    populate(session);
    let inputs: Vec<QueryInput> = series().iter().map(QueryInput::from).collect();
    let results = session.execute_all(&inputs).unwrap();
    assert_eq!(
        results[3].cache_hit,
        session.config().token_cache,
        "query 3 repeats query 0: hits iff the cache is on"
    );
    encode(&results)
}

#[test]
fn backends_agree_and_remote_batches_into_one_round_trip() {
    let (addr, _server) = spawn_server();
    let mut local = Session::local(config(true));
    let mut remote = Session::remote(config(true), addr).unwrap();

    let local_encoded = run_series(&mut local);

    // Acceptance: K prepared queries over RemoteBackend = exactly one
    // TCP round trip (table uploads not included in the delta).
    populate(&mut remote);
    let before = remote.transport_stats();
    let inputs: Vec<QueryInput> = series().iter().map(QueryInput::from).collect();
    let remote_results = remote.execute_all(&inputs).unwrap();
    let after = remote.transport_stats();
    assert_eq!(
        after.round_trips - before.round_trips,
        1,
        "a prepared series must ship as one TCP round trip"
    );
    assert_eq!(after.batches - before.batches, 1);
    assert_eq!(after.requests - before.requests, series().len() as u64);
    assert!(
        after.bytes_sent > before.bytes_sent && after.bytes_received > before.bytes_received,
        "remote transport must count real wire bytes"
    );
    let remote_encoded = encode(&remote_results);

    assert_eq!(
        local_encoded, remote_encoded,
        "remote results must be byte-identical to local"
    );
    assert_eq!(local.leakage_report(), remote.leakage_report());
    assert!(local.leakage_report().within_bound);

    // In-process backends count no wire bytes.
    assert_eq!(local.transport_stats().bytes_sent, 0);
}

/// Acceptance: the server decrypt cache changes *nothing* observable —
/// local and remote return byte-identical result sets and identical
/// leakage reports with the cache on and off — while the repeated query
/// (query 3 = query 0) is served 100% from the cache wherever the
/// server actually lives, counted through the wire-format stats.
#[test]
fn decrypt_cache_is_invisible_in_results_and_counted_across_backends() {
    // The baseline decrypts every query afresh: with the token cache
    // off, the repeat (query 3) carries fresh tokens, which no
    // decrypt-cache entry matches.
    let (baseline, baseline_report) = {
        let mut session = Session::local(config(false));
        let encoded = run_series(&mut session);
        assert_eq!(session.stats().decrypt_cache_hits, 0);
        (encoded, session.leakage_report())
    };
    for token_cache in [true, false] {
        let (addr, _server) = spawn_server();
        let sessions = [
            Session::local(config(token_cache)),
            Session::remote(config(token_cache), addr).unwrap(),
        ];
        for mut session in sessions {
            populate(&mut session);
            let inputs: Vec<QueryInput> = series().iter().map(QueryInput::from).collect();
            let results = session.execute_all(&inputs).unwrap();

            // The repeat (query 3) must be a full decrypt-cache hit iff
            // it repeats the tokens too; everything else always misses
            // (fresh k).
            let repeat = &results[3];
            if token_cache {
                assert_eq!(
                    repeat.stats.decrypt_cache_hits as usize, repeat.stats.rows_decrypted,
                    "repeat must skip 100% of SJ.Dec"
                );
                assert_eq!(
                    session.stats().decrypt_cache_hits,
                    repeat.stats.decrypt_cache_hits,
                    "session total counts exactly the repeat's rows"
                );
            } else {
                assert_eq!(session.stats().decrypt_cache_hits, 0);
            }
            for (i, result) in results.iter().enumerate() {
                if i != 3 {
                    assert_eq!(result.stats.decrypt_cache_hits, 0, "query {i}");
                }
            }

            assert_eq!(
                encode(&results),
                baseline,
                "token_cache = {token_cache}: results must be byte-identical"
            );
            assert_eq!(
                session.leakage_report(),
                baseline_report,
                "token_cache = {token_cache}: leakage must be identical"
            );
            assert!(session.leakage_report().within_bound);
        }
    }
}

#[test]
fn remote_matches_local_with_cache_on_and_off() {
    for token_cache in [true, false] {
        let (addr, _server) = spawn_server();
        let mut local = Session::local(config(token_cache));
        let mut remote = Session::remote(config(token_cache), addr).unwrap();
        assert_eq!(
            run_series(&mut local),
            run_series(&mut remote),
            "token_cache = {token_cache}"
        );
        assert_eq!(local.leakage_report(), remote.leakage_report());
        assert_eq!(
            local.stats().client.tkgen_calls,
            remote.stats().client.tkgen_calls,
            "the cache works identically whatever the backend"
        );
    }
}

#[test]
fn sequential_execute_agrees_with_execute_all_over_remote() {
    let (addr_batched, _server_batched) = spawn_server();
    let (addr_sequential, _server_sequential) = spawn_server();
    let mut batched = Session::remote(config(true), addr_batched).unwrap();
    let mut sequential = Session::remote(config(true), addr_sequential).unwrap();
    let batched_encoded = run_series(&mut batched);
    populate(&mut sequential);
    let mut sequential_results = Vec::new();
    for query in series() {
        sequential_results.push(sequential.execute(&query).unwrap());
    }
    assert_eq!(batched_encoded, encode(&sequential_results));
    assert_eq!(batched.leakage_report(), sequential.leakage_report());
}

/// The two backend kinds under test, freshly constructed: in-process,
/// and TCP to the server at `addr`.
fn both_backends(addr: SocketAddr) -> Vec<(&'static str, Session<MockEngine>)> {
    vec![
        ("local", Session::local(config(true))),
        ("remote", Session::remote(config(true), addr).unwrap()),
    ]
}

fn run_inputs(session: &mut Session<MockEngine>) -> Vec<ResultSet> {
    let inputs: Vec<QueryInput> = series().iter().map(QueryInput::from).collect();
    session.execute_all(&inputs).unwrap()
}

/// Acceptance (ISSUE 5): incremental `InsertRows` produces results
/// byte-identical to a from-scratch rebuild on every backend, while the
/// hit counters prove that rows stored before the insert — and the
/// whole untouched other table — stay warm in the decrypt cache.
#[test]
fn incremental_inserts_match_full_rebuild_across_backends() {
    let (left_full, right) = tables();
    // First 25 rows up front, the remaining 15 arrive as an INSERT.
    let mut left_initial = Table::new(left_full.schema.clone());
    for row in &left_full.rows[..25] {
        left_initial.push_row(row.0.clone());
    }
    let tail: Vec<Vec<Value>> = left_full.rows[25..].iter().map(|r| r.0.clone()).collect();
    let l_cfg = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["color".into(), "size".into()],
    };
    let r_cfg = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["grade".into(), "zone".into()],
    };

    let (addr_incremental, _server_incremental) = spawn_server();
    let (addr_rebuilt, _server_rebuilt) = spawn_server();
    for ((name, mut incremental), (_, mut rebuilt)) in both_backends(addr_incremental)
        .into_iter()
        .zip(both_backends(addr_rebuilt))
    {
        // Incremental: partial upload → warm the series → insert the
        // tail → rerun the series.
        incremental.create_table(&left_initial, l_cfg()).unwrap();
        incremental.create_table(&right, r_cfg()).unwrap();
        run_inputs(&mut incremental);
        assert_eq!(incremental.insert_rows("L", &tail).unwrap(), 15, "{name}");
        let after = run_inputs(&mut incremental);

        // Rebuild: the final table uploaded whole, series run once.
        rebuilt.create_table(&left_full, l_cfg()).unwrap();
        rebuilt.create_table(&right, r_cfg()).unwrap();
        let fresh = run_inputs(&mut rebuilt);

        assert_eq!(
            encode(&after),
            encode(&fresh),
            "{name}: incremental insert must be byte-identical to a rebuild"
        );
        // Row-granular invalidation: every query of the rerun decrypts
        // L(40) + R(40) rows but only the 15 inserted L rows are fresh
        // — the 25 original L rows and all of R stay warm. Query 3
        // repeats query 0 within the batch, so by then even the new
        // rows are cached.
        for (i, result) in after.iter().enumerate() {
            assert_eq!(result.stats.rows_decrypted, 80, "{name} query {i}");
            let expected_hits = if i == 3 { 80 } else { 65 };
            assert_eq!(
                result.stats.decrypt_cache_hits, expected_hits,
                "{name} query {i}: 25 old L rows + 40 untouched R rows warm"
            );
        }
    }
}

/// Acceptance (ISSUE 5): incremental `DeleteRows` agrees with a
/// re-encrypted rebuild of the surviving rows (plaintext results — the
/// rebuild renumbers rows, ids legitimately differ), every surviving
/// row staying warm.
#[test]
fn incremental_deletes_match_full_rebuild_across_backends() {
    let (left_full, right) = tables();
    let deleted: Vec<u64> = vec![0, 7, 19, 33];
    let mut left_survivors = Table::new(left_full.schema.clone());
    for (i, row) in left_full.rows.iter().enumerate() {
        if !deleted.contains(&(i as u64)) {
            left_survivors.push_row(row.0.clone());
        }
    }
    let l_cfg = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["color".into(), "size".into()],
    };
    let r_cfg = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["grade".into(), "zone".into()],
    };

    let rows_only = |results: &[ResultSet]| -> Vec<Vec<Vec<u8>>> {
        results
            .iter()
            .map(|r| r.rows.iter().map(|row| row.encode()).collect())
            .collect()
    };

    let (addr_incremental, _server_incremental) = spawn_server();
    let (addr_rebuilt, _server_rebuilt) = spawn_server();
    for ((name, mut incremental), (_, mut rebuilt)) in both_backends(addr_incremental)
        .into_iter()
        .zip(both_backends(addr_rebuilt))
    {
        incremental.create_table(&left_full, l_cfg()).unwrap();
        incremental.create_table(&right, r_cfg()).unwrap();
        run_inputs(&mut incremental);
        assert_eq!(incremental.delete_rows("L", &deleted).unwrap(), 4, "{name}");
        let after = run_inputs(&mut incremental);

        rebuilt.create_table(&left_survivors, l_cfg()).unwrap();
        rebuilt.create_table(&right, r_cfg()).unwrap();
        let fresh = run_inputs(&mut rebuilt);

        assert_eq!(
            rows_only(&after),
            rows_only(&fresh),
            "{name}: deletion must agree with a rebuild of the survivors"
        );
        // Nothing that survived may be re-decrypted: 36 L + 40 R rows,
        // all warm.
        for (i, result) in after.iter().enumerate() {
            assert_eq!(result.stats.rows_decrypted, 76, "{name} query {i}");
            assert_eq!(result.stats.decrypt_cache_hits, 76, "{name} query {i}");
        }
        // Deleting an unknown id errors cleanly on every backend.
        assert!(matches!(
            incremental.delete_rows("L", &[0]),
            Err(eqjoin::db::DbError::UnknownRow { .. })
        ));
    }
}

/// Acceptance (ISSUE 5): a server restarted from a snapshot replays a
/// repeated stage with **zero** fresh pairings/Miller loops — asserted
/// by the process-wide op counters, not timing.
#[test]
fn restart_with_snapshot_runs_zero_fresh_miller_loops() {
    use eqjoin::db::{DbClient, DbServer, EncryptedStore, JoinOptions};
    use eqjoin::pairing::{ops, Bls12};

    let _guard = BLS_OPS_LOCK.lock().unwrap();
    let mut client = DbClient::<Bls12>::new(1, 1, 42);
    let mut server = DbServer::new();
    let mut left = Table::new(eqjoin::db::Schema::new("L", &["k", "a"]));
    let mut right = Table::new(eqjoin::db::Schema::new("R", &["k", "b"]));
    for i in 0..3i64 {
        left.push_row(vec![Value::Int(i % 2), "x".into()]);
        right.push_row(vec![Value::Int(i % 2), "y".into()]);
    }
    let cfg = |c: &str| TableConfig {
        join_column: "k".into(),
        filter_columns: vec![c.to_owned()],
    };
    server
        .insert_table(client.encrypt_table(&left, cfg("a")).unwrap())
        .unwrap();
    server
        .insert_table(client.encrypt_table(&right, cfg("b")).unwrap())
        .unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    let opts = JoinOptions::default();
    let (cold, cold_observation) = server.execute_join(&tokens, &opts).unwrap();
    assert!(cold.stats.rows_decrypted > 0);

    // "Kill" the server: serialize the store, drop the process state,
    // restore — then replay the same stage and audit the counters.
    let snapshot = server.store().snapshot_bytes();
    drop(server);
    let restored =
        DbServer::with_store(EncryptedStore::<Bls12>::from_snapshot_bytes(&snapshot).unwrap());

    let before = ops::snapshot();
    let (warm, warm_observation) = restored.execute_join(&tokens, &opts).unwrap();
    let delta = ops::snapshot().since(&before);
    assert_eq!(delta.pairings, 0, "zero fresh pairings after restart");
    assert_eq!(
        delta.miller_pairs, 0,
        "zero fresh Miller loops after restart"
    );
    assert_eq!(delta.prepared_miller_pairs, 0);
    assert_eq!(
        warm.stats.decrypt_cache_hits as usize,
        warm.stats.rows_decrypted
    );
    assert_eq!(
        cold_observation.pairs(),
        warm_observation.pairs(),
        "byte-identical match set"
    );
}

/// Acceptance (ISSUE 5): the prepared Miller loop agrees with the
/// unprepared oracle on random points — the prepared path the store
/// serves `SJ.Dec` from is bit-compatible with the reference loop.
mod prepared_oracle {
    use super::BLS_OPS_LOCK;
    use eqjoin::pairing::{
        final_exponentiation, multi_miller_loop, multi_miller_loop_prepared, Bls12, Engine, Fr,
        G2Prepared,
    };
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prepared_miller_loop_agrees_with_unprepared_oracle(
            scalars in proptest::collection::vec((1u64..1_000_000, 1u64..1_000_000), 1..4),
        ) {
            let _guard = BLS_OPS_LOCK.lock().unwrap();
            let pairs: Vec<_> = scalars
                .iter()
                .map(|&(a, b)| {
                    (
                        Bls12::g1_mul_gen(&Fr::from_u64(a)),
                        Bls12::g2_mul_gen(&Fr::from_u64(b)),
                    )
                })
                .collect();
            let prepared: Vec<G2Prepared> =
                pairs.iter().map(|(_, q)| G2Prepared::from_affine(q)).collect();
            let with_prep: Vec<_> = pairs
                .iter()
                .zip(&prepared)
                .map(|((p, _), q)| (*p, q))
                .collect();
            // Raw Miller values agree bit-for-bit, hence so do the
            // pairings.
            prop_assert_eq!(
                multi_miller_loop_prepared(&with_prep),
                multi_miller_loop(&pairs)
            );
            prop_assert_eq!(
                final_exponentiation(&multi_miller_loop_prepared(&with_prep)),
                Bls12::multi_pair_prepared(
                    &pairs.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
                    &prepared
                )
            );
        }
    }
}

/// Acceptance (ISSUE 4): a 3-table chain with projection executes on
/// both backends with identical `ResultSet`s and `LeakageReport`s,
/// decrypts only the projected columns (asserted via the `ClientStats`
/// column-decrypt counters), and a repeated chain in one series hits
/// the token cache on every pairwise stage.
#[test]
fn three_table_chain_with_projection_agrees_across_backends() {
    use eqjoin::db::QueryPlan;

    fn third_table() -> Table {
        use eqjoin::db::Schema;
        let mut t = Table::new(Schema::new("S", &["k", "tag", "note"]));
        for i in 0..30i64 {
            t.push_row(vec![
                Value::Int(i % 6),
                ["x", "y", "z"][(i % 3) as usize].into(),
                Value::Int(i),
            ]);
        }
        t
    }

    fn populate3(session: &mut Session<MockEngine>) {
        populate(session);
        session
            .create_table(
                &third_table(),
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["tag".into(), "note".into()],
                },
            )
            .unwrap();
    }

    // L ⋈ R ⋈ S through k, filtered on R, projecting one column per
    // outer table and nothing of the middle one.
    let plan = QueryPlan::scan("L")
        .join_on("L", "k", "R", "k")
        .join_on("R", "k", "S", "k")
        .filter("R", "grade", vec!["a".into()])
        .project(&[("L", "color"), ("S", "tag")]);

    let (addr, _server) = spawn_server();
    let mut sessions = both_backends(addr);

    let mut encodings = Vec::new();
    let mut reports = Vec::new();
    for (name, session) in &mut sessions {
        populate3(session);

        let first = session.execute(&plan).unwrap();
        assert_eq!(first.stage_stats.len(), 2, "{name}: two pairwise stages");
        assert_eq!(first.stage_cache_hits, vec![false, false]);
        assert!(!first.rows.is_empty(), "{name}: chain matches exist");
        assert_eq!(first.columns.len(), 2);
        for row in &first.rows {
            assert_eq!(row.0.len(), 2, "{name}: projected width");
        }

        // Only the projected columns were opened: L.color and S.tag,
        // once per distinct matched row — never R's or the unselected
        // L/S columns.
        let stats = session.stats().client;
        let distinct_l: std::collections::BTreeSet<usize> =
            first.tuples.iter().map(|t| t[0]).collect();
        let distinct_s: std::collections::BTreeSet<usize> =
            first.tuples.iter().map(|t| t[2]).collect();
        assert_eq!(
            stats.column_decrypts,
            (distinct_l.len() + distinct_s.len()) as u64,
            "{name}: one open per projected column per distinct row"
        );
        let distinct_r: std::collections::BTreeSet<usize> =
            first.tuples.iter().map(|t| t[1]).collect();
        // Skipped: 2 of 3 L columns, all 3 R columns, 2 of 3 S columns.
        assert_eq!(
            stats.column_decrypts_skipped,
            (2 * distinct_l.len() + 3 * distinct_r.len() + 2 * distinct_s.len()) as u64,
            "{name}: projection accounts every skipped column"
        );

        // The repeated chain hits the token cache on *every* stage.
        let again = session.execute(&plan).unwrap();
        assert!(again.cache_hit, "{name}: repeat is a full cache hit");
        assert_eq!(again.stage_cache_hits, vec![true, true]);
        assert_eq!(again.rows, first.rows);
        assert_eq!(again.tuples, first.tuples);
        assert_eq!(
            session.stats().client.tkgen_calls,
            4,
            "{name}: 2 sides × 2 stages, generated once"
        );

        let mut bytes = Vec::new();
        for result in [&first, &again] {
            for tuple in &result.tuples {
                for &i in tuple {
                    bytes.extend_from_slice(&(i as u64).to_le_bytes());
                }
            }
            for row in &result.rows {
                bytes.extend_from_slice(&row.encode());
            }
        }
        encodings.push(bytes);
        reports.push(session.leakage_report());
    }
    assert_eq!(encodings[0], encodings[1], "local vs remote");
    assert_eq!(reports[0], reports[1]);
    assert!(reports[0].within_bound);
    assert_eq!(reports[0].queries, 4, "2 chains × 2 stages each");
}
