//! Session-level integration: token-cache correctness over a series of
//! queries with overlapping `IN` filters, the `SJ.TkGen` savings the
//! cache buys over the raw `DbClient` path, and the embedded leakage
//! ledger's agreement with manual bookkeeping.

use eqjoin::db::{
    DbClient, DbServer, JoinObservation, JoinOptions, JoinQuery, LocalBackend, QueryPlan, Request,
    Response, Schema, ServerApi, Session, SessionConfig, Table, TableConfig, Value,
};
use eqjoin::leakage::Node;
use eqjoin::pairing::{Bls12, Engine, MockEngine};
use std::sync::{Arc, Mutex};

/// Every observation a [`Recording`] backend handed back, in order, with
/// the two tables its request joined (a member names its side).
type Seen = Arc<Mutex<Vec<([String; 2], JoinObservation)>>>;

/// Forwards to a local backend and keeps every observation the server
/// hands back — the input of a ledger built by hand.
struct Recording {
    inner: LocalBackend<MockEngine>,
    seen: Seen,
}

impl Recording {
    fn session(config: SessionConfig) -> (Session<MockEngine>, Seen) {
        let seen = Seen::default();
        let backend = Recording {
            inner: LocalBackend::new(),
            seen: Arc::clone(&seen),
        };
        (Session::with_backend(config, Box::new(backend)), seen)
    }

    fn keep(&self, request: &Request<MockEngine>, response: &Response) {
        match (request, response) {
            (Request::ExecuteJoin { tokens, .. }, Response::JoinExecuted { observation, .. }) => {
                let tables = [tokens.left.table.clone(), tokens.right.table.clone()];
                self.seen
                    .lock()
                    .unwrap()
                    .push((tables, observation.clone()))
            }
            (Request::Batch(requests), Response::Batch(responses)) => requests
                .iter()
                .zip(responses)
                .for_each(|(q, r)| self.keep(q, r)),
            _ => {}
        }
    }
}

impl ServerApi<MockEngine> for Recording {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        let response = self.inner.handle(request.clone());
        self.keep(&request, &response);
        response
    }
}

/// An observation's classes as ledger nodes: a member names its side,
/// the request names the sides' tables.
fn nodes(tables: &[String; 2], observation: &JoinObservation) -> Vec<Vec<Node>> {
    observation
        .equality_classes
        .iter()
        .map(|c| {
            c.iter()
                .map(|&(side, r)| Node::new(&tables[usize::from(side)], r))
                .collect()
        })
        .collect()
}

fn tables() -> (Table, Table) {
    tables_of(30)
}

fn tables_of(rows: i64) -> (Table, Table) {
    let mut left = Table::new(Schema::new("L", &["k", "color", "size"]));
    let mut right = Table::new(Schema::new("R", &["k", "grade", "zone"]));
    for i in 0..rows {
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

fn configs() -> (TableConfig, TableConfig) {
    (
        TableConfig {
            join_column: "k".into(),
            filter_columns: vec!["color".into(), "size".into()],
        },
        TableConfig {
            join_column: "k".into(),
            filter_columns: vec!["grade".into(), "zone".into()],
        },
    )
}

/// A repeated-query series with overlapping `IN` filters: queries 0 and
/// 3 are identical, 1 and 4 are identical up to filter order and value
/// duplication (same canonical query), 2 is distinct but shares filter
/// values with 0.
fn series() -> Vec<JoinQuery> {
    let base = || JoinQuery::on("L", "k", "R", "k");
    vec![
        base()
            .filter("L", "color", vec!["red".into(), "blue".into()])
            .filter("R", "grade", vec!["a".into()]),
        base().filter("L", "color", vec!["red".into()]),
        base()
            .filter("L", "color", vec!["red".into(), "blue".into()])
            .filter("R", "grade", vec!["b".into()]),
        base()
            .filter("L", "color", vec!["red".into(), "blue".into()])
            .filter("R", "grade", vec!["a".into()]),
        base().filter("L", "color", vec!["red".into(), "red".into()]),
    ]
}

fn run_series<E: Engine>(rows: i64, token_cache: bool) -> (Vec<Vec<u8>>, u64, u64) {
    let mut session = Session::<E>::local(
        SessionConfig::new(2, 3)
            .seed(0xcafe)
            .token_cache(token_cache),
    );
    let (left, right) = tables_of(rows);
    let (lcfg, rcfg) = configs();
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();
    let mut encoded = Vec::new();
    for query in series() {
        let result = session.execute(&QueryPlan::from(&query)).unwrap();
        // Byte-exact encoding of the decrypted result set.
        let mut bytes = Vec::new();
        for row in &result.rows {
            bytes.extend_from_slice(&row.encode());
        }
        encoded.push(bytes);
    }
    let stats = session.stats();
    (encoded, stats.client.tkgen_calls, stats.token_cache_hits)
}

#[test]
fn cache_on_and_off_give_byte_identical_results_mock() {
    let (with_cache, tkgen_cached, hits) = run_series::<MockEngine>(30, true);
    let (without_cache, tkgen_fresh, no_hits) = run_series::<MockEngine>(30, false);
    assert_eq!(
        with_cache, without_cache,
        "token cache must not change any result byte"
    );
    // 5 queries, 3 distinct: queries 3 and 4 hit (query 4 only differs
    // by a duplicated IN value — same canonical query as query 1).
    assert_eq!(hits, 2);
    assert_eq!(no_hits, 0);
    assert_eq!(tkgen_fresh, 10, "2 SJ.TkGen per query without the cache");
    assert_eq!(tkgen_cached, 6, "2 SJ.TkGen per *distinct* query with it");
}

#[test]
fn cache_on_and_off_give_byte_identical_results_bls() {
    // Small tables: every decrypt is a real multi-pairing.
    let (with_cache, tkgen_cached, _) = run_series::<Bls12>(8, true);
    let (without_cache, tkgen_fresh, _) = run_series::<Bls12>(8, false);
    assert_eq!(with_cache, without_cache);
    assert!(tkgen_cached < tkgen_fresh);
}

#[test]
fn session_series_beats_raw_client_on_tkgen_calls() {
    // Acceptance: the same repeated-query series through Session issues
    // strictly fewer SJ.TkGen calls than through the raw DbClient path.
    let (left, right) = tables();
    let (lcfg, rcfg) = configs();

    // Raw path: tokens generated by hand for every query.
    let mut client = DbClient::<MockEngine>::new(2, 3, 0xcafe);
    let mut server = DbServer::new();
    server
        .insert_table(client.encrypt_table(&left, lcfg.clone()).unwrap())
        .unwrap();
    server
        .insert_table(client.encrypt_table(&right, rcfg.clone()).unwrap())
        .unwrap();
    let mut raw_pairs = Vec::new();
    for query in series() {
        let tokens = client.query_tokens(&query).unwrap();
        let (_, observation) = server
            .execute_join(&tokens, &JoinOptions::default())
            .unwrap();
        raw_pairs.push(observation.pairs());
    }
    let raw_tkgen = client.stats().tkgen_calls;

    // Session path: same series, same seed.
    let mut session = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(0xcafe));
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();
    let mut session_pairs = Vec::new();
    for query in series() {
        let result = session.execute(&QueryPlan::from(&query)).unwrap();
        let mut pairs: Vec<(usize, usize)> = result.tuples.iter().map(|t| (t[0], t[1])).collect();
        pairs.sort_unstable();
        session_pairs.push(pairs);
    }
    let session_tkgen = session.stats().client.tkgen_calls;

    assert_eq!(raw_pairs, session_pairs, "identical join results");
    assert!(
        session_tkgen < raw_tkgen,
        "session must save SJ.TkGen calls ({session_tkgen} vs {raw_tkgen})"
    );
}

#[test]
fn ledger_matches_manual_accounting() {
    use eqjoin::leakage::{
        closure, pairs_from_classes, LeakageLedger, Node, PairSet, QueryLeakage,
    };

    // Manual path over raw client/server, mirroring what Session does.
    let (left, right) = tables();
    let (lcfg, rcfg) = configs();
    let mut client = DbClient::<MockEngine>::new(2, 3, 0xbeef);
    let mut server = DbServer::new();
    server
        .insert_table(client.encrypt_table(&left, lcfg.clone()).unwrap())
        .unwrap();
    server
        .insert_table(client.encrypt_table(&right, rcfg.clone()).unwrap())
        .unwrap();
    let mut manual = LeakageLedger::new();
    let mut union = PairSet::new();
    for (i, query) in series().iter().enumerate() {
        let tokens = client.query_tokens(query).unwrap();
        let (_, obs) = server
            .execute_join(&tokens, &JoinOptions::default())
            .unwrap();
        // A member names its side; the tokens name the sides' tables.
        let tables = [&tokens.left.table, &tokens.right.table];
        let classes: Vec<Vec<Node>> = obs
            .equality_classes
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(side, r)| Node::new(tables[usize::from(side)], r))
                    .collect()
            })
            .collect();
        let per_query = pairs_from_classes(&classes);
        union.union_with(&per_query);
        manual.record(QueryLeakage {
            query_id: i as u64,
            per_query,
            cumulative_visible: closure(&union),
        });
    }

    let mut session = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(0xbeef));
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();
    for query in series() {
        session.execute(&QueryPlan::from(&query)).unwrap();
    }

    let report = session.leakage_report();
    assert_eq!(report.queries, manual.len());
    assert_eq!(report.visible_pairs, manual.visible_now().len());
    assert_eq!(report.closure_bound, manual.closure_bound().len());
    assert_eq!(report.within_bound, manual.is_within_closure_bound());
    assert!(report.within_bound, "Secure Join stays within the bound");
    assert_eq!(
        session.ledger().growth_series(),
        manual.growth_series(),
        "per-query growth curves agree"
    );
}

#[test]
fn prepared_queries_share_the_session_cache() {
    let mut session = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(1));
    let (left, right) = tables();
    let (lcfg, rcfg) = configs();
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();
    let q = JoinQuery::on("L", "k", "R", "k").filter("L", "color", vec!["red".into()]);
    let (p1, p2) = (QueryPlan::from(&q), QueryPlan::from(&q));
    session.prepare(&p1).unwrap();
    session.prepare(&p2).unwrap();
    session.execute(&p1).unwrap();
    let r2 = session.execute(&p2).unwrap();
    assert!(r2.cache_hit, "two prepared plans, one cache entry");
    assert_eq!(session.stats().client.tkgen_calls, 2);
}

#[test]
fn sql_insert_and_delete_statements_run_end_to_end() {
    use eqjoin::sql::{run, Outcome};

    let mut session = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(4));
    let (left, right) = tables();
    let (lcfg, rcfg) = configs();
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();

    let count = |session: &mut Session<MockEngine>| -> usize {
        match run(
            session,
            "SELECT * FROM L JOIN R ON L.k = R.k WHERE L.color = 'violet'",
        )
        .unwrap()
        {
            Outcome::Rows(result) => result.rows.len(),
            other => panic!("expected rows, got {other:?}"),
        }
    };
    assert_eq!(count(&mut session), 0, "no violet rows yet");

    // INSERT three L rows with a fresh color; k = 0 matches R's k = 0
    // rows (6 of 30).
    match run(
        &mut session,
        "INSERT INTO L VALUES (0, 'violet', 9), (0, 'violet', 10), (1, 'violet', 11);",
    )
    .unwrap()
    {
        Outcome::Inserted(n) => assert_eq!(n, 3),
        other => panic!("expected Inserted, got {other:?}"),
    }
    let with_inserts = count(&mut session);
    assert!(with_inserts > 0, "inserted rows participate in joins");

    // DELETE the two k = 0 inserts by rowid (ids continue after the 30
    // original rows: 30, 31, 32).
    match run(&mut session, "DELETE FROM L WHERE rowid IN (30, 31)").unwrap() {
        Outcome::Deleted(n) => assert_eq!(n, 2),
        other => panic!("expected Deleted, got {other:?}"),
    }
    let after_delete = count(&mut session);
    assert!(after_delete < with_inserts);

    // Statement errors surface cleanly.
    assert!(run(&mut session, "DELETE FROM Ghost WHERE rowid = 0").is_err());
    assert!(run(&mut session, "INSERT INTO L VALUES (1)").is_err());
}

#[test]
fn copy_table_streams_chunks_and_joins_like_create_table() {
    let (left, right) = tables();
    let (lcfg, rcfg) = configs();
    let query = QueryPlan::from(&series().remove(0));

    // Baseline: the one-request upload path.
    let mut whole = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(0xfeed));
    whole.create_table(&left, lcfg.clone()).unwrap();
    whole.create_table(&right, rcfg.clone()).unwrap();
    let baseline = whole.execute(&query).unwrap();

    // Streaming path: 30-row tables in 7-row chunks (five chunks, the
    // last partial; the first creates the table server-side).
    let mut streamed = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(0xfeed));
    assert_eq!(streamed.copy_table(&left, lcfg, 7).unwrap(), 30);
    assert_eq!(streamed.copy_table(&right, rcfg, 7).unwrap(), 30);
    let copied = streamed.execute(&query).unwrap();

    let encode = |r: &eqjoin::db::ResultSet| -> Vec<u8> {
        r.rows.iter().flat_map(|row| row.encode()).collect()
    };
    assert_eq!(
        encode(&baseline),
        encode(&copied),
        "a chunk-streamed table must answer queries byte-identically \
         to a whole-table upload"
    );
}

#[test]
fn copy_table_of_one_row_more_than_a_chunk_ships_two_chunks() {
    let (left, right) = tables_of(8);
    let (lcfg, rcfg) = configs();
    let query = QueryPlan::from(&series().remove(0));

    let mut whole = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(0xfeed));
    whole.create_table(&left, lcfg.clone()).unwrap();
    whole.create_table(&right, rcfg.clone()).unwrap();
    let baseline = whole.execute(&query).unwrap();

    // 8 rows in 7-row chunks: a full chunk, then one holding the last row.
    let mut streamed = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(0xfeed));
    let before = streamed.transport_stats().round_trips;
    assert_eq!(streamed.copy_table(&left, lcfg, 7).unwrap(), 8);
    assert_eq!(streamed.transport_stats().round_trips - before, 2);
    assert_eq!(streamed.copy_table(&right, rcfg, 7).unwrap(), 8);
    let copied = streamed.execute(&query).unwrap();

    let encode = |r: &eqjoin::db::ResultSet| -> Vec<u8> {
        r.rows.iter().flat_map(|row| row.encode()).collect()
    };
    assert!(!baseline.rows.is_empty());
    assert_eq!(encode(&baseline), encode(&copied));
}

#[test]
fn sql_copy_statement_bulk_loads_end_to_end() {
    use eqjoin::sql::{run, Outcome};

    let mut session = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(4));
    let (left, right) = tables();
    let (lcfg, rcfg) = configs();
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();

    match run(
        &mut session,
        "COPY L FROM VALUES (0, 'violet', 9), (0, 'violet', 10);",
    )
    .unwrap()
    {
        Outcome::Copied(n) => assert_eq!(n, 2),
        other => panic!("expected Copied, got {other:?}"),
    }
    match run(
        &mut session,
        "SELECT * FROM L JOIN R ON L.k = R.k WHERE L.color = 'violet'",
    )
    .unwrap()
    {
        Outcome::Rows(result) => assert!(
            !result.rows.is_empty(),
            "COPY-loaded rows participate in joins"
        ),
        other => panic!("expected rows, got {other:?}"),
    }

    // COPY resolves against the catalog like every other statement.
    assert!(run(&mut session, "COPY Ghost FROM VALUES (1, 'x', 2)").is_err());
    assert!(run(&mut session, "COPY L FROM VALUES (1)").is_err());
}

#[test]
fn sql_errors_send_nothing() {
    use eqjoin::db::DbError;
    use eqjoin::sql::run;

    let mut session = Session::<MockEngine>::local(SessionConfig::new(2, 3).seed(4));
    let (left, right) = tables();
    let (lcfg, rcfg) = configs();
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();
    let before = session.transport_stats().round_trips;

    for sql in [
        "SELECT * FROM L JOIN Ghost ON L.k = Ghost.k",
        "INSERT INTO Ghost VALUES (1)",
        "DELETE FROM Ghost WHERE rowid = 0",
        "COPY Ghost FROM VALUES (1)",
    ] {
        match run(&mut session, sql) {
            Err(DbError::UnknownTable(table)) => assert_eq!(table, "Ghost"),
            other => panic!("{sql}: expected UnknownTable, got {other:?}"),
        }
    }
    for sql in [
        "INSERT INTO L VALUES (1, 'red')",
        "INSERT INTO L VALUES (1, 'red', 2, 3)",
        "COPY L FROM VALUES (1)",
        "COPY R FROM VALUES (1, 'a', 'b', 'c')",
    ] {
        match run(&mut session, sql) {
            Err(DbError::Sql(message)) => assert!(message.contains("values"), "{message}"),
            other => panic!("{sql}: expected DbError::Sql, got {other:?}"),
        }
    }
    assert_eq!(
        session.transport_stats().round_trips,
        before,
        "a statement that fails to plan sends nothing"
    );
}

#[test]
fn chain_series_with_mutations_matches_a_from_scratch_ledger() {
    use eqjoin::db::QueryPlan;
    use eqjoin::leakage::{closure, pairs_from_classes, LeakageLedger, PairSet, QueryLeakage};

    let (mut session, seen) = Recording::session(SessionConfig::new(2, 3).seed(0xc4a1));
    let (left, right) = tables_of(24);
    let (lcfg, rcfg) = configs();
    let mut third = Table::new(Schema::new("S", &["k", "tag", "note"]));
    for i in 0..18i64 {
        third.push_row(vec![
            Value::Int(i % 6),
            ["x", "y", "z"][(i % 3) as usize].into(),
            Value::Int(i),
        ]);
    }
    session.create_table(&left, lcfg).unwrap();
    session.create_table(&right, rcfg).unwrap();
    session
        .create_table(
            &third,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["tag".into(), "note".into()],
            },
        )
        .unwrap();

    // L ⋈ R ⋈ S, filtered differently so the stages' classes overlap
    // through the middle table and merge across queries.
    let chain = |color: &str, grade: &str| {
        QueryPlan::scan("L")
            .join_on("L", "k", "R", "k")
            .join_on("R", "k", "S", "k")
            .filter("L", "color", vec![color.into()])
            .filter("R", "grade", vec![grade.into()])
            .project(&[("L", "size"), ("S", "tag")])
    };
    let mut deltas = Vec::new();
    let mut run = |session: &mut Session<MockEngine>, plan: &QueryPlan| {
        let result = session.execute(plan).unwrap();
        deltas.push(result.leakage_delta);
        result.leakage_delta
    };
    assert!(run(&mut session, &chain("red", "a")) > 0);
    assert_eq!(
        run(&mut session, &chain("red", "a")),
        0,
        "a repeat adds nothing"
    );
    run(&mut session, &chain("blue", "b"));
    // Rows joining existing classes: the next query grows them.
    session
        .insert_rows(
            "R",
            &[
                vec![Value::Int(1), "a".into(), Value::Int(0)],
                vec![Value::Int(2), "b".into(), Value::Int(1)],
            ],
        )
        .unwrap();
    assert!(run(&mut session, &chain("red", "a")) > 0);
    // Deleted rows stay leaked: the closure never shrinks.
    session.delete_rows("L", &[0, 3, 7]).unwrap();
    run(&mut session, &chain("green", "a"));
    run(&mut session, &chain("blue", "b"));
    session
        .insert_rows("L", &[vec![Value::Int(2), "green".into(), Value::Int(3)]])
        .unwrap();
    run(&mut session, &chain("green", "b"));
    assert_eq!(run(&mut session, &chain("green", "b")), 0);

    let mut manual = LeakageLedger::new();
    let mut union = PairSet::new();
    for (i, (tables, obs)) in seen.lock().unwrap().iter().enumerate() {
        let per_query = pairs_from_classes(&nodes(tables, obs));
        union.union_with(&per_query);
        manual.record(QueryLeakage {
            query_id: i as u64,
            per_query,
            cumulative_visible: closure(&union),
        });
    }
    assert_eq!(manual.len(), 16, "eight chains, two stages each");

    let report = session.leakage_report();
    assert_eq!(report.queries, manual.len());
    assert_eq!(report.visible_pairs, manual.visible_now().len());
    assert_eq!(report.closure_bound, manual.closure_bound().len());
    assert_eq!(report.within_bound, manual.is_within_closure_bound());
    assert_eq!(
        report.super_additive_excess,
        manual.super_additive_excess().len()
    );
    assert_eq!(session.ledger().growth_series(), manual.growth_series());
    assert_eq!(session.visible_pairs(), closure(&union));
    assert_eq!(
        deltas.iter().sum::<usize>(),
        report.visible_pairs,
        "the per-query deltas add up to the report"
    );
}

#[test]
fn a_low_cardinality_join_is_recorded_as_its_two_classes() {
    use eqjoin::leakage::{closure, pairs_from_classes};

    // 200 × 200 rows, join column k = i % 2: two classes of 100 + 100
    // rows each, every two of whose members the server saw equal.
    let side = |name: &str| {
        let mut table = Table::new(Schema::new(name, &["k"]));
        for i in 0..200 {
            table.push_row(vec![Value::Int(i % 2)]);
        }
        table
    };
    let on_k = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec![],
    };
    let (mut session, seen) = Recording::session(SessionConfig::new(1, 1).seed(2));
    session.create_table(&side("L"), on_k()).unwrap();
    session.create_table(&side("R"), on_k()).unwrap();
    let result = session
        .execute(&QueryPlan::from(JoinQuery::on("L", "k", "R", "k")))
        .unwrap();
    assert_eq!(result.tuples.len(), 2 * 100 * 100);
    assert_eq!(result.stats.matched_pairs, 2 * 100 * 100);

    let report = session.leakage_report();
    assert_eq!(report.visible_pairs, 39_800, "2 × C(200, 2)");
    assert_eq!(report.closure_bound, report.visible_pairs);
    assert_eq!(result.leakage_delta, 39_800);
    let seen = seen.lock().unwrap();
    let [(tables, observation)] = seen.as_slice() else {
        panic!("one join, one observation: {}", seen.len());
    };
    let sigma = pairs_from_classes(&nodes(tables, observation));
    assert_eq!(session.ledger().per_query(0), sigma);
    assert_eq!(session.visible_pairs(), closure(&sigma));
}
