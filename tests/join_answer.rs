//! A join's answer says each fact once. The server reports the equality
//! classes it observed and ships each matched row once per side with
//! the payload columns asked for; the pairs are the left × right cross
//! product inside each class, read off by the client
//! (`JoinObservation::pairs`), never sent as a list of their own.
//!
//! The chain here is `Customers ⋈ Orders ⋈ Profiles` on `custkey`, in
//! which one selected customer has three selected orders: that customer
//! is in three pairs of stage 1, and its sealed payload still crosses
//! the wire once. Stage 2 is anchored at `Customers`, whose payloads
//! stage 1 already shipped, so it asks for none and ships no rows for
//! that side. The same answers, altered on the way back, must be
//! refused by the session with a typed protocol error. And an answer
//! is a function of its inputs: two servers given the same tables and
//! tokens send the same bytes, classes in first-member order.

use eqjoin::baselines::ground_truth::reference_join;
use eqjoin::db::{
    DbClient, DbError, EncryptedJoinResult, EncryptedTable, JoinObservation, JoinQuery,
    LocalBackend, QueryPlan, QueryTokens, Request, Response, Row, Schema, ServerApi, Session,
    SessionConfig, Table, TableConfig, Value,
};
use eqjoin::pairing::MockEngine;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Req = Request<MockEngine>;

/// Every request a `Recorder` served, with its answer, in order.
type Seen = Arc<Mutex<Vec<(Req, Response)>>>;

/// A `LocalBackend` that keeps every exchange it serves.
struct Recorder {
    inner: LocalBackend<MockEngine>,
    seen: Seen,
}

impl ServerApi<MockEngine> for Recorder {
    fn handle(&self, request: Req) -> Response {
        let response = self.inner.handle(request.clone());
        self.seen
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((request, response.clone()));
        response
    }
}

/// `Customers(custkey, segment, name)`, `Orders(custkey, priority,
/// total)` and `Profiles(custkey, region, note)`. Customer 0 (`auto`)
/// has three `urgent` orders and one `low`; customer 1 is `build`;
/// customer 2 (`auto`) has one `urgent` order.
fn tables() -> [(Table, &'static str); 3] {
    let table = |name: &str, columns: [&str; 3], rows: &[(i64, &str, &str)]| {
        let mut t = Table::new(Schema::new(name, &columns));
        for &(k, filter, payload) in rows {
            t.push_row(vec![Value::Int(k), filter.into(), payload.into()]);
        }
        t
    };
    [
        (
            table(
                "Customers",
                ["custkey", "segment", "name"],
                &[(0, "auto", "ann"), (1, "build", "bob"), (2, "auto", "cy")],
            ),
            "segment",
        ),
        (
            table(
                "Orders",
                ["custkey", "priority", "total"],
                &[
                    (0, "urgent", "o-10"),
                    (0, "urgent", "o-11"),
                    (0, "low", "o-12"),
                    (0, "urgent", "o-13"),
                    (1, "urgent", "o-14"),
                    (2, "urgent", "o-15"),
                ],
            ),
            "priority",
        ),
        (
            table(
                "Profiles",
                ["custkey", "region", "note"],
                &[(0, "emea", "p-0"), (1, "apac", "p-1"), (2, "emea", "p-2")],
            ),
            "region",
        ),
    ]
}

fn chain() -> QueryPlan {
    QueryPlan::scan("Customers")
        .join_on("Customers", "custkey", "Orders", "custkey")
        .join_on("Customers", "custkey", "Profiles", "custkey")
        .filter("Customers", "segment", vec!["auto".into()])
        .filter("Orders", "priority", vec!["urgent".into()])
        .project(&[
            ("Customers", "name"),
            ("Orders", "total"),
            ("Profiles", "note"),
        ])
}

/// A session over `backend` with the three tables uploaded.
fn session(backend: Box<dyn ServerApi<MockEngine>>) -> Session<MockEngine> {
    let mut session = Session::with_backend(SessionConfig::new(2, 3).seed(0x41), backend);
    for (table, filter) in tables() {
        let config = TableConfig {
            join_column: "custkey".into(),
            filter_columns: vec![filter.into()],
        };
        session.create_table(&table, config).expect("upload");
    }
    session
}

/// The chain's result, the sealed `name` payload of customer 0 as
/// uploaded, and the chain's batch: each stage's request and answer.
fn run_chain() -> (Vec<Row>, Vec<u8>, Vec<(Req, Response)>) {
    let seen = Seen::default();
    let mut session = session(Box::new(Recorder {
        inner: LocalBackend::new(),
        seen: Arc::clone(&seen),
    }));
    let result = session.execute(chain()).expect("chain query");
    let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
    let customer_name = seen
        .iter()
        .find_map(|(request, _)| match request {
            Request::InsertTable(t) if t.name == "Customers" => Some(t.rows[0].payloads[2].clone()),
            _ => None,
        })
        .expect("Customers was uploaded");
    let stages = seen
        .iter()
        .find_map(|exchange| match exchange {
            (Request::Batch(requests), Response::Batch(responses)) => Some(
                requests
                    .iter()
                    .cloned()
                    .zip(responses.iter().cloned())
                    .collect(),
            ),
            _ => None,
        })
        .expect("a chain ships as one batch");
    (result.rows, customer_name, stages)
}

fn occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

#[test]
fn a_customer_in_three_pairs_ships_its_payload_once() {
    let (rows, customer_name, stages) = run_chain();
    let ann = rows
        .iter()
        .filter(|row| row.0[0] == Value::Str("ann".into()))
        .count();
    assert_eq!(ann, 3, "customer 0 is in three result rows");
    let (_, stage_1) = &stages[0];
    assert_eq!(
        occurrences(&stage_1.to_bytes(), &customer_name),
        1,
        "stage 1 ships customer 0's sealed name once, not once per pair"
    );
}

/// `(request, result, observation)` of each stage.
fn answers(stages: &[(Req, Response)]) -> Vec<(&Req, &EncryptedJoinResult, &JoinObservation)> {
    stages
        .iter()
        .map(|(request, response)| match response {
            Response::JoinExecuted {
                result,
                observation,
            } => (request, result, observation),
            other => panic!("a stage failed: {other:?}"),
        })
        .collect()
}

#[test]
fn each_side_ships_each_matched_row_once_and_an_anchor_ships_none() {
    let (_, _, stages) = run_chain();
    let answers = answers(&stages);
    assert_eq!(answers.len(), 2, "two pairwise stages");
    for (stage, (request, result, observation)) in answers.iter().enumerate() {
        let Request::ExecuteJoin { projection, .. } = request else {
            panic!("stage {stage} is not an ExecuteJoin");
        };
        let pairs = observation.pairs();
        let matched = |side: fn(&(usize, usize)) -> usize| -> Vec<usize> {
            pairs
                .iter()
                .map(side)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        };
        for (rows, wanted, matched) in [
            (&result.left_rows, &projection.left, matched(|p| p.0)),
            (&result.right_rows, &projection.right, matched(|p| p.1)),
        ] {
            let ids: Vec<usize> = rows.iter().map(|r| r.0).collect();
            if wanted.as_ref().is_some_and(Vec::is_empty) {
                assert!(
                    ids.is_empty(),
                    "stage {stage}: a side that asked for nothing"
                );
            } else {
                // Ascending and equal to the matched rows: each at most
                // once, and none that is in no pair.
                assert_eq!(ids, matched, "stage {stage}: each matched row once");
            }
        }
    }
    let (stage_2, result_2, _) = answers[1];
    let Request::ExecuteJoin { projection, .. } = stage_2 else {
        unreachable!("checked above")
    };
    assert_eq!(
        projection.left,
        Some(Vec::new()),
        "stage 2's anchor asks for no columns"
    );
    assert!(
        result_2.left_rows.is_empty(),
        "stage 2's anchor ships no rows"
    );
    assert_eq!(
        result_2.right_rows.len(),
        2,
        "customers 0 and 2 have profiles"
    );
}

/// The bytes of a `JoinExecuted` answer, by the layout README's "Wire
/// format" gives: the tag; each side's rows as a count, then per row
/// its id, a payload count and each payload's length and bytes; seven
/// 8-byte counters; the classes as a count, then per class a member
/// count and 9 bytes per member (side byte, row id).
fn layout_bytes(result: &EncryptedJoinResult, observation: &JoinObservation) -> usize {
    let rows = |rows: &[(usize, Vec<Vec<u8>>)]| -> usize {
        8 + rows
            .iter()
            .map(|(_, payloads)| 8 + 8 + payloads.iter().map(|p| 8 + p.len()).sum::<usize>())
            .sum::<usize>()
    };
    let classes: usize = observation
        .equality_classes
        .iter()
        .map(|class| 8 + 9 * class.len())
        .sum();
    1 + rows(&result.left_rows) + rows(&result.right_rows) + 7 * 8 + 8 + classes
}

#[test]
fn the_answer_bytes_follow_the_layout() {
    let (_, _, stages) = run_chain();
    let mut batch = 1 + 8;
    for (_, response) in &stages {
        let Response::JoinExecuted {
            result,
            observation,
        } = response
        else {
            panic!("a stage failed: {response:?}");
        };
        assert_eq!(response.to_bytes().len(), layout_bytes(result, observation));
        // A batch element travels behind its length.
        batch += 8 + layout_bytes(result, observation);
    }
    let responses = stages.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(Response::Batch(responses).to_bytes().len(), batch);
}

#[test]
fn the_answer_is_the_plaintext_reference_join() {
    let (rows, _, _) = run_chain();
    let [(customers, _), (orders, _), (profiles, _)] = tables();
    let auto = || vec![Value::from("auto")];
    let stage_1 = JoinQuery::on("Customers", "custkey", "Orders", "custkey")
        .filter("Customers", "segment", auto())
        .filter("Orders", "priority", vec!["urgent".into()]);
    let stage_2 = JoinQuery::on("Customers", "custkey", "Profiles", "custkey").filter(
        "Customers",
        "segment",
        auto(),
    );
    let mut expected = Vec::new();
    for (c, o) in reference_join(&customers, &orders, &stage_1) {
        for (_, p) in reference_join(&customers, &profiles, &stage_2)
            .into_iter()
            .filter(|&(c2, _)| c2 == c)
        {
            expected.push(Row(vec![
                customers.rows[c].0[2].clone(),
                orders.rows[o].0[2].clone(),
                profiles.rows[p].0[2].clone(),
            ]));
        }
    }
    assert_eq!(
        expected.len(),
        4,
        "three orders of customer 0, one of customer 2"
    );
    let sorted = |mut rows: Vec<Row>| {
        rows.sort_by_key(Row::encode);
        rows
    };
    assert_eq!(sorted(rows), sorted(expected));
}

// ---------------------------------------------------------------------
// Answers the session must refuse
// ---------------------------------------------------------------------

/// A `LocalBackend` whose join answers are altered on the way back:
/// `edit` gets each stage's index (in the order the batch answers them)
/// and its answer.
struct Tamper {
    inner: LocalBackend<MockEngine>,
    edit: fn(usize, &mut EncryptedJoinResult, &mut JoinObservation),
}

impl ServerApi<MockEngine> for Tamper {
    fn handle(&self, request: Req) -> Response {
        let mut response = self.inner.handle(request);
        let answers = match &mut response {
            Response::Batch(responses) => responses.iter_mut().collect(),
            single => vec![single],
        };
        for (stage, answer) in answers.into_iter().enumerate() {
            if let Response::JoinExecuted {
                result,
                observation,
            } = answer
            {
                (self.edit)(stage, result, observation);
            }
        }
        response
    }
}

/// Run the chain through an altered answer: the session's error, and
/// `(stages ledgered, joins unaccounted)` afterwards.
fn refused(
    edit: fn(usize, &mut EncryptedJoinResult, &mut JoinObservation),
) -> (DbError, (usize, u64)) {
    let mut session = session(Box::new(Tamper {
        inner: LocalBackend::new(),
        edit,
    }));
    let err = session
        .execute(chain())
        .expect_err("an altered answer was accepted");
    let accounting = (
        session.leakage_report().queries,
        session.stats().queries_unaccounted,
    );
    (err, accounting)
}

#[test]
fn a_class_member_on_a_third_side_is_refused_and_not_ledgered() {
    let (err, accounting) = refused(|stage, _, observation| {
        if stage == 0 {
            observation.equality_classes[0][0].0 = 2;
        }
    });
    assert!(
        matches!(err, DbError::Protocol(ref m) if m.contains("side 2")),
        "{err:?}"
    );
    assert_eq!(accounting, (1, 1), "stage 2 ledgered; stage 1 unaccounted");
}

#[test]
fn a_class_member_on_a_third_side_does_not_decode() {
    let (_, _, stages) = run_chain();
    let mut answer = stages[0].1.clone();
    if let Response::JoinExecuted { observation, .. } = &mut answer {
        observation.equality_classes[0][0].0 = 2;
    }
    assert!(matches!(
        Response::from_bytes(&answer.to_bytes()),
        Err(DbError::Protocol(ref m)) if m.contains("side 2")
    ));
}

#[test]
fn a_matched_row_that_was_not_shipped_is_refused() {
    let (err, accounting) = refused(|stage, result, _| {
        if stage == 0 {
            result.right_rows.pop();
        }
    });
    assert!(
        matches!(err, DbError::Protocol(ref m) if m.contains("not shipped")),
        "{err:?}"
    );
    assert_eq!(accounting, (2, 0), "what the server observed is ledgered");
}

#[test]
fn a_row_shipped_twice_is_refused() {
    let (err, _) = refused(|stage, result, _| {
        if stage == 0 {
            let first = result.left_rows[0].clone();
            result.left_rows.push(first);
        }
    });
    assert!(
        matches!(err, DbError::Protocol(ref m) if m.contains("twice")),
        "{err:?}"
    );
}

#[test]
fn a_row_shipped_in_no_pair_is_refused() {
    let (err, _) = refused(|stage, result, _| {
        if stage == 1 {
            let mut stray = result.right_rows[0].clone();
            stray.0 = 1; // customer 1's profile: not selected
            result.right_rows.push(stray);
        }
    });
    assert!(
        matches!(err, DbError::Protocol(ref m) if m.contains("no matched pair")),
        "{err:?}"
    );
}

#[test]
fn rows_shipped_for_an_anchor_that_asked_for_none_are_refused() {
    let (err, _) = refused(|stage, result, _| {
        if stage == 1 {
            result.left_rows.push((0, Vec::new()));
        }
    });
    assert!(
        matches!(err, DbError::Protocol(ref m) if m.contains("asked for no")),
        "{err:?}"
    );
}

#[test]
fn a_row_named_twice_in_one_class_is_refused() {
    let (err, accounting) = refused(|stage, _, observation| {
        if stage == 0 {
            let class = &mut observation.equality_classes[0];
            let order = *class.iter().find(|m| m.0 == 1).expect("an Orders member");
            class.push(order);
        }
    });
    assert!(
        matches!(err, DbError::Protocol(ref m) if m.contains("named twice")),
        "{err:?}"
    );
    assert_eq!(accounting, (2, 0), "what the server observed is ledgered");
}

#[test]
fn an_anchor_row_in_two_classes_is_refused() {
    let (err, accounting) = refused(|stage, _, observation| {
        if stage == 1 {
            let classes = &mut observation.equality_classes;
            let anchor = *classes[0]
                .iter()
                .find(|m| m.0 == 0)
                .expect("a Customers member");
            classes[1].push(anchor);
        }
    });
    assert!(
        matches!(err, DbError::Protocol(ref m) if m.contains("named twice")),
        "{err:?}"
    );
    assert_eq!(accounting, (2, 0), "what the server observed is ledgered");
}

#[test]
fn classes_and_members_in_any_order_give_the_same_answer() {
    let honest = session(Box::new(LocalBackend::new()))
        .execute(chain())
        .expect("chain query");
    let mut reordering = session(Box::new(Tamper {
        inner: LocalBackend::new(),
        edit: |_, _, observation| {
            observation.equality_classes.reverse();
            for class in &mut observation.equality_classes {
                class.reverse();
            }
        },
    }));
    let reordered = reordering
        .execute(chain())
        .expect("the same classes in another order");
    assert_eq!(reordered.tuples, honest.tuples);
    assert_eq!(reordered.rows, honest.rows);
}

/// `Response::to_bytes` of one join served by a fresh `LocalBackend`,
/// with the two phase timings (the one thing two servers may disagree
/// on) zeroed.
fn served_answer(
    tables: &[EncryptedTable<MockEngine>],
    tokens: &Arc<QueryTokens<MockEngine>>,
) -> Vec<u8> {
    let backend = LocalBackend::<MockEngine>::new();
    for table in tables {
        let stored = backend.handle(Request::InsertTable(table.clone()));
        assert!(
            matches!(stored, Response::TableInserted { .. }),
            "{stored:?}"
        );
    }
    let mut response = backend.handle(Request::ExecuteJoin {
        tokens: Arc::clone(tokens),
        projection: Default::default(),
    });
    let Response::JoinExecuted {
        result,
        observation,
    } = &mut response
    else {
        panic!("the join was served: {response:?}");
    };
    assert_eq!(observation.equality_classes.len(), 12);
    result.stats.decrypt_time = Duration::ZERO;
    result.stats.match_time = Duration::ZERO;
    response.to_bytes()
}

#[test]
fn two_servers_given_the_same_inputs_send_the_same_answer_bytes() {
    // Twelve classes: ten keys on both sides (one with two left rows),
    // one key on the left twice, one on the right twice.
    let table = |name: &str, keys: &[i64]| {
        let mut t = Table::new(Schema::new(name, &["k", "v"]));
        for (i, &k) in keys.iter().enumerate() {
            t.push_row(vec![Value::Int(k), format!("{name}{i}").into()]);
        }
        t
    };
    let mut client = DbClient::<MockEngine>::new(2, 2, 5);
    let config = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["v".into()],
    };
    let tables = [
        table("L", &[9, 3, 0, 7, 1, 8, 5, 20, 2, 6, 4, 9, 20, 40]),
        table("R", &[4, 2, 0, 8, 6, 1, 9, 3, 5, 7, 30, 30, 50]),
    ]
    .map(|t| client.encrypt_table(&t, config()).unwrap());
    let tokens = Arc::new(
        client
            .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
            .unwrap(),
    );
    let first = served_answer(&tables, &tokens);
    for _ in 0..3 {
        assert!(
            served_answer(&tables, &tokens) == first,
            "two servers sent different bytes for the same join"
        );
    }
}
