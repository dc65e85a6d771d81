//! Table registration gate: a table that is re-created, or whose upload
//! the server refuses, never changes what a later query returns.
//!
//! A series of queries runs against tables that are uploaded, replaced
//! and extended between queries. Everything the session derives from a
//! table's registration — the lowering of a prepared plan, the token a
//! stage caches, the client's keys' layout — must follow the table the
//! server actually holds. Each case checks the rows against a plaintext
//! oracle.

use eqjoin::baselines::ground_truth::reference_join;
use eqjoin::db::{
    DbError, JoinQuery, LocalBackend, QueryPlan, Request, Response, ResultSet, Schema, ServerApi,
    Session, SessionConfig, Table, TableConfig, Value,
};
use eqjoin::pairing::MockEngine;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The matched `(left row, right row)` pairs of a two-table result.
fn pairs(result: &ResultSet) -> Vec<(usize, usize)> {
    result.tuples.iter().map(|t| (t[0], t[1])).collect()
}

const ROWS: i64 = 8;

/// `L(k, a = i % 2, b = (i / 2) % 2)` for `i = 0..8`, its columns
/// stored in the order `columns` names them.
fn left(columns: &[&str]) -> Table {
    let mut table = Table::new(Schema::new("L", columns));
    for i in 0..ROWS {
        let row = columns
            .iter()
            .map(|&c| match c {
                "k" => Value::Int(i),
                "a" => Value::Int(i % 2),
                "b" => Value::Int((i / 2) % 2),
                _ => unreachable!("L has columns k, a, b"),
            })
            .collect();
        table.push_row(row);
    }
    table
}

/// `R(k)` for `k = 0..8`.
fn right() -> Table {
    let mut table = Table::new(Schema::new("R", &["k"]));
    for i in 0..ROWS {
        table.push_row(vec![Value::Int(i)]);
    }
    table
}

fn layout(filter_columns: &[&str]) -> TableConfig {
    TableConfig {
        join_column: "k".into(),
        filter_columns: filter_columns.iter().map(|&c| c.to_owned()).collect(),
    }
}

/// `L ⋈ R ON k` with `L.a IN (1)`.
fn a_is_one() -> JoinQuery {
    JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec![Value::Int(1)])
}

/// Executes [`a_is_one`] on `s`.
fn run_a_is_one(s: &mut Session<MockEngine>) -> Result<ResultSet, DbError> {
    s.execute(&QueryPlan::from(&a_is_one()))
}

fn session(config: SessionConfig, backend: Box<dyn ServerApi<MockEngine>>) -> Session<MockEngine> {
    let mut s = Session::with_backend(config, backend);
    s.create_table(&left(&["k", "a", "b"]), layout(&["a", "b"]))
        .unwrap();
    s.create_table(&right(), layout(&[])).unwrap();
    s
}

/// A backend that refuses the `n`-th upload of `L` (0-based, counting
/// `InsertTable` and `CopyRows` requests), as a failed journal append
/// would, and serves everything else.
struct RefuseUpload {
    inner: LocalBackend<MockEngine>,
    uploads: AtomicUsize,
    refuse: usize,
}

impl RefuseUpload {
    fn nth(refuse: usize) -> Box<Self> {
        Box::new(RefuseUpload {
            inner: LocalBackend::new(),
            uploads: AtomicUsize::new(0),
            refuse,
        })
    }
}

impl ServerApi<MockEngine> for RefuseUpload {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        let upload_of_l = match &request {
            Request::InsertTable(t) => t.name == "L",
            Request::CopyRows { table, .. } => table == "L",
            _ => false,
        };
        if upload_of_l && self.uploads.fetch_add(1, Ordering::SeqCst) == self.refuse {
            return Response::Error(DbError::Snapshot("journal append failed".into()));
        }
        self.inner.handle(request)
    }
}

#[test]
fn a_re_registered_table_draws_fresh_stage_tokens() {
    let mut s = session(
        SessionConfig::new(2, 3).seed(7),
        Box::new(LocalBackend::new()),
    );
    let expected = reference_join(&left(&["k", "a", "b"]), &right(), &a_is_one());
    assert_eq!(expected, vec![(1, 1), (3, 3), (5, 5), (7, 7)]);
    assert_eq!(pairs(&run_a_is_one(&mut s).unwrap()), expected);

    // Same rows, filter columns swapped: `a` is now at position 1.
    s.create_table(&left(&["k", "a", "b"]), layout(&["b", "a"]))
        .unwrap();
    let swapped = run_a_is_one(&mut s).unwrap();
    assert_eq!(pairs(&swapped), expected);
    assert!(!swapped.cache_hit, "another layout must draw fresh tokens");

    // Back to the first layout: its cached tokens are valid again.
    s.create_table(&left(&["k", "a", "b"]), layout(&["a", "b"]))
        .unwrap();
    let again = run_a_is_one(&mut s).unwrap();
    assert!(again.cache_hit, "the same layout may keep its tokens");
    assert_eq!(pairs(&again), expected);
}

#[test]
fn a_table_re_registered_on_another_join_column_refuses_the_old_join() {
    let mut s = session(
        SessionConfig::new(2, 3).seed(7),
        Box::new(LocalBackend::new()),
    );
    run_a_is_one(&mut s).unwrap();
    let mut on_b = layout(&["a", "b"]);
    on_b.join_column = "b".into();
    s.create_table(&left(&["k", "a", "b"]), on_b).unwrap();
    let stale = run_a_is_one(&mut s);
    assert!(
        matches!(&stale, Err(DbError::JoinColumnMismatch { .. })),
        "{stale:?}"
    );
}

#[test]
fn a_refused_copy_keeps_the_registration_the_server_holds() {
    let config = SessionConfig::new(2, 3).seed(7).token_cache(false);
    let mut s = session(config, Box::new(LocalBackend::new()));
    let expected = reference_join(&left(&["k", "a", "b"]), &right(), &a_is_one());
    assert_eq!(pairs(&run_a_is_one(&mut s).unwrap()), expected);

    let refused = s.copy_table(&left(&["k", "a", "b"]), layout(&["b", "a"]), 0);
    assert!(
        matches!(&refused, Err(DbError::Protocol(msg)) if msg.contains("names filter columns")),
        "{refused:?}"
    );
    assert_eq!(pairs(&run_a_is_one(&mut s).unwrap()), expected);
}

#[test]
fn a_refused_create_keeps_the_registration_the_server_holds() {
    let config = SessionConfig::new(2, 3).seed(7).token_cache(false);
    // Upload 0 is the set-up's; upload 1 is refused.
    let mut s = session(config, RefuseUpload::nth(1));
    let expected = reference_join(&left(&["k", "a", "b"]), &right(), &a_is_one());
    assert_eq!(pairs(&run_a_is_one(&mut s).unwrap()), expected);

    let refused = s.create_table(&left(&["k", "a", "b"]), layout(&["b", "a"]));
    assert!(matches!(refused, Err(DbError::Snapshot(_))), "{refused:?}");
    assert_eq!(pairs(&run_a_is_one(&mut s).unwrap()), expected);
    // The client still encrypts for the stored layout: an insert lands
    // and is selected by the same filter.
    s.insert_rows("L", &[vec![Value::Int(8), Value::Int(1), Value::Int(0)]])
        .unwrap();
    let mut r = right();
    r.push_row(vec![Value::Int(8)]);
    s.create_table(&r, layout(&[])).unwrap();
    let mut l = left(&["k", "a", "b"]);
    l.push_row(vec![Value::Int(8), Value::Int(1), Value::Int(0)]);
    assert_eq!(
        pairs(&run_a_is_one(&mut s).unwrap()),
        reference_join(&l, &r, &a_is_one())
    );
}

/// `(L.k, L.a)` of every row of `table` that joins `R`, in row order.
fn k_and_a(table: &Table) -> Vec<Vec<Value>> {
    let (k, a) = (
        table.schema.column_index("k").unwrap(),
        table.schema.column_index("a").unwrap(),
    );
    let all = JoinQuery::on("L", "k", "R", "k");
    reference_join(table, &right(), &all)
        .into_iter()
        .map(|(l, _)| vec![table.rows[l].get(k).clone(), table.rows[l].get(a).clone()])
        .collect()
}

fn rows_of(s: &mut Session<MockEngine>, plan: &QueryPlan) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = s
        .execute(plan)
        .unwrap()
        .rows
        .into_iter()
        .map(|row| row.0)
        .collect();
    rows.sort();
    rows
}

#[test]
fn a_prepared_plan_runs_against_the_table_as_it_is_now() {
    let mut s = session(
        SessionConfig::new(2, 3).seed(7),
        Box::new(LocalBackend::new()),
    );
    let plan = QueryPlan::scan("L")
        .join_on("L", "k", "R", "k")
        .project(&[("L", "k"), ("L", "a")]);
    s.prepare(&plan).unwrap();
    let before = left(&["k", "a", "b"]);
    assert_eq!(rows_of(&mut s, &plan), k_and_a(&before));

    // The same logical rows, stored as (k, b, a): `L.a` moves from
    // column 1 to column 2.
    let reordered = left(&["k", "b", "a"]);
    s.create_table(&reordered, layout(&["a", "b"])).unwrap();
    assert_eq!(k_and_a(&reordered), k_and_a(&before));
    assert_eq!(rows_of(&mut s, &plan), k_and_a(&reordered));
    // Again, now from the lowering memo.
    assert_eq!(rows_of(&mut s, &plan), k_and_a(&reordered));
}

#[test]
fn a_copy_refused_after_its_first_chunk_registers_the_schema_it_stored() {
    // L starts empty as (k, a, b); a COPY of it as (k, b, a) lands its
    // first chunk of 4 rows, and the second chunk is refused.
    let mut s = Session::with_backend(SessionConfig::new(2, 3).seed(7), RefuseUpload::nth(2));
    s.create_table(
        &Table::new(Schema::new("L", &["k", "a", "b"])),
        layout(&["a", "b"]),
    )
    .unwrap();
    s.create_table(&right(), layout(&[])).unwrap();
    let reordered = left(&["k", "b", "a"]);
    let refused = s.copy_table(&reordered, layout(&["a", "b"]), 4);
    assert!(matches!(refused, Err(DbError::Snapshot(_))), "{refused:?}");

    let mut stored = Table::new(reordered.schema.clone());
    for row in &reordered.rows[..4] {
        stored.push_row(row.0.clone());
    }
    let plan = QueryPlan::scan("L")
        .join_on("L", "k", "R", "k")
        .project(&[("L", "k"), ("L", "a")]);
    assert_eq!(rows_of(&mut s, &plan), k_and_a(&stored));
}
