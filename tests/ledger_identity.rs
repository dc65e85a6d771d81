//! Ledger identity gate: a re-created table's rows are new rows, and a
//! refused upload keeps the old ones.
//!
//! The server names a row by its table and row id, and a table that is
//! re-created — or emptied and loaded again — numbers its rows from 0
//! again. Row 0 of the new table is not row 0 of the old one: the
//! leakage report must not join them into one node, or it states
//! equalities the server never saw.
//!
//! The repro: `L(k) = [10]`, `R(k) = [10, 20]`, `L ⋈ R ON k` matches
//! `(0, 0)`. `L` is then replaced by `L(k) = [20]` and the same join
//! matches `(0, 1)`. The server has seen `{old L0, R0}` and
//! `{new L0, R1}`: two pairs. Conflating the two `L0`s would add
//! `R0 = R1` (the values 10 and 20) and report three.

use eqjoin::db::{
    DbError, JoinQuery, LocalBackend, Request, Response, Schema, ServerApi, Session, SessionConfig,
    Table, TableConfig, Value,
};
use eqjoin::leakage::Node;
use eqjoin::pairing::MockEngine;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A one-column table `name(k)` holding `keys`.
fn table(name: &str, keys: &[i64]) -> Table {
    let mut table = Table::new(Schema::new(name, &["k"]));
    for &k in keys {
        table.push_row(vec![Value::Int(k)]);
    }
    table
}

fn on_k() -> TableConfig {
    TableConfig {
        join_column: "k".into(),
        filter_columns: vec![],
    }
}

fn join() -> JoinQuery {
    JoinQuery::on("L", "k", "R", "k")
}

/// `L(k) = [10]` and `R(k) = [10, 20]` uploaded, and the first join run.
fn first_join(backend: Box<dyn ServerApi<MockEngine>>) -> Session<MockEngine> {
    let mut s = Session::with_backend(SessionConfig::new(1, 1).seed(3), backend);
    s.create_table(&table("L", &[10]), on_k()).unwrap();
    s.create_table(&table("R", &[10, 20]), on_k()).unwrap();
    let first = s.execute(join()).unwrap();
    assert_eq!(first.tuples, vec![vec![0, 0]]);
    assert_eq!(first.leakage_delta, 1);
    s
}

/// After the replaced `L` joined `R1`: two pairs, no `R0 = R1`, and the
/// old `L0` and the new one are two nodes.
fn assert_new_rows_are_new_nodes(s: &mut Session<MockEngine>) {
    let second = s.execute(join()).unwrap();
    assert_eq!(second.tuples, vec![vec![0, 1]], "the new L0 matches R1");
    let visible = s.visible_pairs();
    assert!(
        !visible.contains(&Node::new("R", 0), &Node::new("R", 1)),
        "R0 (k = 10) and R1 (k = 20) were never equal: {visible:?}"
    );
    let report = s.leakage_report();
    assert_eq!(report.visible_pairs, 2, "{{old L0, R0}} and {{new L0, R1}}");
    assert_eq!(report.closure_bound, 2);
    assert_eq!(second.leakage_delta, 1);
    assert!(visible.contains(&Node::new("L", 0), &Node::new("R", 0)));
    let new_l0 = visible
        .iter()
        .find(|(_, b)| *b == Node::new("R", 1))
        .map(|(a, _)| a);
    assert!(
        new_l0.is_some_and(|a| (a.table.as_str(), a.row) == ("L", 0) && *a != Node::new("L", 0)),
        "R1's partner is a row 0 of L that is not the old one: {visible:?}"
    );
}

#[test]
fn a_re_created_tables_rows_are_new_rows() {
    let mut s = first_join(Box::new(LocalBackend::new()));
    s.create_table(&table("L", &[20]), on_k()).unwrap();
    assert_new_rows_are_new_nodes(&mut s);
}

#[test]
fn an_emptied_table_loaded_again_has_new_rows() {
    let mut s = first_join(Box::new(LocalBackend::new()));
    assert_eq!(s.delete_rows("L", &[0]).unwrap(), 1);
    // The store takes row ids from 0 again once the table is empty.
    assert_eq!(s.copy_table(&table("L", &[20]), on_k(), 0).unwrap(), 1);
    assert_new_rows_are_new_nodes(&mut s);
}

/// Refuses every upload of `L` after the first, as a failed journal
/// append would, and serves everything else.
struct RefuseReupload {
    inner: LocalBackend<MockEngine>,
    uploads: AtomicUsize,
}

impl ServerApi<MockEngine> for RefuseReupload {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        let upload_of_l = match &request {
            Request::InsertTable(t) => t.name == "L",
            Request::CopyRows { table, .. } => table == "L",
            _ => false,
        };
        if upload_of_l && self.uploads.fetch_add(1, Ordering::SeqCst) > 0 {
            return Response::Error(DbError::Snapshot("journal append failed".into()));
        }
        self.inner.handle(request)
    }
}

#[test]
fn a_refused_re_create_keeps_the_old_rows() {
    let mut s = first_join(Box::new(RefuseReupload {
        inner: LocalBackend::new(),
        uploads: AtomicUsize::new(0),
    }));
    let refused = s.create_table(&table("L", &[20]), on_k());
    assert!(matches!(refused, Err(DbError::Snapshot(_))), "{refused:?}");
    let refused = s.copy_table(&table("L", &[20]), on_k(), 0);
    assert!(matches!(refused, Err(DbError::Snapshot(_))), "{refused:?}");
    // The server still holds the old L, so the repeat is the first
    // join again and the server learns nothing new.
    let again = s.execute(join()).unwrap();
    assert_eq!(again.tuples, vec![vec![0, 0]]);
    assert_eq!(again.leakage_delta, 0, "the old L0 is the same row");
    assert_eq!(s.leakage_report().visible_pairs, 1);
    assert_eq!(
        s.visible_pairs(),
        [(Node::new("L", 0), Node::new("R", 0))]
            .into_iter()
            .collect()
    );
}
