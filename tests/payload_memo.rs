//! Payload memo gate: a repeat reuses what the client already opened,
//! and nothing else.
//!
//! The client keeps, per `(table, row, column)` slot, the sealed bytes
//! it opened and their value, and hands the value back only for the
//! very same bytes. So a payload altered on the way back, or moved to
//! another row's slot, is still refused by the AEAD; a table
//! re-created under its old name (or emptied and loaded again, so its
//! row ids restart at 0) answers with its new values; and a deleted
//! row's slots are gone, so the old answer replayed after the delete
//! opens that row again and reuses the rest.
//!
//! `People(k, name, city) ⋈ Orders(k, item)` on `k` matches People
//! rows 0 and 1 and every Orders row: `(0, 0)`, `(1, 1)`, `(1, 2)`.

use eqjoin::db::{
    DbError, EncryptedJoinResult, JoinQuery, LocalBackend, QueryPlan, Request, Response, Row,
    Schema, ServerApi, Session, SessionConfig, Table, TableConfig, Value,
};
use eqjoin::pairing::MockEngine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How the double alters a join answer on the way back.
type Edit = fn(&mut EncryptedJoinResult);

/// What the test steers and reads while the session owns the double.
#[derive(Default)]
struct Control {
    edit: Mutex<Option<Edit>>,
    /// Answer the next join with the last one served, unchanged.
    replay: AtomicBool,
    last: Mutex<Option<Response>>,
}

/// A `LocalBackend` whose join answers the test may alter or replay.
struct Double {
    inner: LocalBackend<MockEngine>,
    control: Arc<Control>,
}

impl ServerApi<MockEngine> for Double {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        let is_join = matches!(request, Request::ExecuteJoin { .. });
        let last = || self.control.last.lock().unwrap_or_else(|e| e.into_inner());
        if is_join && self.control.replay.swap(false, Ordering::SeqCst) {
            if let Some(old) = last().clone() {
                return old;
            }
        }
        let mut response = self.inner.handle(request);
        if is_join {
            *last() = Some(response.clone());
            let edit = *self.control.edit.lock().unwrap_or_else(|e| e.into_inner());
            if let (Response::JoinExecuted { result, .. }, Some(edit)) = (&mut response, edit) {
                edit(result);
            }
        }
        response
    }
}

fn people(names: [&str; 3]) -> Table {
    let mut t = Table::new(Schema::new("People", &["k", "name", "city"]));
    for (k, name) in [1, 2, 3].into_iter().zip(names) {
        t.push_row(vec![Value::Int(k), name.into(), "oslo".into()]);
    }
    t
}

fn orders() -> Table {
    let mut t = Table::new(Schema::new("Orders", &["k", "item"]));
    for (k, item) in [(1, "pen"), (2, "ink"), (2, "cap")] {
        t.push_row(vec![Value::Int(k), item.into()]);
    }
    t
}

fn on_k() -> TableConfig {
    TableConfig {
        join_column: "k".into(),
        filter_columns: vec![],
    }
}

fn join() -> QueryPlan {
    JoinQuery::on("People", "k", "Orders", "k").into()
}

/// `(column_decrypts, column_opens_reused)` so far.
fn opens(s: &Session<MockEngine>) -> (u64, u64) {
    let client = s.stats().client;
    (client.column_decrypts, client.column_opens_reused)
}

/// A session over the double with both tables uploaded and the join
/// run once, so every slot of its answer is memoized; and the rows of
/// that first answer.
fn warmed() -> (Session<MockEngine>, Arc<Control>, Vec<Row>) {
    let control = Arc::new(Control::default());
    let double = Double {
        inner: LocalBackend::new(),
        control: Arc::clone(&control),
    };
    let mut s = Session::with_backend(SessionConfig::new(1, 1).seed(45), Box::new(double));
    s.create_table(&people(["ann", "bob", "cy"]), on_k())
        .unwrap();
    s.create_table(&orders(), on_k()).unwrap();
    let first = s.execute(&join()).unwrap();
    assert_eq!(first.tuples, vec![vec![0, 0], vec![1, 1], vec![1, 2]]);
    // People rows 0, 1 × 3 columns + Orders rows 0, 1, 2 × 2 columns.
    assert_eq!(opens(&s), (12, 0));
    let again = s.execute(&join()).unwrap();
    assert_eq!(again.rows, first.rows);
    assert_eq!(opens(&s), (12, 12), "the repeat opens nothing");
    (s, control, first.rows)
}

/// The first answer's rows with every People name replaced by `names`
/// (People rows 0, 1, 1 in pair order).
fn with_names(rows: &[Row], names: [&str; 3]) -> Vec<Row> {
    rows.iter()
        .zip([names[0], names[1], names[1]])
        .map(|(row, name)| {
            let mut row = row.clone();
            row.0[1] = name.into();
            row
        })
        .collect()
}

/// Run the warmed join through `edit`, then once more honestly (which
/// must still answer as before): the altered answer's error.
fn altered(edit: Edit) -> DbError {
    let (mut s, control, rows) = warmed();
    *control.edit.lock().unwrap() = Some(edit);
    let err = s
        .execute(&join())
        .expect_err("an altered memoized payload was accepted");
    *control.edit.lock().unwrap() = None;
    assert_eq!(s.execute(&join()).unwrap().rows, rows, "the memo survives");
    err
}

#[test]
fn a_flipped_byte_in_a_memoized_payload_is_refused() {
    let err = altered(|result| result.left_rows[0].1[1][0] ^= 0x01);
    assert_eq!(err, DbError::PayloadCorrupted);
}

#[test]
fn a_payload_moved_to_another_rows_slot_is_refused() {
    let err = altered(|result| result.left_rows[1].1 = result.left_rows[0].1.clone());
    assert_eq!(err, DbError::PayloadCorrupted);
}

#[test]
fn a_re_created_table_answers_with_its_new_values() {
    let (mut s, _, rows) = warmed();
    let renamed = ["ada", "bea", "cal"];
    s.create_table(&people(renamed), on_k()).unwrap();
    let before = opens(&s);
    let after = s.execute(&join()).unwrap();
    assert_eq!(after.rows, with_names(&rows, renamed));
    assert_eq!(
        (opens(&s).0 - before.0, opens(&s).1 - before.1),
        (6, 6),
        "People's slots open again, Orders' are reused"
    );
}

#[test]
fn an_emptied_table_loaded_again_answers_with_its_new_values() {
    let (mut s, _, rows) = warmed();
    assert_eq!(s.delete_rows("People", &[0, 1, 2]).unwrap(), 3);
    // The store takes row ids from 0 again once the table is empty.
    let renamed = ["ada", "bea", "cal"];
    assert_eq!(s.copy_table(&people(renamed), on_k(), 0).unwrap(), 3);
    let after = s.execute(&join()).unwrap();
    assert_eq!(after.tuples, vec![vec![0, 0], vec![1, 1], vec![1, 2]]);
    assert_eq!(after.rows, with_names(&rows, renamed));
}

#[test]
fn a_deleted_rows_slots_are_gone() {
    let (mut s, control, rows) = warmed();
    assert_eq!(s.delete_rows("Orders", &[2]).unwrap(), 1);
    let before = opens(&s);
    // The answer from before the delete, replayed: Orders row 2's two
    // slots open again; the other ten values come from the memo.
    control.replay.store(true, Ordering::SeqCst);
    let replayed = s.execute(&join()).unwrap();
    assert_eq!(replayed.rows, rows);
    assert_eq!((opens(&s).0 - before.0, opens(&s).1 - before.1), (2, 10));
    // The live answer no longer names row 2.
    let live = s.execute(&join()).unwrap();
    assert_eq!(live.tuples, vec![vec![0, 0], vec![1, 1]]);
    assert_eq!(live.rows, rows[..2]);
}
