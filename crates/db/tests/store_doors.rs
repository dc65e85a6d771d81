//! Every door into a table — `InsertTable`, a `CopyRows` chunk, and
//! `InsertRows` — holds rows to one layout rule (one pre-filter tag per
//! filter column, one ciphertext arity, ids inside `u64`), and a
//! mutation the store refuses leaves it byte for byte as it was, its
//! row-version counter included.

use eqjoin_db::{
    ClientConfig, DbClient, DbError, EncryptedRow, EncryptedStore, EncryptedTable, Schema, Table,
    TableConfig, Value,
};
use eqjoin_pairing::MockEngine;

type Rows = Vec<EncryptedRow<MockEngine>>;

fn filter_columns() -> Vec<String> {
    vec!["a".into(), "b".into()]
}

/// A client with the pre-filter on: every row it encrypts carries one
/// tag per filter column.
fn client() -> DbClient<MockEngine> {
    DbClient::with_config(ClientConfig::new(2, 2).seed(33).prefilter(true))
}

/// `name(k, a, b)`, joined on `k`, pre-filtered on `a` and `b`.
fn upload(client: &mut DbClient<MockEngine>, name: &str) -> EncryptedTable<MockEngine> {
    let mut table = Table::new(Schema::new(name, &["k", "a", "b"]));
    for i in 0..4i64 {
        table.push_row(vec![
            Value::Int(i % 2),
            Value::Int(i),
            Value::Str(format!("x{i}")),
        ]);
    }
    let config = TableConfig {
        join_column: "k".into(),
        filter_columns: filter_columns(),
    };
    client.encrypt_table(&table, config).unwrap()
}

/// The same rows with the second filter column's tag dropped.
fn one_tag_short(rows: &Rows) -> Rows {
    let mut rows = rows.clone();
    for row in &mut rows {
        let tags = row.tags.as_mut().expect("the pre-filter is on");
        assert_eq!(tags.len(), 2);
        tags.truncate(1);
    }
    rows
}

fn refused_as_protocol<T: std::fmt::Debug>(door: &str, outcome: Result<T, DbError>) {
    assert!(
        matches!(outcome, Err(DbError::Protocol(_))),
        "{door}: {outcome:?}"
    );
}

#[test]
fn every_door_refuses_a_row_one_tag_short() {
    let mut client = client();
    let mut store = EncryptedStore::<MockEngine>::new();
    let filters = filter_columns();

    let t = upload(&mut client, "T");
    let short = EncryptedTable {
        rows: one_tag_short(&t.rows),
        ..t.clone()
    };
    refused_as_protocol("insert_table", store.insert_table(short));

    let u = upload(&mut client, "U");
    refused_as_protocol(
        "copy_rows creating the table",
        store.copy_rows("U", "k", &filters, 0, one_tag_short(&u.rows)),
    );
    assert!(
        store.table("U").is_none(),
        "a refused first chunk creates nothing"
    );

    let v = upload(&mut client, "V");
    store.copy_rows("V", "k", &filters, 0, Vec::new()).unwrap();
    refused_as_protocol(
        "insert_rows after a zero-row copy_rows",
        store.insert_rows("V", 0, one_tag_short(&v.rows)),
    );

    // The rows as the client encrypted them go in through every door.
    store.insert_table(t).unwrap();
    assert_eq!(
        store.copy_rows("U", "k", &filters, 0, u.rows).unwrap(),
        (4, 4)
    );
    assert_eq!(store.insert_rows("V", 0, v.rows).unwrap(), 4);
}

/// `outcome` is a refusal, and the store serializes as it did `before`.
fn unchanged<T: std::fmt::Debug>(
    store: &EncryptedStore<MockEngine>,
    before: &[u8],
    what: &str,
    outcome: Result<T, DbError>,
) {
    assert!(outcome.is_err(), "{what}: {outcome:?}");
    assert!(
        store.snapshot_bytes() == before,
        "refusing {what} changed the snapshot"
    );
}

#[test]
fn refused_mutations_leave_the_snapshot_unchanged() {
    let mut client = client();
    let mut store = EncryptedStore::<MockEngine>::new();
    store.insert_table(upload(&mut client, "T")).unwrap();
    let (start_row, rows) = client
        .encrypt_rows("T", &[vec![Value::Int(1), Value::Int(9), "y".into()]])
        .unwrap();
    let before = store.snapshot_bytes();

    let unknown = store.insert_rows("Nope", start_row, rows.clone());
    unchanged(&store, &before, "an unknown table", unknown);
    let other_join = store.copy_rows("T", "a", &filter_columns(), start_row, rows.clone());
    unchanged(
        &store,
        &before,
        "a COPY chunk naming another join column",
        other_join,
    );
    // What replaying a journal record the snapshot covers does.
    let colliding = store.insert_rows("T", 0, rows.clone());
    unchanged(&store, &before, "ids colliding with stored rows", colliding);

    assert_eq!(store.insert_rows("T", start_row, rows).unwrap(), 1);
    assert!(store.snapshot_bytes() != before);
}

/// An empty table takes its ciphertext arity from its first row, so a
/// first batch whose rows disagree would leave rows no token of the
/// table's arity can be paired with.
#[test]
fn a_first_batch_mixing_ciphertext_arities_is_refused() {
    let encrypt = |m: usize| {
        let mut client = DbClient::<MockEngine>::with_config(ClientConfig::new(m, 2).seed(33));
        let mut table = Table::new(Schema::new("W", &["k", "a"]));
        table.push_row(vec![Value::Int(1), Value::Int(2)]);
        let config = TableConfig {
            join_column: "k".into(),
            filter_columns: vec!["a".into()],
        };
        client.encrypt_table(&table, config).unwrap().rows
    };
    let (narrow, wide) = (encrypt(1), encrypt(2));
    assert_ne!(
        narrow[0].cipher.elements().len(),
        wide[0].cipher.elements().len()
    );
    let mixed: Rows = narrow.iter().chain(&wide).cloned().collect();

    let mut store = EncryptedStore::<MockEngine>::new();
    let filters = vec!["a".to_owned()];
    refused_as_protocol(
        "copy_rows creating the table",
        store.copy_rows("W", "k", &filters, 0, mixed),
    );
    assert!(store.table("W").is_none());
}

#[test]
fn row_ids_past_the_id_space_are_refused() {
    let mut client = client();
    let mut store = EncryptedStore::<MockEngine>::new();
    let t = upload(&mut client, "T");
    store
        .copy_rows("T", "k", &filter_columns(), 0, Vec::new())
        .unwrap();
    refused_as_protocol(
        "insert_rows from id u64::MAX",
        store.insert_rows("T", u64::MAX, t.rows),
    );
    assert!(store.table("T").is_some_and(|t| t.is_empty()));
}
