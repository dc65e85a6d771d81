//! Quickstart: encrypt two tiny tables, run one SQL join over the
//! encrypted data through a [`Session`], print the decrypted result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use eqjoin::db::{Schema, SessionConfig, Table, TableConfig, Value};
use eqjoin::pairing::Bls12;

fn main() {
    // One session = keys + SQL planning + transport + leakage ledger,
    // on the real BLS12-381 engine (m = 2 filter columns, IN ≤ 3).
    let mut session = eqjoin::session::<Bls12>(SessionConfig::new(2, 3).seed(0xec10));

    let mut users = Table::new(Schema::new("Users", &["uid", "country", "tier"]));
    users.push_row(vec![Value::Int(1), "DE".into(), "gold".into()]);
    users.push_row(vec![Value::Int(2), "FR".into(), "silver".into()]);
    users.push_row(vec![Value::Int(3), "DE".into(), "gold".into()]);
    let mut purchases = Table::new(Schema::new("Purchases", &["pid", "uid", "item"]));
    purchases.push_row(vec![Value::Int(100), Value::Int(1), "laptop".into()]);
    purchases.push_row(vec![Value::Int(101), Value::Int(2), "phone".into()]);
    purchases.push_row(vec![Value::Int(102), Value::Int(3), "desk".into()]);
    purchases.push_row(vec![Value::Int(103), Value::Int(1), "monitor".into()]);

    let users_cfg = TableConfig {
        join_column: "uid".into(),
        filter_columns: vec!["country".into(), "tier".into()],
    };
    let purchases_cfg = TableConfig {
        join_column: "uid".into(),
        filter_columns: vec!["item".into()],
    };
    session
        .create_table(&users, users_cfg)
        .expect("encrypt users");
    session
        .create_table(&purchases, purchases_cfg)
        .expect("encrypt purchases");

    // SQL goes parse → plan → tokens → encrypted join → tuples →
    // per-column decrypt in one call; the server only ever sees
    // ciphertexts and tokens. The explicit column list means the client
    // opens *only* those columns of each matched row.
    let sql = "SELECT Users.uid, tier, item FROM Users JOIN Purchases \
               ON Users.uid = Purchases.uid \
               WHERE country = 'DE' AND item IN ('laptop', 'desk')";
    let result = session.execute(sql).expect("query");
    let header: Vec<String> = result.columns.iter().map(|c| c.to_string()).collect();
    println!("{}", header.join(" | "));
    for row in &result.rows {
        let cells: Vec<String> = row.0.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    assert_eq!(result.rows.len(), 2, "DE users with laptop/desk purchases");
    let stats = session.stats();
    println!(
        "server decrypted {} rows; client opened {} column values ({} skipped \
         thanks to the projection); leakage within paper bound: {}",
        result.stats.rows_decrypted,
        stats.client.column_decrypts,
        stats.client.column_decrypts_skipped,
        session.leakage_report().within_bound,
    );

    // The same query again: the server serves it from its decrypt
    // cache, and the client gets back the sealed bytes it already
    // opened, so it hands back the values it kept instead of opening
    // them a second time.
    let again = session.execute(sql).expect("repeat");
    assert_eq!(again.rows, result.rows);
    let repeat = session.stats();
    println!(
        "repeat: {} column values opened, {} reused",
        repeat.client.column_decrypts - stats.client.column_decrypts,
        repeat.client.column_opens_reused - stats.client.column_opens_reused,
    );
    assert_eq!(repeat.client.column_decrypts, stats.client.column_decrypts);
    assert_eq!(
        repeat.client.column_opens_reused,
        stats.client.column_decrypts
    );
}
