//! Snapshot format upgrade: `fixtures/snapshot_v1.hex` is a format-1
//! snapshot (the one that carried every row's prepared pairing
//! coefficients), written by the last build whose writer produced that
//! format. Data acknowledged under that build must keep loading.

use eqjoin::db::{
    ClientConfig, DbClient, DbServer, JoinOptions, JoinQuery, QueryTokens, Schema, Table,
    TableConfig, Value,
};
use eqjoin::pairing::MockEngine;

/// The store the fixture was taken from, rebuilt from the same inputs:
/// two tables, an incremental insert, a filtered and an unfiltered
/// query (four decrypt-cache sides) and a delete. Returns the client
/// (its RNG now past everything the fixture consumed), the server and
/// the token bundles the cache was warmed with.
fn build() -> (
    DbClient<MockEngine>,
    DbServer<MockEngine>,
    Vec<QueryTokens<MockEngine>>,
) {
    let mut client =
        DbClient::<MockEngine>::with_config(ClientConfig::new(1, 2).seed(17).prefilter(true));
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for i in 0..4i64 {
        left.push_row(vec![Value::Int(i % 3), Value::Str(format!("a{}", i % 2))]);
    }
    for i in 0..3i64 {
        right.push_row(vec![Value::Int(i % 2), Value::Str(format!("b{i}"))]);
    }
    let cfg = |c: &str| TableConfig {
        join_column: "k".into(),
        filter_columns: vec![c.to_owned()],
    };
    let mut server = DbServer::new();
    server
        .insert_table(client.encrypt_table(&left, cfg("a")).unwrap())
        .unwrap();
    server
        .insert_table(client.encrypt_table(&right, cfg("b")).unwrap())
        .unwrap();
    let (start_row, rows) = client
        .encrypt_rows(
            "L",
            &[
                vec![Value::Int(1), "a0".into()],
                vec![Value::Int(0), "a1".into()],
            ],
        )
        .unwrap();
    server.insert_rows("L", start_row, rows).unwrap();

    let queries = [
        JoinQuery::on("L", "k", "R", "k"),
        JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec!["a0".into()]),
    ];
    let tokens: Vec<_> = queries
        .iter()
        .map(|q| client.query_tokens(q).unwrap())
        .collect();
    for bundle in &tokens {
        server
            .execute_join(bundle, &JoinOptions::default())
            .unwrap();
    }
    server.delete_rows("L", &[1]).unwrap();
    (client, server, tokens)
}

fn to_hex(bytes: &[u8]) -> String {
    bytes
        .chunks(64)
        .map(|line| {
            let mut hex: String = line.iter().map(|b| format!("{b:02x}")).collect();
            hex.push('\n');
            hex
        })
        .collect()
}

/// The fixture is what this build's writer produces for [`build`].
#[test]
fn fixture_is_this_builds_snapshot_of_the_reference_store() {
    let (_, server, _) = build();
    let rendered = to_hex(&server.store().snapshot_bytes());
    assert!(
        rendered == include_str!("fixtures/snapshot_v1.hex"),
        "tests/fixtures/snapshot_v1.hex is not this build's snapshot; it would be:\n{rendered}"
    );
}
