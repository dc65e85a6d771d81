//! Snapshot format upgrade: `fixtures/snapshot_v1.hex` is a format-1
//! snapshot (the one that carried every row's prepared pairing
//! coefficients), written by the last build whose writer produced that
//! format and committed before the format changed. Data acknowledged
//! under that build must keep loading: this build reads format 1 by
//! skipping the coefficients, and writes format 2 only.

use eqjoin::db::{
    ClientConfig, DbClient, DbError, DbServer, EncryptedStore, JoinOptions, JoinQuery, QueryTokens,
    Response, Schema, Table, TableConfig, Value,
};
use eqjoin::pairing::MockEngine;
use std::time::Duration;

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

fn fixture_bytes() -> Vec<u8> {
    let hex: String = include_str!("fixtures/snapshot_v1.hex")
        .split_whitespace()
        .collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// One join's whole answer as wire bytes, with the one thing that
/// legitimately varies between executions pinned: wall-clock timings
/// (zeroed).
fn answer(server: &DbServer<MockEngine>, tokens: &QueryTokens<MockEngine>) -> Vec<u8> {
    let (mut result, observation) = server
        .execute_join(tokens, &JoinOptions::default())
        .unwrap();
    result.stats.decrypt_time = Duration::ZERO;
    result.stats.match_time = Duration::ZERO;
    Response::JoinExecuted {
        result,
        observation,
    }
    .to_bytes()
}

/// The version field of a snapshot header (bytes 8..12, LE u32).
fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out
}

#[test]
fn format_1_fixture_loads_answers_identically_and_resaves_as_format_2() {
    let v1 = fixture_bytes();
    assert_eq!(v1[8..12], 1u32.to_le_bytes(), "the fixture is format 1");
    let upgraded = DbServer::with_store(
        EncryptedStore::<MockEngine>::from_snapshot_bytes(&v1)
            .expect("a format-1 snapshot must keep loading"),
    );
    let (mut client, fresh, warmed) = build();

    // Re-saving writes format 2, and exactly the bytes a store that
    // never saw format 1 writes for the same logical state — tables,
    // versions and decrypt cache all survived the upgrade.
    let v2 = upgraded.store().snapshot_bytes();
    assert_eq!(v2[8..12], 2u32.to_le_bytes(), "this build writes format 2");
    assert!(
        v2 == fresh.store().snapshot_bytes(),
        "the upgraded store must re-save as a fresh store's snapshot"
    );
    assert!(v2.len() < v1.len(), "format 2 drops the coefficients");
    let reloaded = EncryptedStore::<MockEngine>::from_snapshot_bytes(&v2).unwrap();
    assert!(reloaded.snapshot_bytes() == v2, "format 2 is canonical");

    // Warm repeats (served from the cache the fixture carried) and a
    // query under fresh tokens answer byte-identically — result and
    // observation — to the store built from the same inputs.
    let unseen = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k").filter("R", "b", vec!["b1".into()]))
        .unwrap();
    for tokens in warmed.iter().chain([&unseen]) {
        assert_eq!(answer(&upgraded, tokens), answer(&fresh, tokens));
    }
    let (repeat, _) = upgraded
        .execute_join(&warmed[0], &JoinOptions::default())
        .unwrap();
    assert_eq!(
        repeat.stats.decrypt_cache_hits as usize, repeat.stats.rows_decrypted,
        "the fixture's decrypt cache came along"
    );
}

/// The header's version field is outside the body checksum; a
/// snapshot relabelled as the other readable format must still fail
/// (its body does not parse under the other layout), as must a format
/// this build has never heard of.
#[test]
fn relabelled_snapshots_are_rejected() {
    let v1 = fixture_bytes();
    let v2 = build().1.store().snapshot_bytes();
    for (bytes, version) in [(&v1, 2), (&v2, 1), (&v1, 3), (&v2, 0)] {
        match EncryptedStore::<MockEngine>::from_snapshot_bytes(&with_version(bytes, version)) {
            Err(DbError::Snapshot(_)) => {}
            other => panic!(
                "relabelling as format {version} must be a Snapshot error, got {:?}",
                other.map(|_| "Ok(store)")
            ),
        }
    }
}
