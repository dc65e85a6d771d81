//! The subgroup check is reachable — and rejects — through every door a
//! group element enters by: a request frame (`Request::from_bytes`, G1
//! token elements and G2 ciphertext elements) and a store snapshot
//! (`EncryptedStore::from_snapshot_bytes`, G2 ciphertext elements).
//!
//! A flipped byte only ever trips the curve equation (see
//! `tests/serialization.rs`); these tests splice in points that are
//! validly encoded and **on the curve** but outside the order-`r`
//! subgroup, so the subgroup check is the only thing left to refuse them.

use eqjoin::crypto::sha256;
use eqjoin::db::{
    DbClient, DbError, DbServer, EncryptedStore, EncryptedTable, JoinOptions, JoinQuery, Request,
    Schema, Table, TableConfig, Value,
};
use eqjoin::pairing::curve::{Affine, CurveParams};
use eqjoin::pairing::{g1, g2, params, Bls12, Engine, Field, Fp, Fp2, G1Affine, G2Affine};

/// Not in the subgroup by the definition (`r·P ≠ O`, textbook ladder),
/// independent of the check under test.
fn outside_subgroup<C: CurveParams>(p: &Affine<C>) -> bool {
    !p.to_projective()
        .mul_limbs(&params::consts().r_limbs)
        .is_identity()
}

/// Wire bytes of an on-curve `G1` point outside the subgroup: the first
/// `x = 1, 2, …` with a `y`, before any cofactor clearing.
fn g1_outside_subgroup() -> Vec<u8> {
    let p = (1u64..)
        .find_map(|x| {
            let x = Fp::from_u64(x);
            let y = (x.square() * x + g1::G1Params::b()).sqrt()?;
            G1Affine::new(x, y)
        })
        .expect("some small x is on the curve");
    assert!(p.is_on_curve() && outside_subgroup(&p));
    g1::to_bytes(&p).to_vec()
}

/// Wire bytes of an on-curve `G2` point outside the subgroup.
fn g2_outside_subgroup() -> Vec<u8> {
    let p = (0u64..)
        .find_map(|n| {
            let x = Fp2::new(Fp::from_u64(n), Fp::one());
            let y = (x.square() * x + g2::G2Params::b()).sqrt()?;
            G2Affine::new(x, y)
        })
        .expect("some small x is on the twist");
    assert!(p.is_on_curve() && outside_subgroup(&p));
    g2::to_bytes(&p).to_vec()
}

/// `bytes` with the first occurrence of `element` overwritten by
/// `replacement` (same length, so every length prefix stays valid).
fn splice(bytes: &[u8], element: &[u8], replacement: &[u8]) -> Vec<u8> {
    assert_eq!(element.len(), replacement.len());
    let at = bytes
        .windows(element.len())
        .position(|w| w == element)
        .expect("the element is in the encoding");
    let mut out = bytes.to_vec();
    out[at..at + element.len()].copy_from_slice(replacement);
    out
}

fn assert_protocol_error(frame: &[u8], group: &str) {
    match Request::<Bls12>::from_bytes(frame) {
        Err(DbError::Protocol(msg)) => assert!(msg.contains(group), "{msg}"),
        other => panic!(
            "expected a {group} protocol error, got {:?}",
            other.map(|_| "Ok(request)")
        ),
    }
}

fn client_and_table() -> (DbClient<Bls12>, EncryptedTable<Bls12>) {
    let mut t = Table::new(Schema::new("T", &["k", "attr"]));
    t.push_row(vec![Value::Int(1), "x".into()]);
    let mut client = DbClient::<Bls12>::new(1, 2, 7);
    let encrypted = client
        .encrypt_table(
            &t,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["attr".into()],
            },
        )
        .unwrap();
    (client, encrypted)
}

#[test]
fn request_frames_reject_on_curve_points_outside_the_subgroup() {
    let (mut client, table) = client_and_table();
    let g2_element = Bls12::g2_bytes(&table.rows[0].cipher.elements()[1]);

    // G1: a token element of an ExecuteJoin.
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();
    let g1_element = tokens.right.token.elements()[0].clone();
    let good = Request::ExecuteJoin {
        tokens,
        options: JoinOptions::default(),
        projection: Default::default(),
    }
    .to_bytes();
    assert!(Request::<Bls12>::from_bytes(&good).is_ok());
    assert_protocol_error(&splice(&good, &g1_element, &g1_outside_subgroup()), "G1");

    // G2: a ciphertext element of an InsertTable and of an InsertRows.
    let insert_rows = Request::InsertRows {
        table: "T".into(),
        start_row: 1,
        rows: table.rows.clone(),
    }
    .to_bytes();
    let insert_table = Request::InsertTable(table).to_bytes();
    for good in [insert_table, insert_rows] {
        assert!(Request::<Bls12>::from_bytes(&good).is_ok());
        assert_protocol_error(&splice(&good, &g2_element, &g2_outside_subgroup()), "G2");
    }
}

#[test]
fn snapshots_reject_on_curve_points_outside_the_subgroup() {
    let (_, table) = client_and_table();
    let g2_element = Bls12::g2_bytes(&table.rows[0].cipher.elements()[0]);
    let mut server = DbServer::<Bls12>::new();
    server.insert_table(table).unwrap();
    let good = server.store().snapshot_bytes();
    assert!(EncryptedStore::<Bls12>::from_snapshot_bytes(&good).is_ok());

    // Header: magic (8) + version (4) + engine name (u64 length + bytes)
    // + body length (8) + SHA-256 of the body (32); then the body.
    let body_at = 8 + 4 + 8 + Bls12::NAME.len() + 8 + 32;
    let mut bad = splice(&good, &g2_element, &g2_outside_subgroup());
    let checksum = sha256(&bad[body_at..]);
    bad[body_at - 32..body_at].copy_from_slice(&checksum);

    match EncryptedStore::<Bls12>::from_snapshot_bytes(&bad) {
        Err(DbError::Snapshot(msg)) => assert!(msg.contains("invalid G2 element"), "{msg}"),
        other => panic!(
            "expected a typed snapshot error, got {:?}",
            other.map(|_| "Ok(store)")
        ),
    }
}
