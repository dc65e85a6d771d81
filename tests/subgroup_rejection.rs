//! The subgroup check is reachable — and refuses — through every door a
//! group element enters by. A request frame is refused at decode
//! (`Request::from_bytes`, G1 token elements and G2 ciphertext
//! elements). A store snapshot — bytes this server wrote, under their
//! SHA-256 — is decoded with the curve check only and **opens**; its
//! G2 ciphertext elements are subgroup-checked by the preparation walk
//! that precedes their first pairing, so the join that selects the row
//! is refused, typed, with no Miller loop run (`tests/stored_elements.rs`
//! has the full contract, journal door included).
//!
//! A flipped byte only ever trips the curve equation (see
//! `tests/serialization.rs`); these tests splice in points that are
//! validly encoded and **on the curve** but outside the order-`r`
//! subgroup, so the subgroup check is the only thing left to refuse them.

mod outside_subgroup;

use eqjoin::db::{
    DbClient, DbError, DbServer, EncryptedStore, EncryptedTable, JoinOptions, JoinQuery, Request,
    Schema, Table, TableConfig, Value,
};
use eqjoin::pairing::curve::CurveParams;
use eqjoin::pairing::{g1, ops, Bls12, Engine, Fp, G1Affine};
use outside_subgroup::{g2_outside_subgroup, outside_subgroup, splice, splice_snapshot};

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
    let (mut client, table) = client_and_table();
    let g2_element = Bls12::g2_bytes(&table.rows[0].cipher.elements()[0]);
    let mut server = DbServer::<Bls12>::new();
    server.insert_table(table).unwrap();
    let good = server.store().snapshot_bytes();
    assert!(EncryptedStore::<Bls12>::from_snapshot_bytes(&good).is_ok());

    // The checksum vouches for the spliced body, the point is on the
    // curve: the snapshot loads, preparing nothing …
    let bad = splice_snapshot(&good, &g2_element, &g2_outside_subgroup());
    let before = ops::snapshot();
    let store = EncryptedStore::<Bls12>::from_snapshot_bytes(&bad)
        .expect("an on-curve element under a valid checksum loads");
    assert_eq!(ops::snapshot().since(&before).g2_prepares, 0);

    // … and the first join that selects the row is refused by the
    // row's preparation, before any pairing takes the element.
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();
    let server = DbServer::with_store(store);
    match server.execute_join(&tokens, &JoinOptions::default()) {
        Err(DbError::Snapshot(msg)) => {
            assert!(
                msg.contains("table T row 0") && msg.contains("subgroup"),
                "{msg}"
            )
        }
        other => panic!(
            "expected the typed stored-element refusal, got {:?}",
            other.map(|_| "Ok(result)")
        ),
    }
    let delta = ops::snapshot().since(&before);
    assert_eq!((delta.miller_pairs, delta.pairings), (0, 0));
}
