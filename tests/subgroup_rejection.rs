//! The subgroup check is reachable — and refuses — through every door a
//! group element enters by. A request frame carrying a G1 token element
//! outside the subgroup **decodes** (`Request::from_bytes` copies token
//! bytes), and `WireToken::checked()`, the only way to a token a pairing
//! accepts, refuses it (`tests/validate_once.rs` drives the refusal
//! before any pairing through a local backend and a reactor). G2
//! ciphertext elements — in an upload frame or a store snapshot — are
//! decoded with the curve check only: the frame **decodes**, the
//! snapshot **opens**, and the preparation walk that precedes the
//! element's first pairing refuses it, so the join that selects the row
//! gets a typed error with no Miller loop run (`tests/stored_elements.rs`
//! has the full contract: every upload kind and framing, the reactor's
//! door, the journal and the snapshot). Off-curve and non-canonical G2
//! bytes are still refused at decode.
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
use std::sync::Mutex;

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

/// The op counters are process-wide: tests reading their deltas take
/// turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn assert_protocol_error<T>(result: Result<T, DbError>, group: &str) {
    match result {
        Err(DbError::Protocol(msg)) => assert!(msg.contains(group), "{msg}"),
        other => panic!(
            "expected a {group} protocol error, got {:?}",
            other.map(|_| "Ok(..)")
        ),
    }
}

/// The typed refusal of the join that first pairs `table`'s `row`, with
/// no Miller loop run since `before`.
fn assert_refused_at_first_use(
    result: Result<impl Sized, DbError>,
    table_row: &str,
    before: &ops::OpCounts,
) {
    match result {
        Err(DbError::Snapshot(msg)) => {
            assert!(msg.contains(table_row) && msg.contains("subgroup"), "{msg}")
        }
        Err(other) => panic!("expected the typed stored-element refusal, got {other:?}"),
        Ok(_) => panic!("expected the typed stored-element refusal, got Ok(result)"),
    }
    let delta = ops::snapshot().since(before);
    assert_eq!((delta.miller_pairs, delta.pairings), (0, 0));
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
fn token_points_outside_the_subgroup_decode_and_are_refused_by_checked() {
    let (mut client, _) = client_and_table();

    // G1: a token element of an ExecuteJoin.
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();
    let g1_element = tokens.right.token.elements().next().unwrap().to_vec();
    let good = Request::ExecuteJoin {
        tokens: tokens.into(),
        projection: Default::default(),
    }
    .to_bytes();
    let right_token = |frame: &[u8]| match Request::<Bls12>::from_bytes(frame) {
        Ok(Request::ExecuteJoin { tokens, .. }) => tokens.right.token.clone(),
        _ => panic!("an ExecuteJoin frame decodes to an ExecuteJoin"),
    };
    assert!(right_token(&good).checked().is_ok());
    // The frame decodes — the codec copies token bytes — and
    // `checked()`, which the store runs before the token's first
    // pairing, refuses the point.
    let poisoned = right_token(&splice(&good, &g1_element, &g1_outside_subgroup()));
    assert_protocol_error(poisoned.checked(), "G1");
}

#[test]
fn uploads_outside_the_subgroup_decode_and_are_refused_at_first_use() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut client, table) = client_and_table();
    let g2_element = Bls12::g2_bytes(&table.rows[0].cipher.elements()[1]);
    let mut off_curve = g2_element.clone();
    *off_curve.last_mut().unwrap() ^= 1;
    let mut non_canonical = g2_element.clone();
    non_canonical[..Fp::BYTES].fill(0xff);

    // G2: a ciphertext element of an InsertTable, an InsertRows and a
    // CopyRows.
    let insert_rows = Request::InsertRows {
        table: "T".into(),
        start_row: 1,
        rows: table.rows.clone(),
    }
    .to_bytes();
    let copy_rows = Request::CopyRows {
        table: "T".into(),
        join_column: table.join_column.clone(),
        filter_columns: table.filter_columns.clone(),
        start_row: 1,
        rows: table.rows.clone(),
    }
    .to_bytes();
    let insert_table = Request::InsertTable(table).to_bytes();
    let mut poisoned_insert_table = None;
    for good in [insert_table, insert_rows, copy_rows] {
        let poisoned = splice(&good, &g2_element, &g2_outside_subgroup());
        assert!(Request::<Bls12>::from_bytes(&good).is_ok());
        // Off the curve or not canonical: refused at decode.
        for bad in [&off_curve, &non_canonical] {
            let frame = splice(&good, &g2_element, bad);
            assert_protocol_error(Request::<Bls12>::from_bytes(&frame), "G2");
        }
        // On the curve, outside the subgroup: decodes.
        assert!(Request::<Bls12>::from_bytes(&poisoned).is_ok());
        poisoned_insert_table.get_or_insert(poisoned);
    }

    // … and the first join that selects the row is refused by the
    // row's preparation, before any pairing takes the element.
    let Ok(Request::InsertTable(poisoned)) =
        Request::<Bls12>::from_bytes(&poisoned_insert_table.unwrap())
    else {
        panic!("an InsertTable frame decodes to an InsertTable");
    };
    let mut server = DbServer::<Bls12>::new();
    let before = ops::snapshot();
    server.insert_table(poisoned).unwrap();
    assert_eq!(ops::snapshot().since(&before).g2_prepares, 0);
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();
    let result = server.execute_join(&tokens, &JoinOptions::default());
    assert_refused_at_first_use(result, "table T row 0", &before);
}

#[test]
fn snapshots_reject_on_curve_points_outside_the_subgroup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    let result = server.execute_join(&tokens, &JoinOptions::default());
    assert_refused_at_first_use(result, "table T row 0", &before);
}
