//! Wire-format integration tests: group elements, tokens, ciphertexts
//! and the session protocol messages survive byte roundtrips on both
//! engines, and invalid bytes are rejected (subgroup/curve checks) —
//! token bytes by the store, before their first pairing.

use eqjoin::core::{RowEncoding, SecureJoin, SjParams, SjRowCiphertext, SjTableSide, SjToken};
use eqjoin::crypto::ChaChaRng;
use eqjoin::db::{
    DbClient, DbError, JoinAlgorithm, JoinOptions, JoinQuery, LocalBackend, Request, Response,
    Schema, ServerApi, Table, TableConfig, Value,
};
use eqjoin::pairing::{ops, Bls12, Engine, Fr, MockEngine};
use std::sync::Mutex;

mod wire_samples;

/// The op counters are process-wide: the tests that pair on `Bls12`
/// take turns with the one asserting that no pairing ran.
static PAIRING: Mutex<()> = Mutex::new(());

fn pairing_turn() -> std::sync::MutexGuard<'static, ()> {
    PAIRING.lock().unwrap_or_else(|e| e.into_inner())
}

fn roundtrip_group_elements<E: Engine>(seed: u64) {
    let mut rng = ChaChaRng::seed_from_u64(seed);
    for _ in 0..5 {
        let s = Fr::random(&mut rng);
        let p = E::g1_mul_gen(&s);
        let q = E::g2_mul_gen(&s);
        assert_eq!(E::g1_from_bytes(&E::g1_bytes(&p)).unwrap(), p);
        assert_eq!(E::g2_from_bytes(&E::g2_bytes(&q)).unwrap(), q);
    }
    // Identity elements: the generator to the power 0 encodes as all
    // zero bytes and decodes back, through the strict decoders and
    // through the upload decoder of `G2` ciphertext elements.
    let id1 = E::g1_mul_gen(&Fr::zero());
    let id1_bytes = E::g1_bytes(&id1);
    assert!(id1_bytes.iter().all(|&b| b == 0));
    assert_eq!(E::g1_from_bytes(&id1_bytes).unwrap(), id1);
    let id2 = E::g2_mul_gen(&Fr::zero());
    let id2_bytes = E::g2_bytes(&id2);
    assert!(id2_bytes.iter().all(|&b| b == 0));
    assert_eq!(E::g2_from_bytes(&id2_bytes).unwrap(), id2);
    assert_eq!(E::g2_from_bytes_on_curve(&id2_bytes).unwrap(), id2);
    // Garbage is rejected.
    assert!(E::g1_from_bytes(&[0xffu8; 7]).is_none());
}

#[test]
fn group_elements_roundtrip_bls() {
    roundtrip_group_elements::<Bls12>(1);
}

#[test]
fn group_elements_roundtrip_mock() {
    roundtrip_group_elements::<MockEngine>(2);
}

fn roundtrip_scheme_artifacts<E: Engine>(seed: u64) {
    type SjOf<E> = SecureJoin<E>;
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let msk = SjOf::<E>::setup(SjParams { m: 2, t: 2 }, &mut rng);
    let row = RowEncoding::from_bytes(b"key", &[b"x".to_vec(), b"y".to_vec()]);
    let ct = SjOf::<E>::encrypt_row(&msk, &row, &mut rng).unwrap();
    let key = SjOf::<E>::fresh_query_key(&mut rng);
    let tk = SjOf::<E>::token_gen(&msk, SjTableSide::A, &key, &[None, None], &mut rng).unwrap();

    // Serialize every element, rebuild, and check the decryption value
    // is bit-identical.
    let tk_bytes: Vec<Vec<u8>> = tk.elements().iter().map(E::g1_bytes).collect();
    let ct_bytes: Vec<Vec<u8>> = ct.elements().iter().map(E::g2_bytes).collect();
    let tk2 = SjToken::<E>::from_elements(
        SjTableSide::A,
        tk_bytes
            .iter()
            .map(|b| E::g1_from_bytes(b).expect("valid token element"))
            .collect(),
    );
    let ct2 = SjRowCiphertext::<E>::from_elements(
        ct_bytes
            .iter()
            .map(|b| E::g2_from_bytes(b).expect("valid ciphertext element"))
            .collect(),
    );
    let d1 = SjOf::<E>::decrypt(&tk, &ct);
    let d2 = SjOf::<E>::decrypt(&tk2, &ct2);
    assert_eq!(
        SjOf::<E>::match_key(&d1),
        SjOf::<E>::match_key(&d2),
        "wire roundtrip must preserve decryption"
    );
}

#[test]
fn scheme_artifacts_roundtrip_bls() {
    let _turn = pairing_turn();
    roundtrip_scheme_artifacts::<Bls12>(3);
}

#[test]
fn scheme_artifacts_roundtrip_mock() {
    roundtrip_scheme_artifacts::<MockEngine>(4);
}

/// Drive a full query over the wire: every request/response crosses the
/// byte codec, and the decrypted result must match the in-process path.
fn protocol_messages_roundtrip<E: Engine>(seed: u64) {
    let mut t = Table::new(Schema::new("T", &["k", "attr"]));
    for i in 0..8 {
        t.push_row(vec![Value::Int(i % 3), Value::Str(format!("v{}", i % 2))]);
    }
    let cfg = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["attr".into()],
    };
    let query = JoinQuery::on("T", "k", "T", "k").filter("T", "attr", vec!["v0".into()]);
    let options = JoinOptions {
        algorithm: JoinAlgorithm::Hash,
        use_prefilter: true,
        threads: 2,
        decrypt_cache: true,
        decrypt_cache_cap: 0,
    };

    // In-process reference execution.
    let mut client = DbClient::<E>::new(1, 2, seed);
    let enc = client.encrypt_table(&t, cfg()).unwrap();
    let tokens = client.query_tokens(&query).unwrap();
    let direct = LocalBackend::<E>::new();
    direct.handle(Request::InsertTable(enc));
    let direct_result = match direct.handle(Request::ExecuteJoin {
        tokens: tokens.clone(),
        options,
        projection: Default::default(),
    }) {
        Response::JoinExecuted { result, .. } => result,
        _ => panic!("direct join failed"),
    };

    // Same messages through the byte codec (same client keys/RNG state,
    // so ciphertexts are identical).
    let mut client2 = DbClient::<E>::new(1, 2, seed);
    let enc2 = client2.encrypt_table(&t, cfg()).unwrap();
    let tokens2 = client2.query_tokens(&query).unwrap();
    let wired = LocalBackend::<E>::new();
    let insert_bytes = Request::InsertTable(enc2).to_bytes();
    let insert = Request::<E>::from_bytes(&insert_bytes).unwrap();
    let resp_bytes = wired.handle(insert).to_bytes();
    match Response::from_bytes(&resp_bytes).unwrap() {
        Response::TableInserted { table, rows } => {
            assert_eq!(table, "T");
            assert_eq!(rows, 8);
        }
        _ => panic!("expected TableInserted"),
    }
    let exec_bytes = Request::ExecuteJoin {
        tokens: tokens2,
        options,
        projection: Default::default(),
    }
    .to_bytes();
    let exec = Request::<E>::from_bytes(&exec_bytes).unwrap();
    let wired_result = match Response::from_bytes(&wired.handle(exec).to_bytes()).unwrap() {
        Response::JoinExecuted { result, .. } => result,
        other => panic!(
            "expected JoinExecuted, got {:?} kind",
            std::mem::discriminant(&other)
        ),
    };

    let pairs = |r: &eqjoin::db::EncryptedJoinResult| -> Vec<(usize, usize)> {
        r.pairs.iter().map(|p| (p.left_row, p.right_row)).collect()
    };
    assert_eq!(pairs(&direct_result), pairs(&wired_result));
    assert_eq!(
        direct_result.stats.rows_decrypted,
        wired_result.stats.rows_decrypted
    );
    // The sealed payloads survive the roundtrip bit-exactly, so the
    // *original* client can still open them.
    let direct_rows = client.decrypt_result(&query, &direct_result).unwrap();
    let wired_rows = client.decrypt_result(&query, &wired_result).unwrap();
    assert_eq!(direct_rows, wired_rows);
}

#[test]
fn protocol_messages_roundtrip_mock() {
    protocol_messages_roundtrip::<MockEngine>(41);
}

#[test]
fn protocol_messages_roundtrip_bls() {
    let _turn = pairing_turn();
    protocol_messages_roundtrip::<Bls12>(42);
}

#[test]
fn query_tokens_reject_tampered_group_elements() {
    // Flip a byte inside a token element on the wire: the frame decodes
    // (the codec copies token bytes), and the store's G1 check refuses
    // the join before any pairing rather than run a bogus token.
    let _turn = pairing_turn();
    let mut t = Table::new(Schema::new("T", &["k", "attr"]));
    t.push_row(vec![Value::Int(1), "x".into()]);
    let mut client = DbClient::<Bls12>::new(1, 2, 7);
    let table = client
        .encrypt_table(
            &t,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["attr".into()],
            },
        )
        .unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();
    let element = tokens.left.token.elements()[0].clone();
    let good = Request::ExecuteJoin {
        tokens,
        options: JoinOptions::default(),
        projection: Default::default(),
    }
    .to_bytes();
    let at = good
        .windows(element.len())
        .position(|w| w == element.as_slice())
        .expect("the element is in the encoding");
    let mut bad = good.clone();
    bad[at + element.len() / 2] ^= 0xff;

    let backend = LocalBackend::<Bls12>::new();
    backend.handle(Request::InsertTable(table));
    let tampered = Request::<Bls12>::from_bytes(&bad).expect("the codec copies token bytes");
    let before = ops::snapshot();
    match backend.handle(tampered) {
        Response::Error(DbError::Protocol(msg)) => assert!(msg.contains("G1"), "{msg}"),
        other => panic!("expected the G1 protocol error, got {other:?}"),
    }
    let delta = ops::snapshot().since(&before);
    assert_eq!((delta.miller_pairs, delta.pairings), (0, 0));
    let untampered = Request::<Bls12>::from_bytes(&good).unwrap();
    assert!(matches!(
        backend.handle(untampered),
        Response::JoinExecuted { .. }
    ));
}

#[test]
fn fr_bytes_are_canonical_and_ordered() {
    // from_bytes must reject non-canonical encodings (value >= r).
    let max = [0xffu8; 32];
    assert!(Fr::from_bytes(&max).is_none());
    let one = Fr::from_u64(1).to_bytes();
    assert_eq!(Fr::from_bytes(&one).unwrap(), Fr::from_u64(1));
}

#[test]
fn gt_bytes_distinguish_distinct_values_bls() {
    let _turn = pairing_turn();
    let mut rng = ChaChaRng::seed_from_u64(5);
    let a = Fr::random(&mut rng);
    let b = Fr::random(&mut rng);
    let e1 = Bls12::pair(&Bls12::g1_mul_gen(&a), &Bls12::g2_mul_gen(&Fr::from_u64(1)));
    let e2 = Bls12::pair(&Bls12::g1_mul_gen(&b), &Bls12::g2_mul_gen(&Fr::from_u64(1)));
    assert_ne!(Bls12::gt_bytes(&e1), Bls12::gt_bytes(&e2));
    assert_eq!(Bls12::gt_bytes(&e1).len(), 576);
}

/// The golden-bytes fixture: `fixtures/wire_golden.hex` holds one
/// `space.Variant hex` line per fixed sample of `wire_samples`, written
/// by the hand-written codec this repository had before the wire
/// tables. The wire format, the journal (its records are
/// `Request::to_bytes()`) and every stored snapshot depend on these
/// bytes never moving, so a tag or layout change shows up here as an
/// edit to the fixture that a reviewer has to approve.
#[test]
fn wire_encoding_matches_the_golden_fixture() {
    let golden = include_str!("fixtures/wire_golden.hex");
    let rendered: String = wire_samples::encoded_samples()
        .iter()
        .map(|(space, variant, bytes)| {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            format!("{space}.{variant} {hex}\n")
        })
        .collect();
    assert!(
        rendered == golden,
        "the samples no longer encode to tests/fixtures/wire_golden.hex; if the wire \
         format is meant to change, the fixture must become:\n{rendered}"
    );

    // The other direction: every committed line still decodes, and
    // re-encodes to itself.
    for line in golden.lines() {
        let (name, hex) = line.split_once(' ').expect("`name hex` line");
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
            .collect();
        let again = if name.starts_with("request.") {
            wire_samples::Req::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{name} must decode: {e}"))
                .to_bytes()
        } else {
            Response::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{name} must decode: {e}"))
                .to_bytes()
        };
        assert_eq!(again, bytes, "{name} must re-encode to itself");
    }
}
