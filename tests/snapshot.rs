//! Snapshot robustness (ISSUE 5 satellite): a saved store reloads into
//! byte-identical query results with identical counters; truncated,
//! byte-flipped, wrong-version and wrong-engine snapshots are rejected
//! with a clean [`DbError::Snapshot`] — never a panic.

use eqjoin::db::{
    DbClient, DbError, DbServer, EncryptedStore, JoinOptions, JoinQuery, Schema, Table,
    TableConfig, Value,
};
use eqjoin::pairing::{Bls12, MockEngine};
use proptest::prelude::*;

/// Build a server + matching client from generated row data, run one
/// (optionally filtered) query to warm the decrypt cache, and return
/// everything needed to replay it.
fn build(
    seed: u64,
    rows: &[(i64, u64)],
    prefilter: bool,
) -> (
    DbClient<MockEngine>,
    DbServer<MockEngine>,
    JoinQuery,
    Vec<u8>,
) {
    use eqjoin::db::ClientConfig;
    let mut client = DbClient::<MockEngine>::with_config(
        ClientConfig::new(1, 2).seed(seed).prefilter(prefilter),
    );
    let mut server = DbServer::new();
    let mut left = Table::new(Schema::new("L", &["k", "a"]));
    let mut right = Table::new(Schema::new("R", &["k", "b"]));
    for &(k, tag) in rows {
        left.push_row(vec![Value::Int(k % 5), Value::Str(format!("a{}", tag % 3))]);
        right.push_row(vec![Value::Int(k % 4), Value::Str(format!("b{}", tag % 2))]);
    }
    let cfg = |c: &str| TableConfig {
        join_column: "k".into(),
        filter_columns: vec![c.to_owned()],
    };
    server
        .insert_table(client.encrypt_table(&left, cfg("a")).unwrap())
        .unwrap();
    server
        .insert_table(client.encrypt_table(&right, cfg("b")).unwrap())
        .unwrap();
    let query = if seed.is_multiple_of(2) {
        JoinQuery::on("L", "k", "R", "k")
    } else {
        JoinQuery::on("L", "k", "R", "k").filter("L", "a", vec!["a0".into(), "a1".into()])
    };
    let result = execute(&mut client, &server, &query);
    (client, server, query, result)
}

/// Execute and encode one query's observable output: matched pairs,
/// each shipped row's id and payload bytes, and the stat counters the
/// acceptance cares about.
fn execute(
    client: &mut DbClient<MockEngine>,
    server: &DbServer<MockEngine>,
    query: &JoinQuery,
) -> Vec<u8> {
    let tokens = client.query_tokens(query).unwrap();
    let (result, obs) = server
        .execute_join(&tokens, &JoinOptions::default())
        .unwrap();
    let mut out = Vec::new();
    for (l, r) in obs.pairs() {
        out.extend_from_slice(&(l as u64).to_le_bytes());
        out.extend_from_slice(&(r as u64).to_le_bytes());
    }
    for (row, payloads) in result.left_rows.iter().chain(&result.right_rows) {
        out.extend_from_slice(&(*row as u64).to_le_bytes());
        for payload in payloads {
            out.extend_from_slice(payload);
        }
    }
    out.extend_from_slice(&(result.stats.rows_decrypted as u64).to_le_bytes());
    out.extend_from_slice(&(result.stats.rows_prefiltered_out as u64).to_le_bytes());
    out.extend_from_slice(&(obs.equality_classes.len() as u64).to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Save → load round trip: the restored server answers the same
    // query with byte-identical results and identical counters, and
    // re-snapshotting the restored store reproduces the snapshot
    // byte-for-byte (the format is canonical).
    #[test]
    fn save_load_round_trip_is_byte_identical(
        seed in 0u64..64,
        rows in proptest::collection::vec((0i64..40, 0u64..9), 1..16),
        prefilter in 0u64..2,
    ) {
        let (mut client, server, query, _) = build(seed, &rows, prefilter == 1);
        let bytes = server.store().snapshot_bytes();
        let restored = DbServer::with_store(
            EncryptedStore::<MockEngine>::from_snapshot_bytes(&bytes).unwrap(),
        );
        prop_assert_eq!(&restored.store().snapshot_bytes(), &bytes, "canonical re-snapshot");

        // Fresh tokens on both servers (same client state → same draw):
        // results and op counters must be byte-identical. The cached
        // warm state survives too: a replay of the *same* token bundle
        // is a full cache hit on the restored server.
        let fresh = execute(&mut client, &restored, &query);
        drop(server);
        let (mut client2, server2, query2, _) = build(seed, &rows, prefilter == 1);
        let direct = execute(&mut client2, &server2, &query2);
        prop_assert_eq!(fresh, direct);

        let tokens = client.query_tokens(&query).unwrap();
        let (warm, _) = restored.execute_join(&tokens, &JoinOptions::default()).unwrap();
        let (warm2, _) = restored.execute_join(&tokens, &JoinOptions::default()).unwrap();
        prop_assert_eq!(warm.stats.decrypt_cache_hits, 0, "fresh k: cold by design");
        prop_assert_eq!(
            warm2.stats.decrypt_cache_hits as usize,
            warm2.stats.rows_decrypted,
            "repeat fully warm on the restored store"
        );
    }

    // Every strict prefix of a snapshot is rejected with a clean
    // DbError::Snapshot — truncation can never panic or half-load.
    #[test]
    fn truncated_snapshots_rejected_cleanly(
        seed in 0u64..64,
        rows in proptest::collection::vec((0i64..40, 0u64..9), 1..6),
    ) {
        let (_, server, _, _) = build(seed, &rows, false);
        let bytes = server.store().snapshot_bytes();
        let step = (bytes.len() / 48).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            match EncryptedStore::<MockEngine>::from_snapshot_bytes(&bytes[..cut]) {
                Err(DbError::Snapshot(_)) => {}
                other => prop_assert!(
                    false,
                    "prefix of {cut}/{} bytes must be a Snapshot error, got {:?}",
                    bytes.len(),
                    other.map(|_| "Ok(store)")
                ),
            }
        }
    }

    // Any single byte flip is rejected (header fields by their own
    // validation, body bytes by the checksum) — and never panics.
    #[test]
    fn byte_flipped_snapshots_rejected_cleanly(
        seed in 0u64..64,
        rows in proptest::collection::vec((0i64..40, 0u64..9), 1..6),
        flip_pos in 0u64..1_000_000,
        flip_mask in 1u64..256,
    ) {
        let (_, server, _, _) = build(seed, &rows, false);
        let mut bytes = server.store().snapshot_bytes();
        let pos = (flip_pos as usize) % bytes.len();
        bytes[pos] ^= flip_mask as u8;
        match EncryptedStore::<MockEngine>::from_snapshot_bytes(&bytes) {
            Err(DbError::Snapshot(_)) => {}
            other => prop_assert!(
                false,
                "flip at {pos} must be a Snapshot error, got {:?}",
                other.map(|_| "Ok(store)")
            ),
        }
    }
}

#[test]
fn version_and_engine_mismatches_detected() {
    let (_, server, _, _) = build(7, &[(1, 1), (2, 2)], false);
    let bytes = server.store().snapshot_bytes();

    // Bump the format version field (bytes 8..12, little-endian u32).
    let mut wrong_version = bytes.clone();
    wrong_version[8..12].copy_from_slice(&3u32.to_le_bytes());
    match EncryptedStore::<MockEngine>::from_snapshot_bytes(&wrong_version) {
        Err(DbError::Snapshot(msg)) => {
            assert!(msg.contains("version"), "{msg}")
        }
        other => panic!(
            "expected a version error, got {:?}",
            other.map(|_| "Ok(store)")
        ),
    }

    // A mock-engine snapshot loaded under BLS12-381 is refused before
    // any element parsing.
    match EncryptedStore::<Bls12>::from_snapshot_bytes(&bytes) {
        Err(DbError::Snapshot(msg)) => {
            assert!(msg.contains("engine"), "{msg}")
        }
        other => panic!(
            "expected an engine error, got {:?}",
            other.map(|_| "Ok(store)")
        ),
    }

    // Bad magic.
    let mut wrong_magic = bytes;
    wrong_magic[0] ^= 0xff;
    assert!(matches!(
        EncryptedStore::<MockEngine>::from_snapshot_bytes(&wrong_magic),
        Err(DbError::Snapshot(_))
    ));
    // Empty input.
    assert!(matches!(
        EncryptedStore::<MockEngine>::from_snapshot_bytes(&[]),
        Err(DbError::Snapshot(_))
    ));
}
