//! Deterministic `MockEngine` message generators shared by the wire
//! tests: the golden-bytes fixture (`serialization.rs`) pins what the
//! fixed samples below encode to, and the protocol proptests
//! (`proptest_protocol.rs`) drive the same generators with random
//! shapes.

#![allow(dead_code)] // each test binary uses its own subset

use eqjoin::core::{SjRowCiphertext, SjTableSide, SjToken};
use eqjoin::db::protocol::{error_tag, request_tag, response_tag};
use eqjoin::db::{
    DbError, EncryptedJoinResult, EncryptedRow, EncryptedTable, JoinObservation, PayloadProjection,
    QueryTokens, Request, Response, ServerStats, SideTokens,
};
use eqjoin::pairing::{Engine, Fr, MockEngine};
use std::sync::Arc;
use std::time::Duration;

pub type Req = Request<MockEngine>;

fn g1(x: u64) -> <MockEngine as Engine>::G1 {
    MockEngine::g1_mul_gen(&Fr::from_u64(x))
}

fn g2(x: u64) -> <MockEngine as Engine>::G2 {
    MockEngine::g2_mul_gen(&Fr::from_u64(x))
}

/// Deterministic 16-byte prefilter tag from a seed.
fn tag(x: u64) -> [u8; 16] {
    let mut t = [0u8; 16];
    t[..8].copy_from_slice(&x.to_le_bytes());
    t[8..].copy_from_slice(&x.wrapping_mul(31).to_le_bytes());
    t
}

/// An encrypted table whose shape (rows, ciphertext width, payload
/// length, tag presence) is driven entirely by the generated integers.
pub fn table(name_id: u64, rows: &[(u64, u64, u64)], tagged: bool) -> EncryptedTable<MockEngine> {
    EncryptedTable {
        name: format!("T{name_id}"),
        join_column: "k".into(),
        filter_columns: vec!["a".into(), format!("col{name_id}")],
        rows: rows
            .iter()
            .map(|&(seed, width, payload_len)| EncryptedRow {
                cipher: SjRowCiphertext::from_elements(
                    (0..=width % 5).map(|i| g2(seed.wrapping_add(i))).collect(),
                ),
                payloads: (0..payload_len % 4)
                    .map(|c| {
                        (0..(payload_len + c) % 16)
                            .map(|i| (seed ^ c ^ i) as u8)
                            .collect()
                    })
                    .collect(),
                tags: tagged.then(|| vec![tag(seed), tag(seed ^ 1)]),
            })
            .collect(),
    }
}

fn side(table_id: u64, side: SjTableSide, seeds: &[u64]) -> SideTokens<MockEngine> {
    SideTokens {
        table: format!("T{table_id}"),
        token: SjToken::from_elements(side, seeds.iter().map(|&s| g1(s)).collect()).into(),
        prefilter: seeds
            .iter()
            .take(2)
            .enumerate()
            .map(|(col, &s)| (col, vec![tag(s), tag(s + 7)]))
            .collect(),
    }
}

/// A join request whose table names and projection shape are driven
/// by `id`, its token elements and pre-filter tags by `seeds`.
pub fn exec_request(id: u64, seeds: &[u64]) -> Req {
    Request::ExecuteJoin {
        tokens: Arc::new(QueryTokens {
            left: side(id, SjTableSide::A, seeds),
            right: side(id + 1, SjTableSide::B, seeds),
        }),
        projection: PayloadProjection {
            left: id
                .is_multiple_of(3)
                .then(|| (0..id % 4).map(|i| i as usize).collect()),
            right: id.is_multiple_of(2).then(|| vec![id as usize % 7]),
        },
    }
}

pub fn copy_rows_request(
    name_id: u64,
    start_row: u64,
    rows: &[(u64, u64, u64)],
    tagged: bool,
) -> Req {
    let t = table(name_id, rows, tagged);
    Request::CopyRows {
        table: t.name,
        join_column: t.join_column,
        filter_columns: t.filter_columns,
        start_row,
        rows: t.rows,
    }
}

/// A join answer: each `(l, r, p)` ships left row `l` and right row `r`,
/// with payload columns derived from `p`; each `(t, n)` is a class of
/// `2 + n % 3` members from row `n` on, sides alternating from `t`'s
/// parity.
pub fn join_response(rows: &[(u64, u64, u64)], classes: &[(u64, u64)]) -> Response {
    let payloads = |row: u64, p: u64| -> Vec<Vec<u8>> {
        (0..p % 3)
            .map(|c| (0..(p + c) % 16).map(|i| (row ^ c ^ i) as u8).collect())
            .collect()
    };
    Response::JoinExecuted {
        result: EncryptedJoinResult {
            left_rows: rows
                .iter()
                .map(|&(l, _, p)| (l as usize, payloads(l, p)))
                .collect(),
            right_rows: rows
                .iter()
                .map(|&(_, r, p)| (r as usize, payloads(r, p / 16)))
                .collect(),
            stats: ServerStats {
                rows_decrypted: rows.len(),
                rows_prefiltered_out: classes.len(),
                comparisons: rows.len() as u64 * 3,
                matched_pairs: rows.len(),
                decrypt_time: Duration::from_nanos(rows.len() as u64 * 11),
                match_time: Duration::from_nanos(classes.len() as u64 * 13),
                decrypt_cache_hits: rows.len() as u64 * 7,
            },
        },
        observation: JoinObservation {
            equality_classes: classes
                .iter()
                .map(|&(t, n)| {
                    (0..2 + n % 3)
                        .map(|i| (((t + i) % 2) as u8, (n + i) as usize))
                        .collect()
                })
                .collect(),
        },
    }
}

pub fn stats_response(exposition_lines: u64) -> Response {
    Response::Stats(
        (0..exposition_lines)
            .map(|i| format!("eqjoin_metric_{i} {i}\n"))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// The fixed samples: at least one per variant of each tag space (more
// where an option or a list has two shapes worth pinning).
// ---------------------------------------------------------------------

const ROWS: [(u64, u64, u64); 3] = [(11, 0, 5), (2_024, 3, 38), (999_983, 4, 0)];

pub fn request_samples() -> Vec<Req> {
    vec![
        Request::Ping,
        Request::InsertTable(table(1, &ROWS, true)),
        Request::InsertTable(table(2, &ROWS[..1], false)),
        exec_request(30, &[5, 77, 4_242]),
        exec_request(7, &[9]),
        Request::Batch(vec![
            Request::Ping,
            exec_request(12, &[3, 8]),
            copy_rows_request(3, 40, &ROWS[1..], false),
            Request::Stats,
        ]),
        Request::InsertRows {
            table: "T1".into(),
            start_row: 3,
            rows: table(1, &ROWS[..2], true).rows,
        },
        Request::DeleteRows {
            table: "orders".into(),
            rows: vec![1, 5, 9, u64::MAX],
        },
        Request::WithTenant {
            tenant: "acme-01_eu".into(),
            inner: Box::new(Request::Batch(vec![
                Request::Stats,
                exec_request(15, &[21]),
            ])),
        },
        Request::Drain,
        Request::Stats,
        copy_rows_request(0, 1_000, &ROWS, true),
        copy_rows_request(2, 0, &[], false),
    ]
}

pub fn error_samples() -> Vec<DbError> {
    let (table, column) = (String::from("orders"), String::from("o_custkey"));
    vec![
        DbError::UnknownTable("X".into()),
        DbError::UnknownColumn {
            table: table.clone(),
            column: column.clone(),
        },
        DbError::JoinColumnMismatch {
            table: table.clone(),
            requested: "a".into(),
            encrypted: "b".into(),
        },
        DbError::NotAFilterColumn {
            table: table.clone(),
            column: column.clone(),
        },
        DbError::InClauseTooLarge { got: 9, max: 3 },
        DbError::EmptyInClause,
        DbError::PayloadCorrupted,
        DbError::TooManyFilterColumns {
            table: table.clone(),
            got: 4,
            max: 2,
        },
        DbError::Protocol("unknown request tag 200".into()),
        DbError::Sql("expected FROM near 'FORM'".into()),
        DbError::NoSqlPlanner,
        DbError::Transport("connection reset".into()),
        DbError::FilterTableNotInQuery {
            table: table.clone(),
            column: column.clone(),
        },
        DbError::DuplicateProjectionColumn {
            table: table.clone(),
            column,
        },
        DbError::InvalidPlan("projection below join".into()),
        DbError::UnknownRow {
            table,
            row: 1 << 40,
        },
        DbError::Snapshot("checksum mismatch".into()),
        DbError::Overloaded {
            tenant: Some("acme".into()),
            in_flight: 8,
            cap: 8,
        },
        DbError::Overloaded {
            tenant: None,
            in_flight: 64,
            cap: 64,
        },
        DbError::Timeout("read deadline of 250ms elapsed".into()),
        DbError::DimensionMismatch {
            what: "row attributes".into(),
            expected: 2,
            got: 5,
        },
    ]
}

pub fn response_samples() -> Vec<Response> {
    vec![
        Response::Pong,
        Response::TableInserted {
            table: "T1".into(),
            rows: 3,
        },
        join_response(
            &[(0, 2, 0x21), (7, 7, 0xff), (499, 1, 0)],
            &[(1, 4), (3, 0)],
        ),
        join_response(&[], &[]),
        Response::Error(DbError::EmptyInClause),
        Response::Batch(vec![
            Response::Pong,
            join_response(&[(1, 1, 0x12)], &[(0, 1)]),
            Response::Error(DbError::UnknownTable("T9".into())),
            stats_response(1),
        ]),
        Response::RowsInserted {
            table: "T1".into(),
            rows: 2,
        },
        Response::RowsDeleted {
            table: "orders".into(),
            rows: 4,
        },
        stats_response(3),
        Response::CopyRows {
            table: "T0".into(),
            rows: 3,
            total_rows: 1_003,
        },
    ]
}

/// Every fixed sample as `(space, variant, wire bytes)`, errors riding
/// in a `Response::Error` as they do on the wire. The variant name is
/// looked up from the tag the bytes carry, in the generated listing.
pub fn encoded_samples() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    type Tags = &'static [(&'static str, u8)];
    let named = |space, tags: Tags, tag_at: usize, bytes: Vec<u8>| {
        let listed = tags.iter().find(|(_, tag)| *tag == bytes[tag_at]);
        (space, listed.expect("a listed tag").0, bytes)
    };
    let requests = request_samples()
        .into_iter()
        .map(|m| named("request", request_tag::WIRE_TAGS, 0, m.to_bytes()));
    let responses = response_samples()
        .into_iter()
        .map(|m| named("response", response_tag::WIRE_TAGS, 0, m.to_bytes()));
    let errors = error_samples().into_iter().map(|e| {
        named(
            "error",
            error_tag::WIRE_TAGS,
            1,
            Response::Error(e).to_bytes(),
        )
    });
    requests.chain(responses).chain(errors).collect()
}
