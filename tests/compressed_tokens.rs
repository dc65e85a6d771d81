//! `G1` token elements travel compressed and back to back: a `Bls12`
//! element is `x` and one flag bit, 48 bytes, and the engine fixes that
//! width, so no length goes in front of each element. A `(m, t) = (2, 3)`
//! token side is `1 + 8 + 11 × 48` = 537 bytes on the wire (a side tag,
//! an element count, then the elements) and a chain query's batch
//! carries four of them.
//!
//! The store pays for the compression where it already paid for the
//! subgroup check: `WireToken::checked()` recovers each `y` with one
//! `Fp` square root, inside the `store_token_check` span, and only for
//! sides its decrypt cache cannot vouch for. An old client's 96-byte
//! uncompressed elements, and a frame that still puts a length in front
//! of each element, are refused with a typed protocol error, never
//! misread.
//!
//! The metrics registry is process-wide, so every test here runs under
//! one lock.

use eqjoin::core::{SjTableSide, SjToken};
use eqjoin::db::{
    DbError, LocalBackend, PayloadProjection, QueryPlan, QueryTokens, Request, Response, Schema,
    ServerApi, Session, SessionConfig, SideTokens, Table, TableConfig, Value, WireToken,
};
use eqjoin::pairing::{Bls12, Engine, Fr, MockEngine};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

/// Elements of a `(m, t) = (2, 3)` token: `m(t + 1) + 3`.
const ELEMENTS: usize = 11;
/// Bytes of one compressed `Bls12` `G1` element.
const ELEMENT_BYTES: usize = 48;
/// A token side on the wire: side tag, element count, then the
/// elements back to back.
const SIDE_BYTES: usize = 1 + 8 + ELEMENTS * ELEMENT_BYTES;

fn config() -> SessionConfig {
    SessionConfig::new(2, 3).seed(0x48)
}

/// `Customers ⋈ Orders ⋈ Profiles` on `custkey`: two pairwise stages,
/// four token sides.
fn create_tables(session: &mut Session<Bls12>) {
    let cfg = |filter: &str| TableConfig {
        join_column: "custkey".into(),
        filter_columns: vec![filter.into()],
    };
    let specs = [
        ("Customers", "segment", ["auto", "build"]),
        ("Orders", "priority", ["urgent", "low"]),
        ("Profiles", "region", ["emea", "apac"]),
    ];
    for (name, filter, values) in specs {
        let mut table = Table::new(Schema::new(name, &["custkey", filter]));
        for i in 0..2i64 {
            table.push_row(vec![Value::Int(i), values[i as usize].into()]);
        }
        session.create_table(&table, cfg(filter)).expect("upload");
    }
}

fn chain() -> QueryPlan {
    QueryPlan::scan("Customers")
        .join_on("Customers", "custkey", "Orders", "custkey")
        .join_on("Customers", "custkey", "Profiles", "custkey")
}

/// Every request a `Recorder` served, in order.
type Seen = Arc<Mutex<Vec<Request<Bls12>>>>;

/// A `LocalBackend` that keeps a copy of every request it serves.
struct Recorder {
    inner: Arc<LocalBackend<Bls12>>,
    seen: Seen,
}

impl ServerApi<Bls12> for Recorder {
    fn handle(&self, request: Request<Bls12>) -> Response {
        self.seen
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(request.clone());
        self.inner.handle(request)
    }
}

/// A session over a fresh one-thread `LocalBackend`, the three tables
/// uploaded; the backend, and every request the session sent it.
fn recorded_session() -> (Session<Bls12>, Arc<LocalBackend<Bls12>>, Seen) {
    let inner = Arc::new(LocalBackend::with_config(Some(1), None));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let recorder = Recorder {
        inner: Arc::clone(&inner),
        seen: Arc::clone(&seen),
    };
    let mut session = Session::with_backend(config(), Box::new(recorder));
    create_tables(&mut session);
    (session, inner, seen)
}

/// Every token side of an `ExecuteJoin` or a batch of them.
fn sides(request: &Request<Bls12>) -> Vec<&SideTokens<Bls12>> {
    match request {
        Request::ExecuteJoin { tokens, .. } => vec![&tokens.left, &tokens.right],
        Request::Batch(requests) => requests.iter().flat_map(sides).collect(),
        _ => Vec::new(),
    }
}

/// `request` with every token side's elements dropped (tag and count
/// stay): what the frame is without the elements.
fn without_elements(request: &Request<Bls12>) -> Request<Bls12> {
    let mut request = request.clone();
    fn strip(request: &mut Request<Bls12>) {
        match request {
            Request::ExecuteJoin { tokens, .. } => {
                let tokens = Arc::make_mut(tokens);
                for side in [&mut tokens.left, &mut tokens.right] {
                    side.token = WireToken::from_encoded(side.token.side(), Vec::<Vec<u8>>::new())
                        .expect("no elements is a token of any width");
                }
            }
            Request::Batch(requests) => requests.iter_mut().for_each(strip),
            _ => {}
        }
    }
    strip(&mut request);
    request
}

/// The bytes `side`'s token occupies after its side tag: the element
/// count, then the elements back to back.
fn encoded_elements<E: Engine>(side: &SideTokens<E>) -> Vec<u8> {
    let mut out = (side.token.len() as u64).to_le_bytes().to_vec();
    for element in side.token.elements() {
        out.extend_from_slice(element);
    }
    out
}

/// `frame` with `side`'s token elements replaced by `elements`, written
/// the way a build before compression wrote them: the count, then each
/// element behind its own `u64` length.
fn with_element_lengths<E: Engine, B: AsRef<[u8]>>(
    frame: &[u8],
    side: &SideTokens<E>,
    elements: impl ExactSizeIterator<Item = B>,
) -> Vec<u8> {
    let current = encoded_elements(side);
    let mut old = (elements.len() as u64).to_le_bytes().to_vec();
    for element in elements {
        let element = element.as_ref();
        old.extend_from_slice(&(element.len() as u64).to_le_bytes());
        old.extend_from_slice(element);
    }
    let at = frame
        .windows(current.len())
        .position(|w| w == current.as_slice())
        .expect("the frame carries the side's elements");
    [&frame[..at], &old, &frame[at + current.len()..]].concat()
}

/// A `MockEngine` join of two `elements`-element token sides (32-byte
/// elements), with pre-filter tags and a projection.
fn mock_join(elements: u64) -> Request<MockEngine> {
    let side = |table: &str, side, seed: u64| SideTokens {
        table: table.into(),
        token: SjToken::<MockEngine>::from_elements(
            side,
            (0..elements)
                .map(|i| MockEngine::g1_mul_gen(&Fr::from_u64(seed + i)))
                .collect(),
        )
        .into(),
        prefilter: vec![(0, vec![[seed as u8; 16]])],
    };
    Request::ExecuteJoin {
        tokens: Arc::new(QueryTokens {
            left: side("T30", SjTableSide::A, 5),
            right: side("T31", SjTableSide::B, 77),
        }),
        projection: PayloadProjection {
            left: Some(vec![0, 2]),
            right: None,
        },
    }
}

#[test]
fn a_token_side_is_537_bytes_and_a_chain_batch_carries_four() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, _, seen) = recorded_session();
    let result = session.execute(&chain()).expect("chain query");
    assert_eq!(result.stage_stats.len(), 2, "two pairwise stages");

    let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
    let batch = seen
        .iter()
        .find(|r| matches!(r, Request::Batch(_)))
        .expect("a chain ships as one batch");
    let frame = batch.to_bytes();
    let batch_sides = sides(batch);
    assert_eq!(batch_sides.len(), 4, "two stages, two sides each");
    for side in &batch_sides {
        assert_eq!(side.token.len(), ELEMENTS);
        for element in side.token.elements() {
            assert_eq!(element.len(), ELEMENT_BYTES, "a compressed G1 element");
        }
        let tail = encoded_elements(side);
        assert_eq!(1 + tail.len(), SIDE_BYTES, "side tag + count + elements");
        assert_eq!(SIDE_BYTES, 537);
        assert!(
            frame.windows(tail.len()).any(|w| w == tail.as_slice()),
            "the frame carries the side's elements as they were encoded"
        );
    }
    // Nothing else in the frame depends on the elements: dropping them
    // saves exactly their bytes, the 4 × 528 that are not a side's tag
    // or count — no length travels with an element.
    let stripped = without_elements(batch).to_bytes();
    assert_eq!(
        frame.len() - stripped.len(),
        4 * (SIDE_BYTES - 1 - 8),
        "a chain query's batch carries 4 × {SIDE_BYTES} token bytes"
    );
    assert_eq!(4 * (SIDE_BYTES - 1 - 8), 4 * 528);
}

#[test]
fn a_frame_whose_elements_carry_lengths_is_a_protocol_error() {
    for elements in [1, 3] {
        let request = mock_join(elements);
        let frame = request.to_bytes();
        assert!(
            Request::<MockEngine>::from_bytes(&frame).is_ok(),
            "without the lengths the frame decodes"
        );
        let Request::ExecuteJoin { tokens, .. } = &request else {
            unreachable!("a join")
        };
        let left_only = with_element_lengths(&frame, &tokens.left, tokens.left.token.elements());
        let both = with_element_lengths(&left_only, &tokens.right, tokens.right.token.elements());
        for old in [left_only, both] {
            match Request::<MockEngine>::from_bytes(&old) {
                Err(DbError::Protocol(_)) => {}
                Err(other) => panic!("refused with an untyped error: {other:?}"),
                Ok(_) => panic!("a length-prefixed token decoded to a request"),
            }
        }
    }
}

#[test]
fn the_token_check_span_counts_cold_sides_and_not_warm_ones() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = eqjoin::obs::registry();
    let checks = || {
        registry
            .histogram("eqjoin_store_token_check_seconds")
            .snapshot()
    };
    let elements = || registry.counter_value("eqjoin_store_token_elements_checked_total", None);

    let mut session = Session::<Bls12>::local(config().threads(1));
    create_tables(&mut session);

    let (before, elements_before) = (checks(), elements());
    let cold = session.execute(&chain()).expect("cold chain");
    let after_cold = checks();
    assert_eq!(after_cold.count - before.count, 4, "one check per side");
    assert!(after_cold.sum_ns > before.sum_ns, "the checks took time");
    assert_eq!(elements() - elements_before, 4 * ELEMENTS as u64);

    // The token cache resends the same bytes; the decrypt cache answers
    // every row, so no side is decoded.
    let warm = session.execute(&chain()).expect("warm chain");
    assert_eq!(warm.stage_cache_hits, vec![true, true]);
    assert_eq!(warm.rows, cold.rows);
    assert_eq!(checks().count - after_cold.count, 0);
    assert_eq!(elements() - elements_before, 4 * ELEMENTS as u64);
}

#[test]
fn an_old_clients_96_byte_elements_are_a_typed_protocol_error() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut session, backend, seen) = recorded_session();
    let plan = QueryPlan::scan("Customers").join_on("Customers", "custkey", "Orders", "custkey");
    session.execute(&plan).expect("a pairwise join");
    let good = seen
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .find_map(|r| match r {
            Request::ExecuteJoin { tokens, .. } => Some(tokens.clone()),
            _ => None,
        })
        .expect("the join was served");

    // The same points as a build before compression wrote them: `x`
    // then `y`, 96 bytes. No token holds them, so nothing can put them
    // on the wire.
    let uncompressed: Vec<Vec<u8>> = good
        .left
        .token
        .elements()
        .map(|bytes| {
            let p = Bls12::g1_from_bytes(bytes).expect("a valid element");
            [p.x.to_bytes(), p.y.to_bytes()].concat()
        })
        .collect();
    assert!(uncompressed.iter().all(|e| e.len() == 96));
    assert!(matches!(
        WireToken::<Bls12>::from_encoded(good.left.token.side(), uncompressed.clone()),
        Err(DbError::Protocol(_))
    ));

    // The frame such a client sent: each element behind its `u64`
    // length. The decoder refuses it with the same typed error, and the
    // backend goes on serving.
    let join = |tokens| Request::ExecuteJoin {
        tokens,
        projection: PayloadProjection::default(),
    };
    let frame = join(good.clone()).to_bytes();
    let old_frame = with_element_lengths(&frame, &good.left, uncompressed.iter());
    assert!(matches!(
        Request::<Bls12>::from_bytes(&old_frame),
        Err(DbError::Protocol(_))
    ));
    assert!(matches!(
        backend.handle(Request::from_bytes(&frame).expect("the current frame decodes")),
        Response::JoinExecuted { .. }
    ));
}
