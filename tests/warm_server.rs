//! Warm server gate: a fully warm join costs the server per side and
//! per class, never per candidate row or token element.
//!
//! - A warm `DbServer::execute_join_projected` finds each side's
//!   fingerprint through a windowed lookup, serves the side's cached
//!   match keys from the entry's id-sorted run (without a table scan
//!   while the entry's generation stamp holds), and hash-joins with one
//!   map and one chain vector (no heap bucket per row): over 16 cached
//!   candidate rows it makes exactly as many allocations as over 256,
//!   when both match the same 3 rows.
//! - `Request::from_bytes` copies each token side as one run of element
//!   bytes: an `ExecuteJoin` at token arity 5 decodes with exactly as
//!   many allocations as one at arity 11.
//!
//! A counting global allocator counts allocations per thread, so the
//! tests of this binary may run in parallel; the server runs on the
//! test's own thread (one decrypt thread, and a warm join decrypts
//! nothing anyway).

use eqjoin::core::SjTableSide;
use eqjoin::db::{
    DbClient, DbServer, JoinOptions, JoinQuery, PayloadProjection, QueryTokens, Request, Schema,
    SideTokens, Table, TableConfig, Value, WireToken,
};
use eqjoin::pairing::{Engine, MockEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread has made (`realloc` is `GlobalAlloc`'s
    /// default, an `alloc` and a copy, so each growth counts once).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: both methods hand their arguments to `System` unchanged and
// return what it returns; the counter is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

/// `L(k, x)` with `rows` rows of distinct keys `0..rows`, and `R(k, x)`
/// with keys 1, 2 and 3: every size of `L` matches the same 3 rows.
fn server(rows: i64) -> (DbServer<MockEngine>, QueryTokens<MockEngine>) {
    let mut client = DbClient::<MockEngine>::new(2, 3, 11);
    let mut server = DbServer::new();
    server.set_default_threads(Some(1));
    let table = |name: &str, keys: &mut dyn Iterator<Item = i64>| {
        let mut t = Table::new(Schema::new(name, &["k", "x"]));
        for k in keys {
            t.push_row(vec![Value::Int(k), Value::Int(k % 4)]);
        }
        t
    };
    let config = || TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["x".into()],
    };
    for t in [table("L", &mut (0..rows)), table("R", &mut (1..4))] {
        server
            .insert_table(client.encrypt_table(&t, config()).unwrap())
            .unwrap();
    }
    let tokens = client
        .query_tokens(&JoinQuery::on("L", "k", "R", "k"))
        .unwrap();
    (server, tokens)
}

/// Allocations of one fully warm join over `rows` rows of `L`, after a
/// cold run and a warm one (which register every metric it touches).
fn warm_join_allocations(rows: i64) -> usize {
    let (server, tokens) = server(rows);
    let projection = PayloadProjection::default();
    let join = || {
        server
            .execute_join_projected(&tokens, &JoinOptions::default(), &projection)
            .unwrap()
    };
    join();
    join();
    let (allocations, (result, observation)) = allocations_of(join);
    assert_eq!(result.stats.rows_decrypted, rows as usize + 3);
    assert_eq!(
        result.stats.decrypt_cache_hits,
        rows as u64 + 3,
        "fully warm"
    );
    assert_eq!((result.left_rows.len(), result.right_rows.len()), (3, 3));
    assert_eq!(observation.equality_classes.len(), 3);
    allocations
}

#[test]
fn a_warm_join_allocates_the_same_over_16_and_256_candidate_rows() {
    let small = warm_join_allocations(16);
    let large = warm_join_allocations(256);
    assert_eq!(
        small, large,
        "a warm join allocated per candidate row: {small} allocations over 16 rows, \
         {large} over 256"
    );
}

/// An `ExecuteJoin` frame whose token sides carry `arity` elements each
/// (the codec copies them unchecked, so any bytes of the width do).
fn join_frame(arity: usize) -> Vec<u8> {
    let side = |table: &str, side, byte: u8| SideTokens {
        table: table.into(),
        token: WireToken::<MockEngine>::from_encoded(
            side,
            vec![vec![byte; MockEngine::G1_BYTES]; arity],
        )
        .unwrap(),
        prefilter: vec![(0, vec![[byte; 16], [byte ^ 1; 16]])],
    };
    Request::ExecuteJoin {
        tokens: QueryTokens {
            left: side("L", SjTableSide::A, 1),
            right: side("R", SjTableSide::B, 2),
        }
        .into(),
        projection: PayloadProjection {
            left: Some(vec![0]),
            right: None,
        },
    }
    .to_bytes()
}

fn decode_allocations(arity: usize) -> usize {
    let frame = join_frame(arity);
    let (allocations, request) = allocations_of(|| Request::<MockEngine>::from_bytes(&frame));
    let Ok(Request::ExecuteJoin { tokens, .. }) = request else {
        panic!("the frame decodes to an ExecuteJoin");
    };
    assert_eq!(
        (tokens.left.token.len(), tokens.right.token.len()),
        (arity, arity)
    );
    allocations
}

#[test]
fn a_join_request_decodes_with_the_same_allocations_at_any_token_arity() {
    let five = decode_allocations(5);
    let eleven = decode_allocations(11);
    assert_eq!(
        five, eleven,
        "decoding allocated per token element: {five} allocations at arity 5, \
         {eleven} at arity 11"
    );
}
