//! Warm repeat gate: a fully warm repeat of a plan derives nothing its
//! first execution already derived. The session memoizes the plan's
//! lowering, each stage's token-cache key and payload projection, and
//! shares each cached token bundle, so between `Session::execute` and
//! the backend's `handle` a warm chain repeat makes a handful of
//! allocations (the request list and the per-query bookkeeping), not
//! one per plan node, key byte string or token element.
//!
//! A counting global allocator counts allocations per thread, so the
//! tests of this binary may run in parallel; an in-process backend
//! serves a session on the session's own thread.
//!
//! The same binary pins what the memo must not change: the tokens a
//! seeded series draws and the token-cache hits and misses it scores,
//! and a memoized plan lowered again after its table is re-created
//! under another schema.

use eqjoin::db::{
    JoinQuery, LocalBackend, QueryPlan, Request, Response, Row, Schema, ServerApi, Session,
    SessionConfig, Table, TableConfig, Value,
};
use eqjoin::pairing::MockEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// A `LocalBackend` that notes this thread's allocation count each time
/// a request reaches it.
struct AtHandle {
    inner: LocalBackend<MockEngine>,
    allocations: Arc<AtomicUsize>,
}

impl ServerApi<MockEngine> for AtHandle {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        self.allocations.store(allocations(), Ordering::SeqCst);
        self.inner.handle(request)
    }
}

/// `A(k, x)`, `B(k, y, v)` and `C(k, z)`: `k` joins, `x`, `y` and `z`
/// filter.
fn table(name: &str, columns: &[&str], rows: &[[i64; 3]]) -> Table {
    let mut t = Table::new(Schema::new(name, columns));
    for row in rows {
        t.push_row(
            row[..columns.len()]
                .iter()
                .map(|&v| Value::Int(v))
                .collect(),
        );
    }
    t
}

fn tables() -> [(Table, TableConfig); 3] {
    let config = |join: &str, filter: &str| TableConfig {
        join_column: join.into(),
        filter_columns: vec![filter.into()],
    };
    [
        (
            table(
                "A",
                &["k", "x"],
                &[[1, 10, 0], [2, 20, 0], [1, 30, 0], [3, 10, 0]],
            ),
            config("k", "x"),
        ),
        (
            table(
                "B",
                &["k", "y", "v"],
                &[[1, 7, 0], [2, 8, 1], [2, 7, 0], [4, 9, 1]],
            ),
            config("k", "y"),
        ),
        (
            table("C", &["k", "z"], &[[1, 100, 0], [2, 200, 0], [1, 300, 0]]),
            config("k", "z"),
        ),
    ]
}

/// A session over the counting double, `A`, `B` and `C` uploaded; and
/// the count the double notes.
fn session(seed: u64) -> (Session<MockEngine>, Arc<AtomicUsize>) {
    let noted = Arc::new(AtomicUsize::new(0));
    let double = AtHandle {
        inner: LocalBackend::new(),
        allocations: Arc::clone(&noted),
    };
    let mut s = Session::with_backend(SessionConfig::new(1, 3).seed(seed), Box::new(double));
    for (t, config) in tables() {
        s.create_table(&t, config).expect("upload");
    }
    (s, noted)
}

fn chain() -> QueryPlan {
    QueryPlan::scan("A")
        .join_on("A", "k", "B", "k")
        .join_on("B", "k", "C", "k")
}

/// Allocations from `execute` entry to the backend's `handle` on a
/// fully warm repeat of `plan` (its third execution).
fn warm_repeat_allocations(plan: &QueryPlan) -> usize {
    let (mut s, noted) = session(49);
    let first = s.execute(plan).expect("cold").rows;
    s.execute(plan).expect("warm");
    let before = allocations();
    let repeat = s.execute(plan).expect("warm repeat");
    assert!(repeat.cache_hit, "every stage's tokens came from the cache");
    assert_eq!(repeat.rows, first);
    noted.load(Ordering::SeqCst) - before
}

/// What a warm repeat may allocate before dispatch: the series'
/// per-query lists (plans, slots, requests, stage cache outcomes) and
/// one payload projection per stage.
fn bound(stages: usize) -> usize {
    4 + stages
}

#[test]
fn a_warm_chain_repeat_allocates_a_handful_before_dispatch() {
    let star = warm_repeat_allocations(&chain());
    assert!(
        star <= bound(2),
        "SELECT * chain: {star} allocations before dispatch, bound {}",
        bound(2)
    );
    let projected = warm_repeat_allocations(&chain().project(&[("C", "z"), ("A", "x")]));
    assert!(
        projected <= bound(2),
        "projected chain: {projected} allocations before dispatch, bound {}",
        bound(2)
    );
}

/// Six plans over the three tables: pairwise and chained, filtered and
/// not, two of them sharing their first stage.
fn plans() -> Vec<QueryPlan> {
    vec![
        QueryPlan::pairwise(&JoinQuery::on("A", "k", "B", "k")),
        chain(),
        QueryPlan::pairwise(&JoinQuery::on("A", "k", "B", "k").filter(
            "A",
            "x",
            vec![10.into(), 20.into()],
        )),
        chain()
            .filter("C", "z", vec![100.into(), 300.into()])
            .project(&[("A", "x"), ("C", "z")]),
        QueryPlan::pairwise(&JoinQuery::on("B", "k", "C", "k")),
        chain().filter("A", "x", vec![20.into(), 10.into(), 10.into()]),
    ]
}

#[test]
fn a_seeded_series_draws_the_tokens_it_always_drew() {
    let (mut s, _) = session(7);
    let plans = plans();
    let mut state = 0x5eed_u64;
    for step in 0..48 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let plan = &plans[(state >> 33) as usize % plans.len()];
        if step % 4 == 0 {
            s.prepare(plan).expect("prepare");
        }
        s.execute(plan).expect("execute");
        match step {
            // Re-created under its old layout, `C` keeps its tokens.
            16 => {
                let [_, _, (c, config)] = tables();
                s.create_table(&c, config).expect("re-create C");
            }
            // Re-created filtering on another column, `B` draws anew.
            32 => {
                let [_, (b, _), _] = tables();
                let config = TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["v".into()],
                };
                s.create_table(&b, config).expect("re-create B");
            }
            _ => {}
        }
    }
    let stats = s.stats();
    assert_eq!(
        (
            stats.client.tkgen_calls,
            stats.token_cache_hits,
            stats.token_cache_misses,
        ),
        (PINNED_TKGEN_CALLS, PINNED_HITS, PINNED_MISSES),
        "(SJ.TkGen calls, token-cache hits, misses) of the seeded series"
    );
}

/// What the seeded series drew before the memo existed: two `SJ.TkGen`
/// calls per miss, one per side.
const PINNED_TKGEN_CALLS: u64 = 16;
const PINNED_HITS: u64 = 65;
const PINNED_MISSES: u64 = 8;

#[test]
fn a_memoized_plan_lowers_again_after_its_table_is_recreated_under_another_schema() {
    let (mut s, _) = session(3);
    let plan = chain();
    let before = s.execute(&plan).expect("chain");
    assert_eq!(before.columns.len(), 2 + 3 + 2);

    // `C(k, z)` becomes `C(w, k, z)`: one column more, `k` moved.
    let mut c = Table::new(Schema::new("C", &["w", "k", "z"]));
    for (w, k, z) in [(-1, 1, 111), (-2, 7, 222), (-3, 2, 333)] {
        c.push_row(vec![Value::Int(w), Value::Int(k), Value::Int(z)]);
    }
    let config = TableConfig {
        join_column: "k".into(),
        filter_columns: vec!["w".into()],
    };
    s.create_table(&c, config).expect("re-create C");

    let after = s.execute(&plan).expect("the memoized plan, again");
    let headers: Vec<String> = after.columns.iter().map(ToString::to_string).collect();
    assert_eq!(
        headers,
        ["A.k", "A.x", "B.k", "B.y", "B.v", "C.w", "C.k", "C.z"]
    );
    // A ⋈ B: (A0, B0), (A1, B1), (A1, B2), (A2, B0); then B ⋈ C: B0
    // (k = 1) meets C0, B1 and B2 (k = 2) meet C2.
    let int = |row: &Row| -> Vec<i64> {
        row.0
            .iter()
            .map(|v| match v {
                Value::Int(n) => *n,
                other => panic!("an integer column, got {other:?}"),
            })
            .collect()
    };
    let rows: Vec<Vec<i64>> = after.rows.iter().map(int).collect();
    assert_eq!(
        rows,
        vec![
            vec![1, 10, 1, 7, 0, -1, 1, 111],
            vec![2, 20, 2, 8, 1, -3, 2, 333],
            vec![2, 20, 2, 7, 0, -3, 2, 333],
            vec![1, 30, 1, 7, 0, -1, 1, 111],
        ]
    );
    assert_eq!(
        after.tuples,
        vec![vec![0, 0, 0], vec![1, 1, 2], vec![1, 2, 2], vec![2, 0, 0],]
    );
}
