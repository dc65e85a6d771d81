//! One tenant's recovery must not stall the others: a tenant's
//! snapshot load + journal replay runs outside the registry lock, two
//! tenants recover side by side, and a failed load is reported — not
//! cached — so the next request retries.
//!
//! The `store::load` failpoint stands in for a large snapshot: armed
//! as a delay it pins one tenant inside its load for as long as the
//! test needs.
#![cfg(feature = "failpoints")]

use eqjoin_db::{
    DbClient, DbError, JoinQuery, QueryTokens, Request, Response, Schema, ServerApi, Table,
    TableConfig, Value,
};
use eqjoin_pairing::MockEngine;
use eqjoind_net::TenantRegistry;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The failpoint registry is process-wide: one test arms it at a time.
static FAILPOINTS: Mutex<()> = Mutex::new(());

/// How long an armed load sleeps, and the bound — far below it — that
/// an unrelated tenant's requests must meet meanwhile.
const LOAD_DELAY: Duration = Duration::from_millis(1500);
const UNRELATED_BOUND: Duration = Duration::from_millis(500);

/// Self-join pairs of the table every tenant stores (keys 0,1,2 twice).
const EXPECTED_PAIRS: usize = 12;

fn ask(
    registry: &TenantRegistry<MockEngine>,
    tenant: &str,
    inner: Request<MockEngine>,
) -> Response {
    registry.handle(Request::WithTenant {
        tenant: tenant.into(),
        inner: Box::new(inner),
    })
}

fn join(tokens: &QueryTokens<MockEngine>) -> Request<MockEngine> {
    Request::ExecuteJoin {
        tokens: tokens.clone().into(),
        projection: Default::default(),
    }
}

fn assert_joins(response: Response, who: &str) {
    match response {
        Response::JoinExecuted { observation, .. } => {
            assert_eq!(observation.pairs().len(), EXPECTED_PAIRS, "{who}")
        }
        other => panic!("{who}: expected a join result, got {other:?}"),
    }
}

/// A data dir in which every named tenant has a snapshot on disk (the
/// same table each), as a drained server leaves it; plus tokens for a
/// self-join over that table.
fn drained_data_dir(tag: &str, tenants: &[&str]) -> (PathBuf, QueryTokens<MockEngine>) {
    let dir =
        std::env::temp_dir().join(format!("eqjoind-net-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut client = DbClient::<MockEngine>::new(1, 2, 5);
    let mut t = Table::new(Schema::new("T", &["k", "a"]));
    for i in 0..6i64 {
        t.push_row(vec![Value::Int(i % 3), Value::Str(format!("a{i}"))]);
    }
    let table = client
        .encrypt_table(
            &t,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["a".into()],
            },
        )
        .unwrap();
    let tokens = client
        .query_tokens(&JoinQuery::on("T", "k", "T", "k"))
        .unwrap();
    let registry = reopen(&dir);
    for tenant in tenants {
        let r = ask(&registry, tenant, Request::InsertTable(table.clone()));
        assert!(matches!(r, Response::TableInserted { .. }), "{r:?}");
    }
    registry.flush_all().unwrap();
    (dir, tokens)
}

fn reopen(dir: &std::path::Path) -> TenantRegistry<MockEngine> {
    TenantRegistry::with_persistence(dir.to_path_buf(), Some(1), None, 0, None).unwrap()
}

#[test]
fn a_recovering_tenant_does_not_stall_an_open_one() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, tokens) = drained_data_dir("stall", &["a", "b"]);
    let registry = reopen(&dir);
    assert!(matches!(ask(&registry, "b", Request::Ping), Response::Pong));

    let spec = format!("1*delay({})", LOAD_DELAY.as_millis());
    eqjoin_failpoint::configure("store::load", &spec).unwrap();
    std::thread::scope(|scope| {
        let recovering = scope.spawn(|| {
            let start = Instant::now();
            let response = ask(&registry, "a", join(&tokens));
            (response, start.elapsed())
        });
        // Wait until `a` is inside its load (the failpoint has fired
        // and is sleeping), then use `b`.
        while eqjoin_failpoint::hits("store::load") == 0 {
            std::thread::yield_now();
        }
        let start = Instant::now();
        assert!(matches!(ask(&registry, "b", Request::Ping), Response::Pong));
        assert_joins(ask(&registry, "b", join(&tokens)), "b, while a recovers");
        let unrelated = start.elapsed();
        assert!(
            unrelated < UNRELATED_BOUND,
            "b waited {unrelated:?} behind a's recovery"
        );

        let (response, took) = recovering.join().unwrap();
        assert!(
            took >= LOAD_DELAY,
            "a's load was meant to be held: {took:?}"
        );
        assert_joins(response, "a, once recovered");
    });
    eqjoin_failpoint::remove("store::load");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_tenants_recover_side_by_side() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, tokens) = drained_data_dir("pair", &["a", "b"]);
    let registry = reopen(&dir);

    let spec = format!("delay({})", LOAD_DELAY.as_millis());
    eqjoin_failpoint::configure("store::load", &spec).unwrap();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles = ["a", "b"].map(|tenant| {
            let (registry, tokens) = (&registry, &tokens);
            scope.spawn(move || assert_joins(ask(registry, tenant, join(tokens)), tenant))
        });
        for handle in handles {
            handle.join().unwrap();
        }
    });
    let both = start.elapsed();
    eqjoin_failpoint::remove("store::load");
    assert!(
        both < LOAD_DELAY * 2 - UNRELATED_BOUND,
        "two held loads took {both:?}: they ran one after the other"
    );
    assert_eq!(registry.tenant_names(), ["a", "b"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_load_is_reported_and_the_next_request_retries() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, tokens) = drained_data_dir("retry", &["a"]);
    let registry = reopen(&dir);

    eqjoin_failpoint::configure("store::load", "1*return-error").unwrap();
    match ask(&registry, "a", join(&tokens)) {
        Response::Error(DbError::Snapshot(msg)) => assert!(msg.contains("store::load"), "{msg}"),
        other => panic!("expected the injected load error, got {other:?}"),
    }
    assert!(
        registry.tenant_names().is_empty(),
        "a failed open must not leave a tenant behind"
    );
    assert_joins(ask(&registry, "a", join(&tokens)), "a, on the retry");
    eqjoin_failpoint::remove("store::load");
    assert_eq!(registry.tenant_names(), ["a"]);
    let _ = std::fs::remove_dir_all(&dir);
}
