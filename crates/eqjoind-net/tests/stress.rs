//! Differential stress gate for the serving path: the SAME N-thread ×
//! M-session multi-tenant workload runs over TCP through the reactor
//! and in-process against an identically configured `TenantRegistry`
//! (the reference), and must produce byte-identical result sets,
//! identical leakage reports, and zero cross-tenant decrypt-cache hits
//! on both.

use eqjoin_db::data::Schema;
use eqjoin_db::{
    QueryPlan, Request, Response, ServerApi, Session, SessionConfig, Table, TableConfig, Value,
};
use eqjoin_pairing::MockEngine;
use eqjoind_net::{NetConfig, NetServer, TenantRegistry};
use std::sync::Arc;

const THREADS: usize = 4;
const SESSIONS: usize = 2;
const QUERY: &str = "SELECT * FROM R JOIN L ON fk = k WHERE name = 'n1'";

/// [`QUERY`] planned against `session`'s catalog.
fn query(session: &Session<MockEngine>) -> QueryPlan {
    eqjoin_sql::plan(QUERY, session.catalog()).unwrap()
}

fn populate(session: &mut Session<MockEngine>) {
    let mut l = Table::new(Schema::new("L", &["k", "name"]));
    let mut r = Table::new(Schema::new("R", &["fk", "val"]));
    for i in 0..6i64 {
        l.push_row(vec![Value::Int(i % 3), format!("n{i}").into()]);
        r.push_row(vec![Value::Int(i % 3), format!("v{i}").into()]);
    }
    session
        .create_table(
            &l,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["name".into()],
            },
        )
        .unwrap();
    session
        .create_table(
            &r,
            TableConfig {
                join_column: "fk".into(),
                filter_columns: vec!["val".into()],
            },
        )
        .unwrap();
}

/// One session's observable outcome, rendered for comparison between
/// the TCP path and the in-process reference.
#[derive(Debug, PartialEq)]
struct Outcome {
    tenant: String,
    rows_first: String,
    rows_repeat: String,
    leakage: String,
}

/// The in-process reference: a session's handle on a registry shared
/// with every other session of the workload.
struct InProcess(Arc<TenantRegistry<MockEngine>>);

impl ServerApi<MockEngine> for InProcess {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        self.0.handle(request)
    }
}

/// N concurrent threads × M sequential sessions each, every session in
/// its own tenant namespace. All tenants run the SAME series from the
/// SAME seed (identical ciphertexts server-side), so any shared state
/// between namespaces would surface as a warm first run.
fn workload(
    connect: impl Fn(SessionConfig) -> Session<MockEngine> + Send + Clone + 'static,
) -> Vec<Outcome> {
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let connect = connect.clone();
        handles.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for s in 0..SESSIONS {
                let tenant = format!("t{t}s{s}");
                let config = SessionConfig::new(1, 2).seed(0x5eed);
                let mut session = connect(config).with_tenant(&tenant).unwrap();
                populate(&mut session);
                let first = session.execute(&query(&session)).unwrap();
                assert_eq!(
                    session.stats().decrypt_cache_hits,
                    0,
                    "{tenant}: first run must be COLD — a server decrypt-cache hit \
                     here means another tenant's identical ciphertexts primed this \
                     namespace"
                );
                let repeat = session.execute(&query(&session)).unwrap();
                assert!(
                    session.stats().decrypt_cache_hits > 0,
                    "{tenant}: repeat run warms in-namespace"
                );
                assert!(!first.cache_hit && repeat.cache_hit);
                assert_eq!(first.rows, repeat.rows);
                outcomes.push(Outcome {
                    tenant,
                    rows_first: format!("{:?}", first.rows),
                    rows_repeat: format!("{:?}", repeat.rows),
                    leakage: format!("{:?}", session.leakage_report()),
                });
            }
            outcomes
        }));
    }
    let mut outcomes: Vec<Outcome> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("workload thread"))
        .collect();
    outcomes.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    outcomes
}

#[test]
fn reactor_and_in_process_registry_agree_under_concurrent_multi_tenant_load() {
    // The reference: the registry driven in-process.
    let local_registry = Arc::new(TenantRegistry::<MockEngine>::new(None, None, None));
    let shared = Arc::clone(&local_registry);
    let local =
        workload(move |config| Session::with_backend(config, Box::new(InProcess(shared.clone()))));

    // The reactor over an identically configured registry.
    let served_registry = Arc::new(TenantRegistry::<MockEngine>::new(None, None, None));
    let (addr, handle) =
        NetServer::spawn(Arc::clone(&served_registry), NetConfig::default()).unwrap();
    let served = workload(move |config| Session::remote(config, addr).unwrap());

    assert_eq!(local.len(), THREADS * SESSIONS);
    assert_eq!(
        local, served,
        "the TCP path must be observationally identical to the in-process \
         registry: same rows, same leakage, per tenant"
    );
    // Both registries materialized the same namespaces, server-side too.
    assert_eq!(
        local_registry.tenant_names(),
        served_registry.tenant_names()
    );
    for tenant in local_registry.tenant_names() {
        let l = local_registry.tenant_stats(Some(&tenant)).unwrap();
        let s = served_registry.tenant_stats(Some(&tenant)).unwrap();
        assert_eq!(
            l.round_trips, s.round_trips,
            "{tenant}: same per-tenant request count on both paths"
        );
    }
    handle.stop().unwrap();
}
