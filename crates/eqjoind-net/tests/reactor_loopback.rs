//! End-to-end reactor tests: a real [`NetServer`] on an ephemeral
//! port, real TCP clients — sessions for the query-series paths, raw
//! frames for the admission-control paths (which need pipelined
//! requests no well-behaved client sends).

use eqjoin_db::data::Schema;
use eqjoin_db::{
    DbError, QueryPlan, RemoteBackend, Request, Response, ServerApi, Session, SessionConfig, Table,
    TableConfig, Value,
};
use eqjoin_pairing::MockEngine;
use eqjoind_net::{NetConfig, NetHandle, NetServer, TenantRegistry};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// [`QUERY`] planned against `session`'s catalog.
fn query(session: &Session<MockEngine>) -> QueryPlan {
    eqjoin_sql::plan(QUERY, session.catalog()).unwrap()
}

/// A reactor over a fresh in-memory tenant registry; the handle drains
/// it on `stop()` or drop.
fn spawn_reactor(config: NetConfig) -> (SocketAddr, Arc<TenantRegistry<MockEngine>>, NetHandle) {
    let registry = Arc::new(TenantRegistry::<MockEngine>::new(None, None, None));
    let (addr, handle) = NetServer::spawn(Arc::clone(&registry), config).unwrap();
    (addr, registry, handle)
}

/// Two joinable tables: `L(k, name)` and `R(fk, val)` with a few
/// matches.
fn tables() -> (Table, Table) {
    let mut l = Table::new(Schema::new("L", &["k", "name"]));
    let mut r = Table::new(Schema::new("R", &["fk", "val"]));
    for i in 0..6i64 {
        l.push_row(vec![Value::Int(i % 3), format!("n{i}").into()]);
        r.push_row(vec![Value::Int(i % 3), format!("v{i}").into()]);
    }
    (l, r)
}

fn populate(session: &mut Session<MockEngine>) {
    let (l, r) = tables();
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

const QUERY: &str = "SELECT * FROM R JOIN L ON fk = k WHERE name = 'n1'";

#[test]
fn session_series_over_epoll_matches_local() {
    let (addr, _registry, handle) = spawn_reactor(NetConfig::default());
    let config = SessionConfig::new(1, 2).seed(99);
    let mut local = Session::<MockEngine>::local(config);
    let mut remote = Session::<MockEngine>::remote(config, addr).unwrap();
    populate(&mut local);
    populate(&mut remote);
    for _ in 0..2 {
        let l = local.execute(&query(&local)).unwrap();
        let r = remote.execute(&query(&remote)).unwrap();
        assert_eq!(l.rows, r.rows, "rows must match across the reactor");
        assert_eq!(l.tuples, r.tuples);
        assert_eq!(l.cache_hit, r.cache_hit);
    }
    assert_eq!(local.leakage_report(), remote.leakage_report());
    drop(remote);
    handle.stop().unwrap();
}

#[test]
fn tenants_are_isolated_and_match_single_tenant_runs() {
    let (addr, registry, handle) = spawn_reactor(NetConfig::default());
    let config = SessionConfig::new(1, 2).seed(4242);

    // Reference: a single-tenant local run of the same series.
    let mut reference = Session::<MockEngine>::local(config);
    populate(&mut reference);
    let expected_first = reference.execute(&query(&reference)).unwrap();
    let expected_repeat = reference.execute(&query(&reference)).unwrap();

    let mut alpha = Session::<MockEngine>::remote(config, addr)
        .unwrap()
        .with_tenant("alpha")
        .unwrap();
    let mut beta = Session::<MockEngine>::remote(config, addr)
        .unwrap()
        .with_tenant("beta")
        .unwrap();
    populate(&mut alpha);
    populate(&mut beta);

    // Alpha runs the query twice: the repeat is warm (its own decrypt
    // cache).
    let a1 = alpha.execute(&query(&alpha)).unwrap();
    let a2 = alpha.execute(&query(&alpha)).unwrap();
    assert_eq!(
        a1.rows, expected_first.rows,
        "byte-identical to single-tenant"
    );
    assert_eq!(a2.rows, expected_repeat.rows);

    // Beta's FIRST run of the very same query (same seed → identical
    // ciphertexts) must be COLD: a decrypt-cache hit here would mean
    // tenants share a store — cross-tenant leakage.
    let before = beta.stats().decrypt_cache_hits;
    let b1 = beta.execute(&query(&beta)).unwrap();
    assert_eq!(b1.rows, expected_first.rows);
    assert_eq!(
        beta.stats().decrypt_cache_hits,
        before,
        "zero cross-tenant decrypt-cache hits"
    );

    // Leakage ledgers are per-tenant sessions and identical series →
    // identical reports, each matching the single-tenant reference.
    assert_eq!(alpha.leakage_report(), reference.leakage_report());

    // Server-side: both tenants materialized, counters isolated, and
    // the default namespace saw none of it.
    assert_eq!(
        registry.tenant_names(),
        vec!["alpha".to_owned(), "beta".to_owned()]
    );
    let alpha_trips = registry.tenant_stats(Some("alpha")).unwrap().round_trips;
    let beta_trips = registry.tenant_stats(Some("beta")).unwrap().round_trips;
    assert!(alpha_trips > beta_trips, "alpha ran one more query");
    assert_eq!(registry.tenant_stats(None).unwrap().round_trips, 0);

    drop((alpha, beta));
    handle.stop().unwrap();
}

#[test]
fn cross_tenant_tables_are_invisible() {
    let (addr, _registry, handle) = spawn_reactor(NetConfig::default());
    let config = SessionConfig::new(1, 2).seed(7);
    let mut alpha = Session::<MockEngine>::remote(config, addr)
        .unwrap()
        .with_tenant("alpha")
        .unwrap();
    populate(&mut alpha);
    // A different tenant asking for alpha's tables: the store simply
    // does not contain them.
    let mut intruder = Session::<MockEngine>::remote(config, addr)
        .unwrap()
        .with_tenant("intruder")
        .unwrap();
    // Registering the catalog client-side works (it is local state);
    // the server-side execute must fail with an unknown table.
    populate(&mut intruder);
    // Fresh session, same tenant name as nobody: querying without
    // uploading hits an empty per-tenant store.
    let mut ghost = Session::<MockEngine>::remote(config, addr)
        .unwrap()
        .with_tenant("ghost")
        .unwrap();
    let (l, _) = tables();
    let err = ghost
        .create_table(
            &l,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["name".into()],
            },
        )
        .map(drop)
        .err();
    assert!(err.is_none(), "ghost's own namespace is empty and writable");
    drop((alpha, intruder, ghost));
    handle.stop().unwrap();
}

/// Serialize a request for the raw-frame tests.
fn frame(request: &Request<MockEngine>) -> Vec<u8> {
    let payload = request.to_bytes();
    let mut framed = Vec::with_capacity(payload.len() + 4);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&payload);
    framed
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = eqjoin_db::backend::read_frame(stream).unwrap().unwrap();
    Response::from_bytes(&payload).unwrap()
}

#[test]
fn overload_rejects_in_order_without_dropping_admitted_responses() {
    // Global queue depth of ONE: a burst of 5 pipelined pings in a
    // single TCP segment admits exactly the first and rejects the
    // other four — and all five responses come back, in order.
    let (addr, _registry, handle) = spawn_reactor(NetConfig {
        workers: 2,
        max_inflight: 0,
        queue_depth: 1,
        handle_sigterm: false,
        io_timeout: None,
    });
    // Tenantless overload shows up under `tenant="default"` — counter
    // deltas, because the process-wide registry is shared across tests.
    let rejections = || {
        eqjoin_obs::registry().counter_value(
            "eqjoin_net_overload_rejections_total",
            Some(("tenant", "default")),
        )
    };
    let rejected_before = rejections();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut burst = Vec::new();
    for _ in 0..5 {
        burst.extend_from_slice(&frame(&Request::Ping));
    }
    stream.write_all(&burst).unwrap();

    match read_response(&mut stream) {
        Response::Pong => {}
        other => panic!("the admitted request must still be answered, got {other:?}"),
    }
    for i in 1..5 {
        match read_response(&mut stream) {
            Response::Error(DbError::Overloaded {
                tenant: None,
                cap: 1,
                ..
            }) => {}
            other => panic!("burst request {i}: expected global overload, got {other:?}"),
        }
    }
    assert_eq!(
        rejections() - rejected_before,
        4,
        "each refusal increments overload_rejections{{tenant=\"default\"}}"
    );
    // The connection survives overload: once the burst settles, a new
    // request is admitted again.
    stream.write_all(&frame(&Request::Ping)).unwrap();
    assert!(matches!(read_response(&mut stream), Response::Pong));
    drop(stream);
    handle.stop().unwrap();
}

#[test]
fn per_tenant_admission_does_not_starve_other_tenants() {
    // Per-tenant cap of ONE, no global cap: a burst holding three
    // frames for tenant `a` and one for tenant `b` admits a's first,
    // rejects a's other two NAMING the tenant, and still admits b's.
    let (addr, _registry, handle) = spawn_reactor(NetConfig {
        workers: 2,
        max_inflight: 1,
        queue_depth: 0,
        handle_sigterm: false,
        io_timeout: None,
    });
    let for_tenant = |tenant: &str| Request::WithTenant {
        tenant: tenant.into(),
        inner: Box::new(Request::<MockEngine>::Ping),
    };
    let tenant_a_rejections = || {
        eqjoin_obs::registry().counter_value(
            "eqjoin_net_overload_rejections_total",
            Some(("tenant", "a")),
        )
    };
    let rejected_before = tenant_a_rejections();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut burst = Vec::new();
    for request in [
        for_tenant("a"),
        for_tenant("a"),
        for_tenant("a"),
        for_tenant("b"),
    ] {
        burst.extend_from_slice(&frame(&request));
    }
    stream.write_all(&burst).unwrap();

    assert!(matches!(read_response(&mut stream), Response::Pong));
    for i in 0..2 {
        match read_response(&mut stream) {
            Response::Error(DbError::Overloaded {
                tenant: Some(t),
                in_flight: 1,
                cap: 1,
            }) => assert_eq!(t, "a", "rejection {i} names the saturated tenant"),
            other => panic!("expected tenant-a overload, got {other:?}"),
        }
    }
    assert!(
        matches!(read_response(&mut stream), Response::Pong),
        "tenant b must not starve behind a's saturation"
    );
    assert_eq!(
        tenant_a_rejections() - rejected_before,
        2,
        "the saturated tenant's rejections are attributed to it"
    );
    drop(stream);
    handle.stop().unwrap();
}

#[test]
fn drain_finishes_inflight_work_before_exiting() {
    let (addr, _registry, handle) = spawn_reactor(NetConfig::default());
    // One connection uploads state and queries; a second one drains.
    let config = SessionConfig::new(1, 2).seed(1);
    let mut session = Session::<MockEngine>::remote(config, addr).unwrap();
    populate(&mut session);
    let result = session.execute(&query(&session)).unwrap();
    assert!(!result.rows.is_empty());
    drop(session);
    let drainer = RemoteBackend::connect(addr).unwrap();
    match ServerApi::<MockEngine>::handle(&drainer, Request::Drain) {
        Response::Pong => {}
        other => panic!("expected drain ack, got {other:?}"),
    }
    // The client drained the server first: `stop` finds the listener
    // gone and only joins.
    handle.stop().unwrap();
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn stop_drains_and_joins_the_reactor() {
    let (addr, _registry, handle) = spawn_reactor(NetConfig::default());
    // A client still connected (and idle) must not hold the drain up.
    let idle = RemoteBackend::connect(addr).unwrap();
    handle.stop().unwrap();
    // The listener is gone: a fresh connect must fail (connection
    // refused), not hang on a leaked reactor.
    match RemoteBackend::connect(addr) {
        Err(DbError::Transport(_)) => {}
        Ok(_) => panic!("listener must be closed after stop()"),
        Err(other) => panic!("expected a transport error, got {other:?}"),
    }
    drop(idle);
}

#[test]
fn idle_connections_are_reaped_but_active_ones_survive() {
    // A 150ms idle deadline: a connection that goes quiet is closed by
    // the reactor, while one that keeps talking stays up well past the
    // deadline.
    let (addr, _registry, handle) = spawn_reactor(NetConfig {
        io_timeout: Some(std::time::Duration::from_millis(150)),
        ..NetConfig::default()
    });

    let idle = TcpStream::connect(addr).unwrap();
    idle.set_nodelay(true).unwrap();
    let mut active = TcpStream::connect(addr).unwrap();
    active.set_nodelay(true).unwrap();

    // Keep the active connection busy across 3x the idle deadline.
    for _ in 0..6 {
        std::thread::sleep(std::time::Duration::from_millis(75));
        active.write_all(&frame(&Request::Ping)).unwrap();
        assert!(matches!(read_response(&mut active), Response::Pong));
    }

    // The idle socket must have been closed server-side by now: a read
    // observes EOF (not a timeout/hang).
    idle.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut probe = idle;
    use std::io::Read;
    let mut buf = [0u8; 1];
    match probe.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("idle connection got {n} unexpected bytes"),
        // A reset is also an acceptable way to learn the peer hung up.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected EOF on the reaped connection, got {e}"),
    }

    // The active connection still answers after the reaping.
    active.write_all(&frame(&Request::Ping)).unwrap();
    assert!(matches!(read_response(&mut active), Response::Pong));
    drop(active);
    handle.stop().unwrap();
}
