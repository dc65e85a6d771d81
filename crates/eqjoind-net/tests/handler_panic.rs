//! A request handler that panics costs one request, not the server: the
//! request is answered with a typed error, the connection serves its
//! next request, and the worker pool stays whole.

use eqjoin_db::{
    DbError, LocalBackend, RemoteBackend, RemoteConfig, Request, Response, RetryPolicy, ServerApi,
};
use eqjoin_pairing::MockEngine;
use eqjoind_net::{NetConfig, NetServer};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A `LocalBackend` whose handler panics on the first request it gets.
struct PanicsOnce {
    inner: LocalBackend<MockEngine>,
    armed: AtomicBool,
}

impl ServerApi<MockEngine> for PanicsOnce {
    fn handle(&self, request: Request<MockEngine>) -> Response {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("a handler defect");
        }
        self.inner.handle(request)
    }
}

/// The reactor's count of caught handler panics, as it exports it.
fn handler_panics() -> u64 {
    eqjoin_obs::exposition()
        .lines()
        .find_map(|line| line.strip_prefix("eqjoin_net_handler_panics_total "))
        .map_or(0, |n| n.trim().parse().expect("a counter value"))
}

#[test]
fn a_panicking_handler_answers_an_error_and_its_connection_serves_on() {
    let backend = Arc::new(PanicsOnce {
        inner: LocalBackend::new(),
        armed: AtomicBool::new(true),
    });
    let config = NetConfig {
        workers: 2,
        ..NetConfig::default()
    };
    let (addr, handle) = NetServer::spawn(backend, config).expect("the reactor starts");
    // No retries: every answer below comes over the one connection.
    let remote = RemoteBackend::connect_with(
        addr,
        RemoteConfig {
            io_timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::none(),
        },
    )
    .expect("connect");
    let before = handler_panics();

    let served = panic::catch_unwind(AssertUnwindSafe(|| {
        match remote.handle(Request::<MockEngine>::Ping) {
            Response::Error(DbError::Transport(message)) => {
                assert!(message.contains("a handler defect"), "{message}")
            }
            other => panic!("the panicking request must get the typed error, got {other:?}"),
        }
        assert!(
            matches!(remote.handle(Request::<MockEngine>::Ping), Response::Pong),
            "the connection serves its next request"
        );
        let stats = ServerApi::<MockEngine>::transport_stats(&remote);
        assert_eq!(
            (
                stats.round_trips,
                stats.reconnects,
                stats.retries,
                stats.gave_up
            ),
            (2, 0, 0, 0),
            "two exchanges over one connection"
        );
        assert_eq!(handler_panics() - before, 1);
    }));
    if let Err(failure) = served {
        // A reactor still waiting on a lost answer never drains: leave
        // it running, and fail now rather than hang in the drop.
        std::mem::forget(handle);
        panic::resume_unwind(failure);
    }
    // A worker lost to a panic would fail the drain at scope exit.
    handle
        .stop()
        .expect("the reactor drains with its worker pool whole");
}
