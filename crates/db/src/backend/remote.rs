//! The networked transport: [`RemoteBackend`] speaks the wire codec
//! over TCP to an `eqjoind` server (the `eqjoind-net` reactor, which
//! tests and benches also embed in-process for loopback runs).
//!
//! One protocol message per length-prefixed frame
//! ([`write_frame`](super::write_frame) /
//! [`read_frame`](super::read_frame)), strictly request→response, so a
//! batched query series costs exactly one TCP round trip.
//!
//! Failure taxonomy: anything the *server* reports (unknown table,
//! oversized `IN` clause, …) comes back as a normal
//! [`Response::Error`] carrying the original [`DbError`]; anything that
//! goes wrong *reaching* the server — connect, send, receive, framing,
//! an undecodable response — surfaces as [`DbError::Transport`], and a
//! deadline elapsing ([`RemoteConfig::io_timeout`]) as
//! [`DbError::Timeout`]. After a transport failure the connection is
//! dropped (the stream may be desynchronized) and the [`RetryPolicy`]
//! decides what happens next: pings, joins, stats and drains — requests
//! whose replay cannot double-apply — are re-sent on a fresh connection
//! with capped jittered exponential backoff; the store mutations
//! (`InsertTable`/`InsertRows`/`DeleteRows`/`CopyRows`, whose outcome on
//! the server is unknown) are **never** silently replayed and surface
//! the failure immediately. Either way the *next* request reconnects,
//! so a transient server restart does not kill the backend forever.

use super::transport::{
    apply_io_failpoint, read_frame, write_frame, TransportCounters, TransportStats,
};
use crate::error::DbError;
use crate::protocol::{Request, Response, ServerApi};
use eqjoin_pairing::Engine;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// Retry policy for transport failures on **idempotent** requests.
///
/// Attempt `n` (1-based) sleeps `base × 2^(n−1)` capped at `cap`, then
/// multiplied by a jitter factor in `[0.5, 1.5)` so a fleet of clients
/// hammered by the same outage does not reconnect in lockstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-send attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Backoff growth cap.
    pub cap: Duration,
}

impl RetryPolicy {
    /// No retries: every transport failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.cap);
        // Cheap decorrelation without an RNG dependency: scale by the
        // sub-second clock phase, mapped into [0.5, 1.5).
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let exp_ms = exp.as_millis().min(u128::from(u64::MAX)) as u64;
        Duration::from_millis(exp_ms / 2 + exp_ms * u64::from(nanos % 1024) / 1024)
    }
}

impl Default for RetryPolicy {
    /// Two retries, 10 ms base backoff, 500 ms cap.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
        }
    }
}

/// Connection configuration for [`RemoteBackend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteConfig {
    /// Read **and** write deadline applied to every stream operation
    /// (`None` = block indefinitely, the default — joins over big
    /// tables legitimately take a while). An elapsed deadline surfaces
    /// as [`DbError::Timeout`].
    pub io_timeout: Option<Duration>,
    /// What to do when an exchange fails and the request is idempotent.
    pub retry: RetryPolicy,
}

/// Deterministic pre-send rejection of requests too large for one
/// frame. Never worth retrying — the payload will not shrink.
fn check_frame_cap(payload: &[u8]) -> Result<(), DbError> {
    if payload.len() > super::MAX_FRAME_BYTES {
        return Err(DbError::Transport(format!(
            "request of {} bytes exceeds the {} byte frame cap (split the batch)",
            payload.len(),
            super::MAX_FRAME_BYTES,
        )));
    }
    Ok(())
}

/// A [`ServerApi`] over a TCP connection to an `eqjoind` server.
///
/// The stream sits behind a `Mutex`: requests from concurrent sessions
/// sharing one backend serialize onto the connection in order (the
/// protocol is strictly request→response). Engine-generic at the call
/// site — the connection itself is just bytes.
pub struct RemoteBackend {
    peer: String,
    stream: Mutex<Option<TcpStream>>,
    config: RemoteConfig,
    counters: TransportCounters,
}

impl RemoteBackend {
    /// Connect to an `eqjoind` server with the default config (no
    /// deadline, default [`RetryPolicy`]). Connection failure is
    /// [`DbError::Transport`].
    pub fn connect<A: ToSocketAddrs + ToString>(addr: A) -> Result<Self, DbError> {
        Self::connect_with(addr, RemoteConfig::default())
    }

    /// Connect with an explicit deadline/retry configuration.
    pub fn connect_with<A: ToSocketAddrs + ToString>(
        addr: A,
        config: RemoteConfig,
    ) -> Result<Self, DbError> {
        let peer = addr.to_string();
        let stream = Self::open(&peer, &addr, config.io_timeout)?;
        Ok(RemoteBackend {
            peer,
            stream: Mutex::new(Some(stream)),
            config,
            counters: TransportCounters::default(),
        })
    }

    fn open<A: ToSocketAddrs>(
        peer: &str,
        addr: &A,
        io_timeout: Option<Duration>,
    ) -> Result<TcpStream, DbError> {
        let fp = "remote::connect";
        apply_io_failpoint(fp, eqjoin_failpoint::failpoint!(fp))
            .map_err(|e| DbError::Transport(format!("connect to {peer}: {e}")))?;
        let stream = TcpStream::connect(addr)
            .map_err(|e| DbError::Transport(format!("connect to {peer}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(io_timeout);
        let _ = stream.set_write_timeout(io_timeout);
        Ok(stream)
    }

    /// The address this backend connected to.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// One request frame out, one response frame back. Drops the
    /// connection on any exchange failure so later calls never read
    /// desynchronized bytes; a *later* call finding the connection gone
    /// makes exactly one reconnect attempt (fresh stream, the failed
    /// request itself is never replayed — its outcome on the server is
    /// unknown).
    fn round_trip(&self, payload: &[u8]) -> Result<Response, DbError> {
        // Pre-send check: an oversized request fails *before* any byte
        // hits the wire, so the stream stays synchronized and the
        // connection must survive for later requests.
        check_frame_cap(payload)?;
        let mut guard = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            // Single bounded reconnect attempt for this request; on
            // failure the backend stays disconnected and the *next*
            // request (or retry attempt) gets its own single attempt.
            let fresh = Self::open(&self.peer, &self.peer.as_str(), self.config.io_timeout)
                .map_err(|e| {
                    DbError::Transport(format!("reconnect after an earlier transport failure: {e}"))
                })?;
            self.counters.add_reconnects(1);
            *guard = Some(fresh);
        }
        let Some(stream) = guard.as_mut() else {
            // Unreachable: the branch above either filled the slot or
            // returned. Typed anyway — never panic in the request path.
            return Err(DbError::Transport(format!(
                "no connection to {} after reconnect",
                self.peer
            )));
        };
        let exchange = (|| -> io::Result<Vec<u8>> {
            let send_fp = "remote::send";
            if apply_io_failpoint(send_fp, eqjoin_failpoint::failpoint!(send_fp))?.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("failpoint {send_fp}: injected connection drop"),
                ));
            }
            let sent = write_frame(stream, payload)?;
            self.counters.add_bytes_sent(sent);
            let recv_fp = "remote::recv";
            if apply_io_failpoint(recv_fp, eqjoin_failpoint::failpoint!(recv_fp))?.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("failpoint {recv_fp}: injected connection drop"),
                ));
            }
            let frame = read_frame(stream)?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-request",
                )
            })?;
            self.counters.add_bytes_received(frame.len() as u64 + 4);
            Ok(frame)
        })();
        let result = exchange
            .map_err(|e| {
                // A blocking-socket deadline elapsing reports
                // `WouldBlock` on Unix and `TimedOut` on Windows; both
                // mean "deadline exceeded", typed apart from real
                // transport failures.
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    DbError::Timeout(format!("exchange with {}: {e}", self.peer))
                } else {
                    DbError::Transport(format!("exchange with {}: {e}", self.peer))
                }
            })
            .and_then(|frame| {
                Response::from_bytes(&frame).map_err(|e| {
                    DbError::Transport(format!("undecodable response from {}: {e}", self.peer))
                })
            });
        if result.is_err() {
            *guard = None;
        }
        result
    }
}

impl<E: Engine> ServerApi<E> for RemoteBackend {
    fn handle(&self, request: Request<E>) -> Response {
        let payload = request.to_bytes();
        if let Err(e) = check_frame_cap(&payload) {
            // Deterministic local rejection, not a transport outcome:
            // no retry, no give-up accounting.
            return Response::Error(e);
        }
        let retry = self.config.retry;
        // Mutations are never replayed: a lost response leaves their
        // server-side outcome unknown, and re-sending could
        // double-apply. Transport failures *and* elapsed deadlines are
        // both retriable for everything else — pings, joins, stats and
        // drains (the server may still be chewing on the original, but
        // replaying a read is safe).
        let budget = if request.is_mutation() {
            0
        } else {
            retry.max_retries
        };
        let mut attempt = 0u32;
        loop {
            match self.round_trip(&payload) {
                Ok(response) => {
                    // Counted on success only, so `round_trips` means
                    // real completed exchanges — fail-fast calls on a
                    // poisoned connection and pre-send rejections don't
                    // inflate the batching-savings arithmetic (bytes of
                    // a half-finished exchange are still counted as
                    // they happen).
                    self.counters.record_request(&request);
                    return response;
                }
                Err(e) => {
                    if attempt >= budget {
                        self.counters.add_gave_up(1);
                        return Response::Error(e);
                    }
                    attempt += 1;
                    self.counters.add_retries(1);
                    std::thread::sleep(retry.backoff(attempt));
                }
            }
        }
    }

    fn transport_stats(&self) -> TransportStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalBackend;
    use eqjoin_pairing::MockEngine;
    use std::net::{SocketAddr, TcpListener};

    /// A live peer for these tests: a listener that (optionally after
    /// dropping its first accepted connection) serves ONE connection
    /// with a blocking frame loop over a fresh [`LocalBackend`] — read
    /// a request frame, answer it, write the response frame — until the
    /// client hangs up. The real server is the `eqjoind-net` reactor,
    /// which depends on this crate and so cannot be used here.
    fn one_connection_server(drop_first: bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            if drop_first {
                drop(listener.accept().unwrap());
            }
            let (mut stream, _) = listener.accept().unwrap();
            let backend = LocalBackend::<MockEngine>::new();
            while let Ok(Some(frame)) = read_frame(&mut stream) {
                let response = match Request::<MockEngine>::from_bytes(&frame) {
                    Ok(request) => backend.handle(request),
                    Err(e) => Response::Error(e),
                };
                if write_frame(&mut stream, &response.to_bytes()).is_err() {
                    return;
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn ping_over_loopback_tcp() {
        let (addr, server) = one_connection_server(false);
        let remote = RemoteBackend::connect(addr).unwrap();
        assert!(matches!(
            ServerApi::<MockEngine>::handle(&remote, Request::Ping),
            Response::Pong
        ));
        let stats = ServerApi::<MockEngine>::transport_stats(&remote);
        assert_eq!(stats.round_trips, 1);
        assert!(stats.bytes_sent >= 5, "frame header + 1-byte ping");
        assert!(stats.bytes_received >= 5);
        drop(remote);
        server.join().unwrap();
    }

    #[test]
    fn oversized_request_fails_without_poisoning_the_connection() {
        let (addr, server) = one_connection_server(false);
        let remote = RemoteBackend::connect(addr).unwrap();
        let huge = vec![0u8; crate::backend::MAX_FRAME_BYTES + 1];
        match remote.round_trip(&huge) {
            Err(DbError::Transport(msg)) => assert!(msg.contains("frame cap"), "{msg}"),
            other => panic!("expected the frame-cap transport error, got {other:?}"),
        }
        // Nothing was written, so the connection must survive.
        assert!(matches!(
            ServerApi::<MockEngine>::handle(&remote, Request::Ping),
            Response::Pong
        ));
        drop(remote);
        server.join().unwrap();
    }

    #[test]
    fn connect_to_dead_port_is_a_transport_error() {
        // Bind-then-drop guarantees the port is closed.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        match RemoteBackend::connect(addr) {
            Err(DbError::Transport(msg)) => assert!(msg.contains("connect")),
            Err(other) => panic!("expected a transport error, got {other:?}"),
            Ok(_) => panic!("connecting to a dead port must fail"),
        }
    }

    #[test]
    fn idempotent_request_retries_across_a_dropped_connection() {
        // Request 1 lands on the dropped stream; the retry policy
        // reconnects and replays it (a Ping is idempotent), so the
        // caller sees success — with the retry and the reconnect on
        // the books.
        let (addr, server) = one_connection_server(true);
        let remote = RemoteBackend::connect(addr).unwrap();
        assert!(matches!(
            ServerApi::<MockEngine>::handle(&remote, Request::Ping),
            Response::Pong
        ));
        let stats = ServerApi::<MockEngine>::transport_stats(&remote);
        assert_eq!(stats.retries, 1, "one replayed attempt");
        assert_eq!(stats.reconnects, 1, "exactly one reconnect attempt");
        assert_eq!(stats.round_trips, 1, "only the successful exchange counts");
        assert_eq!(stats.gave_up, 0);
        drop(remote);
        server.join().unwrap();
    }

    #[test]
    fn mutations_are_never_silently_replayed() {
        // The same flaky first connection, but the request is an
        // InsertRows: its outcome on the server is unknown, so it must
        // surface the transport error immediately — no retry, no
        // reconnect for *this* request. The next (idempotent) request
        // reconnects and succeeds.
        let (addr, server) = one_connection_server(true);
        let remote = RemoteBackend::connect(addr).unwrap();
        let insert = Request::<MockEngine>::InsertRows {
            table: "orders".into(),
            start_row: 0,
            rows: Vec::new(),
        };
        match ServerApi::<MockEngine>::handle(&remote, insert) {
            Response::Error(DbError::Transport(_)) => {}
            other => panic!("expected a transport error, got {other:?}"),
        }
        let stats = ServerApi::<MockEngine>::transport_stats(&remote);
        assert_eq!(stats.retries, 0, "mutations must not be replayed");
        assert_eq!(stats.gave_up, 1);
        assert!(matches!(
            ServerApi::<MockEngine>::handle(&remote, Request::Ping),
            Response::Pong
        ));
        drop(remote);
        server.join().unwrap();
    }

    #[test]
    fn elapsed_deadline_is_a_typed_timeout() {
        // A server that accepts and then never answers: with a read
        // deadline armed and retries off, the client gets
        // `DbError::Timeout`, not a hang and not a plain transport
        // error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = hold_rx.recv(); // keep the stream open, silent
            drop(stream);
        });
        let remote = RemoteBackend::connect_with(
            addr,
            RemoteConfig {
                io_timeout: Some(Duration::from_millis(50)),
                retry: RetryPolicy::none(),
            },
        )
        .unwrap();
        match ServerApi::<MockEngine>::handle(&remote, Request::Ping) {
            Response::Error(DbError::Timeout(msg)) => {
                assert!(msg.contains("exchange with"), "{msg}")
            }
            other => panic!("expected DbError::Timeout, got {other:?}"),
        }
        let stats = ServerApi::<MockEngine>::transport_stats(&remote);
        assert_eq!(stats.gave_up, 1);
        drop(hold_tx);
        server.join().unwrap();
    }

    #[test]
    fn server_dropping_connection_poisons_the_backend() {
        // With retries off (the fail-fast configuration), a listener
        // that accepts and immediately drops the stream: the first
        // request fails with a transport error, and the backend then
        // fails fast — each later request makes exactly one bounded
        // reconnect attempt and reports it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = listener.accept().map(drop);
        });
        let remote = RemoteBackend::connect_with(
            addr,
            RemoteConfig {
                io_timeout: None,
                retry: RetryPolicy::none(),
            },
        )
        .unwrap();
        for attempt in 0..2 {
            match ServerApi::<MockEngine>::handle(&remote, Request::Ping) {
                Response::Error(DbError::Transport(msg)) => {
                    if attempt > 0 {
                        assert!(msg.contains("earlier transport failure"), "{msg}");
                    }
                }
                other => panic!("expected a transport error, got {other:?}"),
            }
        }
        let stats = ServerApi::<MockEngine>::transport_stats(&remote);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.gave_up, 2);
    }
}
