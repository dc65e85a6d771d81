//! The serving stack every workload runs against, built only from
//! public APIs: an in-process `eqjoind_net::NetServer` (epoll reactor +
//! workers) over a persistent `TenantRegistry`, reached over loopback
//! TCP through a [`Link`] — the `ServerApi` the `Session` is given, so
//! that a restarted server can be swapped in under a live session and
//! the traced run can see every exchange.

use crate::inputs::{table_config, Tables};
use crate::trace::Recorder;
use eqjoin_db::{
    DbError, RemoteBackend, Request, Response, ServerApi, Session, SessionConfig, TransportStats,
};
use eqjoin_pairing::Engine;
use eqjoind_net::{NetConfig, NetServer, TenantRegistry};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The flush policy, stated and fixed: every mutation is journaled and
/// fsynced before its ack; the snapshot is rewritten only once the
/// journal passes this many bytes, which no workload reaches.
pub const COMPACTION_THRESHOLD: u64 = 64 << 20;

/// Rows per COPY chunk when `Orders` is bulk-loaded.
pub const COPY_CHUNK_ROWS: usize = 32;

/// Threads in each of the program's own pools — server decrypt
/// threads, `encrypt_threads`. One, so that a tenant keeps one core
/// busy at a time and a 2-core box has a core left for whatever else
/// the host runs: two decrypt threads on two shared cores measure the
/// scheduler.
pub const POOL_THREADS: usize = 1;

/// Reactor workers (one per tenant at most), and the thread count the
/// traced run's parallel-efficiency measurement compares against 1.
pub fn thread_cap() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Passes everything to the registry except `Drain`, which would flush
/// every namespace into a snapshot. The reactor only stops on a drain,
/// so swallowing it makes "stop the server" a crash: what is on disk
/// afterwards is what the acks promised and nothing more.
struct CrashOnly<E: Engine>(TenantRegistry<E>);

impl<E: Engine> ServerApi<E> for CrashOnly<E> {
    fn handle(&self, request: Request<E>) -> Response {
        match request {
            Request::Drain => Response::Pong,
            other => self.0.handle(other),
        }
    }

    fn transport_stats(&self) -> TransportStats {
        ServerApi::<E>::transport_stats(&self.0)
    }
}

/// A running server on its own data directory.
pub struct Server {
    pub addr: SocketAddr,
    pub dir: PathBuf,
    reactor: Option<JoinHandle<Result<(), DbError>>>,
}

impl Server {
    pub fn start<E: Engine>(dir: PathBuf) -> Result<Self, String> {
        let registry = TenantRegistry::<E>::with_persistence(
            dir.clone(),
            Some(POOL_THREADS),
            None,
            COMPACTION_THRESHOLD,
            None,
        )
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
        let server = NetServer::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let backend: Arc<dyn ServerApi<E>> = Arc::new(CrashOnly(registry));
        let config = NetConfig {
            workers: thread_cap(),
            ..NetConfig::default()
        };
        let reactor = std::thread::spawn(move || server.serve(backend, config));
        Ok(Server {
            addr,
            dir,
            reactor: Some(reactor),
        })
    }

    /// Stop the reactor without flushing anything and wait for it.
    pub fn crash(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(reactor) = self.reactor.take() else {
            return Ok(());
        };
        // `Drain` decodes the same for every engine; the mock's codec
        // is the cheapest to name here.
        type Any = eqjoin_pairing::MockEngine;
        let drainer = RemoteBackend::connect(self.addr).map_err(|e| e.to_string())?;
        match ServerApi::<Any>::handle(&drainer, Request::Drain) {
            Response::Pong => {}
            other => return Err(format!("drain answered {other:?}")),
        }
        drop(drainer);
        reactor
            .join()
            .map_err(|_| "reactor thread panicked".to_owned())?
            .map_err(|e| e.to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // An error path skipped `crash`: still stop the reactor so no
        // thread outlives the run.
        let _ = self.stop();
    }
}

/// What the traced run keeps of one exchange, for the codec replay.
pub struct Exchange<E: Engine> {
    pub request: Request<E>,
    pub response: Response,
}

/// Exchanges kept for the codec replay (the first of each run).
const KEPT_EXCHANGES: usize = 48;

/// The session's backend: a re-pointable TCP connection. With a
/// recorder it also records a `backend.handle` span per exchange and
/// keeps the first few messages.
pub struct Link<E: Engine> {
    remote: RwLock<RemoteBackend>,
    /// Counters of connections already replaced by [`Link::repoint`].
    retired: Mutex<TransportStats>,
    recorder: Option<Arc<Recorder>>,
    kept: Mutex<Vec<Exchange<E>>>,
}

impl<E: Engine> Link<E> {
    pub fn connect(addr: SocketAddr, recorder: Option<Arc<Recorder>>) -> Result<Arc<Self>, String> {
        Ok(Arc::new(Link {
            remote: RwLock::new(RemoteBackend::connect(addr).map_err(|e| e.to_string())?),
            retired: Mutex::new(TransportStats::default()),
            recorder,
            kept: Mutex::new(Vec::new()),
        }))
    }

    /// Talk to the server at `addr` from now on.
    pub fn repoint(&self, addr: SocketAddr) -> Result<(), String> {
        let fresh = RemoteBackend::connect(addr).map_err(|e| e.to_string())?;
        let mut remote = self.remote.write().expect("link lock");
        let total = self.stats_of(&remote);
        *self.retired.lock().expect("retired lock") = total;
        *remote = fresh;
        Ok(())
    }

    fn stats_of(&self, remote: &RemoteBackend) -> TransportStats {
        let mut total = *self.retired.lock().expect("retired lock");
        let live = ServerApi::<E>::transport_stats(remote);
        total.round_trips += live.round_trips;
        total.requests += live.requests;
        total.batches += live.batches;
        total.bytes_sent += live.bytes_sent;
        total.bytes_received += live.bytes_received;
        total.reconnects += live.reconnects;
        total.retries += live.retries;
        total.gave_up += live.gave_up;
        total
    }

    /// Transport counters over all of this link's connections (bytes
    /// include framing).
    pub fn stats(&self) -> TransportStats {
        self.stats_of(&self.remote.read().expect("link lock"))
    }

    pub fn take_kept(&self) -> Vec<Exchange<E>> {
        std::mem::take(&mut *self.kept.lock().expect("kept lock"))
    }

    pub fn ping(&self) -> Duration {
        let t = Instant::now();
        let _ = self
            .remote
            .read()
            .expect("link lock")
            .handle(Request::<E>::Ping);
        t.elapsed()
    }
}

/// Server-reported `decrypt_time + match_time` of a response.
fn server_ns(response: &Response) -> u64 {
    match response {
        Response::JoinExecuted { result, .. } => {
            (result.stats.decrypt_time + result.stats.match_time).as_nanos() as u64
        }
        Response::Batch(parts) => parts.iter().map(server_ns).sum(),
        _ => 0,
    }
}

/// The handle a `Session` owns (`Session::with_backend` wants a box).
pub struct LinkHandle<E: Engine>(pub Arc<Link<E>>);

impl<E: Engine> ServerApi<E> for LinkHandle<E> {
    fn handle(&self, request: Request<E>) -> Response {
        let link = &self.0;
        let span = link
            .recorder
            .as_ref()
            .and_then(|r| r.span("backend.handle"));
        let Some(span) = span else {
            return link.remote.read().expect("link lock").handle(request);
        };
        let keep = link.kept.lock().expect("kept lock").len() < KEPT_EXCHANGES;
        let copy = keep.then(|| request.clone());
        let response = link.remote.read().expect("link lock").handle(request);
        span.end(server_ns(&response));
        if let Some(request) = copy {
            link.kept.lock().expect("kept lock").push(Exchange {
                request,
                response: response.clone(),
            });
        }
        response
    }

    fn transport_stats(&self) -> TransportStats {
        self.0.stats()
    }
}

/// The fixed session configuration: m = 2, t = 3 (11 Miller pairs per
/// `SJ.Dec`), prefilter on, every thread pool at [`POOL_THREADS`].
fn session_config(seed: u64, token_cache: bool) -> SessionConfig {
    let mut config = SessionConfig::new(2, 3)
        .seed(seed)
        .prefilter(true)
        .token_cache(token_cache)
        .threads(POOL_THREADS);
    config.client.encrypt_threads = POOL_THREADS;
    config
}

/// A tenant session over `link`.
pub fn open_session<E: Engine>(
    link: &Arc<Link<E>>,
    tenant: &str,
    seed: u64,
    token_cache: bool,
) -> Result<Session<E>, String> {
    Session::with_backend(
        session_config(seed, token_cache),
        Box::new(LinkHandle(Arc::clone(link))),
    )
    .with_tenant(tenant)
    .map_err(|e| e.to_string())
}

/// Encrypt and load a tenant's tables: `Customers` and `Profiles` as
/// whole tables, `Orders` as a COPY stream. Returns the time from the
/// first plaintext row to the last ack.
pub fn ingest<E: Engine>(session: &mut Session<E>, tables: &Tables) -> Result<Duration, String> {
    let t = Instant::now();
    session
        .create_table(&tables.customers, table_config("Customers"))
        .map_err(|e| format!("load Customers: {e}"))?;
    session
        .create_table(&tables.profiles, table_config("Profiles"))
        .map_err(|e| format!("load Profiles: {e}"))?;
    let loaded = session
        .copy_table(&tables.orders, table_config("Orders"), COPY_CHUNK_ROWS)
        .map_err(|e| format!("copy Orders: {e}"))?;
    if loaded != tables.orders.len() {
        return Err(format!(
            "COPY acked {loaded} of {} rows",
            tables.orders.len()
        ));
    }
    Ok(t.elapsed())
}

/// A fresh scratch directory under `.bench_data/` in the working
/// directory (the checkout, when the driver runs the benchmark).
pub fn scratch_dir(label: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(".bench_data").join(format!(
        "{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Copy a data directory as a crash would leave it: the files as they
/// are on disk now, nothing flushed for the occasion.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        let kind = entry.file_type().map_err(|e| e.to_string())?;
        if kind.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Bytes under `dir`: `(all files, *.journal files)`.
pub fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut total = (0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return total;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (all, journal) = dir_bytes(&path);
            total.0 += all;
            total.1 += journal;
        } else if let Ok(meta) = entry.metadata() {
            total.0 += meta.len();
            if path.extension().is_some_and(|e| e == "journal") {
                total.1 += meta.len();
            }
        }
    }
    total
}
