//! The event-driven connection layer: one epoll reactor thread owning
//! every socket, plus a fixed worker pool executing decoded requests.
//!
//! ```text
//!              epoll reactor (one thread)
//!   ┌──────────────────────────────────────────────────┐
//!   │ listener ──▶ nonblocking accept                  │
//!   │ sockets  ──▶ read → frame → peek envelope        │
//!   │              │ admission (global + per-tenant)   │
//!   │              ▼                                   │
//!   │         per-conn pending queue (jobs + rejects)  │
//!   │              │ one job in flight per connection  │
//!   │              ▼                        ▲          │
//!   │         job queue ──▶ workers ──▶ completions    │
//!   │         (Mutex+Condvar) (N threads)  (eventfd)   │
//!   │ signalfd(SIGTERM) ──▶ drain                      │
//!   └──────────────────────────────────────────────────┘
//! ```
//!
//! Division of labor: the reactor only moves bytes and *peeks* at each
//! frame's envelope (tag byte + tenant name — O(1)); the expensive
//! part of a request — decoding it, which validates every `G2`
//! element (`G1` token sides are validated by the store, the first
//! time it sees their bytes), and the Miller-loop crypto of the join
//! itself — runs on a worker, so a slow decrypt never blocks
//! accept/read/write for other connections.
//!
//! Ordering: the protocol is strictly request→response per connection.
//! The reactor keeps that guarantee under concurrency by running at
//! most ONE job per connection at a time and queueing everything else
//! — including admission *rejections* — in arrival order on the
//! connection's pending queue. An overloaded server therefore answers
//! `DbError::Overloaded` in sequence without reordering or dropping
//! the responses of requests admitted earlier.
//!
//! Drain (SIGTERM or a `Request::Drain` frame): stop accepting (the
//! listener closes immediately), stop reading request bytes, finish
//! every admitted job, flush responses, flush snapshots, exit.

use crate::admission::{Admission, AdmitTicket};
use crate::sys;
use eqjoin_db::backend::{
    count_frame_received, count_frame_sent, read_frame, write_frame, MAX_FRAME_BYTES,
};
use eqjoin_db::{peek_envelope, DbError, Request, RequestEnvelope, Response, ServerApi};
use eqjoin_failpoint::{failpoint, Action};
use eqjoin_pairing::Engine;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`NetServer::serve`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker threads executing requests (0 = one per available core).
    pub workers: usize,
    /// Per-tenant cap on admitted-but-unfinished jobs (0 = unlimited).
    pub max_inflight: usize,
    /// Global cap on admitted-but-unfinished jobs (0 = unlimited).
    pub queue_depth: usize,
    /// Install a signalfd and drain on SIGTERM. Leave off when several
    /// servers share a process (tests): a signalfd steals the signal
    /// from every other consumer.
    pub handle_sigterm: bool,
    /// Close a connection that has been completely idle — no admitted
    /// work in flight, nothing pending, nothing left to flush — for
    /// this long (`None` = keep idle connections forever). A
    /// connection waiting on a slow join is *not* idle and is never
    /// reaped, however long the join takes.
    pub io_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 0,
            max_inflight: 64,
            queue_depth: 256,
            handle_sigterm: false,
            io_timeout: None,
        }
    }
}

/// The epoll-based server. [`NetServer::serve`] runs the reactor on
/// the calling thread until a drain completes.
pub struct NetServer {
    listener: TcpListener,
}

/// Epoll token values: fixed ids for the three long-lived fds,
/// connections from [`FIRST_CONN`] up.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_SIGNAL: u64 = 2;
const FIRST_CONN: u64 = 3;

/// One admitted unit of work, executed on a worker.
struct Job {
    conn: u64,
    payload: Vec<u8>,
    /// `None` only for drain frames, which bypass admission (a drain
    /// must get through precisely when the server is saturated).
    ticket: Option<AdmitTicket>,
}

/// A worker's finished response, picked up by the reactor on the next
/// eventfd wakeup.
struct Completion {
    conn: u64,
    bytes: Vec<u8>,
    drain: bool,
}

/// Blocking MPMC job queue: `Mutex<VecDeque>` + `Condvar` (the crate
/// is dependency-free by design, so no channel library).
struct JobQueue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.0.push_back(job);
        drop(inner);
        self.ready.notify_one();
    }

    /// Next job, blocking; `None` once shut down AND empty (admitted
    /// work still completes during a drain).
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn shutdown(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        self.ready.notify_all();
    }
}

/// An entry in a connection's ordered pending queue.
enum Pending {
    /// An admitted frame waiting for its turn on a worker.
    Job(Vec<u8>, Option<AdmitTicket>),
    /// A pre-serialized response (admission rejection): written in
    /// arrival order, no worker involved.
    Reply(Vec<u8>),
}

/// Per-connection state owned by the reactor.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<Pending>,
    in_flight: bool,
    /// EOF seen from the peer: close once all queued work is answered.
    peer_closed: bool,
    /// Unrecoverable framing error: close once the error reply flushes.
    kill_after_flush: bool,
    /// Last interest mask registered with epoll.
    interest: u32,
    /// Last moment bytes moved on this socket (either direction);
    /// the idle reaper measures from here.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            in_flight: false,
            peer_closed: false,
            kill_after_flush: false,
            interest: 0,
            last_activity: Instant::now(),
        }
    }

    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// All queued work answered and flushed?
    fn quiescent(&self) -> bool {
        !self.in_flight && self.pending.is_empty() && !self.write_pending()
    }

    /// Append one length-framed response to the write buffer.
    fn queue_frame(&mut self, bytes: &[u8]) {
        count_frame_sent(bytes.len());
        self.write_buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(bytes);
    }
}

impl NetServer {
    /// Bind the listening socket (`"127.0.0.1:0"` picks an ephemeral
    /// port).
    pub fn bind<A: ToSocketAddrs + ToString>(addr: A) -> Result<Self, DbError> {
        let listener = TcpListener::bind(&addr)
            .map_err(|e| DbError::Transport(format!("bind {}: {e}", addr.to_string())))?;
        Ok(NetServer { listener })
    }

    /// The bound address.
    pub fn local_addr(&self) -> Result<SocketAddr, DbError> {
        self.listener
            .local_addr()
            .map_err(|e| DbError::Transport(format!("local_addr: {e}")))
    }

    /// Serve `backend` on an ephemeral loopback port from a background
    /// thread: the in-process server for tests, benches and examples.
    /// Returns the address to connect to and the handle that stops it.
    pub fn spawn<E: Engine, B: ServerApi<E> + 'static>(
        backend: Arc<B>,
        config: NetConfig,
    ) -> Result<(SocketAddr, NetHandle), DbError> {
        let server = Self::bind("127.0.0.1:0")?;
        let addr = server.local_addr()?;
        let drain_frame = Request::<E>::Drain.to_bytes();
        let thread = std::thread::spawn(move || server.serve(backend, config));
        Ok((
            addr,
            NetHandle {
                addr,
                drain_frame,
                thread: Some(thread),
            },
        ))
    }

    /// Run the reactor on the calling thread until a drain (SIGTERM if
    /// enabled, or a client's `Request::Drain`) completes: listener
    /// closed, admitted jobs finished, responses flushed, snapshots
    /// flushed (`backend.handle(Request::Drain)`), workers joined.
    pub fn serve<E: Engine>(
        self,
        backend: Arc<dyn ServerApi<E>>,
        config: NetConfig,
    ) -> Result<(), DbError> {
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        };
        let admission = Admission::new(config.queue_depth, config.max_inflight);
        let queue = JobQueue::new();
        let completions: Mutex<Vec<Completion>> = Mutex::new(Vec::new());

        let transport = |e: io::Error, what: &str| DbError::Transport(format!("{what}: {e}"));
        let wake_fd = sys::eventfd().map_err(|e| transport(e, "eventfd"))?;
        let signal_fd = if config.handle_sigterm {
            sys::block_sigterm().map_err(|e| transport(e, "sigprocmask"))?;
            Some(sys::sigterm_fd().map_err(|e| transport(e, "signalfd"))?)
        } else {
            None
        };

        let result = std::thread::scope(|scope| {
            for _ in 0..workers {
                let backend = Arc::clone(&backend);
                let queue = &queue;
                let completions = &completions;
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        let (bytes, drain) = execute::<E>(backend.as_ref(), &job.payload);
                        drop(job.ticket);
                        completions
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(Completion {
                                conn: job.conn,
                                bytes,
                                drain,
                            });
                        let _ = sys::write(wake_fd, &1u64.to_ne_bytes());
                    }
                });
            }
            let result = event_loop(
                self.listener,
                wake_fd,
                signal_fd,
                &admission,
                &queue,
                &completions,
                config.io_timeout,
            );
            // Unblock the workers whether the loop drained or failed.
            queue.shutdown();
            result
        });
        sys::close(wake_fd);
        if let Some(fd) = signal_fd {
            sys::close(fd);
        }
        result?;
        // Final snapshot flush — idempotent if a client drain already
        // flushed through the worker path.
        match backend.handle(Request::Drain) {
            Response::Error(e) => Err(e),
            _ => Ok(()),
        }
    }
}

/// Stop handle for a reactor started with [`NetServer::spawn`]:
/// [`NetHandle::stop`] (or drop) drains the server and joins its
/// thread, so tests and embedders never leak a listener or a detached
/// reactor.
pub struct NetHandle {
    addr: SocketAddr,
    drain_frame: Vec<u8>,
    thread: Option<JoinHandle<Result<(), DbError>>>,
}

impl NetHandle {
    /// Send `Request::Drain`, wait for the reactor to finish admitted
    /// work and flush, and return its exit result.
    pub fn stop(mut self) -> Result<(), DbError> {
        self.drain_and_join().unwrap_or(Ok(()))
    }

    fn drain_and_join(&mut self) -> Option<Result<(), DbError>> {
        let thread = self.thread.take()?;
        // A refused connect means the listener is already gone — some
        // client drained the server first — and the join below returns
        // at once.
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            if write_frame(&mut stream, &self.drain_frame).is_ok() {
                let _ = read_frame(&mut stream);
            }
        }
        Some(
            thread
                .join()
                .unwrap_or_else(|_| Err(DbError::Transport("reactor thread panicked".into()))),
        )
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        let _ = self.drain_and_join();
    }
}

/// Decode and execute one frame on a worker; returns the serialized
/// response and whether the frame was a drain request.
fn execute<E: Engine>(backend: &dyn ServerApi<E>, payload: &[u8]) -> (Vec<u8>, bool) {
    let (response, drain) = match Request::<E>::from_bytes(payload) {
        Ok(request) => {
            let drain = matches!(request, Request::Drain);
            (handle_caught(backend, request), drain)
        }
        Err(e) => (Response::Error(e), false),
    };
    let mut bytes = response.to_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        // In-band degrade: the work WAS done (the client accounts
        // the joins as unobserved); tell it to split the series
        // rather than dropping the connection with an opaque EOF.
        bytes = Response::Error(DbError::Transport(format!(
            "response of {} bytes exceeds the {} byte frame cap (split the series)",
            bytes.len(),
            MAX_FRAME_BYTES,
        )))
        .to_bytes();
    }
    (bytes, drain)
}

/// `backend.handle(request)`, with a panic in the handler caught and
/// answered as [`DbError::Transport`] — the request's server-side
/// outcome is unknown, so a session counts its joins as unaccounted.
/// The worker lives on, and the connection, which would otherwise wait
/// for this answer forever, gets it and serves its next request.
fn handle_caught<E: Engine>(backend: &dyn ServerApi<E>, request: Request<E>) -> Response {
    panic::catch_unwind(AssertUnwindSafe(|| backend.handle(request))).unwrap_or_else(|payload| {
        eqjoin_obs::counter!("eqjoin_net_handler_panics_total").inc();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        Response::Error(DbError::Transport(format!(
            "request handler panicked: {message}"
        )))
    })
}

/// The reactor proper. Returns after a drain completes or on a fatal
/// epoll/listener error.
#[allow(clippy::too_many_arguments)]
fn event_loop(
    listener: TcpListener,
    wake_fd: i32,
    signal_fd: Option<i32>,
    admission: &Arc<Admission>,
    queue: &JobQueue,
    completions: &Mutex<Vec<Completion>>,
    io_timeout: Option<Duration>,
) -> Result<(), DbError> {
    let transport = |e: io::Error, what: &str| DbError::Transport(format!("{what}: {e}"));
    listener
        .set_nonblocking(true)
        .map_err(|e| transport(e, "listener nonblocking"))?;
    let epfd = sys::epoll_create1().map_err(|e| transport(e, "epoll_create1"))?;
    let add = |fd: i32, token: u64, events: u32| {
        sys::epoll_ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            Some(&sys::EpollEvent {
                events,
                data: token,
            }),
        )
    };
    add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)
        .map_err(|e| transport(e, "register listener"))?;
    add(wake_fd, TOKEN_WAKE, sys::EPOLLIN).map_err(|e| transport(e, "register eventfd"))?;
    if let Some(fd) = signal_fd {
        add(fd, TOKEN_SIGNAL, sys::EPOLLIN).map_err(|e| transport(e, "register signalfd"))?;
    }

    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut draining = false;
    let mut drain_started: Option<Instant> = None;
    let mut events = [sys::EpollEvent::default(); 64];
    let mut scratch = vec![0u8; 64 * 1024];

    let result = loop {
        // With an idle timeout configured, wake when the earliest
        // idle-eligible connection crosses its deadline; otherwise
        // sleep until an fd is ready.
        let timeout_ms: i32 = match io_timeout {
            None => -1,
            Some(limit) => {
                let now = Instant::now();
                conns
                    .values()
                    .filter(|c| c.quiescent())
                    .map(|c| limit.saturating_sub(now.duration_since(c.last_activity)))
                    .min()
                    .map_or(-1, |until| {
                        i32::try_from(until.as_millis().saturating_add(1)).unwrap_or(i32::MAX)
                    })
            }
        };
        let n = match sys::epoll_wait(epfd, &mut events, timeout_ms) {
            Ok(n) => n,
            Err(e) => break Err(transport(e, "epoll_wait")),
        };
        let mut drain_now = false;
        for event in events.iter().take(n) {
            // Copy out of the packed struct before use.
            let (token, ready) = ({ event.data }, { event.events });
            match token {
                TOKEN_LISTENER => {
                    let Some(l) = &listener else { continue };
                    loop {
                        match l.accept() {
                            Ok((stream, peer)) => {
                                if draining {
                                    continue; // accepted in a race; drop.
                                }
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                let token = next_token;
                                next_token += 1;
                                let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
                                if add(stream.as_raw_fd(), token, interest).is_err() {
                                    continue;
                                }
                                let mut conn = Conn::new(stream);
                                conn.interest = interest;
                                conns.insert(token, conn);
                                eqjoin_obs::counter!("eqjoin_net_accepts_total").inc();
                                eqjoin_obs::gauge!("eqjoin_net_connections").inc();
                                eqjoin_obs::info!(
                                    "conn_open",
                                    "conn" => token,
                                    "peer" => peer,
                                );
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            // Transient per-connection failure; the
                            // next epoll wakeup retries.
                            Err(_) => break,
                        }
                    }
                }
                TOKEN_WAKE => {
                    let mut counter = [0u8; 8];
                    while sys::read(wake_fd, &mut counter).is_ok() {}
                    let finished: Vec<Completion> = completions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .drain(..)
                        .collect();
                    for done in finished {
                        drain_now |= done.drain;
                        let Some(conn) = conns.get_mut(&done.conn) else {
                            continue; // connection died mid-request
                        };
                        conn.in_flight = false;
                        conn.queue_frame(&done.bytes);
                        service_conn(epfd, done.conn, conn, queue, draining);
                        maybe_close(epfd, &mut conns, done.conn, draining);
                    }
                }
                TOKEN_SIGNAL => {
                    let Some(fd) = signal_fd else { continue };
                    // One signalfd_siginfo per delivered signal.
                    let mut info = [0u8; 128];
                    while sys::read(fd, &mut info).is_ok() {}
                    drain_now = true;
                }
                token => {
                    if !conns.contains_key(&token) {
                        continue;
                    }
                    if ready & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                        close_conn(epfd, &mut conns, token);
                        continue;
                    }
                    if ready & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !draining {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        if !read_frames(conn, admission, &mut scratch) {
                            close_conn(epfd, &mut conns, token);
                            continue;
                        }
                    }
                    if let Some(conn) = conns.get_mut(&token) {
                        service_conn(epfd, token, conn, queue, draining);
                    }
                    maybe_close(epfd, &mut conns, token, draining);
                }
            }
        }
        // Idle reaper: a connection with no admitted work, nothing
        // pending and nothing to flush that has been silent past the
        // deadline is closed. In-flight joins are exempt.
        if let Some(limit) = io_timeout {
            let now = Instant::now();
            let stale: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.quiescent() && now.duration_since(c.last_activity) >= limit)
                .map(|(token, _)| *token)
                .collect();
            for token in stale {
                close_conn(epfd, &mut conns, token);
            }
        }
        if drain_now && !draining {
            match failpoint!("reactor::drain") {
                Some(Action::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                Some(Action::Abort) => std::process::abort(),
                Some(Action::ReturnError | Action::DropConn | Action::PartialWrite(_)) => {
                    break Err(DbError::Transport(
                        "failpoint reactor::drain: injected error".into(),
                    ));
                }
                None => {}
            }
            draining = true;
            drain_started = Some(Instant::now());
            eqjoin_obs::info!("drain_begin", "open_conns" => conns.len());
            // Close the listener NOW: new connections are refused the
            // moment the drain starts.
            if let Some(l) = listener.take() {
                let _ = sys::epoll_ctl(epfd, sys::EPOLL_CTL_DEL, l.as_raw_fd(), None);
            }
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                if let Some(conn) = conns.get_mut(&token) {
                    // Stop reading; finish what was admitted.
                    conn.peer_closed = true;
                    service_conn(epfd, token, conn, queue, draining);
                }
                maybe_close(epfd, &mut conns, token, draining);
            }
        }
        if draining && conns.is_empty() {
            if let Some(started) = drain_started {
                let elapsed = started.elapsed();
                eqjoin_obs::histogram!("eqjoin_net_drain_seconds").record(elapsed);
                eqjoin_obs::info!("drain_complete", "elapsed_ms" => elapsed.as_millis());
            }
            break Ok(());
        }
    };
    for (_, conn) in conns.drain() {
        let _ = sys::epoll_ctl(epfd, sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), None);
    }
    sys::close(epfd);
    result
}

/// Outcome of examining a read buffer at `pos` for one length-framed
/// message. Extracted from the reactor's read loop so the frame
/// decoder can be driven directly by tests (including property tests
/// feeding truncated and corrupted buffers) without a socket.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStep<'a> {
    /// A complete frame: its payload and the position of the next one.
    Frame { payload: &'a [u8], next: usize },
    /// Not enough bytes for a header or a full payload yet.
    Incomplete,
    /// The length field exceeds [`MAX_FRAME_BYTES`]; the stream cannot
    /// be resynchronized past it.
    Oversized(usize),
}

/// Slice the next u32-length-framed message out of `buf` at `pos`.
///
/// Never panics for any `buf`/`pos` combination: an out-of-range `pos`
/// is simply an incomplete frame.
pub fn next_frame(buf: &[u8], pos: usize) -> FrameStep<'_> {
    let Some(header) = pos.checked_add(4).and_then(|end| buf.get(pos..end)) else {
        return FrameStep::Incomplete;
    };
    let Ok(header) = <[u8; 4]>::try_from(header) else {
        return FrameStep::Incomplete;
    };
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return FrameStep::Oversized(len);
    }
    let Some(payload) = pos
        .checked_add(4)
        .and_then(|start| start.checked_add(len).map(|end| (start, end)))
        .and_then(|(start, end)| buf.get(start..end))
    else {
        return FrameStep::Incomplete;
    };
    FrameStep::Frame {
        payload,
        next: pos + 4 + len,
    }
}

/// Pull bytes off the socket, slice complete frames, run admission on
/// each and queue the outcome. Returns `false` if the connection is
/// dead (reset / unrecoverable).
fn read_frames(conn: &mut Conn, admission: &Arc<Admission>, scratch: &mut [u8]) -> bool {
    match failpoint!("reactor::read") {
        Some(Action::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(Action::Abort) => std::process::abort(),
        // A torn read and an injected error both surface the same way
        // a real socket fault does: the connection is dead.
        Some(Action::ReturnError | Action::DropConn | Action::PartialWrite(_)) => return false,
        None => {}
    }
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                // `read` reports at most `scratch.len()` bytes; a count
                // past it is a broken stream, closed as an error is.
                let Some(got) = scratch.get(..n) else {
                    return false;
                };
                conn.last_activity = Instant::now();
                conn.read_buf.extend_from_slice(got);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    let mut pos = 0;
    while !conn.kill_after_flush {
        let payload = match next_frame(&conn.read_buf, pos) {
            FrameStep::Incomplete => break,
            FrameStep::Oversized(len) => {
                // The stream cannot be resynchronized after a bogus
                // length: answer in-band, then close once flushed.
                conn.pending.push_back(Pending::Reply(
                    Response::Error(DbError::Transport(format!(
                        "frame length {len} exceeds the frame cap"
                    )))
                    .to_bytes(),
                ));
                conn.kill_after_flush = true;
                break;
            }
            FrameStep::Frame { payload, next } => {
                count_frame_received(payload.len());
                let bytes = payload.to_vec();
                pos = next;
                bytes
            }
        };
        match peek_envelope(&payload) {
            // Drains bypass admission: the whole point is to get
            // through when the server is saturated.
            RequestEnvelope::Drain => conn.pending.push_back(Pending::Job(payload, None)),
            envelope => {
                let tenant = match &envelope {
                    RequestEnvelope::Tenant(name) => Some(name.as_str()),
                    _ => None,
                };
                match admission.try_admit(tenant) {
                    Ok(ticket) => conn.pending.push_back(Pending::Job(payload, Some(ticket))),
                    Err(overloaded) => conn
                        .pending
                        .push_back(Pending::Reply(Response::Error(overloaded).to_bytes())),
                }
            }
        }
    }
    conn.read_buf.drain(..pos);
    true
}

/// Dispatch the connection's next pending item(s), flush writes,
/// refresh epoll interest.
fn service_conn(epfd: i32, token: u64, conn: &mut Conn, queue: &JobQueue, draining: bool) {
    while !conn.in_flight {
        match conn.pending.pop_front() {
            Some(Pending::Job(payload, ticket)) => {
                conn.in_flight = true;
                queue.push(Job {
                    conn: token,
                    payload,
                    ticket,
                });
            }
            Some(Pending::Reply(bytes)) => conn.queue_frame(&bytes),
            None => break,
        }
    }
    match failpoint!("reactor::write") {
        Some(Action::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(Action::Abort) => std::process::abort(),
        Some(Action::PartialWrite(n)) if conn.write_pending() => {
            // Deliver a prefix of the buffered bytes, then poison the
            // connection exactly as a peer reset below would.
            let torn = conn.write_buf.len().min(conn.write_pos.saturating_add(n));
            if let Some(prefix) = conn.write_buf.get(conn.write_pos..torn) {
                let _ = conn.stream.write(prefix);
            }
            conn.write_buf.clear();
            conn.write_pos = 0;
            conn.peer_closed = true;
        }
        Some(Action::ReturnError | Action::DropConn) if conn.write_pending() => {
            conn.write_buf.clear();
            conn.write_pos = 0;
            conn.peer_closed = true;
        }
        Some(_) | None => {}
    }
    while conn.write_pending() {
        // `write_pending()` means `write_pos` is inside the buffer; were
        // it not, the connection closes as on a write error.
        let written = match conn.write_buf.get(conn.write_pos..) {
            Some(rest) => conn.stream.write(rest),
            None => Err(io::ErrorKind::InvalidInput.into()),
        };
        match written {
            Ok(0) => break,
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.write_pos += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Peer is gone; drop what we couldn't deliver.
                conn.write_buf.clear();
                conn.write_pos = 0;
                conn.peer_closed = true;
                break;
            }
        }
    }
    if !conn.write_pending() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    let mut interest = 0;
    if !draining && !conn.peer_closed && !conn.kill_after_flush {
        interest |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if conn.write_pending() {
        interest |= sys::EPOLLOUT;
    }
    if interest != conn.interest {
        conn.interest = interest;
        let _ = sys::epoll_ctl(
            epfd,
            sys::EPOLL_CTL_MOD,
            conn.stream.as_raw_fd(),
            Some(&sys::EpollEvent {
                events: interest,
                data: token,
            }),
        );
    }
}

/// Close the connection if it has nothing left to do and its peer is
/// gone (or the server is draining / the stream is poisoned).
fn maybe_close(epfd: i32, conns: &mut HashMap<u64, Conn>, token: u64, draining: bool) {
    let Some(conn) = conns.get(&token) else {
        return;
    };
    let done_for_good = conn.peer_closed || conn.kill_after_flush || draining;
    if done_for_good && conn.quiescent() {
        close_conn(epfd, conns, token);
    }
}

fn close_conn(epfd: i32, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = sys::epoll_ctl(epfd, sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), None);
        eqjoin_obs::gauge!("eqjoin_net_connections").dec();
        eqjoin_obs::info!("conn_close", "conn" => token);
        // `conn.stream` drops here, closing the socket. Pending
        // tickets drop with it, releasing their admission slots.
    }
}
