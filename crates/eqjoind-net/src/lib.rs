//! `eqjoind-net` — the event-driven, multi-tenant connection layer of
//! the `eqjoind` server, and the one server tests, benches and the
//! benchmark embed in-process ([`NetServer::spawn`]):
//!
//! * [`NetServer`] — an epoll reactor owning every socket
//!   (non-blocking accept/read/write of the u32-length-framed wire
//!   protocol) plus a fixed worker pool executing decoded requests.
//!   The reactor/worker split exists because this protocol's requests
//!   are *cryptographically* heavy: one join can cost thousands of
//!   Miller loops, and running it on the event loop would stall every
//!   other connection's I/O. The reactor therefore only peeks at each
//!   frame's envelope (tag + tenant, O(1) bytes) and hands the frame
//!   to a worker for the expensive decode-validate-execute.
//! * [`TenantRegistry`] — per-tenant namespaces. Each tenant gets an
//!   isolated store, snapshot subdirectory and server-side counters.
//!   Isolation is by construction (separate `LocalBackend` per
//!   tenant), which is what makes the *leakage accounting*
//!   trustworthy: the paper's guarantee bounds what a server learns
//!   from one client's query series, so the equality pattern — and
//!   the decrypt cache that embodies it — must never mix tenants. A
//!   cross-tenant cache hit would be cross-tenant leakage; separate
//!   stores make it impossible rather than merely unlikely.
//! * [`Admission`] — backpressure: a global queue-depth cap and a
//!   per-tenant in-flight cap, enforced at frame arrival. Refused
//!   requests get a typed [`DbError::Overloaded`](eqjoin_db::DbError)
//!   response, in order, without disturbing admitted work.
//! * Graceful drain — SIGTERM (via signalfd) or a client
//!   `Request::Drain`: stop accepting, finish in-flight jobs, flush
//!   responses and snapshots, exit.
//!
//! No dependencies: epoll/eventfd/signalfd are raw syscalls
//! ([`sys`]), everything else is `std`.

pub mod admission;
pub mod reactor;
pub mod sys;
pub mod tenant;

pub use admission::{Admission, AdmitTicket};
pub use reactor::{NetConfig, NetHandle, NetServer};
pub use tenant::TenantRegistry;
