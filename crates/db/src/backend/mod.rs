//! Backend implementations of the [`ServerApi`](crate::protocol::ServerApi)
//! transport trait, plus the transport-level plumbing they share.
//!
//! ```text
//!   Session ──▶ ServerApi (protocol messages)
//!                 ├── LocalBackend    in-process DbServer behind RwLock
//!                 └── RemoteBackend   length-framed TCP to an eqjoind server
//! ```
//!
//! All backends are `Send + Sync` and synchronize internally, so one
//! instance can serve many sessions or connection threads concurrently;
//! each also keeps [`TransportStats`] so benches and tests can observe
//! round trips, batching and bytes on the wire. That struct is the
//! client-side and in-process view; a server's scrape counts its wire
//! traffic in the `eqjoin_frame*` series ([`count_frame_sent`],
//! [`count_frame_received`]) and its requests per tenant.

mod local;
mod remote;
mod transport;

pub use local::LocalBackend;
pub use remote::{RemoteBackend, RemoteConfig, RetryPolicy};
pub use transport::{
    count_frame_received, count_frame_sent, read_frame, write_frame, TransportCounters,
    TransportStats, MAX_FRAME_BYTES,
};
