//! Transport bookkeeping and the TCP frame format shared by
//! [`RemoteBackend`](super::RemoteBackend) and the `eqjoind` server.
//!
//! A frame is a 4-byte little-endian length followed by exactly that
//! many payload bytes (one serialized protocol message). The length is
//! capped at [`MAX_FRAME_BYTES`] so a corrupt or hostile peer cannot
//! force a huge allocation before the payload codec's own plausibility
//! checks run.

use crate::protocol::Request;
use eqjoin_pairing::Engine;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on one frame's payload (256 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// Payload bytes [`write_frame`] copies next to the length so that a
/// frame up to this size leaves in one write (the rest goes uncopied).
const FIRST_WRITE_BYTES: usize = 64 << 10;

/// Snapshot of a backend's cumulative transport counters.
///
/// `round_trips` counts request/response exchanges: TCP frames for
/// [`RemoteBackend`](super::RemoteBackend), top-level `handle` calls
/// for [`LocalBackend`](super::LocalBackend). `requests` counts leaf
/// protocol requests carried (batch contents individually), so
/// `requests − round_trips` is exactly what batching saved. Byte
/// counters are zero for in-process backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Request/response exchanges performed.
    pub round_trips: u64,
    /// Leaf requests carried (batch contents counted individually).
    pub requests: u64,
    /// Exchanges that carried a `Request::Batch`.
    pub batches: u64,
    /// Bytes sent on the wire, framing included.
    pub bytes_sent: u64,
    /// Bytes received from the wire, framing included.
    pub bytes_received: u64,
    /// Successful reconnects after a transport failure (networked
    /// backends make one bounded attempt on the next request).
    pub reconnects: u64,
    /// Request exchanges re-sent after a transport failure on an
    /// idempotent request (networked backends only; each retried
    /// attempt past the first counts once).
    pub retries: u64,
    /// Requests abandoned after the retry budget was exhausted (or
    /// that were never retried because they are not idempotent).
    pub gave_up: u64,
}

impl TransportStats {
    /// Accumulate another backend's counters into this one — the single
    /// place that knows every field, so an aggregate over backends
    /// cannot silently drop a counter added later.
    pub fn merge(&mut self, other: &TransportStats) {
        self.round_trips += other.round_trips;
        self.requests += other.requests;
        self.batches += other.batches;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.reconnects += other.reconnects;
        self.retries += other.retries;
        self.gave_up += other.gave_up;
    }
}

/// Interior-mutable counters behind [`TransportStats`] — backends
/// update them through `&self` from any thread.
#[derive(Debug, Default)]
pub struct TransportCounters {
    round_trips: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    reconnects: AtomicU64,
    retries: AtomicU64,
    gave_up: AtomicU64,
}

impl TransportCounters {
    /// Count one dispatched request: a round trip, its leaf-request
    /// count, and whether it was a batch.
    pub fn record_request<E: Engine>(&self, request: &Request<E>) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.requests
            .fetch_add(request.request_count(), Ordering::Relaxed);
        if matches!(request, Request::Batch(_)) {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count bytes written to the wire.
    pub fn add_bytes_sent(&self, n: u64) {
        self.bytes_sent.fetch_add(n, Ordering::Relaxed);
    }

    /// Count bytes read from the wire.
    pub fn add_bytes_received(&self, n: u64) {
        self.bytes_received.fetch_add(n, Ordering::Relaxed);
    }

    /// Count successful reconnects after a transport failure.
    pub fn add_reconnects(&self, n: u64) {
        self.reconnects.fetch_add(n, Ordering::Relaxed);
    }

    /// Count retried request attempts (idempotent requests only).
    pub fn add_retries(&self, n: u64) {
        self.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Count requests abandoned to the caller after a transport
    /// failure (retry budget exhausted, or never retriable).
    pub fn add_gave_up(&self, n: u64) {
        self.gave_up.fetch_add(n, Ordering::Relaxed);
    }

    /// Current values as a plain snapshot.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
        }
    }
}

/// Translate an armed failpoint action into this layer's failure mode:
/// an `io::Error` (which the backends above map to
/// [`DbError::Transport`](crate::DbError::Transport) /
/// [`DbError::Timeout`](crate::DbError::Timeout)).
/// `Ok(None)` means "proceed normally"; `Ok(Some(n))` is a
/// partial-write budget for write paths.
pub(crate) fn apply_io_failpoint(
    name: &str,
    action: Option<eqjoin_failpoint::Action>,
) -> io::Result<Option<usize>> {
    use eqjoin_failpoint::Action;
    match action {
        None => Ok(None),
        Some(Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(None)
        }
        Some(Action::ReturnError) => Err(io::Error::other(format!(
            "failpoint {name}: injected error"
        ))),
        Some(Action::DropConn) => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("failpoint {name}: injected connection drop"),
        )),
        Some(Action::PartialWrite(n)) => Ok(Some(n)),
        Some(Action::Abort) => std::process::abort(),
    }
}

/// Write one length-prefixed frame. Returns the total bytes written
/// (payload + 4 framing bytes).
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the frame cap", payload.len()),
        ));
    }
    let fp = "transport::write_frame";
    if let Some(budget) = apply_io_failpoint(fp, eqjoin_failpoint::failpoint!(fp))? {
        // Torn write: emit the first `budget` bytes of the frame, then
        // fail as if the connection died mid-send.
        let frame_len = payload.len() + 4;
        let mut frame = Vec::with_capacity(frame_len.min(budget));
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.truncate(budget);
        stream.write_all(&frame)?;
        stream.flush()?;
        return Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("failpoint {fp}: connection died after {budget} of {frame_len} bytes"),
        ));
    }
    let start = std::time::Instant::now();
    // One write for the length and the head of the payload: on a
    // TCP_NODELAY socket a 4-byte write is a segment of its own, and
    // the peer's reactor then wakes once or twice for the frame
    // depending on how fast it wakes, not on the request.
    let (head, tail) = payload.split_at(payload.len().min(FIRST_WRITE_BYTES));
    let length = (payload.len() as u32).to_le_bytes();
    stream.write_all(&[length.as_slice(), head].concat())?;
    stream.write_all(tail)?;
    stream.flush()?;
    eqjoin_obs::histogram!("eqjoin_frame_write_seconds").record(start.elapsed());
    count_frame_sent(payload.len());
    Ok(payload.len() as u64 + 4)
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// *before* any frame byte (the peer closed an idle connection); EOF
/// mid-frame, an oversized length, or any other I/O failure is an
/// error.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let fp = "transport::read_frame";
    if apply_io_failpoint(fp, eqjoin_failpoint::failpoint!(fp))?.is_some() {
        // partial-write makes no sense on the read side; treat it as a
        // dropped connection so an armed plan still fails loudly.
        return Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("failpoint {fp}: injected connection drop"),
        ));
    }
    let mut len_bytes = [0u8; 4];
    let (first, rest) = len_bytes.split_at_mut(1);
    // First byte by hand, to tell "connection closed between frames"
    // from "frame cut short".
    loop {
        match stream.read(first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    // Latency is measured from the first frame byte, not from call
    // entry — a server parked in read_frame waiting for the next
    // request would otherwise count idle time as frame latency.
    let start = std::time::Instant::now();
    stream.read_exact(rest)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the frame cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    eqjoin_obs::histogram!("eqjoin_frame_read_seconds").record(start.elapsed());
    count_frame_received(len);
    Ok(Some(payload))
}

/// Count one complete frame of `payload_len` payload bytes put on the
/// wire (`eqjoin_frames_sent_total`, `eqjoin_frame_bytes_sent_total`,
/// framing included). [`write_frame`] calls it, and so does any other
/// writer of this frame format (the `eqjoind` reactor), so the series
/// count both ends of a connection.
pub fn count_frame_sent(payload_len: usize) {
    eqjoin_obs::counter!("eqjoin_frames_sent_total").inc();
    eqjoin_obs::counter!("eqjoin_frame_bytes_sent_total").add(payload_len as u64 + 4);
}

/// Count one complete frame of `payload_len` payload bytes taken off
/// the wire (`eqjoin_frames_received_total`,
/// `eqjoin_frame_bytes_received_total`, framing included): the
/// receiving twin of [`count_frame_sent`].
pub fn count_frame_received(payload_len: usize) {
    eqjoin_obs::counter!("eqjoin_frames_received_total").inc();
    eqjoin_obs::counter!("eqjoin_frame_bytes_received_total").add(payload_len as u64 + 4);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        let sent_a = write_frame(&mut wire, b"hello").unwrap();
        let sent_b = write_frame(&mut wire, b"").unwrap();
        assert_eq!(sent_a, 9);
        assert_eq!(sent_b, 4);
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// Records the size of every `write` it is handed.
    struct Segments(Vec<usize>);

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write_with_its_length() {
        let mut wire = Segments(Vec::new());
        write_frame(&mut wire, &[7u8; 5_000]).unwrap();
        write_frame(&mut wire, b"").unwrap();
        let sent = write_frame(&mut wire, &vec![7u8; FIRST_WRITE_BYTES + 10]).unwrap();
        assert_eq!(wire.0, vec![5_004, 4, FIRST_WRITE_BYTES + 4, 10]);
        assert_eq!(sent, FIRST_WRITE_BYTES as u64 + 14);
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        for cut in 1..wire.len() {
            let mut cursor = io::Cursor::new(&wire[..cut]);
            assert!(
                read_frame(&mut cursor).is_err(),
                "truncation at byte {cut} must error, not hang or succeed"
            );
        }
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(u32::MAX).to_le_bytes());
        oversized.push(0);
        assert!(read_frame(&mut io::Cursor::new(oversized)).is_err());
    }
}
