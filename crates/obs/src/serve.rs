//! A tiny read-only metrics listener: accepts a TCP connection, skips
//! whatever request head the client sent, and answers with one
//! `text/plain` Prometheus exposition built by the render callback.
//!
//! Deliberately not a real HTTP server — no routing, no keep-alive, no
//! TLS. It exists so `curl`/Prometheus can scrape a live `eqjoind`
//! without pulling an HTTP stack into a dependency-free workspace. The
//! accept loop is a stop flag plus a wake-up dial, so `stop()` never
//! blocks on `accept`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request head we bother reading before answering (scrapers
/// send a one-line GET; anything bigger is cut off).
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// How long one scrape connection may take before being dropped.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Handle to a running metrics listener; dropped handles leave the
/// thread running, call [`MetricsServer::stop`] for a clean shutdown.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and serve `render()` to every connection on a
    /// background thread. Returns the bound address (useful with port
    /// 0) and the server handle.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        render: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> std::io::Result<(SocketAddr, MetricsServer)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("eqjoin-metrics".into())
            .spawn(move || serve_loop(&listener, &stop_flag, render.as_ref()))?;
        Ok((
            local,
            MetricsServer {
                addr: local,
                stop,
                thread: Some(thread),
            },
        ))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop to exit, unblock it, and join the thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Dial ourselves so a blocked accept() returns and sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool, render: &dyn Fn() -> String) {
    let mut backoff = Duration::from_millis(1);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = Duration::from_millis(1);
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let _ = answer_scrape(stream, render);
            }
            Err(_) => {
                // Transient accept failure (fd pressure); back off,
                // capped, instead of spinning.
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// Drain (a bounded prefix of) the request head, then write one
/// HTTP/1.0 response carrying the exposition and close.
fn answer_scrape(mut stream: TcpStream, render: &dyn Fn() -> String) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    // Best-effort read of the request head up to the header terminator.
    // A raw-TCP scraper that sends nothing still gets a response once
    // its read side times out or it half-closes.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while (head.len() as u64) < MAX_REQUEST_BYTES {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render();
    let response = format!(
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Scrape `addr` once over plain TCP and return the exposition body
/// (headers stripped). Shared by tests and the CI smoke step.
pub fn scrape_once(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let body = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .map(|(_, body)| body.to_owned())
        .unwrap_or(raw);
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_exposition_and_stops_cleanly() {
        let (addr, server) = MetricsServer::spawn(
            "127.0.0.1:0",
            Arc::new(|| "# TYPE t counter\nt 1\n".to_owned()),
        )
        .unwrap();
        for _ in 0..3 {
            let body = scrape_once(addr).unwrap();
            assert_eq!(body, "# TYPE t counter\nt 1\n");
        }
        server.stop();
        // After stop the port must no longer answer (give the OS a beat
        // to tear the listener down).
        std::thread::sleep(Duration::from_millis(20));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }
}
