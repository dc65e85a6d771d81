//! `eqjoind` — the standalone encrypted equi-join server.
//!
//! Serves the `eqjoin` wire protocol (length-framed request/response
//! messages) over TCP. Clients connect with `eqjoin::session_remote`
//! (or `RemoteBackend` directly) and upload encrypted tables, then run
//! join series — the server only ever sees ciphertexts, tokens, and
//! the equality pattern the paper proves is the unavoidable leakage.
//!
//! One connection layer (`eqjoind-net`): an event-driven epoll reactor
//! plus a fixed worker pool — non-blocking I/O for every socket,
//! per-tenant isolated stores, admission control with typed overload
//! errors, and graceful drain on SIGTERM (stop accepting, finish
//! in-flight requests, flush snapshots, exit 0). The daemon runs on
//! x86-64 Linux; clients are portable.
//!
//! ```sh
//! eqjoind                                  # BLS12-381 on 127.0.0.1:4747
//! eqjoind --listen 0.0.0.0:4747 --workers 8
//! eqjoind --engine mock                    # mock engine (tests/benches)
//! eqjoind --data-dir /var/lib/eqjoin       # persistent: restart warm
//! eqjoind --tenants a,b                    # allow-listed tenants
//! eqjoind --metrics-addr 127.0.0.1:9100    # Prometheus scrape surface
//! eqjoind --log-level info                 # JSONL lifecycle events
//! ```
//!
//! With `--data-dir`, the server snapshots its store — encrypted
//! tables and the decrypt cache; prepared pairing state is rebuilt on
//! first use — after every state change, and loads the snapshot back on
//! startup: a query series that outlives the process resumes with zero
//! fresh Miller loops for repeated joins. Tenant namespaces snapshot
//! separately under `DIR/tenants/<name>/`.
//!
//! The engine must match the clients' — the wire codec validates group
//! elements under the engine it is given, so a mock client cannot talk
//! to a BLS server (and a snapshot written under one engine is rejected
//! by the other).

#![forbid(unsafe_code)]

use eqjoin_db::ServerApi;
use eqjoin_pairing::{Bls12, Engine, MockEngine};
use eqjoind_net::{NetConfig, NetServer, TenantRegistry};
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    listen: String,
    engine: String,
    threads: usize,
    workers: usize,
    max_inflight: usize,
    queue_depth: usize,
    io_timeout: u64,
    tenants: Option<Vec<String>>,
    data_dir: Option<String>,
    decrypt_cache_cap: Option<usize>,
    compaction_threshold: u64,
    metrics_addr: Option<String>,
    log_level: eqjoin_obs::Level,
}

const USAGE: &str = "\
usage: eqjoind [--listen ADDR] [--engine bls|mock] [--threads T] [--workers W]
               [--max-inflight N] [--queue-depth N] [--io-timeout SECS]
               [--tenants A,B,..] [--data-dir DIR] [--decrypt-cache-cap N]
               [--compaction-threshold BYTES]
               [--metrics-addr ADDR] [--log-level off|info|debug]

--listen ADDR           bind address (default 127.0.0.1:4747; port 0 picks one)
--engine NAME           pairing engine, must match clients (default bls)
--threads T             decrypt workers every join runs on; a request
                        names no thread count (default: one per
                        available core)
--workers W             request-executing worker threads behind the
                        reactor (default: one per available core)
--max-inflight N        per-tenant cap on admitted requests (0 = unlimited;
                        default 64); beyond it requests are refused with a
                        typed 'overloaded' error
--queue-depth N         global cap on admitted requests (0 = unlimited;
                        default 256)
--io-timeout SECS       close a connection idle for SECS seconds (0 = never;
                        default 30); in-flight joins are never cut short
--tenants A,B,..        allow-list of tenant namespaces (default: any
                        well-formed tenant name materializes on first use)
--data-dir DIR          persist the store (tables + decrypt cache) under
                        DIR and restart warm from it;
                        tenants snapshot under DIR/tenants/<name>/
--decrypt-cache-cap N   decrypt-cache entries kept per store, N >= 1
                        (default 64); evicts the fewest uses x rows, uses
                        halved every 10 x N lookups
--compaction-threshold BYTES
                        O(delta) persistence: keep appending to the
                        fsynced mutation journal and rewrite the full
                        snapshot only once the journal exceeds BYTES
                        (0 = rewrite after every mutation, the default;
                        drain always compacts)
--metrics-addr ADDR     also serve a read-only Prometheus text exposition
                        on ADDR (port 0 picks one) — latency histograms,
                        throughput counters, the leakage ledger summary,
                        build/uptime info
--log-level LEVEL       JSONL log events to stderr: 'off' (default), 'info'
                        (connections, admission rejections, drain,
                        snapshot flushes), or 'debug' (adds one trace
                        event per completed span)

SIGTERM (or a client's Drain request) drains: stop accepting, finish
admitted requests, flush snapshots, exit 0.";

/// A bad command line: usage on stderr, exit 2.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        listen: "127.0.0.1:4747".to_owned(),
        engine: "bls".to_owned(),
        threads: 0,
        workers: 0,
        max_inflight: 64,
        queue_depth: 256,
        io_timeout: 30,
        tenants: None,
        data_dir: None,
        decrypt_cache_cap: None,
        compaction_threshold: 0,
        metrics_addr: None,
        log_level: eqjoin_obs::Level::Off,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| usage_for(name));
        match flag.as_str() {
            "--listen" => options.listen = value("--listen"),
            "--engine" => options.engine = value("--engine"),
            "--threads" => {
                options.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| usage_for("--threads"))
            }
            "--workers" => {
                options.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| usage_for("--workers"))
            }
            "--max-inflight" => {
                options.max_inflight = value("--max-inflight")
                    .parse()
                    .unwrap_or_else(|_| usage_for("--max-inflight"))
            }
            "--queue-depth" => {
                options.queue_depth = value("--queue-depth")
                    .parse()
                    .unwrap_or_else(|_| usage_for("--queue-depth"))
            }
            "--io-timeout" => {
                options.io_timeout = value("--io-timeout")
                    .parse()
                    .unwrap_or_else(|_| usage_for("--io-timeout"))
            }
            "--tenants" => {
                options.tenants = Some(
                    value("--tenants")
                        .split(',')
                        .filter(|t| !t.is_empty())
                        .map(str::to_owned)
                        .collect(),
                )
            }
            "--data-dir" => options.data_dir = Some(value("--data-dir")),
            "--compaction-threshold" => {
                options.compaction_threshold = value("--compaction-threshold")
                    .parse()
                    .unwrap_or_else(|_| usage_for("--compaction-threshold"))
            }
            "--metrics-addr" => options.metrics_addr = Some(value("--metrics-addr")),
            "--log-level" => {
                options.log_level = value("--log-level")
                    .parse::<eqjoin_obs::Level>()
                    .unwrap_or_else(|e: String| bad_value("--log-level", &e))
            }
            "--decrypt-cache-cap" => {
                let cap: usize = value("--decrypt-cache-cap")
                    .parse()
                    .unwrap_or_else(|_| usage_for("--decrypt-cache-cap"));
                if cap == 0 {
                    bad_value("--decrypt-cache-cap", "N must be at least 1");
                }
                options.decrypt_cache_cap = Some(cap);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            _ => usage(),
        }
    }
    options
}

fn usage_for(flag: &str) -> ! {
    eprintln!("eqjoind: {flag} needs a value");
    usage()
}

fn bad_value(flag: &str, why: &str) -> ! {
    eprintln!("eqjoind: {flag}: {why}");
    usage()
}

/// The multi-tenant backend the reactor serves: per-tenant
/// isolated stores (persistent under `data_dir/tenants/<name>/` when
/// `--data-dir` is set), tenantless requests in the default namespace
/// at the pre-tenant snapshot path.
fn tenant_registry<E: Engine>(options: &Options) -> Result<TenantRegistry<E>, eqjoin_db::DbError> {
    let threads = (options.threads > 0).then_some(options.threads);
    match &options.data_dir {
        Some(dir) => TenantRegistry::with_persistence(
            std::path::PathBuf::from(dir),
            threads,
            options.decrypt_cache_cap,
            options.compaction_threshold,
            options.tenants.clone(),
        ),
        None => Ok(TenantRegistry::new(
            threads,
            options.decrypt_cache_cap,
            options.tenants.clone(),
        )),
    }
}

fn banner(addr: std::net::SocketAddr, engine: &str, options: &Options) {
    eprintln!(
        "eqjoind: listening on {addr} (engine {engine}{}{})",
        match &options.data_dir {
            Some(dir) => format!(", persistent in {dir}"),
            None => String::new(),
        },
        match &options.tenants {
            Some(tenants) => format!(", tenants {}", tenants.join(",")),
            None => String::new(),
        },
    );
}

/// Start the `--metrics-addr` scrape listener (if asked for). The
/// returned handle must stay alive for the process lifetime; a failed
/// bind is fatal — the operator asked for a scrape surface and
/// silently not having one defeats the point.
fn start_observability(options: &Options) -> Result<Option<eqjoin_obs::MetricsServer>, ExitCode> {
    let Some(addr) = &options.metrics_addr else {
        return Ok(None);
    };
    match eqjoin_obs::MetricsServer::spawn(addr.as_str(), Arc::new(eqjoin_obs::exposition)) {
        Ok((bound, server)) => {
            eprintln!("eqjoind: metrics on http://{bound}/metrics");
            Ok(Some(server))
        }
        Err(e) => {
            eprintln!("eqjoind: metrics bind {addr}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn run<E: Engine>(options: &Options) -> ExitCode {
    let backend = match tenant_registry::<E>(options) {
        Ok(registry) => Arc::new(registry) as Arc<dyn ServerApi<E>>,
        Err(e) => {
            eprintln!("eqjoind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match NetServer::bind(options.listen.as_str()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("eqjoind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => banner(addr, E::NAME, options),
        Err(e) => eprintln!("eqjoind: {e}"),
    }
    // Block SIGTERM *before* any helper thread exists: threads inherit
    // the mask, so the signal can only surface through the reactor's
    // signalfd. Spawning the metrics listener first would leave it an
    // unmasked delivery target and SIGTERM would kill the process
    // instead of draining it. (The reactor re-blocks; idempotent.)
    if let Err(e) = eqjoind_net::sys::block_sigterm() {
        eprintln!("eqjoind: sigprocmask: {e}");
        return ExitCode::FAILURE;
    }
    let _metrics = match start_observability(options) {
        Ok(metrics) => metrics,
        Err(code) => return code,
    };
    let config = NetConfig {
        workers: options.workers,
        max_inflight: options.max_inflight,
        queue_depth: options.queue_depth,
        handle_sigterm: true,
        // `--io-timeout 0` disables the idle deadline.
        io_timeout: (options.io_timeout > 0)
            .then(|| std::time::Duration::from_secs(options.io_timeout)),
    };
    match server.serve(backend, config) {
        Ok(()) => {
            eprintln!("eqjoind: drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eqjoind: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let options = parse_options();
    eqjoin_obs::init_start_time();
    eqjoin_obs::set_log_level(options.log_level);
    match options.engine.as_str() {
        "bls" => run::<Bls12>(&options),
        "mock" => run::<MockEngine>(&options),
        other => {
            eprintln!("eqjoind: unknown engine {other:?} (use 'bls' or 'mock')");
            ExitCode::FAILURE
        }
    }
}
