//! A tenant's client side. `Session` is not `Send`, so each tenant
//! lives on a thread of its own — session, link, the row ids it has
//! minted — and the main thread drives it phase by phase. Both tenants
//! of `skewed_mix` get each command back to back, so their phases
//! overlap the way two independent closed-loop callers would.

use crate::inputs::sorted;
use crate::layers::{self, Codec};
use crate::reference;
use crate::report::median;
use crate::stack::{ingest, open_session, Link};
use crate::trace::Recorder;
use crate::workloads::{Op, Phase, Program};
use eqjoin_db::{ServerStats, Session};
use eqjoin_pairing::Engine;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What running a list of ops produced.
#[derive(Default)]
pub struct Tally {
    pub wall: Duration,
    pub query_ms: Vec<f64>,
    pub mutation_ms: Vec<f64>,
    /// Wire bytes of the query ops, framing included.
    pub query_bytes_sent: u64,
    pub query_bytes_received: u64,
    pub mutation_bytes_sent: u64,
    pub attempted: u64,
    pub failed: u64,
    pub server: ServerStats,
    pub first_error: Option<String>,
}

impl Tally {
    /// Merge a tally that ran beside (not after) this one.
    pub fn absorb(&mut self, other: Tally) {
        self.wall = self.wall.max(other.wall);
        self.query_ms.extend(other.query_ms);
        self.mutation_ms.extend(other.mutation_ms);
        self.query_bytes_sent += other.query_bytes_sent;
        self.query_bytes_received += other.query_bytes_received;
        self.mutation_bytes_sent += other.mutation_bytes_sent;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.server.merge(&other.server);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// What lives on the tenant's thread.
struct Client<E: Engine> {
    session: Session<E>,
    link: Arc<Link<E>>,
    next_row: u64,
    live: VecDeque<Vec<u64>>,
}

/// Run one `Session` call under a span of that name; returns what it
/// returned and the milliseconds it took.
fn timed<T>(recorder: Option<&Recorder>, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
    let span = recorder.and_then(|r| r.span(name));
    let started = Instant::now();
    let result = call();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(span) = span {
        span.end(0);
    }
    (result, ms)
}

fn run_ops<E: Engine>(
    client: &mut Client<E>,
    program: &Program,
    ops: &[Op],
    recorder: Option<&Recorder>,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    for op in ops {
        tally.attempted += 1;
        match op {
            Op::Query { q, expected } => {
                let wire = client.link.stats();
                let (result, ms) = timed(recorder, "session.execute", || {
                    client.session.execute(&program.queries[*q].plan)
                });
                tally.query_ms.push(ms);
                let now = client.link.stats();
                tally.query_bytes_sent += now.bytes_sent - wire.bytes_sent;
                tally.query_bytes_received += now.bytes_received - wire.bytes_received;
                match result {
                    Ok(result) => {
                        tally.server.merge(&result.stats);
                        let got = sorted(result.rows);
                        if got != *expected {
                            tally.fail(format!(
                                "{} query {q}: {} rows, the oracle has {}",
                                program.tenant,
                                got.len(),
                                expected.len()
                            ));
                        }
                    }
                    Err(e) => tally.fail(format!("{} query {q}: {e}", program.tenant)),
                }
            }
            Op::Insert { rows } => {
                let sent = client.link.stats().bytes_sent;
                let (result, ms) = timed(recorder, "session.insert_rows", || {
                    client.session.insert_rows("Orders", rows)
                });
                tally.mutation_ms.push(ms);
                tally.mutation_bytes_sent += client.link.stats().bytes_sent - sent;
                // The client mints row ids in order, acked or not.
                let ids = (client.next_row..client.next_row + rows.len() as u64).collect();
                client.next_row += rows.len() as u64;
                client.live.push_back(ids);
                match result {
                    Ok(n) if n == rows.len() => {}
                    Ok(n) => tally.fail(format!("insert acked {n} of {} rows", rows.len())),
                    Err(e) => tally.fail(format!("{} insert: {e}", program.tenant)),
                }
            }
            Op::Delete => {
                let ids = client
                    .live
                    .pop_front()
                    .expect("a delete follows its insert");
                let sent = client.link.stats().bytes_sent;
                let (result, ms) = timed(recorder, "session.delete_rows", || {
                    client.session.delete_rows("Orders", &ids)
                });
                tally.mutation_ms.push(ms);
                tally.mutation_bytes_sent += client.link.stats().bytes_sent - sent;
                match result {
                    Ok(n) if n == ids.len() => {}
                    Ok(n) => tally.fail(format!("delete acked {n} of {} rows", ids.len())),
                    Err(e) => tally.fail(format!("{} delete: {e}", program.tenant)),
                }
            }
        }
    }
    tally.wall = started.elapsed();
    tally
}

/// Counters a session and its link keep, as plain numbers so that
/// cycles and tenants add up.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub tkgen_calls: u64,
    pub rows_encrypted: u64,
    pub column_decrypts: u64,
    pub column_decrypts_skipped: u64,
    pub token_cache_hits: u64,
    pub token_cache_misses: u64,
    pub round_trips: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub retries: u64,
}

impl Counters {
    pub fn each(&mut self, other: &Counters, f: impl Fn(u64, u64) -> u64) {
        let pairs: [(&mut u64, u64); 10] = [
            (&mut self.tkgen_calls, other.tkgen_calls),
            (&mut self.rows_encrypted, other.rows_encrypted),
            (&mut self.column_decrypts, other.column_decrypts),
            (
                &mut self.column_decrypts_skipped,
                other.column_decrypts_skipped,
            ),
            (&mut self.token_cache_hits, other.token_cache_hits),
            (&mut self.token_cache_misses, other.token_cache_misses),
            (&mut self.round_trips, other.round_trips),
            (&mut self.bytes_sent, other.bytes_sent),
            (&mut self.bytes_received, other.bytes_received),
            (&mut self.retries, other.retries),
        ];
        for (mine, theirs) in pairs {
            *mine = f(*mine, theirs);
        }
    }
}

/// What a tenant thread reports about its session between phases.
pub struct Inspection {
    pub counters: Counters,
    pub leakage_within_bound: bool,
    pub leakage_report_us: f64,
    /// Filled by a full inspection (traced run) only.
    pub prepare_us: f64,
    pub ping_rtt_us: f64,
    /// `None` when the link kept no exchange since the last replay.
    pub codec: Option<Codec>,
}

fn inspect<E: Engine>(client: &mut Client<E>, program: &Program, full: bool) -> Inspection {
    // Counters first: the pings below are round trips too.
    let (session, wire) = (client.session.stats(), client.link.stats());
    let t = Instant::now();
    let report = client.session.leakage_report();
    let leakage_report_us = t.elapsed().as_secs_f64() * 1e6;
    let (mut prepare_us, mut ping_rtt_us, mut codec) = (0.0, 0.0, None);
    if full {
        let prepares: Vec<f64> = program
            .queries
            .iter()
            .map(|q| {
                let t = Instant::now();
                let _ = std::hint::black_box(client.session.prepare(&q.plan));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        prepare_us = median(&prepares);
        let pings: Vec<f64> = (0..100)
            .map(|_| client.link.ping().as_secs_f64() * 1e6)
            .collect();
        ping_rtt_us = median(&pings);
        let kept = client.link.take_kept();
        if !kept.is_empty() {
            codec = Some(layers::codec_replay(&kept));
        }
    }
    Inspection {
        counters: Counters {
            tkgen_calls: session.client.tkgen_calls,
            rows_encrypted: session.client.rows_encrypted,
            column_decrypts: session.client.column_decrypts,
            column_decrypts_skipped: session.client.column_decrypts_skipped,
            token_cache_hits: session.token_cache_hits,
            token_cache_misses: session.token_cache_misses,
            round_trips: wire.round_trips,
            bytes_sent: wire.bytes_sent,
            bytes_received: wire.bytes_received,
            retries: wire.retries,
        },
        leakage_within_bound: report.within_bound,
        leakage_report_us,
        prepare_us,
        ping_rtt_us,
        codec,
    }
}

enum Cmd {
    /// Time the reference work on this thread.
    Slowdown,
    /// Connect, open the session, load the tables, run the program's
    /// `warm` queries.
    SetUp(SocketAddr),
    Run(Phase),
    /// Talk to the restarted server at this address from now on.
    Repoint(SocketAddr),
    Inspect {
        full: bool,
    },
}

enum Reply {
    Slowdown(f64),
    /// Time from the first plaintext row to the last ack, and the
    /// bytes sent by then: the ciphertext of the load.
    SetUp(Duration, u64),
    Ran(Tally),
    Repointed,
    Inspected(Box<Inspection>),
    Failed(String),
}

/// A tenant's thread and the channels that drive it.
pub struct Worker {
    tx: Option<Sender<Cmd>>,
    rx: Receiver<Reply>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    pub fn spawn<E: Engine>(program: Arc<Program>, recorder: Option<Arc<Recorder>>) -> Worker {
        let (tx, cmd_rx) = channel::<Cmd>();
        let (reply_tx, rx) = channel::<Reply>();
        let thread = std::thread::spawn(move || {
            let mut client: Option<Client<E>> = None;
            // Ends when the main thread drops its sender.
            for cmd in cmd_rx {
                let reply = match (cmd, client.as_mut()) {
                    (Cmd::Slowdown, _) => Reply::Slowdown(reference::slowdown()),
                    (Cmd::SetUp(addr), _) => match connect(&program, addr, recorder.clone()) {
                        Ok((fresh, ingest, sent)) => {
                            client = Some(fresh);
                            Reply::SetUp(ingest, sent)
                        }
                        Err(e) => Reply::Failed(e),
                    },
                    (_, None) => Reply::Failed("tenant is not set up".into()),
                    (Cmd::Run(phase), Some(c)) => Reply::Ran(run_ops(
                        c,
                        &program,
                        program.phase(phase),
                        recorder.as_deref(),
                    )),
                    (Cmd::Repoint(addr), Some(c)) => match c.link.repoint(addr) {
                        Ok(()) => Reply::Repointed,
                        Err(e) => Reply::Failed(e),
                    },
                    (Cmd::Inspect { full }, Some(c)) => {
                        Reply::Inspected(Box::new(inspect(c, &program, full)))
                    }
                };
                if reply_tx.send(reply).is_err() {
                    break;
                }
            }
        });
        Worker {
            tx: Some(tx),
            rx,
            thread: Some(thread),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn connect<E: Engine>(
    program: &Program,
    addr: SocketAddr,
    recorder: Option<Arc<Recorder>>,
) -> Result<(Client<E>, Duration, u64), String> {
    let link = Link::connect(addr, recorder)?;
    let mut session = open_session(&link, &program.tenant, program.seed, program.token_cache)?;
    let ingest = ingest(&mut session, &program.tables)?;
    let sent = link.stats().bytes_sent;
    let mut client = Client {
        session,
        link,
        next_row: program.tables.orders.len() as u64,
        live: VecDeque::new(),
    };
    match run_ops(&mut client, program, &program.warm, None).first_error {
        Some(e) => Err(format!("warm-up: {e}")),
        None => Ok((client, ingest, sent)),
    }
}

/// Send every tenant the same command, then collect every reply.
fn all(workers: &[Worker], cmd: impl Fn() -> Cmd) -> Result<Vec<Reply>, String> {
    let gone = || "tenant thread is gone".to_owned();
    for w in workers {
        w.tx.as_ref()
            .ok_or_else(gone)?
            .send(cmd())
            .map_err(|_| gone())?;
    }
    workers
        .iter()
        .map(|w| match w.rx.recv() {
            Ok(Reply::Failed(e)) => Err(e),
            Ok(reply) => Ok(reply),
            Err(_) => Err(gone()),
        })
        .collect()
}

/// The machine's slowdown right now (see [`crate::reference`]), taken
/// on every tenant's thread at once — as many busy threads as the
/// workload keeps — and averaged.
pub fn slowdown_all(workers: &[Worker]) -> Result<f64, String> {
    let replies = all(workers, || Cmd::Slowdown)?;
    let sum: f64 = replies
        .iter()
        .map(|reply| match reply {
            Reply::Slowdown(s) => *s,
            _ => 0.0,
        })
        .sum();
    Ok(sum / replies.len() as f64)
}

/// Connect every tenant to the server at `addr`, load its tables and
/// warm what the workload says is warm. Returns the longest load (first
/// plaintext row to last ack) and the bytes the loads sent.
pub fn set_up_all(workers: &[Worker], addr: SocketAddr) -> Result<(Duration, u64), String> {
    let (mut ingest, mut sent) = (Duration::ZERO, 0);
    for reply in all(workers, || Cmd::SetUp(addr))? {
        if let Reply::SetUp(took, bytes) = reply {
            ingest = ingest.max(took);
            sent += bytes;
        }
    }
    Ok((ingest, sent))
}

/// Have every tenant talk to the (restarted) server at `addr`.
pub fn repoint_all(workers: &[Worker], addr: SocketAddr) -> Result<(), String> {
    all(workers, || Cmd::Repoint(addr)).map(|_| ())
}

pub fn run_phase(workers: &[Worker], phase: Phase) -> Result<Tally, String> {
    let started = Instant::now();
    let mut total = Tally::default();
    for reply in all(workers, || Cmd::Run(phase))? {
        if let Reply::Ran(tally) = reply {
            total.absorb(tally);
        }
    }
    total.wall = started.elapsed();
    Ok(total)
}

pub fn inspect_all(workers: &[Worker], full: bool) -> Result<Vec<Inspection>, String> {
    Ok(all(workers, || Cmd::Inspect { full })?
        .into_iter()
        .filter_map(|r| match r {
            Reply::Inspected(i) => Some(*i),
            _ => None,
        })
        .collect())
}

pub fn total(inspections: &[Inspection]) -> Counters {
    let mut sum = Counters::default();
    for i in inspections {
        sum.each(&i.counters, |a, b| a + b);
    }
    sum
}
