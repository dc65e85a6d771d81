//! The loop that measures a workload and the metrics it adds up to.
//!
//! Every workload runs the same skeleton against the same stack (see
//! [`crate::stack`]): set up (start a persistent server, load each
//! tenant's tables), run one unmeasured cycle, take the crash copy of
//! the data directory, repeat the cycle in a closed loop for
//! `--seconds`, then restart from copies of the crash copy. Work per
//! cycle is a fixed count; only the number of cycles depends on the
//! clock. Every timed section has the machine's slowdown taken before
//! and after it (see [`crate::reference`]).

use crate::layers::{self, Codec, DirectCalls, Effort, UnitCosts, INNER_DIM};
use crate::report::{median, peak_rss_mb, percentile, Metrics, Outcome};
use crate::stack::{copy_dir, dir_bytes, remove_dir, scratch_dir, Server, POOL_THREADS};
use crate::tenant::{
    inspect_all, repoint_all, run_phase, set_up_all, slowdown_all, total, Counters, Inspection,
    Tally, Worker,
};
use crate::trace::{self, Recorder};
use crate::workloads::{program, Kind, Phase, Program};
use eqjoin_pairing::{ops, Engine, OpCounts};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUPS: usize = 3;
const RESTARTS: usize = 3;

/// A set-up stack: one thread per tenant and the server.
struct Stack {
    // Declared (so dropped) first: tenants quit before the server stops.
    workers: Vec<Worker>,
    server: Server,
}

/// Seconds or milliseconds as measured, and the machine's slowdown
/// while they were.
#[derive(Clone, Copy)]
struct Timed {
    raw: f64,
    slowdown: f64,
}

impl Timed {
    /// What the quiet reference box would have shown.
    fn at_reference_speed(self) -> f64 {
        self.raw / self.slowdown
    }
}

/// Run a section with the machine's slowdown taken before and after.
fn paced<T>(
    workers: &[Worker],
    section: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let before = slowdown_all(workers)?;
    let out = section()?;
    Ok((out, (before + slowdown_all(workers)?) / 2.0))
}

struct SetUpTimes {
    total: Timed,
    ingest_s: f64,
    /// Bytes the tenants sent to load their tables.
    ingest_bytes: u64,
}

fn set_up<E: Engine>(
    kind: Kind,
    programs: &[Arc<Program>],
    recorder: &Option<Arc<Recorder>>,
) -> Result<(Stack, SetUpTimes), String> {
    let workers: Vec<Worker> = programs
        .iter()
        .map(|p| Worker::spawn::<E>(Arc::clone(p), recorder.clone()))
        .collect();
    let ((server, raw, ingest, ingest_bytes), slowdown) = paced(&workers, || {
        let started = Instant::now();
        let server = Server::start::<E>(scratch_dir(kind.name())?)?;
        let (ingest, ingest_bytes) = set_up_all(&workers, server.addr)?;
        Ok((
            server,
            started.elapsed().as_secs_f64(),
            ingest,
            ingest_bytes,
        ))
    })?;
    let times = SetUpTimes {
        total: Timed { raw, slowdown },
        ingest_s: ingest.as_secs_f64(),
        ingest_bytes,
    };
    Ok((Stack { workers, server }, times))
}

/// Stop a server the way a crash would and delete its directory.
fn discard(server: Server) -> Result<(), String> {
    let dir = server.dir.clone();
    let crashed = server.crash();
    remove_dir(&dir);
    crashed
}

/// Counters the program exports process-wide, read at cycle
/// boundaries.
#[derive(Clone, Copy, Default)]
struct Exported {
    ops: OpCounts,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    equality_classes: u64,
    overload_rejections: u64,
    tkgen_ns: u64,
    tenant_request_ns: u64,
}

fn exported(programs: &[Arc<Program>]) -> Exported {
    let registry = eqjoin_obs::registry();
    let counter = |name: &str| registry.counter_value(name, None);
    let per_tenant = |f: &dyn Fn(&str) -> u64| programs.iter().map(|p| f(&p.tenant)).sum::<u64>();
    Exported {
        ops: ops::snapshot(),
        cache_hits: counter("eqjoin_store_decrypt_cache_hits_total"),
        cache_misses: counter("eqjoin_store_decrypt_cache_misses_total"),
        cache_evictions: counter("eqjoin_store_decrypt_cache_evictions_total"),
        equality_classes: counter("eqjoin_leakage_equality_classes_total"),
        overload_rejections: per_tenant(&|t| {
            registry.counter_value("eqjoin_net_overload_rejections_total", Some(("tenant", t)))
        }),
        tkgen_ns: registry
            .histogram("eqjoin_client_tkgen_seconds")
            .snapshot()
            .sum_ns,
        tenant_request_ns: per_tenant(&|t| {
            registry
                .histogram_labeled("eqjoin_tenant_request_seconds", Some(("tenant", t)))
                .snapshot()
                .sum_ns
        }),
    }
}

/// One measured cycle as the end-to-end metrics see it.
struct Cycle {
    wall_s: Timed,
    queries: usize,
    /// Percentiles of this cycle's query latencies, as measured.
    p50_ms: f64,
    p90_ms: f64,
}

/// What the measured cycles of a run add up to.
#[derive(Default)]
struct Measured {
    cycles: Vec<Cycle>,
    /// Wall seconds of the recorded and the unrecorded cycles apart
    /// (the traced run alternates).
    recorded_wall_s: Vec<f64>,
    unrecorded_wall_s: Vec<f64>,
    setup_s: Vec<Timed>,
    /// First plaintext row to last ack of each set-up's load.
    ingest_s: Vec<f64>,
    restart_s: Vec<Timed>,
    stored_bytes_per_row: Vec<f64>,
    journal_bytes: Vec<f64>,
    /// Bytes on disk at the crash copy ÷ bytes the loads and mutations
    /// had put on the wire by then.
    write_amp: Vec<f64>,
    peak_rss_mb: f64,
    tally: Tally,
    counters: Counters,
    /// From the last full inspection that had them.
    prepare_us: f64,
    ping_rtt_us: f64,
    leakage_report_us: f64,
    codec: Option<Codec>,
    notes: Vec<String>,
}

impl Measured {
    /// Book a measured cycle: its operations, failures and stats.
    fn book(&mut self, tally: Tally, slowdown: f64, recorded: bool) {
        let wall_s = tally.wall.as_secs_f64();
        self.cycles.push(Cycle {
            wall_s: Timed {
                raw: wall_s,
                slowdown,
            },
            queries: tally.query_ms.len(),
            p50_ms: percentile(&tally.query_ms, 0.5),
            p90_ms: percentile(&tally.query_ms, 0.9),
        });
        if recorded {
            self.recorded_wall_s.push(wall_s);
        } else {
            self.unrecorded_wall_s.push(wall_s);
        }
        self.notes.extend(tally.first_error.clone());
        self.tally.absorb(tally);
        if self.cycles.len() == 1 {
            // After a fixed amount of work, so that the number does
            // not grow with how many cycles the clock allowed.
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    /// Book an unmeasured phase: it counts for correctness only.
    fn book_unmeasured(&mut self, tally: &Tally) {
        self.tally.attempted += tally.attempted;
        self.tally.failed += tally.failed;
        self.notes.extend(tally.first_error.clone());
    }

    /// Book the tenants' state when everything is over: the leakage
    /// verdict (a report outside its bound is a failed operation) and
    /// what only a full inspection measures.
    fn book_final(&mut self, inspections: &[Inspection]) {
        for i in inspections {
            self.tally.attempted += 1;
            if !i.leakage_within_bound {
                self.tally.fail("leakage report outside its bound".into());
            }
        }
        let med =
            |f: &dyn Fn(&Inspection) -> f64| median(&inspections.iter().map(f).collect::<Vec<_>>());
        self.leakage_report_us = med(&|i| i.leakage_report_us);
        if let Some(codec) = inspections.iter().find_map(|i| i.codec) {
            self.prepare_us = med(&|i| i.prepare_us);
            self.ping_rtt_us = med(&|i| i.ping_rtt_us);
            self.codec = Some(codec);
        }
    }

    /// The crash copy of `dir`: what is on disk after the last ack,
    /// nothing flushed for the occasion. `received` is what the
    /// loads and mutations so far put on the wire.
    fn crash_copy(
        &mut self,
        dir: &std::path::Path,
        rows: usize,
        received: u64,
    ) -> Result<PathBuf, String> {
        let copy = scratch_dir("crash")?;
        copy_dir(dir, &copy)?;
        let (stored, journal) = dir_bytes(&copy);
        self.stored_bytes_per_row.push(stored as f64 / rows as f64);
        self.journal_bytes.push(journal as f64);
        self.write_amp.push(stored as f64 / received.max(1) as f64);
        Ok(copy)
    }
}

struct Run<'a> {
    kind: Kind,
    programs: &'a [Arc<Program>],
    recorder: &'a Option<Arc<Recorder>>,
    budget: Duration,
    min_cycles: usize,
    /// The traced and the smoke run set up and restart once.
    repeats: bool,
}

impl Run<'_> {
    fn record(&self, on: bool) {
        if let Some(r) = self.recorder {
            r.set_enabled(on);
        }
    }

    /// The traced run records every second cycle.
    fn record_next_cycle(&self, m: &Measured) -> bool {
        let on = self.recorder.is_some() && m.cycles.len() % 2 == 1;
        self.record(on);
        on
    }

    /// `n` set-ups or restarts, or just one.
    fn repeats(&self, n: usize) -> usize {
        if self.repeats {
            n
        } else {
            1
        }
    }

    fn rows(&self) -> usize {
        self.programs.iter().map(|p| p.tables.rows()).sum()
    }

    /// The skeleton every workload runs; returns the exported counters
    /// before and after the measured cycles.
    fn query_workload<E: Engine>(&self, m: &mut Measured) -> Result<(Exported, Exported), String> {
        let rows = self.rows();
        let (mut stack, mut ingest_bytes) = (None, 0);
        for _ in 0..self.repeats(SETUPS) {
            if let Some(Stack { workers, server }) = stack.take() {
                drop(workers);
                discard(server)?;
            }
            let (fresh, times) = set_up::<E>(self.kind, self.programs, self.recorder)?;
            m.setup_s.push(times.total);
            m.ingest_s.push(times.ingest_s);
            ingest_bytes = times.ingest_bytes;
            stack = Some(fresh);
        }
        let Stack { workers, server } = stack.expect("at least one set-up");

        // Unmeasured cycles fill the caches and, on `skewed_mix`, bring
        // the LRU into the state every later cycle starts from.
        let mut warm_up_bytes = 0;
        for _ in 0..self.kind.warm_up_cycles() {
            let warm_up = run_phase(&workers, Phase::Cycle)?;
            m.book_unmeasured(&warm_up);
            warm_up_bytes += warm_up.mutation_bytes_sent;
        }
        // The crash copy is taken here, after a fixed amount of work:
        // taken after the timed cycles, its journal — and so the
        // restart — would grow with however many cycles the clock
        // allowed.
        let received = ingest_bytes + warm_up_bytes;
        let crash = m.crash_copy(&server.dir, rows, received)?;

        let first = total(&inspect_all(&workers, false)?);
        let before = exported(self.programs);
        let started = Instant::now();
        let mut slow_before = slowdown_all(&workers)?;
        while started.elapsed() < self.budget || m.cycles.len() < self.min_cycles {
            let recorded = self.record_next_cycle(m);
            let tally = run_phase(&workers, Phase::Cycle)?;
            let slow_after = slowdown_all(&workers)?;
            m.book(tally, (slow_before + slow_after) / 2.0, recorded);
            slow_before = slow_after;
        }
        self.record(false);
        let after = exported(self.programs);
        let last = inspect_all(&workers, self.recorder.is_some())?;
        m.counters = total(&last);
        m.counters.each(&first, |a, b| a - b);
        m.book_final(&last);
        discard(server)?;

        for _ in 0..self.repeats(RESTARTS) {
            let dir = scratch_dir("restart")?;
            copy_dir(&crash, &dir)?;
            // Open data dir → every tenant has one correct answer.
            let ((server, check, restart_s), slowdown) = paced(&workers, || {
                let opened = Instant::now();
                let server = Server::start::<E>(dir)?;
                repoint_all(&workers, server.addr)?;
                let check = run_phase(&workers, Phase::Check)?;
                Ok((server, check, opened.elapsed().as_secs_f64()))
            })?;
            m.restart_s.push(Timed {
                raw: restart_s,
                slowdown,
            });
            m.book_unmeasured(&check);
            discard(server)?;
        }
        remove_dir(&crash);
        Ok((before, after))
    }
}

/// Run one workload and return its metrics: the end-to-end set when
/// `traced` is false, the per-layer set from a traced pass otherwise.
pub fn run<E: Engine>(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let programs: Vec<Arc<Program>> = (0..kind.tenants())
        .map(|t| Arc::new(program(kind, seed, t)))
        .collect();
    let recorder = traced.then(|| Arc::new(Recorder::new()));
    let run = Run {
        kind,
        programs: &programs,
        recorder: &recorder,
        budget: Duration::from_secs_f64(seconds),
        min_cycles: match (smoke, traced) {
            (true, _) => 2,
            (false, true) => 4,
            (false, false) => 3,
        },
        repeats: !(traced || smoke),
    };

    // The layers measured on their own, before the workload runs.
    let on_their_own = if traced {
        let dir = scratch_dir("direct")?;
        let direct = layers::direct_calls::<E>(&programs[0].tables, seed, &dir);
        remove_dir(&dir);
        Some((layers::calibrate::<E>(Effort::new(smoke)), direct?))
    } else {
        None
    };

    let mut m = Measured::default();
    let (before, after) = run.query_workload::<E>(&mut m)?;
    m.notes.push(format!(
        "{}: {} measured cycles, {} query samples, {} rows stored, {} thread(s) per pool",
        kind.name(),
        m.cycles.len(),
        m.tally.query_ms.len(),
        run.rows(),
        POOL_THREADS
    ));

    let metrics = match (&recorder, &on_their_own) {
        (Some(recorder), Some((costs, direct))) => {
            let spans = recorder.take();
            let path = PathBuf::from(".bench_data").join(format!("trace-{}.jsonl", kind.name()));
            trace::write_jsonl(&path, &spans)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            m.notes
                .push(format!("{} spans in {}", spans.len(), path.display()));
            per_layer(&m, run.rows(), costs, direct, &spans, &before, &after)?
        }
        _ => end_to_end(&mut m)?,
    };
    Ok(Outcome {
        attempted: m.tally.attempted,
        failed: m.tally.failed,
        metrics,
        notes: m.notes,
    })
}

fn end_to_end(m: &mut Measured) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let at_reference_speed =
        |times: &[Timed]| -> Vec<f64> { times.iter().map(|t| t.at_reference_speed()).collect() };
    let per_cycle =
        |value: &dyn Fn(&Cycle) -> f64| -> Vec<f64> { m.cycles.iter().map(value).collect() };
    let queries = m.tally.query_ms.len() as f64;

    // What the clock said, for the reader; the timings below are at the
    // reference box's quiet speed.
    let slowdowns = per_cycle(&|c| c.wall_s.slowdown);
    let note = format!(
        "as the clock had it: query p50 {:.3} ms, p90 {:.3} ms, {:.2} queries/s over the whole \
         run, set-up {:.3} s, restart {:.3} s; the machine took {:.2} times the reference time \
         (quartiles {:.2}-{:.2} over the cycles)",
        percentile(&m.tally.query_ms, 0.5),
        percentile(&m.tally.query_ms, 0.9),
        queries / per_cycle(&|c| c.wall_s.raw).iter().sum::<f64>(),
        median(&m.setup_s.iter().map(|t| t.raw).collect::<Vec<_>>()),
        median(&m.restart_s.iter().map(|t| t.raw).collect::<Vec<_>>()),
        median(&slowdowns),
        percentile(&slowdowns, 0.25),
        percentile(&slowdowns, 0.75),
    );

    let mut out = Metrics::end_to_end();
    // What a run repeats a fixed number of times (set-ups, restarts) is
    // the median of its repeats. A query metric is taken per cycle and
    // is the quartile of the cycles on the better side: three cycles in
    // four were no better. Whatever else the host runs only ever adds
    // to a time, and the slowdown is known least well when it is
    // largest, so the calmer cycles say most about the program; the
    // median over the cycles spreads twice as wide from run to run. A
    // quartile does not get better with the number of cycles the clock
    // allowed, as a minimum would.
    out.put("setup_s", median(&at_reference_speed(&m.setup_s)));
    out.put(
        "query_p50_ms",
        percentile(&per_cycle(&|c| c.p50_ms / c.wall_s.slowdown), 0.25),
    );
    out.put(
        "query_p90_ms",
        percentile(&per_cycle(&|c| c.p90_ms / c.wall_s.slowdown), 0.25),
    );
    out.put(
        "queries_per_s",
        percentile(
            &per_cycle(&|c| c.queries as f64 / c.wall_s.at_reference_speed()),
            0.75,
        ),
    );
    out.put(
        "wire_bytes_per_query",
        (m.tally.query_bytes_sent + m.tally.query_bytes_received) as f64 / queries,
    );
    out.put("restart_s", median(&at_reference_speed(&m.restart_s)));
    out.put("stored_bytes_per_row", median(&m.stored_bytes_per_row));
    out.put("peak_rss_mb", m.peak_rss_mb);
    m.notes.push(note);
    out.finish()
}

fn per_layer(
    m: &Measured,
    rows: usize,
    c: &UnitCosts,
    d: &DirectCalls,
    spans: &[trace::Span],
    before: &Exported,
    after: &Exported,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let cycles = m.cycles.len().max(1) as f64;
    let per_cycle = |count: u64| count as f64 / cycles;
    let ops = after.ops.since(&before.ops);
    let queries = m.tally.query_ms.len().max(1) as f64;
    let n = &m.counters;
    let mut out = Metrics::per_layer();

    out.put("pairing.fp_mul_ns", c.fp_mul_ns);
    out.put("pairing.fp12_mul_ns", c.fp12_mul_ns);
    out.put("pairing.cyclotomic_sq_ns", c.cyclotomic_sq_ns);
    out.put("pairing.miller_pair_us", c.miller_pair_us);
    out.put("pairing.final_exp_us", c.final_exp_us);
    out.put("pairing.final_exp_batch_us", c.final_exp_batch_us);
    out.put("pairing.g2_prepare_us", c.g2_prepare_us);
    out.put("pairing.g1_mul_gen_batch_us", c.g1_mul_gen_batch_us);
    out.put("pairing.g2_mul_gen_batch_us", c.g2_mul_gen_batch_us);
    out.put("pairing.miller_pairs", per_cycle(ops.miller_pairs));
    out.put("pairing.pairings", per_cycle(ops.pairings));
    out.put(
        "pairing.cyclotomic_squares",
        per_cycle(ops.cyclotomic_squares),
    );
    out.put(
        "pairing.batched_fixed_base_muls",
        per_cycle(ops.batched_fixed_base_muls),
    );
    out.put("pairing.g2_prepares", per_cycle(ops.g2_prepares));

    // The model, in caller-perceived seconds per cycle. `SJ.Dec` work
    // spreads over the decrypt threads, which the tenants share; the
    // rest is serial on some caller's path. Batched fixed-base muls
    // are G2 for the rows the clients encrypted and G1 (tokens)
    // otherwise.
    let decrypt_parallelism = POOL_THREADS as f64;
    let enc_muls = (n.rows_encrypted * INNER_DIM as u64).min(ops.batched_fixed_base_muls);
    let pairing_s = ((ops.miller_pairs as f64 * c.miller_pair_us
        + ops.pairings as f64 * c.final_exp_batch_us)
        / decrypt_parallelism
        + ops.g2_prepares as f64 * c.g2_prepare_us
        + enc_muls as f64 * c.g2_mul_gen_batch_us
        + (ops.batched_fixed_base_muls - enc_muls) as f64 * c.g1_mul_gen_batch_us)
        / 1e6
        / cycles;
    out.put("pairing.predicted_s", pairing_s);

    out.put("core.enc_row_us", c.enc_row_us);
    out.put("core.tkgen_us", c.tkgen_us);
    out.put("core.prepare_row_us", c.prepare_row_us);
    out.put("core.dec_row_us", c.dec_row_us);
    out.put("core.dec_many_row_us", c.dec_many_row_us);
    out.put("crypto.aead_open_ns_per_kib", c.aead_open_ns_per_kib);
    out.put("crypto.aead_seal_ns_per_kib", c.aead_seal_ns_per_kib);

    out.put("client.encrypt_rows_per_s", d.encrypt_rows_per_s);
    out.put("client.tkgen_calls", per_cycle(n.tkgen_calls));
    out.put(
        "client.tkgen_s",
        (after.tkgen_ns - before.tkgen_ns) as f64 / 1e9 / cycles,
    );
    out.put("client.column_decrypts", per_cycle(n.column_decrypts));
    out.put(
        "client.column_decrypts_skipped",
        per_cycle(n.column_decrypts_skipped),
    );

    // Spans exist for the recorded cycles only.
    let recorded = m.recorded_wall_s.len().max(1) as f64;
    let totals = trace::totals(spans);
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (execute, handle) = (span("session.execute"), span("backend.handle"));
    out.put(
        "session.execute_s",
        execute.total_ns as f64 / 1e9 / recorded,
    );
    out.put("session.self_s", execute.self_ns as f64 / 1e9 / recorded);
    out.put("session.prepare_us", m.prepare_us);
    out.put(
        "session.token_cache_hit_rate",
        n.token_cache_hits as f64 / (n.token_cache_hits + n.token_cache_misses).max(1) as f64,
    );
    out.put("session.query_samples", m.tally.query_ms.len() as f64);
    out.put("session.query_p99_ms", percentile(&m.tally.query_ms, 0.99));
    // First plaintext row to last ack of the load: client encryption,
    // wire, server decode, journal fsync, G2 prepare.
    let loads: Vec<f64> = m.ingest_s.iter().map(|s| rows as f64 / s).collect();
    out.put("session.ingest_rows_per_s", median(&loads));

    let codec = m.codec.unwrap_or_default();
    out.put("protocol.encode_ns_per_kib", codec.encode_ns_per_kib);
    out.put("protocol.decode_ns_per_kib", codec.decode_ns_per_kib);
    out.put(
        "protocol.request_bytes_per_query",
        m.tally.query_bytes_sent as f64 / queries,
    );
    out.put(
        "protocol.response_bytes_per_query",
        m.tally.query_bytes_received as f64 / queries,
    );

    out.put("backend.handle_s", handle.total_ns as f64 / 1e9 / recorded);
    out.put("backend.round_trips", per_cycle(n.round_trips));
    out.put("backend.bytes_sent", per_cycle(n.bytes_sent));
    out.put("backend.bytes_received", per_cycle(n.bytes_received));
    out.put("backend.retries", n.retries as f64);
    out.put("backend.ping_rtt_us", m.ping_rtt_us);

    // What a query's round trip costs beyond the server's own decrypt
    // and match time and the codec on both ends.
    let under_execute_ns = (execute.total_ns - execute.self_ns) as f64;
    out.put(
        "net.overhead_us_per_query",
        ((under_execute_ns - handle.server_ns as f64) / execute.count.max(1) as f64
            - codec.query_exchange_ns)
            / 1e3,
    );
    out.put(
        "net.overload_rejections",
        (after.overload_rejections - before.overload_rejections) as f64,
    );
    out.put(
        "net.tenant_request_s",
        (after.tenant_request_ns - before.tenant_request_ns) as f64 / 1e9 / cycles,
    );

    let server = &m.tally.server;
    let fresh_rows = after.cache_misses - before.cache_misses;
    let cache_hits = after.cache_hits - before.cache_hits;
    out.put(
        "server.decrypt_s",
        server.decrypt_time.as_secs_f64() / cycles,
    );
    out.put("server.match_s", server.match_time.as_secs_f64() / cycles);
    out.put(
        "server.rows_decrypted",
        per_cycle(server.rows_decrypted as u64),
    );
    out.put(
        "server.rows_prefiltered_out",
        per_cycle(server.rows_prefiltered_out as u64),
    );
    out.put("server.comparisons", per_cycle(server.comparisons));
    out.put(
        "server.matched_pairs",
        per_cycle(server.matched_pairs as u64),
    );
    // Per row that actually ran `SJ.Dec`; 0 when the cache served all.
    let ran_sj_dec = server.rows_decrypted as u64 - server.decrypt_cache_hits;
    out.put(
        "server.decrypt_us_per_row",
        match ran_sj_dec {
            0 => 0.0,
            rows => server.decrypt_time.as_secs_f64() * 1e6 / rows as f64,
        },
    );
    out.put("server.parallel_efficiency", d.parallel_efficiency);

    out.put("store.decrypt_cache_hits", per_cycle(cache_hits));
    out.put("store.decrypt_cache_misses", per_cycle(fresh_rows));
    out.put(
        "store.decrypt_cache_evictions",
        per_cycle(after.cache_evictions - before.cache_evictions),
    );
    out.put(
        "store.decrypt_cache_hit_rate",
        cache_hits as f64 / (cache_hits + fresh_rows).max(1) as f64,
    );
    out.put("store.copy_rows_per_s", d.copy_rows_per_s);
    out.put(
        "store.mutation_p50_ms",
        percentile(&m.tally.mutation_ms, 0.5),
    );
    out.put("store.journal_bytes", median(&m.journal_bytes));
    out.put("store.snapshot_bytes", d.snapshot_bytes);
    out.put("store.write_amp", median(&m.write_amp));
    out.put("store.snapshot_save_s", d.snapshot_save_s);
    out.put("store.snapshot_load_s", d.snapshot_load_s);
    out.put("store.load_us_per_row", d.load_us_per_row);

    out.put("leakage.report_us", m.leakage_report_us);
    out.put(
        "leakage.equality_classes",
        per_cycle(after.equality_classes - before.equality_classes),
    );

    // Σ over layers of count × unit cost against the seconds callers
    // spent inside their operations, per cycle.
    let wire_kib = per_cycle(n.bytes_sent + n.bytes_received) / 1024.0;
    let predicted = pairing_s
        + wire_kib * (codec.encode_ns_per_kib + codec.decode_ns_per_kib) / 1e9
        + per_cycle(n.round_trips) * m.ping_rtt_us / 1e6
        // A sealed column payload is a few dozen bytes: 1/16 KiB.
        + per_cycle(n.column_decrypts) * c.aead_open_ns_per_kib / 16.0 / 1e9;
    let in_ops_s =
        (m.tally.query_ms.iter().sum::<f64>() + m.tally.mutation_ms.iter().sum::<f64>()) / 1e3;
    let measured = in_ops_s / cycles;
    out.put("model.predicted_s", predicted);
    out.put("model.measured_s", measured);
    out.put("model.unattributed_share", 1.0 - predicted / measured);

    let (on, off) = (median(&m.recorded_wall_s), median(&m.unrecorded_wall_s));
    out.put("trace.overhead_pct", (on - off) / off * 100.0);
    out.put("trace.spans", spans.len() as f64);
    out.put("trace.cycles", m.cycles.len() as f64);
    out.put("trace.ops_failed", m.tally.failed as f64);
    out.finish()
}
