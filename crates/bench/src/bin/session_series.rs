//! **Session series benchmark**: the cache payoff for a repeated query
//! series (a dashboard refreshing the same filtered joins) — the
//! workload the paper's "series of queries" setting is about.
//!
//! Runs the same series twice through the [`Session`] API, token cache
//! on vs off, and reports wall time, `SJ.TkGen` counts, **server
//! decrypt-cache hits** and exact crypto operation counts
//! ([`eqjoin_pairing::ops`]). With the token cache on, every repeated
//! round hands the server byte-identical tokens, so the server's
//! decrypt cache must serve *all* of its rows — asserted, not just
//! printed (CI runs this binary as the cache smoke gate).
//!
//! Besides the human-readable report, the run writes a
//! machine-readable **`BENCH_session.json`** (override with `--json
//! PATH`) with per-phase wall times, op counts, cache hit rates and
//! per-stage op counts — the bench-trajectory artifact tracked from
//! PR 3 on. From PR 4 the tracked artifact is the chain trajectory:
//! refresh it with `bls 0.0004 5 --plan multiway`; other runs should
//! pass `--json` (the binary warns before overwriting the tracked
//! file with a different plan mode).
//!
//! ```sh
//! cargo run --release -p eqjoin-bench --bin session_series -- bls 0.0004 5
//! cargo run --release -p eqjoin-bench --bin session_series -- mock 0.002 10
//! cargo run --release -p eqjoin-bench --bin session_series -- mock 0.002 10 --backend remote
//! cargo run --release -p eqjoin-bench --bin session_series -- bls 0.0004 5 --threads 4
//! cargo run --release -p eqjoin-bench --bin session_series -- mock 0.002 5 --plan multiway
//! ```
//!
//! Positional arguments: `engine [scale rounds]`, plus
//! `--backend {local,remote}` (default `local`), `--threads N`
//! (decrypt workers; 0 = auto, one per core), `--plan
//! {pairwise,multiway}` (multiway runs 3-table
//! `Orders ⋈ Customers ⋈ Profiles` chains with a projection — the JSON
//! then carries per-stage op counts), `--sessions N` (run an extra
//! phase with N concurrent tenant sessions against one shared loopback
//! server, reporting queries/second in the JSON's `concurrent`
//! section),
//! `--ingest` (run ONLY the production-scale ingest phase — the CI
//! bulk-load smoke gate: batched fixed-base-mul counters, parallel
//! vs. single-threaded byte-identity, O(delta) persistence of the
//! mutation tail, and a zero-pairing warm restart after compaction)
//! and `--json PATH`. Full runs always include the ingest phase and
//! record it in the JSON's `ingest` (timing) and `ingest_counters`
//! (deterministic, guarded by `--check-against`) sections.
//!
//! [`Session`]: eqjoin_db::Session

use eqjoin_bench::{secs, selectivity_query, setup_tpch, spawn_loopback, SELECTIVITY_LABELS};
use eqjoin_db::{
    DbServer, EncryptedStore, JoinOptions, QueryInput, QueryPlan, Schema, ServerStats, Session,
    SessionConfig, Table, TableConfig, Value,
};
use eqjoin_pairing::{ops, Bls12, Engine, MockEngine, OpCounts};
use eqjoind_net::NetHandle;
use std::time::Instant;

/// Which workload shape each round executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlanMode {
    /// The PR-3 workload: four 2-table selectivity queries per round.
    Pairwise,
    /// Four 3-table `Orders ⋈ Customers ⋈ Profiles` chains with a
    /// projection per round — each lowering to two pairwise stages.
    Multiway,
}

impl PlanMode {
    fn parse(s: &str) -> Self {
        match s {
            "pairwise" => PlanMode::Pairwise,
            "multiway" => PlanMode::Multiway,
            other => panic!("unknown plan mode {other:?} (use pairwise or multiway)"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            PlanMode::Pairwise => "pairwise",
            PlanMode::Multiway => "multiway",
        }
    }

    fn stages(self) -> usize {
        match self {
            PlanMode::Pairwise => 1,
            PlanMode::Multiway => 2,
        }
    }
}

/// Which transport the sessions run over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Local,
    Remote,
}

impl Backend {
    fn parse(s: &str) -> Self {
        match s {
            "local" => Backend::Local,
            "remote" => Backend::Remote,
            other => panic!("unknown backend {other:?} (use local or remote)"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Backend::Local => "local",
            Backend::Remote => "remote",
        }
    }

    /// A fresh session over this transport. Remote spawns its own
    /// loopback `eqjoind`, whose handle the caller keeps alive for as
    /// long as the session is in use.
    fn session<E: Engine>(self, config: SessionConfig) -> (Session<E>, Option<NetHandle>) {
        match self {
            Backend::Local => (Session::local(config), None),
            Backend::Remote => {
                let (addr, server) = spawn_loopback::<E>();
                let session = Session::remote(config, addr).expect("connect to loopback eqjoind");
                (session, Some(server))
            }
        }
    }
}

/// One dashboard refresh: four queries, one per selectivity label —
/// either the Figures 3/4 pairwise joins or their 3-table chain
/// extension (same filters, plus the `Profiles` link and a
/// 3-column projection).
fn refresh_inputs(mode: PlanMode) -> Vec<QueryInput> {
    SELECTIVITY_LABELS
        .iter()
        .map(|s| match mode {
            PlanMode::Pairwise => QueryInput::from(selectivity_query(s, 3)),
            PlanMode::Multiway => {
                let pairwise = selectivity_query(s, 3);
                let mut plan = QueryPlan::scan("Customers")
                    .join_on("Customers", "custkey", "Orders", "custkey")
                    .join_on("Customers", "custkey", "Profiles", "custkey")
                    .project(&[
                        ("Customers", "name"),
                        ("Orders", "orderpriority"),
                        ("Profiles", "region"),
                    ]);
                for f in &pairwise.filters {
                    plan = plan.filter(&f.table, &f.column, f.values.clone());
                }
                QueryInput::from(plan)
            }
        })
        .collect()
}

/// One `Profiles` row per customer (the chain's third table).
fn generate_profiles(customers: usize) -> Table {
    let regions = ["emea", "apac", "amer"];
    let mut t = Table::new(Schema::new("Profiles", &["custkey", "region"]));
    for i in 0..customers {
        t.push_row(vec![
            Value::Int((i + 1) as i64),
            regions[i % regions.len()].into(),
        ]);
    }
    t
}

/// The standard session config for this bench's workload.
fn session_config(token_cache: bool, threads: usize) -> SessionConfig {
    SessionConfig::new(2, 3)
        .seed(0x5e55 ^ 0xbe9c)
        .prefilter(true)
        .token_cache(token_cache)
        .threads(threads)
}

/// Generate and upload the TPC-H workload tables into `session`;
/// returns (customers, orders) row counts.
fn upload_tables<E: Engine>(
    session: &mut Session<E>,
    scale: f64,
    plan: PlanMode,
) -> (usize, usize) {
    use eqjoin_tpch::{generate_customers, generate_orders, TpchConfig};
    let cfg = TpchConfig::new(scale, 0x5e55);
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    let rows = (customers.len(), orders.len());
    session
        .create_table(
            &customers,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["mktsegment".into(), "selectivity".into()],
            },
        )
        .expect("encrypt customers");
    session
        .create_table(
            &orders,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["orderpriority".into(), "selectivity".into()],
            },
        )
        .expect("encrypt orders");
    if plan == PlanMode::Multiway {
        session
            .create_table(
                &generate_profiles(rows.0),
                TableConfig {
                    join_column: "custkey".into(),
                    filter_columns: vec!["region".into()],
                },
            )
            .expect("encrypt profiles");
    }
    rows
}

/// Encrypted TPC-H session with the cache toggled as requested (plus
/// the loopback server it runs over, if remote).
fn build_session<E: Engine>(
    scale: f64,
    token_cache: bool,
    backend: Backend,
    threads: usize,
    plan: PlanMode,
) -> (Session<E>, (usize, usize), Option<NetHandle>) {
    let (mut session, server) = backend.session::<E>(session_config(token_cache, threads));
    let rows = upload_tables(&mut session, scale, plan);
    (session, rows, server)
}

/// What one measured series produced.
struct Measurement {
    wall_s: f64,
    tkgen_calls: u64,
    token_cache_hits: u64,
    token_cache_misses: u64,
    decrypt_cache_hits: u64,
    rows_decrypted: u64,
    first_round_rows: u64,
    /// Server stats summed per pairwise stage index across the series.
    stage_totals: Vec<ServerStats>,
    ops: OpCounts,
    /// Per-query wall-time distribution across the whole series (one
    /// sample per executed query, chains included).
    latency: eqjoin_obs::HistogramSnapshot,
}

/// Run the series and report one line; returns the full measurement.
fn measure<E: Engine>(
    label: &str,
    session: &mut Session<E>,
    rounds: usize,
    mode: PlanMode,
) -> Measurement {
    let ops_before = ops::snapshot();
    let mut rows_decrypted = 0u64;
    let mut first_round_rows = 0u64;
    let mut stage_totals = vec![ServerStats::default(); mode.stages()];
    // A private histogram per phase: the global registry's
    // `eqjoin_session_query_seconds` mixes both arms, this one is the
    // per-phase p50/p99 that lands in the JSON artifact.
    let latency = eqjoin_obs::Histogram::default();
    let t0 = Instant::now();
    for round in 0..rounds {
        for input in refresh_inputs(mode) {
            let t_query = Instant::now();
            let result = session.execute(input).expect("join");
            latency.record(t_query.elapsed());
            rows_decrypted += result.stats.rows_decrypted as u64;
            if round == 0 {
                first_round_rows += result.stats.rows_decrypted as u64;
            }
            assert_eq!(result.stage_stats.len(), mode.stages());
            for (agg, s) in stage_totals.iter_mut().zip(&result.stage_stats) {
                agg.merge(s);
            }
        }
    }
    let wall = t0.elapsed();
    let stats = session.stats();
    println!(
        "{label:<10} wall {:>8} s | SJ.TkGen calls {:>4} | token-cache hits {:>4} | \
         decrypt-cache hits {:>6} | within bound: {}",
        secs(wall),
        stats.client.tkgen_calls,
        stats.token_cache_hits,
        stats.decrypt_cache_hits,
        session.leakage_report().within_bound,
    );
    Measurement {
        wall_s: wall.as_secs_f64(),
        tkgen_calls: stats.client.tkgen_calls,
        token_cache_hits: stats.token_cache_hits,
        token_cache_misses: stats.token_cache_misses,
        decrypt_cache_hits: stats.decrypt_cache_hits,
        rows_decrypted,
        first_round_rows,
        stage_totals,
        ops: ops::snapshot().since(&ops_before),
        latency: latency.snapshot(),
    }
}

/// One phase's latency distribution as a JSON object (seconds).
/// Percentiles come from the log-scale histogram, so they are bucket
/// upper bounds — machine-dependent like all the timing keys, hence
/// NOT in `GUARDED_KEYS`.
fn latency_json(snap: &eqjoin_obs::HistogramSnapshot) -> String {
    let s = |ns: u64| ns as f64 / 1e9;
    format!(
        "{{\"p50_s\": {:.6}, \"p90_s\": {:.6}, \"p99_s\": {:.6}, \"max_s\": {:.6}, \
         \"mean_s\": {:.6}, \"queries\": {}}}",
        s(snap.percentile_ns(0.5)),
        s(snap.percentile_ns(0.9)),
        s(snap.percentile_ns(0.99)),
        s(snap.max_ns),
        s(snap.sum_ns / snap.count.max(1)),
        snap.count,
    )
}

fn ops_json(ops: &OpCounts) -> String {
    format!(
        "{{\"fixed_base_muls\": {}, \"batched_fixed_base_muls\": {}, \"msm_points\": {}, \
         \"variable_base_muls\": {}, \"pairings\": {}, \
         \"miller_pairs\": {}, \"prepared_miller_pairs\": {}, \"g2_prepares\": {}, \
         \"gt_pows\": {}, \"cyclotomic_squares\": {}}}",
        ops.fixed_base_muls,
        ops.batched_fixed_base_muls,
        ops.msm_points,
        ops.variable_base_muls,
        ops.pairings,
        ops.miller_pairs,
        ops.prepared_miller_pairs,
        ops.g2_prepares,
        ops.gt_pows,
        ops.cyclotomic_squares,
    )
}

/// The cold-vs-warm-restart phase: one selectivity query run cold,
/// warm, and warm **after a snapshot restart** (save → drop → load),
/// with exact pairing deltas. The restart replay is asserted to run
/// zero pairings — the store's whole point.
struct RestartMeasurement {
    cold_s: f64,
    warm_s: f64,
    warm_restart_s: f64,
    pairings_cold: u64,
    pairings_warm_restart: u64,
}

fn measure_restart<E: Engine>(scale: f64) -> RestartMeasurement {
    let mut bench = setup_tpch::<E>(scale, 3, 0x7e57);
    let query = selectivity_query("1/25", 3);
    let tokens = bench.client.query_tokens(&query).expect("tokens");
    let opts = JoinOptions::default();

    let ops0 = ops::snapshot();
    let t = Instant::now();
    bench.server.execute_join(&tokens, &opts).expect("cold run");
    let cold_s = t.elapsed().as_secs_f64();
    let pairings_cold = ops::snapshot().since(&ops0).pairings;

    let t = Instant::now();
    bench.server.execute_join(&tokens, &opts).expect("warm run");
    let warm_s = t.elapsed().as_secs_f64();

    // "Kill" the server: snapshot, drop, restore, replay.
    let snapshot = bench.server.store().snapshot_bytes();
    drop(bench.server);
    let restored =
        DbServer::with_store(EncryptedStore::<E>::from_snapshot_bytes(&snapshot).expect("reload"));
    let ops1 = ops::snapshot();
    let t = Instant::now();
    let (replay, _) = restored
        .execute_join(&tokens, &opts)
        .expect("warm-restart run");
    let warm_restart_s = t.elapsed().as_secs_f64();
    let delta = ops::snapshot().since(&ops1);
    assert_eq!(
        delta.pairings, 0,
        "a restart from snapshot must replay the repeated stage with zero pairings"
    );
    assert_eq!(delta.miller_pairs, 0);
    assert_eq!(
        replay.stats.decrypt_cache_hits as usize,
        replay.stats.rows_decrypted
    );
    RestartMeasurement {
        cold_s,
        warm_s,
        warm_restart_s,
        pairings_cold,
        pairings_warm_restart: delta.pairings,
    }
}

/// The production-scale ingest phase at **10× the query workload's
/// load**: parallel client-side encryption (gated on the batched
/// fixed-base-mul counters, not wall time), a COPY-style streaming
/// bulk load into an O(delta) backend, a mutation tail comparing
/// journal bytes against full-snapshot rewrites, and a warm restart
/// after compaction that must replay with zero fresh `SJ.Dec`.
struct IngestMeasurement {
    rows: usize,
    chunks: usize,
    encrypt_s: f64,
    load_s: f64,
    cold_s: f64,
    /// Reopen-from-disk plus the first (warm) query.
    time_to_warm_s: f64,
    /// Crypto ops of the parallel bulk encryption alone.
    encrypt_ops: OpCounts,
    mutations: usize,
    /// Journal bytes the mutation tail appended under a deferred
    /// snapshot (the O(delta) write cost).
    journal_bytes: u64,
    /// Snapshot bytes the same tail wrote under threshold 0 (the
    /// legacy full-rewrite-per-mutation cost).
    legacy_bytes: u64,
    warm_cache_hits: u64,
    warm_rows_decrypted: u64,
}

fn measure_ingest<E: Engine>(cfg: &RunConfig) -> IngestMeasurement {
    use eqjoin_db::{
        ClientConfig, DbClient, JoinQuery, LocalBackend, PayloadProjection, Request, Response,
        ServerApi, DEFAULT_COPY_CHUNK_ROWS,
    };
    use eqjoin_tpch::{generate_orders, TpchConfig};

    let orders = generate_orders(&TpchConfig::new(cfg.scale * 10.0, 0x16e5));
    let rows = orders.len();
    let table_cfg = TableConfig {
        join_column: "custkey".into(),
        filter_columns: vec!["orderpriority".into(), "selectivity".into()],
    };
    let client_cfg = |threads: usize| {
        ClientConfig::new(2, 3)
            .seed(0x16e5)
            .encrypt_threads(threads)
            .prefilter(true)
    };

    // Parallel client-side encryption, counter-gated: the per-row
    // `SJ.Enc` exponent vector (dim m(t+1)+3 = 11 here) must go
    // through the shared-table batch path, and at most a third of all
    // fixed-base muls may take the one-at-a-time path — the "≥3×
    // vs unbatched" gate expressed in op counts, not wall time.
    let ops0 = ops::snapshot();
    let mut client = DbClient::<E>::with_config(client_cfg(0));
    let t = Instant::now();
    let enc = client
        .encrypt_table(&orders, table_cfg.clone())
        .expect("bulk encrypt orders");
    let encrypt_s = t.elapsed().as_secs_f64();
    let encrypt_ops = ops::snapshot().since(&ops0);
    assert!(
        encrypt_ops.batched_fixed_base_muls >= rows as u64 * 11,
        "bulk encryption must route its SJ.Enc muls through the batch path \
         ({} batched for {rows} rows)",
        encrypt_ops.batched_fixed_base_muls,
    );
    assert!(
        encrypt_ops.fixed_base_muls * 3 <= encrypt_ops.batched_fixed_base_muls,
        "too many fixed-base muls bypassed the batch path during bulk encryption \
         ({} unbatched vs {} batched)",
        encrypt_ops.fixed_base_muls,
        encrypt_ops.batched_fixed_base_muls,
    );
    // Determinism gate: a single worker must produce byte-identical
    // ciphertexts to the parallel run (same seed, same row split).
    let enc_seq = DbClient::<E>::with_config(client_cfg(1))
        .encrypt_table(&orders, table_cfg.clone())
        .expect("single-threaded encrypt orders");
    let wire = Request::InsertTable(enc);
    let wire_seq = Request::InsertTable(enc_seq);
    assert_eq!(
        wire.to_bytes(),
        wire_seq.to_bytes(),
        "parallel and single-threaded bulk encryption must be byte-identical"
    );
    let (Request::InsertTable(enc), Request::InsertTable(enc_seq)) = (wire, wire_seq) else {
        unreachable!()
    };

    let scratch = std::env::temp_dir().join(format!("eqjoin-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("ingest scratch dir");
    let file_len = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);

    // COPY-style streaming load into an O(delta) backend: every chunk
    // is journaled, the snapshot rewrite is deferred until compaction.
    let snap = scratch.join("odelta.snap");
    let journal = snap.with_extension("journal");
    let backend =
        LocalBackend::<E>::with_persistence(&snap, None, None, 1 << 30).expect("odelta backend");
    let mut pending = enc.rows;
    let mut start_row = 0u64;
    let mut chunks = 0usize;
    let t = Instant::now();
    while !pending.is_empty() {
        let rest = pending.split_off(pending.len().min(DEFAULT_COPY_CHUNK_ROWS));
        let chunk = std::mem::replace(&mut pending, rest);
        let sent = chunk.len();
        match backend.handle(Request::CopyRows {
            table: enc.name.clone(),
            join_column: enc.join_column.clone(),
            filter_columns: enc.filter_columns.clone(),
            start_row,
            rows: chunk,
        }) {
            Response::CopyRows { rows: n, .. } => assert_eq!(n, sent, "short COPY chunk"),
            other => panic!("COPY chunk rejected: {other:?}"),
        }
        start_row += sent as u64;
        chunks += 1;
    }
    let load_s = t.elapsed().as_secs_f64();
    assert_eq!(start_row as usize, rows);

    // The mutation tail, materialized ONCE so the O(delta) backend and
    // the legacy threshold-0 backend apply identical bytes: 8 appends
    // (half of them in the queried selectivity class) + 4 deletes.
    let mut mutations: Vec<Request<E>> = Vec::new();
    for i in 0..8i64 {
        let row = vec![
            Value::Int(1_000_000 + i),
            Value::Int(i % 97 + 1),
            Value::Str("O".into()),
            Value::Decimal(100_000 + i),
            Value::Date(9_000 + i as i32),
            Value::Str("1-URGENT".into()),
            Value::Str(format!("Clerk#{i:09}")),
            Value::Int(0),
            Value::Str("bulk-load tail".into()),
            Value::Str(if i % 2 == 0 { "1/25" } else { "1/100" }.into()),
        ];
        let (start, enc_rows) = client
            .encrypt_rows(&enc.name, &[row])
            .expect("encrypt tail row");
        mutations.push(Request::InsertRows {
            table: enc.name.clone(),
            start_row: start,
            rows: enc_rows,
        });
    }
    for id in [3u64, 5, 8, 13] {
        mutations.push(Request::DeleteRows {
            table: enc.name.clone(),
            rows: vec![id],
        });
    }

    // O(delta) arm: the journal grows, the snapshot file does not move.
    let snap_before = file_len(&snap);
    let journal_before = file_len(&journal);
    for req in &mutations {
        let response = backend.handle(req.clone());
        assert!(
            !matches!(response, Response::Error(_)),
            "mutation tail must apply"
        );
    }
    let journal_bytes = file_len(&journal) - journal_before;
    assert_eq!(
        file_len(&snap),
        snap_before,
        "mutations below the compaction threshold must not rewrite the snapshot"
    );

    // Legacy arm: threshold 0 rewrites the full snapshot per mutation.
    let legacy_snap = scratch.join("legacy.snap");
    let legacy =
        LocalBackend::<E>::with_persistence(&legacy_snap, None, None, 0).expect("legacy backend");
    match legacy.handle(Request::InsertTable(enc_seq)) {
        Response::TableInserted { .. } => {}
        other => panic!("legacy bulk upload rejected: {other:?}"),
    }
    let mut legacy_bytes = 0u64;
    for req in &mutations {
        let response = legacy.handle(req.clone());
        assert!(
            !matches!(response, Response::Error(_)),
            "legacy mutation tail must apply"
        );
        legacy_bytes += file_len(&legacy_snap);
    }
    assert!(
        journal_bytes * 10 < legacy_bytes,
        "the mutation tail must persist O(delta): {journal_bytes} journal bytes vs \
         {legacy_bytes} legacy full-snapshot bytes"
    );

    // Cold query → forced compaction → reopen → warm query. The same
    // token bundle both times, so the restart must replay entirely from
    // the persisted decrypt cache: zero fresh pairings.
    let query = JoinQuery::on(&enc.name, "custkey", &enc.name, "custkey").filter(
        &enc.name,
        "selectivity",
        vec![Value::Str("1/25".into())],
    );
    let tokens = client.query_tokens(&query).expect("ingest query tokens");
    let options = JoinOptions {
        threads: cfg.threads,
        ..JoinOptions::default()
    };
    let exec = || Request::ExecuteJoin {
        tokens: tokens.clone(),
        options,
        projection: PayloadProjection::default(),
    };
    let t = Instant::now();
    let cold = match backend.handle(exec()) {
        Response::JoinExecuted { result, .. } => result,
        other => panic!("cold ingest query rejected: {other:?}"),
    };
    let cold_s = t.elapsed().as_secs_f64();
    assert!(
        cold.stats.rows_decrypted > 0,
        "ingest query must touch rows"
    );
    backend.flush().expect("forced compaction");
    drop(backend);

    let t = Instant::now();
    let reopened = LocalBackend::<E>::with_persistence(&snap, None, None, 1 << 30)
        .expect("reopen after compaction");
    let ops1 = ops::snapshot();
    let warm = match reopened.handle(exec()) {
        Response::JoinExecuted { result, .. } => result,
        other => panic!("warm ingest query rejected: {other:?}"),
    };
    let time_to_warm_s = t.elapsed().as_secs_f64();
    let delta = ops::snapshot().since(&ops1);
    assert_eq!(
        delta.pairings, 0,
        "a warm restart after compaction must replay with zero fresh SJ.Dec pairings"
    );
    assert_eq!(
        warm.stats.decrypt_cache_hits as usize, warm.stats.rows_decrypted,
        "every warm-restart row must come from the persisted decrypt cache"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "ingest phase (10x load): encrypted {rows} rows in {encrypt_s:.3} s \
         ({:.0} rows/s, {} batched muls, {} unbatched) | COPY-loaded in {load_s:.3} s \
         ({:.0} rows/s, {chunks} chunks) | tail: {journal_bytes} journal B vs \
         {legacy_bytes} legacy snapshot B | cold {cold_s:.4} s | warm restart \
         {time_to_warm_s:.4} s ({} pairings, {}/{} cache hits)",
        rows as f64 / encrypt_s.max(1e-9),
        encrypt_ops.batched_fixed_base_muls,
        encrypt_ops.fixed_base_muls,
        rows as f64 / load_s.max(1e-9),
        delta.pairings,
        warm.stats.decrypt_cache_hits,
        warm.stats.rows_decrypted,
    );
    IngestMeasurement {
        rows,
        chunks,
        encrypt_s,
        load_s,
        cold_s,
        time_to_warm_s,
        encrypt_ops,
        mutations: mutations.len(),
        journal_bytes,
        legacy_bytes,
        warm_cache_hits: warm.stats.decrypt_cache_hits,
        warm_rows_decrypted: warm.stats.rows_decrypted as u64,
    }
}

/// Throughput of the N-concurrent-sessions phase.
struct Throughput {
    wall_s: f64,
    queries: u64,
    qps: f64,
}

/// The N-concurrent-sessions phase: N tenant sessions against one
/// shared loopback server. Every session uploads its own tables
/// (untimed), then all sessions release from a barrier together and
/// run the full series; the measured wall clock covers only the query
/// phase.
fn measure_concurrent<E: Engine>(cfg: &RunConfig) -> Throughput {
    let (addr, server) = spawn_loopback::<E>();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(cfg.sessions + 1));
    let mut clients = Vec::new();
    for i in 0..cfg.sessions {
        let barrier = std::sync::Arc::clone(&barrier);
        let (scale, rounds, threads, plan) = (cfg.scale, cfg.rounds, cfg.threads, cfg.plan);
        clients.push(std::thread::spawn(move || {
            let mut session = Session::<E>::remote(session_config(true, threads), addr)
                .expect("connect concurrent session")
                .with_tenant(format!("s{i}"))
                .expect("valid tenant name");
            upload_tables(&mut session, scale, plan);
            barrier.wait();
            let mut queries = 0u64;
            for _ in 0..rounds {
                for input in refresh_inputs(plan) {
                    session.execute(input).expect("concurrent join");
                    queries += 1;
                }
            }
            queries
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let queries: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("concurrent client"))
        .sum();
    let wall_s = t0.elapsed().as_secs_f64();
    server.stop().expect("drain the loopback server");
    // CI smoke gate: the server must actually move queries.
    assert!(queries > 0, "qps smoke gate");
    Throughput {
        wall_s,
        queries,
        qps: queries as f64 / wall_s.max(1e-9),
    }
}

struct RunConfig {
    scale: f64,
    rounds: usize,
    backend: Backend,
    threads: usize,
    plan: PlanMode,
    sessions: usize,
    /// `--ingest`: run ONLY the ingest phase (the CI bulk-load smoke
    /// gate — its assertions are the point; no JSON is written).
    ingest_only: bool,
    json_path: String,
    /// Guard mode: compare this run's deterministic counters against a
    /// tracked baseline JSON instead of writing one; exit non-zero on
    /// any drift. Wall-clock keys are checked loosely (warn only).
    check_against: Option<String>,
}

/// The top-level JSON keys whose lines must match the baseline
/// byte-for-byte: pure work counters (crypto ops, cache hits, wire
/// accounting) plus the workload-shape keys that make the comparison
/// apples-to-apples. Timing keys are deliberately absent.
const GUARDED_KEYS: &[&str] = &[
    "engine",
    "backend",
    "plan",
    "rounds",
    "queries_per_round",
    "rows",
    "threads",
    "tkgen_calls",
    "token_cache",
    "decrypt_cache",
    "crypto_ops",
    "transport",
    "ingest_counters",
];

/// Slice the single line carrying `key` out of the emitted JSON (the
/// emitter writes one top-level key per line).
fn json_line<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    json.lines()
        .map(str::trim)
        .find(|line| line.starts_with(&needle))
        .map(|line| line.trim_end_matches(','))
}

/// Pull `"series_token_cache_on_s": 1.23` style numbers off the phases
/// line for the loose wall-clock check.
fn phase_seconds(json: &str, key: &str) -> Option<f64> {
    let line = json_line(json, "phases")?;
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compare the current run against the tracked baseline. Counters must
/// match exactly; wall time only warns unless it blew up past 10x (a
/// hang, not noise). Returns `false` on drift.
fn check_against_baseline(current: &str, baseline: &str, path: &str) -> bool {
    let mut clean = true;
    for key in GUARDED_KEYS {
        let now = json_line(current, key);
        let then = json_line(baseline, key);
        if now != then {
            eprintln!(
                "session_series: drift in \"{key}\" vs {path}\n  baseline: {}\n  current:  {}",
                then.unwrap_or("<missing>"),
                now.unwrap_or("<missing>"),
            );
            clean = false;
        }
    }
    for phase in ["series_token_cache_off_s", "series_token_cache_on_s"] {
        if let (Some(now), Some(then)) = (
            phase_seconds(current, phase),
            phase_seconds(baseline, phase),
        ) {
            if now > then * 10.0 {
                eprintln!(
                    "session_series: {phase} blew past 10x the baseline ({now:.3}s vs {then:.3}s)"
                );
                clean = false;
            } else if now > then * 3.0 {
                eprintln!(
                    "session_series: note: {phase} is {:.1}x the baseline ({now:.3}s vs {then:.3}s) \
                     — wall time is machine-dependent, counters above are the gate",
                    now / then,
                );
            }
        }
    }
    if clean {
        println!("session_series: counters match {path} exactly; no drift");
    }
    clean
}

fn series<E: Engine>(cfg: &RunConfig) {
    if cfg.ingest_only {
        // The CI bulk-load smoke gate: the phase's assertions (batched
        // counters, byte-identical parallel encryption, O(delta) tail,
        // zero-pairing warm restart) are the whole point.
        measure_ingest::<E>(cfg);
        println!("session_series: ingest smoke gate passed");
        return;
    }
    let t_setup = Instant::now();
    let (mut uncached, rows, _uncached_server) =
        build_session::<E>(cfg.scale, false, cfg.backend, cfg.threads, cfg.plan);
    let (mut cached, _, _cached_server) =
        build_session::<E>(cfg.scale, true, cfg.backend, cfg.threads, cfg.plan);
    let setup_s = t_setup.elapsed().as_secs_f64();
    println!(
        "session series — {} rounds × {} {} queries, {} customers + {} orders, engine = {}, \
         backend = {:?}, threads = {}\n",
        cfg.rounds,
        SELECTIVITY_LABELS.len(),
        cfg.plan.name(),
        rows.0,
        rows.1,
        E::NAME,
        cfg.backend,
        if cfg.threads == 0 {
            "auto".to_owned()
        } else {
            cfg.threads.to_string()
        },
    );

    let off = measure("cache off", &mut uncached, cfg.rounds, cfg.plan);
    let on = measure("cache on", &mut cached, cfg.rounds, cfg.plan);
    assert!(
        on.tkgen_calls < off.tkgen_calls,
        "token cache must issue strictly fewer SJ.TkGen calls"
    );
    // The decrypt-cache gate (CI smoke): with the token cache on, every
    // repeated round hands the server byte-identical tokens, so the
    // server cache must serve *all* rows after round one. Without the
    // token cache the fresh per-query keys make every fingerprint new —
    // zero hits, by design, not by accident.
    if cfg.rounds >= 2 {
        assert_eq!(
            on.decrypt_cache_hits,
            on.rows_decrypted - on.first_round_rows,
            "every repeated round must be served from the server decrypt cache"
        );
        assert!(on.decrypt_cache_hits > 0, "cache-hit smoke gate");
    }
    assert_eq!(
        off.decrypt_cache_hits, 0,
        "fresh per-query keys must never hit the decrypt cache"
    );
    let hit_rate = on.decrypt_cache_hits as f64 / (on.rows_decrypted.max(1)) as f64;
    println!(
        "\nSJ.TkGen calls: {} -> {} ({}x fewer); wall time {:.2}x; \
         decrypt-cache hit rate {:.1}% ({} of {} rows)",
        off.tkgen_calls,
        on.tkgen_calls,
        off.tkgen_calls / on.tkgen_calls.max(1),
        off.wall_s / on.wall_s.max(1e-9),
        100.0 * hit_rate,
        on.decrypt_cache_hits,
        on.rows_decrypted,
    );
    println!(
        "crypto ops (cache on):  {:?}\ncrypto ops (cache off): {:?}",
        on.ops, off.ops
    );
    let p = |snap: &eqjoin_obs::HistogramSnapshot, q: f64| snap.percentile_ns(q) as f64 / 1e9;
    println!(
        "per-query latency: cache off p50 {:.4} s / p99 {:.4} s | \
         cache on p50 {:.4} s / p99 {:.4} s",
        p(&off.latency, 0.5),
        p(&off.latency, 0.99),
        p(&on.latency, 0.5),
        p(&on.latency, 0.99),
    );
    let transport = cached.stats().transport;
    println!(
        "transport (cache-on session): {} round trips for {} requests ({} batched), \
         {} B sent / {} B received",
        transport.round_trips,
        transport.requests,
        transport.batches,
        transport.bytes_sent,
        transport.bytes_received,
    );

    // Cold vs warm vs warm-after-restart: the snapshot persistence
    // phase (asserts the restarted replay runs zero pairings).
    let restart = measure_restart::<E>(cfg.scale);
    println!(
        "restart phase: cold {:.4} s ({} pairings) | warm {:.4} s | warm after \
         snapshot restart {:.4} s ({} pairings)",
        restart.cold_s,
        restart.pairings_cold,
        restart.warm_s,
        restart.warm_restart_s,
        restart.pairings_warm_restart,
    );

    // Production-scale ingest at 10× the query workload's load:
    // batched parallel encryption, streaming COPY load, the O(delta)
    // mutation tail, and the warm restart after compaction.
    let ingest = measure_ingest::<E>(cfg);
    let ingest_json = format!(
        "{{\"encrypt_s\": {:.6}, \"encrypt_rows_per_s\": {:.1}, \"load_s\": {:.6}, \
         \"load_rows_per_s\": {:.1}, \"cold_s\": {:.6}, \"time_to_warm_s\": {:.6}}}",
        ingest.encrypt_s,
        ingest.rows as f64 / ingest.encrypt_s.max(1e-9),
        ingest.load_s,
        ingest.rows as f64 / ingest.load_s.max(1e-9),
        ingest.cold_s,
        ingest.time_to_warm_s,
    );
    let ingest_counters_json = format!(
        "{{\"rows\": {}, \"chunks\": {}, \"mutations\": {}, \"journal_bytes\": {}, \
         \"legacy_bytes\": {}, \"warm_cache_hits\": {}, \"warm_rows_decrypted\": {}, \
         \"crypto_ops\": {}}}",
        ingest.rows,
        ingest.chunks,
        ingest.mutations,
        ingest.journal_bytes,
        ingest.legacy_bytes,
        ingest.warm_cache_hits,
        ingest.warm_rows_decrypted,
        ops_json(&ingest.encrypt_ops),
    );

    // N concurrent tenant sessions on one shared loopback server
    // (--sessions N; skipped when N = 0).
    let concurrent_json = if cfg.sessions > 0 {
        let concurrent = measure_concurrent::<E>(cfg);
        println!(
            "concurrent phase ({} sessions): {:.1} q/s ({} queries in {:.3} s)",
            cfg.sessions, concurrent.qps, concurrent.queries, concurrent.wall_s,
        );
        format!(
            "{{\"sessions\": {}, \"rounds\": {}, \"qps\": {:.3}, \"queries\": {}, \
             \"wall_s\": {:.6}}}",
            cfg.sessions, cfg.rounds, concurrent.qps, concurrent.queries, concurrent.wall_s,
        )
    } else {
        "null".to_owned()
    };

    // Per-stage op counts (cache-on arm): what each pairwise stage of
    // the workload cost across the whole series — the chain trajectory
    // signal for multiway runs.
    let stages_json: String = on
        .stage_totals
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"stage\": {i}, \"rows_decrypted\": {}, \"rows_prefiltered_out\": {}, \
                 \"comparisons\": {}, \"matched_pairs\": {}, \"decrypt_cache_hits\": {}, \
                 \"decrypt_s\": {:.6}, \"match_s\": {:.6}}}",
                s.rows_decrypted,
                s.rows_prefiltered_out,
                s.comparisons,
                s.matched_pairs,
                s.decrypt_cache_hits,
                s.decrypt_time.as_secs_f64(),
                s.match_time.as_secs_f64(),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"session_series\",\n  \"engine\": \"{}\",\n  \"backend\": \"{}\",\n  \
         \"plan\": \"{}\",\n  \
         \"rounds\": {},\n  \"queries_per_round\": {},\n  \"rows\": {{\"customers\": {}, \
         \"orders\": {}}},\n  \"threads\": {},\n  \"phases\": {{\"setup_s\": {:.6}, \
         \"series_token_cache_off_s\": {:.6}, \"series_token_cache_on_s\": {:.6}}},\n  \
         \"tkgen_calls\": {{\"token_cache_off\": {}, \"token_cache_on\": {}}},\n  \
         \"token_cache\": {{\"hits\": {}, \"misses\": {}}},\n  \"decrypt_cache\": {{\"hits\": {}, \
         \"rows_decrypted\": {}, \"hit_rate\": {:.6}}},\n  \"latency\": \
         {{\"token_cache_off\": {}, \"token_cache_on\": {}}},\n  \"stages\": [{}],\n  \"crypto_ops\": \
         {{\"token_cache_off\": {}, \"token_cache_on\": {}}},\n  \"transport\": \
         {{\"round_trips\": {}, \"requests\": {}, \"batches\": {}, \"bytes_sent\": {}, \
         \"bytes_received\": {}}},\n  \"restart\": {{\"cold_s\": {:.6}, \"warm_s\": {:.6}, \
         \"warm_restart_s\": {:.6}, \"pairings_cold\": {}, \"pairings_warm_restart\": {}}},\n  \
         \"ingest\": {},\n  \"ingest_counters\": {},\n  \
         \"concurrent\": {},\n  \
         \"wall_speedup_cache_on\": {:.6}\n}}\n",
        E::NAME,
        cfg.backend.name(),
        cfg.plan.name(),
        cfg.rounds,
        SELECTIVITY_LABELS.len(),
        rows.0,
        rows.1,
        cfg.threads,
        setup_s,
        off.wall_s,
        on.wall_s,
        off.tkgen_calls,
        on.tkgen_calls,
        on.token_cache_hits,
        on.token_cache_misses,
        on.decrypt_cache_hits,
        on.rows_decrypted,
        hit_rate,
        latency_json(&off.latency),
        latency_json(&on.latency),
        stages_json,
        ops_json(&off.ops),
        ops_json(&on.ops),
        transport.round_trips,
        transport.requests,
        transport.batches,
        transport.bytes_sent,
        transport.bytes_received,
        restart.cold_s,
        restart.warm_s,
        restart.warm_restart_s,
        restart.pairings_cold,
        restart.pairings_warm_restart,
        ingest_json,
        ingest_counters_json,
        concurrent_json,
        off.wall_s / on.wall_s.max(1e-9),
    );
    if cfg.json_path == "BENCH_session.json" && cfg.plan != PlanMode::Multiway {
        eprintln!(
            "note: overwriting the tracked BENCH_session.json (a --plan multiway \
             trajectory since PR 4) with a {} run — pass --json PATH to write \
             elsewhere, or refresh the tracked artifact with `bls 0.0004 5 --plan \
             multiway`",
            cfg.plan.name(),
        );
    }
    if let Some(baseline_path) = &cfg.check_against {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("session_series: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        if !check_against_baseline(&json, &baseline, baseline_path) {
            std::process::exit(1);
        }
        return;
    }
    match std::fs::write(&cfg.json_path, &json) {
        Ok(()) => println!("wrote {}", cfg.json_path),
        Err(e) => eprintln!("session_series: cannot write {}: {e}", cfg.json_path),
    }
}

fn main() {
    // `--backend X`, `--threads N`, `--plan P`, `--sessions N` and
    // `--json PATH` may appear anywhere; everything else is positional.
    let mut backend = Backend::Local;
    let mut threads = 0usize;
    let mut plan = PlanMode::Pairwise;
    let mut sessions = 0usize;
    let mut ingest_only = false;
    let mut json_path = "BENCH_session.json".to_owned();
    let mut check_against: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--backend" => {
                backend = Backend::parse(&raw.next().expect("--backend needs a value"));
            }
            "--threads" => {
                threads = raw
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("--threads needs a number");
            }
            "--plan" => {
                plan = PlanMode::parse(&raw.next().expect("--plan needs a value"));
            }
            "--sessions" => {
                sessions = raw
                    .next()
                    .expect("--sessions needs a value")
                    .parse()
                    .expect("--sessions needs a number");
            }
            "--ingest" => ingest_only = true,
            "--json" => json_path = raw.next().expect("--json needs a value"),
            "--check-against" => {
                check_against = Some(raw.next().expect("--check-against needs a path"));
            }
            _ => args.push(arg),
        }
    }
    let engine = args
        .first()
        .map(String::as_str)
        .unwrap_or("mock")
        .to_owned();
    let f = |i: usize, d: f64| args.get(i).map(|s| s.parse().expect("number")).unwrap_or(d);
    let cfg = |scale: f64, rounds: f64| RunConfig {
        scale: f(1, scale),
        rounds: (f(2, rounds) as usize).max(2),
        backend,
        threads,
        plan,
        sessions,
        ingest_only,
        json_path: json_path.clone(),
        check_against: check_against.clone(),
    };
    match engine.as_str() {
        "mock" => series::<MockEngine>(&cfg(0.002, 10.0)),
        "bls" => series::<Bls12>(&cfg(0.0004, 5.0)),
        other => panic!("unknown engine {other:?} (use 'mock' or 'bls')"),
    }
}
