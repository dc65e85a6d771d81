//! The introspection plane, end to end: a `NetServer` reactor and a
//! `--metrics-addr`-style scrape listener in one process, a real
//! tenant session running the paper series over TCP — and the scrape
//! surface polled **mid-run**, asserting that what Prometheus would
//! see equals what the client and the server report programmatically.
//!
//! Everything lives in ONE test: the obs registry is process-global,
//! so all assertions are deltas against values captured up front, and
//! a single test keeps concurrent test threads from racing the
//! counters this test reasons about.

use eqjoin::db::{Request, ServerApi, Session, TableConfig};
use eqjoin::db::{SessionConfig, SessionStats};
use eqjoin::pairing::MockEngine;
use eqjoind_net::{NetConfig, NetServer, TenantRegistry};
use std::sync::Arc;

/// Read one series (exact `name{labels}` match) out of an exposition
/// body; absent series read as 0 (a counter nobody touched yet).
fn series_value(body: &str, series: &str) -> f64 {
    body.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(series)?;
            rest.strip_prefix(' ')?.trim().parse().ok()
        })
        .unwrap_or(0.0)
}

fn populate(session: &mut Session<MockEngine>) {
    use eqjoin::baselines::ground_truth::example_2_1;
    let (teams, employees) = example_2_1();
    session
        .create_table(
            &teams,
            TableConfig {
                join_column: "Key".into(),
                filter_columns: vec!["Name".into()],
            },
        )
        .unwrap();
    session
        .create_table(
            &employees,
            TableConfig {
                join_column: "Team".into(),
                filter_columns: vec!["Record".into(), "Employee".into(), "Role".into()],
            },
        )
        .unwrap();
}

const PAPER_SERIES: [&str; 3] = [
    "SELECT * FROM Employees JOIN Teams ON Team = Key \
     WHERE Name = 'Web Application' AND Role = 'Tester'",
    "SELECT * FROM Employees JOIN Teams ON Team = Key \
     WHERE Name = 'Database' AND Role = 'Programmer'",
    // Repeat of the first query: a token-cache hit the scrape must see.
    "SELECT * FROM Employees JOIN Teams ON Team = Key \
     WHERE Name = 'Web Application' AND Role = 'Tester'",
];

/// The obs registry is process-global and both tests assert counter
/// DELTAS — running them concurrently would race each other's moves.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn live_scrape_matches_client_and_server_counters() {
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The full deployment shape of `eqjoind --metrics-addr`: reactor +
    // tenant registry + scrape listener, all in-process.
    let registry = Arc::new(TenantRegistry::<MockEngine>::new(None, None, None));
    let (addr, reactor) = NetServer::spawn(Arc::clone(&registry), NetConfig::default()).unwrap();
    let (scrape_addr, metrics_server) =
        eqjoin::obs::MetricsServer::spawn("127.0.0.1:0", Arc::new(eqjoin::obs::exposition))
            .unwrap();
    let scrape = || eqjoin::obs::serve::scrape_once(scrape_addr).unwrap();

    // Baselines: the registry is shared with whatever ran before us.
    let before = scrape();
    let leakage_before = series_value(&before, "eqjoin_leakage_queries_total");
    let token_hits_before = series_value(&before, "eqjoin_session_token_cache_hits_total");
    let query_count_before = series_value(&before, "eqjoin_session_query_seconds_count");
    let join_count_before = series_value(&before, "eqjoin_join_seconds_count");
    let frames_before = series_value(&before, "eqjoin_frames_sent_total");
    let dec_hits_before = series_value(&before, "eqjoin_store_decrypt_cache_hits_total");
    let acme_requests = "eqjoin_tenant_request_seconds_count{tenant=\"acme\"}";
    let trips_before = series_value(&before, acme_requests);
    // First-use preparation: a histogram of first touches, a counter
    // of elements prepared, a gauge of rows holding coefficients.
    let first_touches = |body: &str| series_value(body, "eqjoin_store_prepare_seconds_count");
    let prepared_elements = |body: &str| series_value(body, "eqjoin_store_prepared_pairings_total");
    let prepared_rows = |body: &str| series_value(body, "eqjoin_store_prepared_rows");

    let mut session = Session::<MockEngine>::remote(SessionConfig::new(3, 2).seed(20220501), addr)
        .unwrap()
        .with_tenant("acme")
        .unwrap();
    populate(&mut session);
    let stats_at_start: SessionStats = session.stats();
    let series: Vec<_> = PAPER_SERIES
        .iter()
        .map(|sql| eqjoin::sql::plan(sql, session.catalog()).unwrap())
        .collect();
    let loaded = scrape();
    assert_eq!(
        (
            first_touches(&loaded) - first_touches(&before),
            prepared_elements(&loaded) - prepared_elements(&before),
            prepared_rows(&loaded) - prepared_rows(&before),
        ),
        (0.0, 0.0, 0.0),
        "ingest prepares nothing"
    );

    // --- Mid-run scrape: after the first query the surface must have
    // moved in lockstep with the client's own view.
    let first = session.execute(&series[0]).unwrap();
    assert!(!first.rows.is_empty());
    let mid = scrape();
    assert_eq!(
        (series_value(&mid, "eqjoin_session_query_seconds_count") - query_count_before) as u64,
        1,
        "one query executed, one per-query latency recorded"
    );
    assert_eq!(
        (series_value(&mid, "eqjoin_leakage_queries_total") - leakage_before) as u64,
        session.leakage_report().queries as u64,
        "mid-run: the leakage ledger and the leakage metric agree"
    );
    // The first query paid for exactly the rows it decrypted (two
    // distinct tables, nothing cached yet), every element of each.
    let touched = first.stats.rows_decrypted as f64;
    let elements_per_row = eqjoin::core::SjParams { m: 3, t: 2 }.inner_dim() as f64;
    assert_eq!(prepared_rows(&mid) - prepared_rows(&before), touched);
    assert_eq!(
        prepared_elements(&mid) - prepared_elements(&before),
        touched * elements_per_row
    );
    assert!(first_touches(&mid) > first_touches(&before));

    for plan in &series[1..] {
        session.execute(plan).unwrap();
    }

    // --- Post-run scrape: every layer's counters line up with the
    // programmatic snapshots.
    let after = scrape();
    let stats: SessionStats = session.stats();
    assert_eq!(
        (series_value(&after, "eqjoin_session_query_seconds_count") - query_count_before) as u64,
        3,
        "per-query latency histogram counted every execute"
    );
    assert_eq!(
        (series_value(&after, "eqjoin_join_seconds_count") - join_count_before) as u64,
        3,
        "the server timed every executed join"
    );
    assert_eq!(
        (series_value(&after, "eqjoin_leakage_queries_total") - leakage_before) as u64,
        session.leakage_report().queries as u64,
        "leakage disclosure is scrapeable with ledger fidelity"
    );
    assert_eq!(
        (series_value(&after, "eqjoin_session_token_cache_hits_total") - token_hits_before) as u64,
        stats.token_cache_hits - stats_at_start.token_cache_hits,
        "token-cache hit ratio is derivable from the scrape"
    );
    assert!(
        stats.token_cache_hits > stats_at_start.token_cache_hits,
        "the repeated query must hit the token cache"
    );
    assert_eq!(
        (series_value(&after, "eqjoin_store_decrypt_cache_hits_total") - dec_hits_before) as u64,
        stats.decrypt_cache_hits - stats_at_start.decrypt_cache_hits,
        "store-side cache hits match what the client observed in responses"
    );
    let transport = session.transport_stats();
    assert_eq!(
        (series_value(&after, acme_requests) - trips_before) as u64,
        transport.round_trips,
        "the tenant's request latency count agrees with the client's round trips"
    );
    assert_eq!(
        (series_value(&after, "eqjoin_frames_sent_total") - frames_before) as u64,
        2 * transport.round_trips,
        "client and reactor share this process: one request frame and one reply per round trip"
    );
    assert!(
        after.contains("eqjoin_session_query_seconds{quantile=\"0.99\"}"),
        "p99 lines are rendered for latency histograms"
    );
    assert!(
        after.contains("eqjoin_net_queue_depth 0"),
        "admission tickets all released: queue depth gauge back to zero"
    );
    assert!(
        after.contains("eqjoin_tenant_requests_total{tenant=\"acme\"}"),
        "per-tenant counters carry the tenant label"
    );
    assert!(after.contains("eqjoin_build_info{version=\""));

    // --- The wire-level introspection pair: `Session::server_metrics`
    // sends `Request::Stats` and gets the SAME exposition the scrape
    // listener serves.
    let exposition = session.server_metrics().unwrap();
    assert!(exposition.contains("eqjoin_build_info{version=\""));
    assert!(exposition.contains("eqjoin_leakage_queries_total"));
    for series in [
        "eqjoin_store_prepare_seconds_count",
        "eqjoin_store_prepared_pairings_total",
        "eqjoin_store_prepared_rows",
    ] {
        assert!(
            series_value(&exposition, series) > 0.0,
            "{series} must be visible through Request::Stats"
        );
    }

    // Sending Stats was an explicit call — exactly one extra round trip.
    assert_eq!(
        session.transport_stats().round_trips,
        transport.round_trips + 1
    );

    drop(session);
    metrics_server.stop();
    reactor.stop().unwrap();
}

/// The O(delta) persistence plane is scrape-visible: journal appends
/// feed a size histogram, deferred snapshot rewrites count, and a
/// compaction shows up in both the flush counter and the compaction
/// latency histogram.
#[test]
fn persistence_metrics_are_scrape_visible() {
    use eqjoin::db::{DbClient, LocalBackend, Schema, Table, Value};

    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (scrape_addr, metrics_server) =
        eqjoin::obs::MetricsServer::spawn("127.0.0.1:0", Arc::new(eqjoin::obs::exposition))
            .unwrap();
    let scrape = || eqjoin::obs::serve::scrape_once(scrape_addr).unwrap();

    let before = scrape();
    let appends_before = series_value(&before, "eqjoin_store_journal_append_bytes_count");
    let append_sum_before = series_value(&before, "eqjoin_store_journal_append_bytes_sum");
    let deferred_before = series_value(&before, "eqjoin_store_snapshot_deferred_total");
    let ingested_before = series_value(&before, "eqjoin_rows_ingested_total");
    let flushes_before = series_value(&before, "eqjoin_store_snapshot_flushes_total");
    let compactions_before = series_value(&before, "eqjoin_store_compaction_seconds_count");

    let mut client = DbClient::<MockEngine>::new(1, 2, 41);
    let mut t = Table::new(Schema::new("T", &["k", "a"]));
    for i in 0..4i64 {
        t.push_row(vec![Value::Int(i % 2), Value::Str(format!("s{i}"))]);
    }
    let enc = client
        .encrypt_table(
            &t,
            TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["a".into()],
            },
        )
        .unwrap();

    let dir = std::env::temp_dir().join(format!("eqjoin-scrape-odelta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("store.snap");
    let backend = LocalBackend::<MockEngine>::with_persistence(&snap, None, None, 1 << 20).unwrap();
    backend.handle(Request::InsertTable(enc));
    let (start_row, rows) = client
        .encrypt_rows("T", &[vec![Value::Int(1), Value::Str("n".into())]])
        .unwrap();
    backend.handle(Request::InsertRows {
        table: "T".into(),
        start_row,
        rows,
    });
    // One COPY bulk-load chunk rides the same journal/deferral plane.
    let (start_row, rows) = client
        .encrypt_rows("T", &[vec![Value::Int(0), Value::Str("c".into())]])
        .unwrap();
    backend.handle(Request::CopyRows {
        table: "T".into(),
        join_column: "k".into(),
        filter_columns: vec!["a".into()],
        start_row,
        rows,
    });

    // Three deferred mutations: three journal appends, three deferrals,
    // zero snapshot flushes.
    let mid = scrape();
    assert_eq!(
        (series_value(&mid, "eqjoin_store_journal_append_bytes_count") - appends_before) as u64,
        3,
        "every journaled intent records its append size"
    );
    assert_eq!(
        (series_value(&mid, "eqjoin_rows_ingested_total") - ingested_before) as u64,
        6,
        "4 uploaded + 1 appended + 1 copied rows count as ingested"
    );
    assert!(
        series_value(&mid, "eqjoin_store_journal_append_bytes_sum") > append_sum_before,
        "append sizes accumulate in the histogram sum"
    );
    assert_eq!(
        (series_value(&mid, "eqjoin_store_snapshot_deferred_total") - deferred_before) as u64,
        3,
        "each sub-threshold mutation counts one deferred snapshot rewrite"
    );
    assert_eq!(
        (series_value(&mid, "eqjoin_store_snapshot_flushes_total") - flushes_before) as u64,
        0,
        "no snapshot was rewritten below the threshold"
    );

    // Forced compaction: one flush, one compaction latency sample.
    backend.flush().unwrap();
    let after = scrape();
    assert_eq!(
        (series_value(&after, "eqjoin_store_snapshot_flushes_total") - flushes_before) as u64,
        1,
        "the forced flush compacted exactly once"
    );
    assert_eq!(
        (series_value(&after, "eqjoin_store_compaction_seconds_count") - compactions_before) as u64,
        1,
        "the compaction latency histogram saw the flush"
    );

    metrics_server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
