//! Decrypt-cache policy gate: which side the cache evicts, priced in
//! the `SJ.Dec` a workload redoes.
//!
//! 24 distinct pairwise queries (48 sides, fresh tokens each) over
//! tables of 1, 3 and 5 rows, so a side costs 1, 3 or 5 `SJ.Dec` to
//! rebuild, against a cap of 16 entries. A schedule assigns the 24
//! popularity ranks to the queries at random, draws 2 000 queries
//! i.i.d. from Zipf(1.0) over the ranks, reshuffles the ranks once and
//! draws 2 000 more. The gate runs five such schedules (seeds 1–5), so
//! it prices the rule rather than one lucky assignment of costs to
//! ranks.
//!
//! True LRU — the eviction rule before use counts — pays 46 206 cache
//! misses on the five schedules. Evicting the side cheapest to lose
//! (smallest `uses × rows`, use counts halved every `10 × cap`
//! lookups) must stay at or below 80 % of that; the exact counts are
//! pinned so any change to the rule shows here. Per schedule the
//! ratio is 0.65–0.76.
//!
//! One `#[test]` in this file on purpose: it reads process-wide
//! counters, which no other test in this binary touches.

use eqjoin_db::{
    DbClient, DbServer, JoinOptions, JoinQuery, QueryTokens, Schema, Table, TableConfig, Value,
};
use eqjoin_pairing::MockEngine;

const CAP: usize = 16;
const SIZES: [usize; 3] = [1, 3, 5];
const QUERIES: usize = 24;
const DRAWS_PER_PHASE: usize = 2_000;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;
/// What true LRU paid on the five schedules.
const LRU_MISSES: u64 = 46_206;
/// What the cost-weighted rule pays (pinned).
const MISSES: u64 = 33_070;
/// Rows dropped with evicted entries (pinned).
const ROWS_EVICTED: u64 = 32_764;

/// SplitMix64: a fixed-seed stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A popularity rank in `0..n`, Zipf(1.0): rank `k` with weight
    /// `1 / (k + 1)`.
    fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut u = self.unit() * total;
        for k in 0..n {
            u -= 1.0 / (k + 1) as f64;
            if u < 0.0 {
                return k;
            }
        }
        n - 1
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn table(name: &str, rows: usize) -> Table {
    let mut t = Table::new(Schema::new(name, &["k", "a"]));
    for i in 0..rows {
        t.push_row(vec![Value::Int(i as i64 % 2), Value::Str(format!("x{i}"))]);
    }
    t
}

fn counter(name: &str) -> u64 {
    eqjoin_obs::registry().counter_value(name, None)
}

/// Run one schedule against a fresh server; every repeat of a query
/// must return the pairs its first run did.
fn run_schedule(seed: u64) {
    let mut client = DbClient::<MockEngine>::new(2, 2, seed);
    let mut server = DbServer::<MockEngine>::new();
    server.set_decrypt_cache_cap(CAP);
    for side in ["L", "R"] {
        for rows in SIZES {
            let config = TableConfig {
                join_column: "k".into(),
                filter_columns: vec!["a".into()],
            };
            let name = format!("{side}{rows}");
            let enc = client.encrypt_table(&table(&name, rows), config).unwrap();
            server.insert_table(enc).unwrap();
        }
    }
    // Query `q` joins `L{SIZES[q % 3]}` with `R{SIZES[q / 3 % 3]}`:
    // every pair of side costs, each several times, fresh tokens each.
    let queries: Vec<QueryTokens<MockEngine>> = (0..QUERIES)
        .map(|q| {
            let left = format!("L{}", SIZES[q % 3]);
            let right = format!("R{}", SIZES[q / 3 % 3]);
            client
                .query_tokens(&JoinQuery::on(&left, "k", &right, "k"))
                .unwrap()
        })
        .collect();

    let mut rng = Rng(seed);
    let mut by_rank: Vec<usize> = (0..QUERIES).collect();
    let mut schedule = Vec::with_capacity(2 * DRAWS_PER_PHASE);
    for _phase in 0..2 {
        rng.shuffle(&mut by_rank); // the popularity (re)assignment
        for _ in 0..DRAWS_PER_PHASE {
            schedule.push(by_rank[rng.zipf(QUERIES)]);
        }
    }

    let opts = JoinOptions::default();
    let mut answers = vec![None; QUERIES];
    for &q in &schedule {
        let (_, observation) = server.execute_join(&queries[q], &opts).unwrap();
        let pairs = observation.pairs();
        assert_eq!(*answers[q].get_or_insert_with(|| pairs.clone()), pairs);
        assert!(server.store().decrypt_cache_len() <= CAP);
    }
}

#[test]
fn cost_weighted_eviction_redoes_fewer_sj_dec_than_lru() {
    let misses_before = counter("eqjoin_store_decrypt_cache_misses_total");
    let evicted_before = counter("eqjoin_store_decrypt_cache_rows_evicted_total");
    for seed in SEEDS {
        run_schedule(seed);
    }
    let misses = counter("eqjoin_store_decrypt_cache_misses_total") - misses_before;
    let rows_evicted = counter("eqjoin_store_decrypt_cache_rows_evicted_total") - evicted_before;

    assert!(
        misses * 5 <= LRU_MISSES * 4,
        "{misses} misses, more than 80 % of LRU's {LRU_MISSES}"
    );
    assert_eq!(misses, MISSES, "the policy's miss count moved");
    assert_eq!(rows_evicted, ROWS_EVICTED, "rows dropped with evictions");
}
