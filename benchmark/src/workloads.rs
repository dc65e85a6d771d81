//! The three workloads: what each one's tenants, queries and cycle are.
//!
//! Every workload runs the same skeleton (see [`crate::measure`])
//! against the same stack (see [`crate::stack`]); they differ in what a
//! **cycle** is — a fixed list of operations per tenant — which is what
//! sends the time into different layers. A [`Program`] is one tenant's
//! share of a workload, made from the seed before any timing, every
//! query carrying the oracle's answer for the state it will run against.

use crate::inputs::{distinct_queries, order_row, rng, zipf_cycle, ChainQuery, Tables};
use eqjoin_db::{Row, Value};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 1 client, token cache off: every query is fresh tokens and a
    /// full `SJ.Dec` pass — the paper's Figure 3/4 path; `pairing` does
    /// nearly all the work.
    ColdChain,
    /// 1 client, both caches on, 8 distinct queries warmed in set-up:
    /// the "series of queries" steady state — session, protocol,
    /// backend, net and the store's cache lookup do the work, Miller
    /// loops none.
    WarmSeries,
    /// 2 tenants, caches on, 24 distinct queries each on a Zipf
    /// schedule (96 query sides against the 64-side decrypt cache),
    /// an insert or delete every 25th operation: cache policy,
    /// row-granular invalidation, writes beside reads, two tenants
    /// through admission and the worker pool.
    SkewedMix,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "cold_chain" => Kind::ColdChain,
            "warm_series" => Kind::WarmSeries,
            "skewed_mix" => Kind::SkewedMix,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdChain => "cold_chain",
            Kind::WarmSeries => "warm_series",
            Kind::SkewedMix => "skewed_mix",
        }
    }

    pub fn tenants(self) -> usize {
        if self == Kind::SkewedMix {
            2
        } else {
            1
        }
    }

    /// Unmeasured cycles it takes to bring the 64-side decrypt cache
    /// into the state every measured cycle starts from: `cold_chain`
    /// fills it with two cycles' 2 × 8 × 4 sides (every cycle after
    /// that evicts what it inserts); the others get there in one.
    pub fn warm_up_cycles(self) -> usize {
        if self == Kind::ColdChain {
            2
        } else {
            1
        }
    }
}

// Sizes, tuned once on the 2-core reference box and frozen. All tables
// are `inputs::SCALE`; what varies is the cycle.
const ORDERS_ONLY: &[(&str, &str, &str)] = &[("Orders", "selectivity", "1/25")];
/// `skewed_mix` filters every table so that a cache miss costs ~12
/// `SJ.Dec` rather than ~42: a cycle then holds enough operations for
/// its p90 to sit in the miss mode with samples to spare.
const ALL_TABLES: &[(&str, &str, &str)] = &[
    ("Customers", "selectivity", "1/12.5"),
    ("Orders", "selectivity", "1/50"),
    ("Profiles", "region", "emea"),
];
const COLD_DISTINCT: usize = 8;
const WARM_DISTINCT: usize = 8;
const WARM_ROUNDS: usize = 12;
const SKEW_DISTINCT: usize = 24;
const SKEW_SLOTS: usize = 96;
/// With [`SKEW_DISTINCT`], puts the row-level decrypt-cache hit rate of
/// `skewed_mix` near 0.78 and six queries in ten in the all-hit mode,
/// so that the median latency sits ten points inside that mode and the
/// 90th percentile inside the miss mode.
const SKEW_EXPONENT: f64 = 1.4;
/// Every 25th operation of `skewed_mix` is a mutation.
const SKEW_QUERIES_PER_MUTATION: usize = 24;
const SKEW_ROWS_PER_INSERT: usize = 2;
/// Order keys of inserted rows start here, above any TPC-H key.
const FIRST_INSERTED_KEY: i64 = 9_000_000;

pub enum Op {
    Query {
        q: usize,
        expected: Vec<Row>,
    },
    Insert {
        rows: Vec<Vec<Value>>,
    },
    /// Delete the rows of the oldest insert still live.
    Delete,
}

#[derive(Clone, Copy)]
pub enum Phase {
    /// The repeated cycle of the three query workloads.
    Cycle,
    /// One query against the state a cycle starts and ends in: the
    /// "first correct answer" after a restart.
    Check,
}

/// One tenant's inputs, all made from the seed before any timing.
pub struct Program {
    pub tenant: String,
    pub seed: u64,
    pub token_cache: bool,
    pub tables: Tables,
    pub queries: Vec<ChainQuery>,
    /// Queries run once at the end of set-up (`warm_series`).
    pub warm: Vec<Op>,
    cycle: Vec<Op>,
    check: Vec<Op>,
}

impl Program {
    pub fn phase(&self, phase: Phase) -> &[Op] {
        match phase {
            Phase::Cycle => &self.cycle,
            Phase::Check => &self.check,
        }
    }
}

/// Applies mutations to a plaintext mirror so that every query op can
/// carry the oracle's answer for the state it will run against.
struct Scripter<'a> {
    mirror: Tables,
    queries: &'a [ChainQuery],
    next_key: i64,
    live: VecDeque<Vec<i64>>,
}

impl Scripter<'_> {
    fn query(&self, q: usize) -> Op {
        Op::Query {
            q,
            expected: self.queries[q].expected(&self.mirror),
        }
    }

    fn all_queries(&self) -> Vec<Op> {
        (0..self.queries.len()).map(|q| self.query(q)).collect()
    }

    fn insert(&mut self, count: usize, custkey: i64, label: &str) -> Op {
        let mut rows = Vec::new();
        let mut keys = Vec::new();
        for _ in 0..count {
            let row = order_row(self.next_key, custkey, label);
            self.mirror.orders.push_row(row.clone());
            rows.push(row);
            keys.push(self.next_key);
            self.next_key += 1;
        }
        self.live.push_back(keys);
        Op::Insert { rows }
    }

    fn delete(&mut self) -> Op {
        let keys = self.live.pop_front().expect("a delete follows its insert");
        self.mirror
            .orders
            .rows
            .retain(|r| !matches!(r.get(0), Value::Int(k) if keys.contains(k)));
        Op::Delete
    }
}

pub fn program(kind: Kind, seed: u64, tenant: usize) -> Program {
    let tenant_seed = seed.wrapping_mul(1_000).wrapping_add(tenant as u64);
    let tables = Tables::generate(tenant_seed);
    let (filters, distinct) = match kind {
        Kind::ColdChain => (ORDERS_ONLY, COLD_DISTINCT),
        Kind::WarmSeries => (ORDERS_ONLY, WARM_DISTINCT),
        Kind::SkewedMix => (ALL_TABLES, SKEW_DISTINCT),
    };
    let queries = distinct_queries(filters, tenant_seed, distinct);
    let mut s = Scripter {
        mirror: tables.clone(),
        queries: &queries,
        next_key: FIRST_INSERTED_KEY,
        live: VecDeque::new(),
    };
    let check = vec![s.query(0)];
    let (mut warm, mut cycle) = (Vec::new(), Vec::new());
    match kind {
        Kind::ColdChain => cycle = s.all_queries(),
        Kind::WarmSeries => {
            warm = s.all_queries();
            for _ in 0..WARM_ROUNDS {
                cycle.extend(s.all_queries());
            }
        }
        Kind::SkewedMix => {
            // Inserted rows join customer 1 (the one row the customer
            // filter keeps, whose profile is in `emea`) and carry the
            // queried label, so they are in every result while live.
            let schedule = zipf_cycle(
                distinct,
                SKEW_SLOTS,
                SKEW_EXPONENT,
                &mut rng(tenant_seed, 1),
            );
            for (i, chunk) in schedule.chunks(SKEW_QUERIES_PER_MUTATION).enumerate() {
                cycle.extend(chunk.iter().map(|&q| s.query(q)));
                cycle.push(if i % 2 == 0 {
                    s.insert(SKEW_ROWS_PER_INSERT, 1, "1/50")
                } else {
                    s.delete()
                });
            }
        }
    }
    Program {
        tenant: format!("t{tenant}"),
        seed: tenant_seed,
        token_cache: kind != Kind::ColdChain,
        tables,
        queries,
        warm,
        cycle,
        check,
    }
}
