//! Everything a workload feeds the program, made from `--seed` and
//! nothing else: the TPC-H tables, the pad values that make queries
//! distinct, the skewed schedule, the rows mutations insert — and the
//! plaintext oracle each result is checked against.

use eqjoin_baselines::ground_truth::reference_join;
use eqjoin_crypto::{ChaChaRng, RandomSource};
use eqjoin_db::{JoinQuery, QueryPlan, Row, Schema, Table, TableConfig, Value};
use eqjoin_tpch::{generate_customers, generate_orders, TpchConfig};

/// TPC-H scale of every workload: 15 `Customers`, 150 `Orders`, 15
/// `Profiles`. Frozen so that one run (three set-ups, the timed
/// section, the restarts) fits the driver's time budget on BLS12-381,
/// where a row costs ~7 ms to ingest and ~4 ms to `SJ.Dec`.
pub const SCALE: f64 = 0.0001;

const REGIONS: [&str; 3] = ["emea", "apac", "amer"];

/// One tenant's plaintext tables (also the oracle's mirror of what the
/// server stores: mutations are applied to `orders` here too).
#[derive(Clone)]
pub struct Tables {
    pub customers: Table,
    pub orders: Table,
    pub profiles: Table,
}

impl Tables {
    pub fn generate(seed: u64) -> Self {
        let cfg = TpchConfig::new(SCALE, seed);
        let customers = generate_customers(&cfg);
        // One `Profiles` row per customer: the chain's third table.
        let mut profiles = Table::new(Schema::new("Profiles", &["custkey", "region"]));
        for i in 0..customers.len() {
            profiles.push_row(vec![
                Value::Int(i as i64 + 1),
                REGIONS[i % REGIONS.len()].into(),
            ]);
        }
        Tables {
            orders: generate_orders(&cfg),
            customers,
            profiles,
        }
    }

    pub fn rows(&self) -> usize {
        self.customers.len() + self.orders.len() + self.profiles.len()
    }
}

pub fn table_config(table: &str) -> TableConfig {
    let filters: &[&str] = match table {
        "Customers" => &["mktsegment", "selectivity"],
        "Orders" => &["orderpriority", "selectivity"],
        _ => &["region"],
    };
    TableConfig {
        join_column: "custkey".into(),
        filter_columns: filters.iter().map(|c| (*c).to_owned()).collect(),
    }
}

/// A `Customers ⋈ Orders ⋈ Profiles` chain with a three-column
/// projection, as the plan the session executes and as the two
/// pairwise joins the oracle composes.
pub struct ChainQuery {
    pub plan: QueryPlan,
    customers_orders: JoinQuery,
    orders_profiles: JoinQuery,
}

/// `column IN (hit, two pads)`: the pads match no row, so every query
/// built from one `hit` decrypts the same rows while being a distinct
/// query (distinct tokens, distinct cache entries) to the program.
fn in_list(hit: &str, pad: &str) -> Vec<Value> {
    vec![
        hit.into(),
        format!("{pad}-a").into(),
        format!("{pad}-b").into(),
    ]
}

impl ChainQuery {
    /// `filters` are `(table, column, matching value)`; `pad` makes the
    /// query distinct.
    pub fn new(filters: &[(&str, &str, &str)], pad: &str) -> Self {
        let mut plan = QueryPlan::scan("Customers")
            .join_on("Customers", "custkey", "Orders", "custkey")
            .join_on("Orders", "custkey", "Profiles", "custkey");
        let mut customers_orders = JoinQuery::on("Customers", "custkey", "Orders", "custkey");
        let mut orders_profiles = JoinQuery::on("Orders", "custkey", "Profiles", "custkey");
        for &(table, column, hit) in filters {
            let values = in_list(hit, pad);
            plan = plan.filter(table, column, values.clone());
            if table != "Profiles" {
                customers_orders = customers_orders.filter(table, column, values.clone());
            }
            if table != "Customers" {
                orders_profiles = orders_profiles.filter(table, column, values);
            }
        }
        ChainQuery {
            plan: plan.project(&[
                ("Customers", "name"),
                ("Orders", "orderpriority"),
                ("Profiles", "region"),
            ]),
            customers_orders,
            orders_profiles,
        }
    }

    /// The oracle: `reference_join` on the plaintext tables, composed
    /// over the chain on the shared `Orders` row, projected and sorted
    /// (results are compared as multisets).
    pub fn expected(&self, t: &Tables) -> Vec<Row> {
        let first = reference_join(&t.customers, &t.orders, &self.customers_orders);
        let second = reference_join(&t.orders, &t.profiles, &self.orders_profiles);
        let col = |table: &Table, name: &str| {
            table
                .schema
                .column_index(name)
                .expect("projected column exists")
        };
        let (name, priority, region) = (
            col(&t.customers, "name"),
            col(&t.orders, "orderpriority"),
            col(&t.profiles, "region"),
        );
        let mut rows = Vec::new();
        for &(c, o) in &first {
            for &(o2, p) in &second {
                if o == o2 {
                    rows.push(Row(vec![
                        t.customers.rows[c].get(name).clone(),
                        t.orders.rows[o].get(priority).clone(),
                        t.profiles.rows[p].get(region).clone(),
                    ]));
                }
            }
        }
        sorted(rows)
    }
}

pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// `n` distinct chain queries over the same rows.
pub fn distinct_queries(filters: &[(&str, &str, &str)], seed: u64, n: usize) -> Vec<ChainQuery> {
    (0..n)
        .map(|q| ChainQuery::new(filters, &format!("pad-{seed}-{q}")))
        .collect()
}

/// The seeded stream behind the schedule and the inserted rows.
pub fn rng(seed: u64, stream: u64) -> ChaChaRng {
    ChaChaRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// An `Orders` row a mutation inserts: a fresh order key, an existing
/// customer and the given selectivity label, so the row shows up in
/// the results of the queries that filter on that label.
pub fn order_row(orderkey: i64, custkey: i64, label: &str) -> Vec<Value> {
    vec![
        Value::Int(orderkey),
        Value::Int(custkey),
        "O".into(),
        Value::Decimal(100_000 + orderkey % 1_000),
        Value::Date(9_000),
        "1-URGENT".into(),
        format!("Clerk#{:09}", orderkey % 1_000).into(),
        Value::Int(0),
        "inserted beside the reads".into(),
        label.into(),
    ]
}

/// A cyclic schedule over `distinct` queries with Zipf(`exponent`)
/// frequencies in `slots` slots. Each query's occurrences are spread
/// evenly around the cycle from a seeded phase, and ranks are dealt to
/// queries by a seeded shuffle. Reuse distances — and so the decrypt
/// cache's hits and misses per cycle — then hardly depend on the seed,
/// where independent Zipf draws move the miss count by ±30 % at this
/// length; the seed still decides which query is hot and when.
pub fn zipf_cycle(distinct: usize, slots: usize, exponent: f64, rng: &mut ChaChaRng) -> Vec<usize> {
    assert!(distinct <= slots, "every query needs a slot");
    let weights: Vec<f64> = (0..distinct)
        .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let ideal: Vec<f64> = weights.iter().map(|w| slots as f64 * w / total).collect();
    let mut freq: Vec<usize> = ideal.iter().map(|f| (f.round() as usize).max(1)).collect();
    // Land exactly on `slots`, taking from (giving to) the rank that is
    // furthest above (below) its ideal share.
    while freq.iter().sum::<usize>() != slots {
        let over = freq.iter().sum::<usize>() > slots;
        let gap = |k: usize| freq[k] as f64 - ideal[k];
        let pick = (0..distinct)
            .filter(|&k| !over || freq[k] > 1)
            .max_by(|&a, &b| {
                let (ga, gb) = if over {
                    (gap(a), gap(b))
                } else {
                    (-gap(a), -gap(b))
                };
                ga.total_cmp(&gb)
            })
            .expect("some rank can absorb the rounding");
        if over {
            freq[pick] -= 1;
        } else {
            freq[pick] += 1;
        }
    }

    let mut deal: Vec<usize> = (0..distinct).collect();
    for i in (1..distinct).rev() {
        deal.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    let mut cycle: Vec<Option<usize>> = vec![None; slots];
    for (rank, &count) in freq.iter().enumerate() {
        let step = slots as f64 / count as f64;
        let phase = rng.next_bounded(1 << 20) as f64 / (1u64 << 20) as f64 * step;
        for j in 0..count {
            let mut pos = (phase + j as f64 * step) as usize % slots;
            while cycle[pos].is_some() {
                pos = (pos + 1) % slots;
            }
            cycle[pos] = Some(deal[rank]);
        }
    }
    cycle
        .into_iter()
        .map(|q| q.expect("frequencies sum to the slot count"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Tables::generate(1);
        assert_eq!(a.orders, Tables::generate(1).orders);
        assert_ne!(a.orders, Tables::generate(2).orders);
        assert_eq!(a.rows(), 180);
        let cycle = |seed| zipf_cycle(32, 96, 1.2, &mut rng(seed, 0));
        assert_eq!(cycle(1), cycle(1));
        assert_ne!(cycle(1), cycle(2));
    }

    #[test]
    fn schedule_uses_every_query_and_keeps_the_skew() {
        let cycle = zipf_cycle(32, 96, 1.2, &mut rng(3, 0));
        assert_eq!(cycle.len(), 96);
        let mut counts = vec![0usize; 32];
        for q in cycle {
            counts[q] += 1;
        }
        assert!(counts.iter().all(|&c| c >= 1));
        counts.sort_unstable();
        assert!(counts[31] >= 15 && counts[0] == 1, "{counts:?}");
    }

    #[test]
    fn oracle_sees_inserted_rows() {
        let mut t = Tables::generate(5);
        let q = ChainQuery::new(&[("Orders", "selectivity", "1/25")], "pad");
        let before = q.expected(&t);
        assert_eq!(before.len(), 6, "6 of 150 orders carry 1/25");
        t.orders.push_row(order_row(9_000_001, 1, "1/25"));
        assert_eq!(q.expected(&t).len(), 7);
    }
}
