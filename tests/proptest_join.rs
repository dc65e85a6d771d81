//! Property-based end-to-end testing: for *random* tables and *random*
//! filtered join queries, the encrypted join must return exactly the
//! plaintext reference join — and the server's leakage observation must
//! equal the ground-truth σ(q). Random 2–4-table [`QueryPlan`] chains
//! and stars (random anchors, projections and filters) are additionally
//! checked against a plaintext hash-join oracle, **byte-identically
//! across the local backend and the remote backend over a loopback
//! reactor**.

use eqjoin::baselines::ground_truth;
use eqjoin::db::join::{class_pairs, hash_join, nested_loop_join};
use eqjoin::db::{
    DbClient, DbServer, JoinObservation, JoinOptions, JoinQuery, QueryPlan, Schema, ServerStats,
    Session, SessionConfig, Table, TableConfig, Value,
};
use eqjoin::leakage::{pairs_from_classes, Node};
use eqjoin::pairing::MockEngine;
use eqjoind_net::{NetConfig, NetServer, TenantRegistry};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A compact description of a random test instance.
#[derive(Debug, Clone)]
struct Instance {
    left_rows: Vec<(u8, u8)>, // (join key, attr) domains kept tiny to force collisions
    right_rows: Vec<(u8, u8)>,
    left_filter: Option<Vec<u8>>,
    right_filter: Option<Vec<u8>>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    let row = || (0u8..6, 0u8..4);
    (
        proptest::collection::vec(row(), 0..25),
        proptest::collection::vec(row(), 0..25),
        proptest::option::of(proptest::collection::vec(0u8..4, 1..3)),
        proptest::option::of(proptest::collection::vec(0u8..4, 1..3)),
    )
        .prop_map(
            |(left_rows, right_rows, left_filter, right_filter)| Instance {
                left_rows,
                right_rows,
                left_filter,
                right_filter,
            },
        )
}

fn build_table(name: &str, rows: &[(u8, u8)]) -> Table {
    let mut t = Table::new(Schema::new(name, &["k", "attr"]));
    for &(k, a) in rows {
        t.push_row(vec![Value::Int(k as i64), Value::Int(a as i64)]);
    }
    t
}

fn build_query(inst: &Instance) -> JoinQuery {
    let mut q = JoinQuery::on("L", "k", "R", "k");
    if let Some(vals) = &inst.left_filter {
        let mut vs: Vec<Value> = vals.iter().map(|&v| Value::Int(v as i64)).collect();
        vs.dedup();
        q = q.filter("L", "attr", vs);
    }
    if let Some(vals) = &inst.right_filter {
        let mut vs: Vec<Value> = vals.iter().map(|&v| Value::Int(v as i64)).collect();
        vs.dedup();
        q = q.filter("R", "attr", vs);
    }
    q
}

/// Equality classes in a canonical order (they come back in hash-map
/// order).
fn sorted_classes(mut classes: Vec<Vec<(u8, usize)>>) -> Vec<Vec<(u8, usize)>> {
    for class in &mut classes {
        class.sort_unstable();
    }
    classes.sort_unstable();
    classes
}

/// The equality classes of the `D` values grouped by their whole bytes
/// in an ordered map — independent of the hash join's bucketing.
fn reference_classes<K: AsRef<[u8]>>(
    left: &[(usize, K)],
    right: &[(usize, K)],
) -> Vec<Vec<(u8, usize)>> {
    let mut groups: BTreeMap<&[u8], Vec<(u8, usize)>> = BTreeMap::new();
    for (side, rows) in [(0u8, left), (1, right)] {
        for (row, d) in rows {
            groups.entry(d.as_ref()).or_default().push((side, *row));
        }
    }
    sorted_classes(groups.into_values().filter(|c| c.len() >= 2).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encrypted_join_equals_reference_join(inst in instance_strategy(), seed in any::<u64>()) {
        let left = build_table("L", &inst.left_rows);
        let right = build_table("R", &inst.right_rows);
        let query = build_query(&inst);

        let mut client = DbClient::<MockEngine>::new(1, 3, seed);
        let mut server = DbServer::new();
        let cfg = || TableConfig { join_column: "k".into(), filter_columns: vec!["attr".into()] };
        server.insert_table(client.encrypt_table(&left, cfg()).unwrap()).unwrap();
        server.insert_table(client.encrypt_table(&right, cfg()).unwrap()).unwrap();

        let tokens = client.query_tokens(&query).unwrap();
        let (result, observation) = server
            .execute_join(&tokens, &JoinOptions::default())
            .unwrap();

        let got = observation.pairs();
        let expected = ground_truth::reference_join(&left, &right, &query);
        prop_assert_eq!(&got, &expected, "join result mismatch");

        // Leakage: the observed equality classes expand to exactly σ(q).
        let tables = [&tokens.left.table, &tokens.right.table];
        let classes: Vec<Vec<Node>> = observation
            .equality_classes
            .iter()
            .map(|c| c.iter().map(|&(side, r)| Node::new(tables[usize::from(side)], r)).collect())
            .collect();
        let observed = pairs_from_classes(&classes);
        let sigma = ground_truth::sigma(&left, &right, &query);
        prop_assert_eq!(observed, sigma, "server view must equal σ(q)");

        // Decrypted payloads really join: each pair's shipped join
        // columns open to one value.
        let mut open_key = |table: &str, rows: &[(usize, Vec<Vec<u8>>)], row: usize| {
            let (_, payloads) = rows.iter().find(|r| r.0 == row).expect("matched rows ship");
            client.open_value(table, row, 0, &payloads[0]).unwrap()
        };
        for (l, r) in observation.pairs() {
            let left_key = open_key("L", &result.left_rows, l);
            prop_assert_eq!(left_key, open_key("R", &result.right_rows, r));
        }
    }

    #[test]
    fn hash_and_nested_loop_always_agree(inst in instance_strategy(), seed in any::<u64>()) {
        let left = build_table("L", &inst.left_rows);
        let right = build_table("R", &inst.right_rows);
        let query = build_query(&inst);

        let mut client = DbClient::<MockEngine>::new(1, 3, seed ^ 0xa5a5);
        let mut server = DbServer::new();
        let cfg = || TableConfig { join_column: "k".into(), filter_columns: vec!["attr".into()] };
        server.insert_table(client.encrypt_table(&left, cfg()).unwrap()).unwrap();
        server.insert_table(client.encrypt_table(&right, cfg()).unwrap()).unwrap();
        let tokens = client.query_tokens(&query).unwrap();

        // Both algorithms over the store's real `SJ.Dec` outputs.
        let mut stats = ServerStats::default();
        let store = server.store();
        let left_d = store.decrypt_side(&tokens.left, &JoinOptions::default(), 1, &mut stats).unwrap();
        let right_d = store.decrypt_side(&tokens.right, &JoinOptions::default(), 1, &mut stats).unwrap();
        let hash = hash_join(&left_d, &right_d);
        let nested = nested_loop_join(&left_d, &right_d);
        prop_assert_eq!(&class_pairs(&hash.equality_classes), &nested.pairs);
        prop_assert_eq!(sorted_classes(hash.equality_classes.clone()), reference_classes(&left_d, &right_d));
        // One probe per row against every pair.
        prop_assert_eq!(hash.comparisons, (left_d.len() + right_d.len()) as u64);
        prop_assert_eq!(nested.comparisons, (left_d.len() * right_d.len()) as u64);
    }

    // The identity the join answer relies on: the server ships the
    // equality classes and no pair list, and the client reads the pairs
    // off the classes. For sides with repeated keys, sides with none
    // and empty sides, that reading is exactly the nested loop's pairs.
    #[test]
    fn pairs_derived_from_the_classes_are_the_hash_joins_pairs(
        left in proptest::collection::vec(0u8..5, 0..20),
        right in proptest::collection::vec(0u8..5, 0..20),
        wide in any::<bool>(),
    ) {
        // Keys one byte wide, or 40 bytes that agree outside the
        // bucket window, so both hashing cases are covered.
        let side = |keys: &[u8]| -> Vec<(usize, Vec<u8>)> {
            keys.iter()
                .enumerate()
                .map(|(row, &k)| (row, if wide { [vec![k; 8], vec![0; 32]].concat() } else { vec![k] }))
                .collect()
        };
        let (left, right) = (side(&left), side(&right));
        let outcome = hash_join(&left, &right);
        let observation = JoinObservation { equality_classes: outcome.equality_classes };
        prop_assert_eq!(observation.pairs(), nested_loop_join(&left, &right).pairs);
    }
}

// ---------------------------------------------------------------------
// Multi-table QueryPlan chains vs a plaintext hash-join oracle
// ---------------------------------------------------------------------

/// A random 2–4-table chain instance: per-table rows `(k, attr)`, the
/// anchor each table `i ≥ 1` joins to (a table `a < i`, so chains and
/// stars alike), an optional `attr IN (…)` filter per table, and an
/// optional projection given as one column bitmask per table (bit 0 =
/// `k`, bit 1 = `attr`).
#[derive(Debug, Clone)]
struct ChainInstance {
    tables: Vec<Vec<(u8, u8)>>,
    /// `anchors[i]` for `i ≥ 1`; `anchors[0]` is unused.
    anchors: Vec<usize>,
    filters: Vec<Option<Vec<u8>>>,
    projection: Option<Vec<u8>>,
}

fn chain_strategy() -> impl Strategy<Value = ChainInstance> {
    let row = || (0u8..5, 0u8..4);
    (
        2usize..=4,
        proptest::collection::vec(proptest::collection::vec(row(), 0..10), 4usize),
        proptest::collection::vec(0usize..6, 4usize),
        proptest::collection::vec(
            proptest::option::of(proptest::collection::vec(0u8..4, 1..=3usize)),
            4usize,
        ),
        proptest::option::of(proptest::collection::vec(0u8..4, 4usize)),
    )
        .prop_map(|(n, mut tables, anchors, mut filters, projection)| {
            tables.truncate(n);
            let anchors = (0..n).map(|i| anchors[i] % i.max(1)).collect();
            filters.truncate(n);
            let projection = projection
                .map(|mut masks| {
                    masks.truncate(n);
                    masks
                })
                // An all-empty projection degenerates to SELECT *.
                .filter(|masks| masks.iter().any(|&m| m & 0b11 != 0));
            ChainInstance {
                tables,
                anchors,
                filters,
                projection,
            }
        })
}

fn table_name(i: usize) -> String {
    format!("T{i}")
}

/// The instance as a logical plan: stage `i` joins table `i` to its
/// anchor through `k`.
fn chain_plan(inst: &ChainInstance) -> QueryPlan {
    let mut plan = QueryPlan::scan(&table_name(0));
    for i in 1..inst.tables.len() {
        plan = plan.join_on(&table_name(inst.anchors[i]), "k", &table_name(i), "k");
    }
    for (i, filter) in inst.filters.iter().enumerate() {
        if let Some(values) = filter {
            let mut vs: Vec<Value> = values.iter().map(|&v| Value::Int(v as i64)).collect();
            vs.sort();
            vs.dedup();
            plan = plan.filter(&table_name(i), "attr", vs);
        }
    }
    if let Some(masks) = &inst.projection {
        let names: Vec<String> = (0..inst.tables.len()).map(table_name).collect();
        let mut cols: Vec<(&str, &str)> = Vec::new();
        for (i, &mask) in masks.iter().enumerate() {
            if mask & 1 != 0 {
                cols.push((&names[i], "k"));
            }
            if mask & 2 != 0 {
                cols.push((&names[i], "attr"));
            }
        }
        plan = plan.project(&cols);
        return plan;
    }
    plan
}

/// Plaintext oracle: filter each table, hash-join each table to its
/// anchor through `k`, project — returns `(tuples, projected rows)` exactly as the
/// encrypted engine should produce them.
fn oracle(inst: &ChainInstance) -> (Vec<Vec<usize>>, Vec<Vec<Value>>) {
    let passes = |t: usize, row: (u8, u8)| -> bool {
        match &inst.filters[t] {
            None => true,
            Some(values) => values.contains(&row.1),
        }
    };
    let mut tuples: Vec<Vec<usize>> = inst.tables[0]
        .iter()
        .enumerate()
        .filter(|&(_, &row)| passes(0, row))
        .map(|(i, _)| vec![i])
        .collect();
    for t in 1..inst.tables.len() {
        let mut by_k: HashMap<u8, Vec<usize>> = HashMap::new();
        for (i, &row) in inst.tables[t].iter().enumerate() {
            if passes(t, row) {
                by_k.entry(row.0).or_default().push(i);
            }
        }
        let mut next = Vec::new();
        for tuple in &tuples {
            let anchor = inst.anchors[t];
            let anchor_k = inst.tables[anchor][tuple[anchor]].0;
            if let Some(rows) = by_k.get(&anchor_k) {
                for &r in rows {
                    let mut extended = tuple.clone();
                    extended.push(r);
                    next.push(extended);
                }
            }
        }
        tuples = next;
    }
    tuples.sort_unstable();

    let project = |tuple: &[usize]| -> Vec<Value> {
        let mut out = Vec::new();
        match &inst.projection {
            None => {
                for (t, &row_idx) in tuple.iter().enumerate() {
                    let (k, attr) = inst.tables[t][row_idx];
                    out.push(Value::Int(k as i64));
                    out.push(Value::Int(attr as i64));
                }
            }
            Some(masks) => {
                for (t, &mask) in masks.iter().enumerate() {
                    let (k, attr) = inst.tables[t][tuple[t]];
                    if mask & 1 != 0 {
                        out.push(Value::Int(k as i64));
                    }
                    if mask & 2 != 0 {
                        out.push(Value::Int(attr as i64));
                    }
                }
            }
        }
        out
    };
    let rows = tuples.iter().map(|t| project(t)).collect();
    (tuples, rows)
}

fn populate(session: &mut Session<MockEngine>, inst: &ChainInstance) {
    for (i, rows) in inst.tables.iter().enumerate() {
        let mut t = Table::new(Schema::new(&table_name(i), &["k", "attr"]));
        for &(k, a) in rows {
            t.push_row(vec![Value::Int(k as i64), Value::Int(a as i64)]);
        }
        session
            .create_table(
                &t,
                TableConfig {
                    join_column: "k".into(),
                    filter_columns: vec!["attr".into()],
                },
            )
            .unwrap();
    }
}

/// Byte-exact encoding of a plan result (tuples + projected rows).
fn encode_result(result: &eqjoin::db::ResultSet) -> Vec<u8> {
    let mut bytes = Vec::new();
    for tuple in &result.tuples {
        for &i in tuple {
            bytes.extend_from_slice(&(i as u64).to_le_bytes());
        }
    }
    for row in &result.rows {
        bytes.extend_from_slice(&row.encode());
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_chains_match_the_plaintext_oracle_on_every_backend(
        inst in chain_strategy(),
        seed in any::<u64>(),
    ) {
        let plan = chain_plan(&inst);
        let (expected_tuples, expected_rows) = oracle(&inst);

        let config = SessionConfig::new(1, 3).seed(seed);
        let mut local = Session::<MockEngine>::local(config);
        let registry = Arc::new(TenantRegistry::<MockEngine>::new(None, None, None));
        let (addr, _server) = NetServer::spawn(registry, NetConfig::default()).unwrap();
        let mut remote = Session::<MockEngine>::remote(config, addr).unwrap();

        let mut encodings = Vec::new();
        for session in [&mut local, &mut remote] {
            populate(session, &inst);
            let result = session.execute(&plan).unwrap();
            prop_assert_eq!(&result.tuples, &expected_tuples, "tuples vs oracle");
            let got_rows: Vec<Vec<Value>> =
                result.rows.iter().map(|r| r.0.clone()).collect();
            prop_assert_eq!(&got_rows, &expected_rows, "projected rows vs oracle");
            encodings.push(encode_result(&result));
        }
        prop_assert_eq!(&encodings[0], &encodings[1], "local vs remote");
        prop_assert_eq!(local.leakage_report(), remote.leakage_report());
    }
}
