//! TPC-H workload integration through the [`Session`](eqjoin::Session)
//! API: encrypted `Orders ⋈ Customers` on `custkey` with selectivity
//! filters, validated against the plaintext reference join (mock engine
//! at a small scale factor; one BLS12-381 smoke run at a tiny scale).

use eqjoin::baselines::ground_truth;
use eqjoin::db::join::{class_pairs, hash_join, nested_loop_join};
use eqjoin::db::{
    DbClient, DbServer, JoinOptions, JoinQuery, QueryPlan, ResultSet, ServerStats, Session,
    SessionConfig, Table, TableConfig,
};
use eqjoin::pairing::{Bls12, Engine, MockEngine};
use eqjoin::tpch::{generate_customers, generate_orders, TpchConfig};
use std::collections::BTreeMap;

/// The matched `(left row, right row)` pairs of a two-table result.
fn pairs(result: &ResultSet) -> Vec<(usize, usize)> {
    result.tuples.iter().map(|t| (t[0], t[1])).collect()
}

fn tpch_session<E: Engine>(config: SessionConfig, customers: &Table, orders: &Table) -> Session<E> {
    let mut session = Session::<E>::local(config);
    session
        .create_table(
            customers,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["mktsegment".into(), "selectivity".into()],
            },
        )
        .unwrap();
    session
        .create_table(
            orders,
            TableConfig {
                join_column: "custkey".into(),
                filter_columns: vec!["orderpriority".into(), "selectivity".into()],
            },
        )
        .unwrap();
    session
}

#[test]
fn selectivity_filtered_join_matches_reference_mock() {
    let cfg = TpchConfig::new(0.002, 4242); // 300 customers, 3000 orders
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    let mut session = tpch_session::<MockEngine>(
        SessionConfig::new(2, 4).seed(99).prefilter(true),
        &customers,
        &orders,
    );

    let query = JoinQuery::on("Customers", "custkey", "Orders", "custkey")
        .filter("Customers", "selectivity", vec!["1/25".into()])
        .filter("Orders", "selectivity", vec!["1/25".into()]);
    let result = session.execute(&QueryPlan::from(&query)).unwrap();

    let mut got = pairs(&result);
    got.sort_unstable();
    let expected = ground_truth::reference_join(&customers, &orders, &query);
    assert_eq!(got, expected);
    assert!(!got.is_empty(), "selectivity blocks must intersect");

    // Pre-filter accounting: only the 1/25 blocks get decrypted.
    let sel_customers = ground_truth::selected_rows(&customers, &query).len();
    let sel_orders = ground_truth::selected_rows(&orders, &query).len();
    assert_eq!(result.stats.rows_decrypted, sel_customers + sel_orders);
}

#[test]
fn in_clause_query_matches_reference_mock() {
    let cfg = TpchConfig::new(0.001, 7);
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    let mut session =
        tpch_session::<MockEngine>(SessionConfig::new(2, 4).seed(13), &customers, &orders);

    // IN over market segments and order priorities.
    let query = JoinQuery::on("Customers", "custkey", "Orders", "custkey")
        .filter(
            "Customers",
            "mktsegment",
            vec!["BUILDING".into(), "MACHINERY".into()],
        )
        .filter(
            "Orders",
            "orderpriority",
            vec!["1-URGENT".into(), "2-HIGH".into(), "5-LOW".into()],
        );
    let result = session.execute(&QueryPlan::from(&query)).unwrap();
    let mut got = pairs(&result);
    got.sort_unstable();
    assert_eq!(
        got,
        ground_truth::reference_join(&customers, &orders, &query)
    );
}

#[test]
fn hash_and_nested_loop_agree_on_tpch_mock() {
    let cfg = TpchConfig::new(0.001, 21);
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    let query = JoinQuery::on("Customers", "custkey", "Orders", "custkey").filter(
        "Customers",
        "selectivity",
        vec!["1/12.5".into()],
    );

    // Both algorithms over the server's real `SJ.Dec` outputs: the `D`
    // values the store hands its (hash-only) match phase.
    let mut client = DbClient::<MockEngine>::new(2, 4, 31);
    let mut server = DbServer::<MockEngine>::new();
    for (table, filters) in [
        (&customers, ["mktsegment", "selectivity"]),
        (&orders, ["orderpriority", "selectivity"]),
    ] {
        let config = TableConfig {
            join_column: "custkey".into(),
            filter_columns: filters.iter().map(|c| (*c).to_string()).collect(),
        };
        let enc = client.encrypt_table(table, config).unwrap();
        server.insert_table(enc).unwrap();
    }
    let tokens = client.query_tokens(&query).unwrap();
    let mut stats = ServerStats::default();
    let mut decrypt = |side| {
        server
            .store()
            .decrypt_side(side, &JoinOptions::default(), 1, &mut stats)
            .unwrap()
    };
    let (left, right) = (decrypt(&tokens.left), decrypt(&tokens.right));

    let hash = hash_join(&left, &right);
    let nested = nested_loop_join(&left, &right);
    let hash_pairs = class_pairs(&hash.equality_classes);
    assert!(!hash_pairs.is_empty());
    assert_eq!(hash_pairs, nested.pairs);
    assert_eq!(
        sorted_classes(hash.equality_classes),
        reference_classes(&left, &right)
    );
    assert!(nested.comparisons >= hash.comparisons);
    // And the server's answer is the hash join's.
    let (_, served) = server
        .execute_join(&tokens, &JoinOptions::default())
        .unwrap();
    assert_eq!(served.pairs(), hash_pairs);
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

#[test]
fn tiny_scale_bls12_smoke() {
    // 15 customers / 150 orders on the real curve with the prefilter:
    // keeps the test fast while exercising the production engine on
    // realistic data.
    let cfg = TpchConfig::new(0.0001, 5);
    let customers = generate_customers(&cfg);
    let orders = generate_orders(&cfg);
    assert_eq!(customers.len(), 15);
    assert_eq!(orders.len(), 150);

    let mut session = tpch_session::<Bls12>(
        SessionConfig::new(2, 2).seed(1).prefilter(true),
        &customers,
        &orders,
    );
    let query = JoinQuery::on("Customers", "custkey", "Orders", "custkey").filter(
        "Orders",
        "selectivity",
        vec!["1/12.5".into()],
    );
    let result = session.execute(&QueryPlan::from(&query)).unwrap();
    let mut got = pairs(&result);
    got.sort_unstable();
    assert_eq!(
        got,
        ground_truth::reference_join(&customers, &orders, &query)
    );
    assert_eq!(result.rows.len(), got.len());
}
