//! The incremental ledger against the from-scratch definition: after
//! every record, everything it reports must equal what
//! [`closure`](eqjoin_leakage::closure) recomputes over the union so far,
//! with tables re-registered between records.

use eqjoin_leakage::{closure, pairs_from_classes, LeakageLedger, Node, PairSet, QueryLeakage};
use proptest::prelude::*;

const TABLES: [&str; 4] = ["Customers", "Orders", "Profiles", "Lineitem"];

/// A row as generated: (table index, row).
type Row = (usize, usize);

/// The ledger as specified before it was incremental: every record
/// keeps its cumulative visible set and the bound is recomputed. It
/// also keeps each table's registration, and whether a record has
/// named that registration yet (only then does re-registering a table
/// give its next rows a new number).
#[derive(Default)]
struct Oracle {
    union: PairSet,
    visible: PairSet,
    growth: Vec<(u64, usize, usize)>,
    registration: [usize; 4],
    named: [bool; 4],
}

impl Oracle {
    fn node(&self, tables: usize, (t, row): Row) -> Node {
        let t = t % tables;
        Node::registered(TABLES[t], row, self.registration[t])
    }

    fn register(&mut self, t: usize) {
        if self.named[t] {
            self.registration[t] += 1;
            self.named[t] = false;
        }
    }
}

fn check(ledger: &LeakageLedger, oracle: &Oracle) {
    let bound = closure(&oracle.union);
    assert_eq!(ledger.closure_bound_len(), bound.len());
    assert_eq!(ledger.closure_bound(), bound);
    assert_eq!(ledger.union_of_queries(), oracle.union);
    assert_eq!(ledger.visible_now(), oracle.visible);
    assert_eq!(ledger.visible_len(), oracle.visible.len());
    let excess = oracle.visible.difference(&bound);
    assert_eq!(
        ledger.is_within_closure_bound(),
        oracle.visible.is_subset(&bound)
    );
    assert_eq!(ledger.super_additive_excess(), excess);
    assert_eq!(ledger.super_additive_excess_len(), excess.len());
    assert_eq!(ledger.growth_series(), oracle.growth);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn incremental_ledger_matches_the_from_scratch_closure(
        tables in 2usize..=4,
        // Per query: a table re-registered before it (when below
        // `tables`), its equality classes over a small row space (so
        // pairs repeat, classes overlap and components merge late),
        // whether it is recorded closed, and for an explicit record the
        // pairs the scheme's state exposes beyond what was queried.
        steps in proptest::collection::vec(
            (
                0usize..10,
                proptest::collection::vec(
                    proptest::collection::vec((0usize..4, 0usize..6), 1..5),
                    0..4,
                ),
                any::<bool>(),
                proptest::collection::vec(((0usize..4, 0usize..6), (0usize..4, 0usize..6)), 0..3),
            ),
            1..12,
        )
    ) {
        let mut ledger = LeakageLedger::new();
        let mut oracle = Oracle::default();
        check(&ledger, &oracle);
        for (i, (renew, classes, closed, extra)) in steps.into_iter().enumerate() {
            if renew < tables {
                ledger.register(TABLES[renew]);
                oracle.register(renew);
            }
            let nodes: Vec<Vec<Node>> = classes
                .iter()
                .map(|class| class.iter().map(|&n| oracle.node(tables, n)).collect())
                .collect();
            let per_query = pairs_from_classes(&nodes);
            let before = closure(&oracle.union).len();
            oracle.union.union_with(&per_query);
            let bound = closure(&oracle.union);
            let id = 10 + i as u64;
            if closed {
                let members: Vec<Vec<(u8, usize)>> = classes
                    .iter()
                    .map(|class| class.iter().map(|&(t, row)| ((t % tables) as u8, row)).collect())
                    .collect();
                let added = ledger.record_closed(id, &TABLES[..tables], &members);
                prop_assert_eq!(added, bound.len() - before);
                oracle.named[..tables].fill(true);
                oracle.visible = bound.clone();
            } else {
                // A stateful scheme: what it showed stays shown, plus
                // this query's pairs, plus whatever it leaks on top.
                let mut visible = oracle.visible.clone();
                visible.union_with(&per_query);
                for (a, b) in extra {
                    visible.insert(oracle.node(tables, a), oracle.node(tables, b));
                }
                ledger.record(QueryLeakage {
                    query_id: id,
                    per_query: per_query.clone(),
                    cumulative_visible: visible.clone(),
                });
                for node in per_query.nodes() {
                    let t = TABLES.iter().position(|&name| name == node.table).unwrap();
                    oracle.named[t] = true;
                }
                oracle.visible = visible;
            }
            oracle.growth.push((id, oracle.visible.len(), bound.len()));
            prop_assert_eq!(ledger.per_query(i), per_query);
            check(&ledger, &oracle);
        }
    }
}

#[test]
fn a_long_chain_is_counted_without_building_its_closure() {
    // 5 000 observations (t,i)–(t,i+1): one component of 5 001 rows,
    // whose closure holds C(5 001, 2) ≈ 12.5 M pairs — counted, never
    // built.
    let mut ledger = LeakageLedger::new();
    let mut added = 0;
    for i in 0..5_000usize {
        added += ledger.record_closed(i as u64, &["t"], &[vec![(0, i), (0, i + 1)]]);
    }
    let expected = 5_001 * 5_000 / 2;
    assert_eq!(ledger.closure_bound_len(), expected);
    assert_eq!(ledger.visible_len(), expected);
    assert_eq!(added, expected, "the per-record deltas sum to the bound");
    assert!(ledger.is_within_closure_bound());
    assert_eq!(ledger.super_additive_excess_len(), 0);
    assert_eq!(ledger.growth_series()[4_999], (4_999, expected, expected));
}
